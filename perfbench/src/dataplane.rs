//! The dataplane half: the seeded chain traffic plan run in-process on
//! an `escape::Session`, its exact virtual outputs, and the traced-run
//! replays that time the OpenFlow lookup and Click push paths from the
//! outside.

use crate::ctl::Failures;
use crate::gen::{DpStep, Flow, DPORT};
use escape::session::InputFormat;
use escape::Session;
use escape_catalog::Catalog;
use escape_openflow::{FlowTable, Switch};
use escape_packet::{FlowKey, Packet, PacketBuilder};
use escape_telemetry::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The dataplane's virtual results. They are exact per seed: any two
/// runs of one seed, traced or not, must produce identical values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outputs {
    pub sap_udp_rx: Vec<u64>,
    pub frames_delivered: u64,
    pub drops: Vec<(String, u64)>,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl Outputs {
    pub fn sap_frames(&self) -> u64 {
        self.sap_udp_rx.iter().sum()
    }

    /// One-line rendering, printed so runs of a seed can be diffed.
    pub fn digest(&self) -> String {
        let drops: Vec<String> = self.drops.iter().map(|(r, n)| format!("{r}={n}")).collect();
        format!(
            "sap_udp_rx={} frames_delivered={} drops{{{}}} cache_hits={} cache_misses={} sap_hash={:016x}",
            self.sap_frames(),
            self.frames_delivered,
            drops.join(","),
            self.cache_hits,
            self.cache_misses,
            fnv(self.sap_udp_rx.iter().flat_map(|v| v.to_le_bytes())),
        )
    }

    /// What changed between two readings.
    pub fn since(&self, before: &Outputs) -> Outputs {
        let drops = self
            .drops
            .iter()
            .map(|(r, n)| {
                let b = before
                    .drops
                    .iter()
                    .find(|(br, _)| br == r)
                    .map_or(0, |x| x.1);
                (r.clone(), n - b)
            })
            .filter(|(_, n)| *n > 0)
            .collect();
        Outputs {
            sap_udp_rx: self
                .sap_udp_rx
                .iter()
                .zip(&before.sap_udp_rx)
                .map(|(a, b)| a - b)
                .collect(),
            frames_delivered: self.frames_delivered - before.frames_delivered,
            drops,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Counter readings the per-layer report needs besides [`Outputs`].
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub events: u64,
    pub invalidations: u64,
    pub flow_mods: u64,
    pub netconf_rpcs: u64,
}

impl Counters {
    pub fn read(m: &Snapshot) -> Counters {
        Counters {
            events: m.counter_total("netem.events"),
            invalidations: m.counter_total("openflow.cache_invalidations"),
            flow_mods: m.counter_total("pox.flow_mods"),
            netconf_rpcs: m.counter_total("netconf.rpcs_sent"),
        }
    }

    pub fn since(&self, b: &Counters) -> Counters {
        Counters {
            events: self.events - b.events,
            invalidations: self.invalidations - b.invalidations,
            flow_mods: self.flow_mods - b.flow_mods,
            netconf_rpcs: self.netconf_rpcs - b.netconf_rpcs,
        }
    }
}

/// Reads the exact outputs of a session (SAPs `sap0..sap{leaves}`).
pub fn outputs(session: &Session, leaves: usize) -> Outputs {
    let esc = session.escape();
    let m = esc.metrics();
    outputs_from(&m, |sap| esc.sap_stats(sap).map_or(0, |s| s.udp_rx), leaves)
}

pub fn outputs_from(m: &Snapshot, udp_rx: impl Fn(&str) -> u64, leaves: usize) -> Outputs {
    let mut drops: BTreeMap<String, u64> = BTreeMap::new();
    for e in m.entries.iter().filter(|e| e.name == "netem.drops") {
        if let MetricValue::Counter(v) = e.value {
            let reason = e
                .labels
                .iter()
                .find(|(k, _)| k == "reason")
                .map_or("-".to_string(), |(_, v)| v.clone());
            *drops.entry(reason).or_default() += v;
        }
    }
    Outputs {
        sap_udp_rx: (0..leaves).map(|i| udp_rx(&format!("sap{i}"))).collect(),
        frames_delivered: m.counter_total("netem.frames_delivered"),
        drops: drops.into_iter().filter(|(_, n)| *n > 0).collect(),
        cache_hits: m.counter_total("openflow.cache_hits"),
        cache_misses: m.counter_total("openflow.cache_misses"),
    }
}

/// Result of one dataplane phase.
pub struct Phase {
    pub wall: Duration,
    pub outputs: Outputs,
    pub counters: Counters,
    /// Wall time per step kind (traced runs only).
    pub steps: BTreeMap<&'static str, (Duration, u64)>,
}

impl Phase {
    /// Frames delivered to SAPs per wall second.
    pub fn fps(&self) -> f64 {
        self.outputs.sap_frames() as f64 / self.wall.as_secs_f64()
    }
}

/// Runs the plan on `session`. Chain deploys that fail or are refused
/// count as failed operations.
pub fn run_phase(
    session: &mut Session,
    plan: &[DpStep],
    leaves: usize,
    traced: bool,
    fails: &mut Failures,
) -> Phase {
    let before = outputs(session, leaves);
    let c0 = Counters::read(&session.escape().metrics());
    let mut steps: BTreeMap<&'static str, (Duration, u64)> = BTreeMap::new();
    let start = Instant::now();
    for step in plan {
        let t = traced.then(Instant::now);
        let kind = match step {
            DpStep::Flow(f) => {
                let r = session.escape_mut().start_udp_with_sport(
                    &f.src,
                    &f.dst,
                    f.len,
                    f.interval_us,
                    f.frames,
                    f.sport,
                );
                fails.record(r.is_ok(), || {
                    format!("start flow {}->{}: {r:?}", f.src, f.dst)
                });
                "flow"
            }
            DpStep::Deploy(sg) => {
                let r = session.deploy_text(sg, InputFormat::Dsl);
                fails.record(r.is_ok(), || format!("side-chain deploy: {:?}", r.err()));
                "deploy"
            }
            DpStep::Scale {
                chain,
                vnf,
                replicas,
            } => {
                let r = session.scale(chain, vnf, *replicas);
                fails.record(r.is_ok(), || format!("scale {chain}: {:?}", r.err()));
                "scale"
            }
            DpStep::Teardown(chain) => {
                let r = session.teardown(chain);
                fails.record(r.is_ok(), || format!("teardown {chain}: {r:?}"));
                "teardown"
            }
            DpStep::Run { ms } => {
                session.run_for_ms(*ms);
                "run"
            }
        };
        if let Some(t) = t {
            let e = steps.entry(kind).or_default();
            e.0 += t.elapsed();
            e.1 += 1;
        }
    }
    let wall = start.elapsed();
    Phase {
        wall,
        outputs: outputs(session, leaves).since(&before),
        counters: Counters::read(&session.escape().metrics()).since(&c0),
        steps,
    }
}

/// Per-lookup cost of the two OpenFlow paths, from replaying the run's
/// flow keys through a copy of every switch's table.
pub struct Lookups {
    pub hit_ns: f64,
    pub miss_ns: f64,
    pub rules_max: usize,
    /// (key, in-port, switch) combinations that matched a rule.
    pub matched: usize,
}

/// Keys are the frames as the source SAPs send them, tried on every
/// in-port; only combinations that match a rule are timed, since only
/// those enter the cache. Misses are timed with the copy's cache off,
/// i.e. the full priority walk.
pub fn lookup_replay(session: &Session, flows: &[&Flow]) -> Lookups {
    const MAX_KEYS: usize = 512;
    const MIN_LOOKUPS: usize = 400_000;
    let esc = session.escape();
    let mut seen = std::collections::BTreeSet::new();
    let mut keys: Vec<FlowKey> = Vec::new();
    let stride = (flows.len() / MAX_KEYS).max(1);
    for f in flows.iter().step_by(stride) {
        if !seen.insert((f.src.clone(), f.dst.clone(), f.sport, f.len)) {
            continue;
        }
        let (Some(&(smac, sip)), Some(&(dmac, dip))) = (
            esc.infra.sap_addr.get(&f.src),
            esc.infra.sap_addr.get(&f.dst),
        ) else {
            continue;
        };
        let frame = PacketBuilder::udp_with_len(smac, dmac, sip, dip, f.sport, DPORT, f.len);
        if let Ok(k) = FlowKey::extract(&frame) {
            keys.push(k);
        }
    }
    let mut names: Vec<&String> = esc.infra.dpid.keys().collect();
    names.sort();
    let mut tables: Vec<(FlowTable, Vec<(FlowKey, u16)>)> = Vec::new();
    let mut rules_max = 0;
    for name in names {
        let Some(sw) = esc
            .infra
            .node(name)
            .and_then(|n| esc.sim.peek_node_as::<Switch>(n))
        else {
            continue;
        };
        rules_max = rules_max.max(sw.table.len());
        let mut t = FlowTable::new();
        for e in sw.table.entries() {
            t.add(e.clone());
        }
        let combos: Vec<(FlowKey, u16)> = keys
            .iter()
            .flat_map(|k| (0..sw.n_ports()).map(move |p| (*k, p)))
            .filter(|(k, p)| t.lookup(k, *p, 64, escape_netem::Time::ZERO).is_some())
            .collect();
        if !combos.is_empty() {
            tables.push((t, combos));
        }
    }
    let matched: usize = tables.iter().map(|(_, c)| c.len()).sum();
    let time_pass = |tables: &mut Vec<(FlowTable, Vec<(FlowKey, u16)>)>| {
        let mut n = 0usize;
        let t0 = Instant::now();
        while n < MIN_LOOKUPS && matched > 0 {
            for (t, combos) in tables.iter_mut() {
                for (k, p) in combos.iter() {
                    black_box(t.lookup(k, *p, 64, escape_netem::Time::ZERO).is_some());
                }
            }
            n += matched;
        }
        t0.elapsed().as_nanos() as f64 / n.max(1) as f64
    };
    // The discovery pass above filled each cache: this pass only hits.
    let hit_ns = time_pass(&mut tables);
    for (t, _) in tables.iter_mut() {
        t.set_cache_enabled(false);
    }
    let miss_ns = time_pass(&mut tables);
    Lookups {
        hit_ns,
        miss_ns,
        rules_max,
        matched,
    }
}

/// Per-push cost of each catalog VNF's Click forward path at each frame
/// size, from `Catalog::build_router` + `Router::push_external`.
pub fn click_replay(
    types: &[&'static str],
    lens: &[usize],
) -> BTreeMap<(&'static str, usize), f64> {
    const MIN_PUSHES: u64 = 4_000;
    const MIN_TIME: Duration = Duration::from_millis(15);
    let catalog = Catalog::standard();
    let registry = escape_click::Registry::standard();
    let mut out = BTreeMap::new();
    for &ty in types {
        for &len in lens {
            let Ok(mut router) = catalog.build_router(ty, &[], &registry, 1) else {
                continue;
            };
            let data = PacketBuilder::udp_with_len(
                escape_packet::MacAddr::from_id(1),
                escape_packet::MacAddr::from_id(2),
                std::net::Ipv4Addr::new(10, 0, 0, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 2),
                40_000,
                DPORT,
                len,
            );
            let mut n = 0u64;
            let t0 = Instant::now();
            while n < MIN_PUSHES || t0.elapsed() < MIN_TIME {
                let pkt = Packet {
                    data: data.clone(),
                    id: n,
                    born_ns: 0,
                };
                black_box(router.push_external(0, pkt, escape_netem::Time::from_ns(n)));
                n += 1;
            }
            out.insert((ty, len), t0.elapsed().as_nanos() as f64 / n as f64);
        }
    }
    out
}
