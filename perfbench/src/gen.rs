//! Seeded workload generation. Every input the program receives — the
//! service-graph DSL texts, the flow list and the ctl op sequence — is
//! derived here from `--seed` alone, so one seed always regenerates the
//! same bytes (see the `inputs_are_reproducible` test).

use escape_ctl::proto::{CtlRequest, MetricsFormat, SgFormat};

/// The seed reserved for confirming a claimed gain: never use it while
/// tuning the benchmark or writing the change.
pub const HELD_OUT_SEED: u64 = 7919;

/// VNF types the chains draw from; dpi adds per-byte Click work.
pub const VNF_TYPES: [&str; 5] = ["firewall", "nat", "monitor", "qos_marker", "dpi"];
/// Frame sizes from the smallest (per-packet cost dominates) to MTU.
pub const FRAME_LENS: [usize; 3] = [64, 512, 1500];
/// Destination UDP port of every generated flow.
pub const DPORT: u16 = 9_000;

/// SplitMix64: tiny, seedable and stable across toolchains, so inputs
/// never change under a dependency upgrade.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Deals every (VNF type, frame size) pair once per shuffled round, so
/// each seed gets the same mix of per-frame work, only in another order
/// and on other SAP pairs.
struct Deck {
    cards: Vec<(&'static str, usize)>,
}

impl Deck {
    fn new() -> Deck {
        Deck { cards: Vec::new() }
    }

    fn deal(&mut self, rng: &mut Rng) -> (&'static str, usize) {
        if self.cards.is_empty() {
            self.cards = VNF_TYPES
                .iter()
                .flat_map(|&t| FRAME_LENS.iter().map(move |&l| (t, l)))
                .collect();
            rng.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("refilled above")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CtlLifecycle,
    ChainSteady,
    ChainChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CtlLifecycle, Kind::ChainSteady, Kind::ChainChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CtlLifecycle => "ctl_lifecycle",
            Kind::ChainSteady => "chain_steady",
            Kind::ChainChurn => "chain_churn",
        }
    }

    /// Why the workload is in the benchmark (mirrored in BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Kind::CtlLifecycle => {
                "ctl verbs over one persistent socket to escaped as it ships (fsynced WAL, sampler \
                 on), 5 standing chains: ctl.*, ctl.wal and escape.session do the work, netem \
                 almost none"
            }
            Kind::ChainSteady => {
                "60 chains, one long-lived flow each: netem dispatch and click dominate, \
                 openflow lookups are cache hits"
            }
            Kind::ChainChurn => {
                "same chains, a new 5-tuple every 1-2 frames plus side-chain flow-mods: \
                 the openflow table-walk miss path dominates"
            }
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One single-VNF chain `src -> vnf -> dst` and the frame size its
/// traffic uses.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    pub name: String,
    pub src: String,
    pub dst: String,
    pub vnf: String,
    pub vnf_type: &'static str,
    pub frame_len: usize,
}

impl ChainSpec {
    pub fn sg_dsl(&self) -> String {
        format!(
            "sap {src} {dst}\nvnf {vnf} type={ty} cpu=0.25\nchain {name} = {src} -> {vnf} -> {dst} bw=5\n",
            src = self.src,
            dst = self.dst,
            vnf = self.vnf,
            ty = self.vnf_type,
            name = self.name,
        )
    }
}

/// One UDP flow as the source SAP sends it.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Type of the VNF the flow's chain crosses.
    pub vnf_type: &'static str,
    pub src: String,
    pub dst: String,
    pub sport: u16,
    pub len: usize,
    pub interval_us: u64,
    pub frames: u64,
}

/// One step of the in-process dataplane phase.
#[derive(Debug, Clone, PartialEq)]
pub enum DpStep {
    Flow(Flow),
    Deploy(String),
    Scale {
        chain: String,
        vnf: String,
        replicas: u32,
    },
    Teardown(String),
    Run {
        ms: u64,
    },
}

/// Everything one run feeds the program.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    /// Leaves of the `builders::star` substrate.
    pub leaves: usize,
    pub container_cpu: f64,
    /// Chains deployed during set-up.
    pub preload: Vec<ChainSpec>,
    /// One in-process dataplane episode (empty for `ctl_lifecycle`).
    pub dataplane: Vec<DpStep>,
    /// Untimed ops sent before `ops` (see [`warmup`]).
    pub warmup: Vec<CtlRequest>,
    /// Ops sent over the persistent connection, in order.
    pub ops: Vec<CtlRequest>,
    /// Flows the ops start (`traffic` verbs use source port 40000).
    pub op_flows: Vec<Flow>,
    /// Fresh-connection `status` calls after the op loop.
    pub connects: usize,
}

/// Run sizes. Work per run is fixed per (seed, seconds), so virtual
/// outputs repeat exactly; the constants make one run last about
/// `--seconds` on a 2-CPU host at the commit that added the benchmark.
const CTL_CYCLES_PER_S: f64 = 12.0;
const CHAIN_CTL_CYCLES_PER_S: f64 = 25.0;
/// Chain names cycle through this many, as an operator redeploys the
/// same named chains; the loop keeps one chain of its own live at a time.
const NAMES: usize = 4;
const STEADY_FRAMES_PER_S: f64 = 45_000.0;
const CHURN_SLICES_PER_S: f64 = 200.0;
/// The chain workloads run their traffic plan this many times, each on a
/// fresh set-up, spread between the blocks of the op loop, so the median
/// episode is taken from the whole run.
pub const EPISODES: usize = 36;
/// A `metrics` scrape (Prometheus text, what a monitoring system pulls)
/// every this many lifecycle cycles; a scrape also ends a timing block.
const CTL_SCRAPE_EVERY: usize = 5;
const CHAIN_SCRAPE_EVERY: usize = 20;
/// A multiple of the 15 (type, size) pairs, within the 2-per-source cap.
const CHAINS: usize = 60;

impl Workload {
    pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Workload {
        let mut rng = Rng::new(seed);
        let mut deck = Deck::new();
        let secs = seconds as f64;
        let leaves = match kind {
            Kind::CtlLifecycle => 8,
            _ => 32,
        };
        let mut pairs: Vec<(usize, usize)> = (0..leaves)
            .flat_map(|a| (0..leaves).filter(move |&b| b != a).map(move |b| (a, b)))
            .collect();
        rng.shuffle(&mut pairs);
        // A container has 8 attachment points per switch adjacency, i.e.
        // room for four 2-port VNFs. Capping the chains whose VNF lands
        // next to one source SAP keeps two VNF slots free everywhere, so
        // every deploy, scale-out and side chain of the run fits.
        let (n_preload, per_source) = match kind {
            Kind::CtlLifecycle => (VNF_TYPES.len(), 1),
            _ => (CHAINS, 2),
        };
        let mut sources = vec![0usize; leaves];
        let mut chosen = Vec::new();
        let mut spare = Vec::new();
        for &(a, b) in &pairs {
            if chosen.len() < n_preload && sources[a] < per_source {
                sources[a] += 1;
                chosen.push((a, b));
            } else {
                spare.push((a, b));
            }
        }
        // ctl_lifecycle's few standing chains fill the flight recorder the
        // sampler walks on every run-for, so every seed gets the same mix
        // of them (one per VNF type) and the sampler the same work; the
        // seed only places them.
        let preload: Vec<ChainSpec> = chosen
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let card = match kind {
                    Kind::CtlLifecycle => (VNF_TYPES[i], FRAME_LENS[i % FRAME_LENS.len()]),
                    _ => deck.deal(&mut rng),
                };
                spec(card, &format!("c{i}"), &format!("v{i}"), a, b)
            })
            .collect();

        let dataplane = match kind {
            Kind::CtlLifecycle => Vec::new(),
            Kind::ChainSteady => steady_plan(&preload, secs),
            Kind::ChainChurn => churn_plan(&mut deck, &mut rng, &preload, &spare, secs),
        };
        let (per_s, scrape_every) = match kind {
            Kind::CtlLifecycle => (CTL_CYCLES_PER_S, CTL_SCRAPE_EVERY),
            _ => (CHAIN_CTL_CYCLES_PER_S, CHAIN_SCRAPE_EVERY),
        };
        let cycles = (per_s * secs).ceil() as usize;
        let (ops, op_flows) = lifecycle(&mut deck, &mut rng, &spare, leaves, cycles, scrape_every);
        let warmup = match kind {
            Kind::CtlLifecycle => warmup(&preload),
            _ => Vec::new(),
        };
        Workload {
            kind,
            seed,
            leaves,
            container_cpu: 16.0,
            preload,
            dataplane,
            warmup,
            ops,
            op_flows,
            connects: 60,
        }
    }

    /// Every generated input, rendered as text: what the reproducibility
    /// test compares byte for byte.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} seed {} star({}) cpu={}\n",
            self.kind.name(),
            self.seed,
            self.leaves,
            self.container_cpu
        );
        for c in &self.preload {
            out.push_str(&c.sg_dsl());
        }
        for s in &self.dataplane {
            out.push_str(&format!("{s:?}\n"));
        }
        for op in self.warmup.iter().chain(&self.ops) {
            out.push_str(&op.encode());
            out.push('\n');
        }
        out
    }

    /// FNV-1a hash of [`Workload::render`], printed with every result.
    pub fn digest(&self) -> u64 {
        self.render().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every flow the workload sends, dataplane phase and ops alike.
    pub fn flows(&self) -> Vec<&Flow> {
        let dp = self.dataplane.iter().filter_map(|s| match s {
            DpStep::Flow(f) => Some(f),
            _ => None,
        });
        dp.chain(self.op_flows.iter()).collect()
    }
}

fn chain(deck: &mut Deck, rng: &mut Rng, name: &str, vnf: &str, a: usize, b: usize) -> ChainSpec {
    spec(deck.deal(rng), name, vnf, a, b)
}

fn spec(
    (vnf_type, frame_len): (&'static str, usize),
    name: &str,
    vnf: &str,
    a: usize,
    b: usize,
) -> ChainSpec {
    ChainSpec {
        name: name.into(),
        src: format!("sap{a}"),
        dst: format!("sap{b}"),
        vnf: vnf.into(),
        vnf_type,
        frame_len,
    }
}

/// One long-lived flow per chain, no flow-mods while traffic runs.
fn steady_plan(chains: &[ChainSpec], secs: f64) -> Vec<DpStep> {
    const INTERVAL_US: u64 = 200;
    const SLICE_MS: u64 = 10;
    let frames = (STEADY_FRAMES_PER_S * secs / (EPISODES * chains.len()) as f64).ceil() as u64;
    let mut plan: Vec<DpStep> = chains
        .iter()
        .enumerate()
        .map(|(i, c)| {
            DpStep::Flow(Flow {
                vnf_type: c.vnf_type,
                src: c.src.clone(),
                dst: c.dst.clone(),
                sport: 40_000 + i as u16,
                len: c.frame_len,
                interval_us: INTERVAL_US,
                frames,
            })
        })
        .collect();
    // Run until every flow has drained, plus the path delay.
    let virtual_ms = (frames * INTERVAL_US).div_ceil(1_000) + 5;
    plan.extend((0..virtual_ms.div_ceil(SLICE_MS)).map(|_| DpStep::Run { ms: SLICE_MS }));
    plan
}

/// Short flows — a fresh source port every 1-2 frames — on every chain,
/// and a side chain deployed, sometimes scaled, and torn down every few
/// virtual ms, so flow-mods invalidate the caches while lookups run.
fn churn_plan(
    deck: &mut Deck,
    rng: &mut Rng,
    chains: &[ChainSpec],
    spare: &[(usize, usize)],
    secs: f64,
) -> Vec<DpStep> {
    const SIDE_PERIOD_MS: usize = 4;
    let slices = (CHURN_SLICES_PER_S * secs / EPISODES as f64).ceil() as usize;
    let mut plan = Vec::new();
    let mut sport: u16 = 1_024;
    let mut side: Option<ChainSpec> = None;
    for s in 0..slices {
        if s % SIDE_PERIOD_MS == 0 {
            if let Some(c) = side.take() {
                plan.push(DpStep::Teardown(c.name));
            } else {
                let (a, b) = spare[rng.below(spare.len() as u64) as usize];
                let n = s / SIDE_PERIOD_MS % NAMES;
                let c = chain(deck, rng, &format!("side{n}"), &format!("sv{n}"), a, b);
                plan.push(DpStep::Deploy(c.sg_dsl()));
                side = Some(c);
            }
        } else if s % (2 * SIDE_PERIOD_MS) == 2 && side.is_some() {
            let c = side.as_ref().expect("checked above");
            plan.push(DpStep::Scale {
                chain: c.name.clone(),
                vnf: c.vnf.clone(),
                replicas: 2,
            });
        }
        for (i, c) in chains.iter().enumerate() {
            plan.push(DpStep::Flow(Flow {
                vnf_type: c.vnf_type,
                src: c.src.clone(),
                dst: c.dst.clone(),
                sport,
                len: c.frame_len,
                interval_us: 300,
                frames: 1 + ((s + i) % 2) as u64,
            }));
            sport = if sport == u16::MAX { 1_024 } else { sport + 1 };
        }
        plan.push(DpStep::Run { ms: 1 });
    }
    if let Some(c) = side {
        plan.push(DpStep::Teardown(c.name));
    }
    plan.push(DpStep::Run { ms: 5 });
    plan
}

/// Traffic on every standing chain that fills the flight-recorder ring
/// before the timed loop. The daemon's time-series sampler reconstructs
/// the whole ring at every sample, so its cost grows with the ring until
/// the ring is full; without this the timed loop would spend its first
/// seconds in that ramp instead of in the steady state a daemon that has
/// carried traffic is in.
fn warmup(chains: &[ChainSpec]) -> Vec<CtlRequest> {
    const FRAMES: u64 = 1_024;
    const INTERVAL_US: u64 = 20;
    let mut ops: Vec<CtlRequest> = chains
        .iter()
        .map(|c| CtlRequest::Traffic {
            from: c.src.clone(),
            to: c.dst.clone(),
            frames: FRAMES,
            len: c.frame_len as u64,
            interval_us: INTERVAL_US,
        })
        .collect();
    ops.push(CtlRequest::RunFor {
        ms: FRAMES * INTERVAL_US / 1_000 + 5,
    });
    ops
}

/// The operator loop: deploy → traffic → run-for → scale 1→2 → status →
/// fault → heal → teardown, with a periodic `metrics` scrape.
fn lifecycle(
    deck: &mut Deck,
    rng: &mut Rng,
    spare: &[(usize, usize)],
    leaves: usize,
    cycles: usize,
    scrape_every: usize,
) -> (Vec<CtlRequest>, Vec<Flow>) {
    let mut ops = Vec::with_capacity(cycles * 9);
    let mut flows = Vec::with_capacity(cycles);
    for k in 0..cycles {
        let (a, b) = spare[rng.below(spare.len() as u64) as usize];
        let n = k % NAMES;
        let c = chain(deck, rng, &format!("op{n}"), &format!("opv{n}"), a, b);
        let frames = 16;
        flows.push(Flow {
            vnf_type: c.vnf_type,
            src: c.src.clone(),
            dst: c.dst.clone(),
            sport: 40_000,
            len: c.frame_len,
            interval_us: 100,
            frames,
        });
        let leaf = rng.below(leaves as u64);
        ops.push(CtlRequest::Deploy {
            sg: c.sg_dsl(),
            format: SgFormat::Dsl,
        });
        ops.push(CtlRequest::Traffic {
            from: c.src.clone(),
            to: c.dst.clone(),
            frames,
            len: c.frame_len as u64,
            interval_us: 100,
        });
        ops.push(CtlRequest::RunFor { ms: 2 });
        ops.push(CtlRequest::Scale {
            chain: c.name.clone(),
            vnf: c.vnf.clone(),
            replicas: 2,
        });
        ops.push(CtlRequest::Status);
        ops.push(CtlRequest::Fault {
            plan: format!(
                r#"{{"name": "delay{n}", "events": [
  {{"at_us": 300, "kind": "delay_spike", "a": "core", "b": "s{leaf}", "delay_us": 150}},
  {{"at_us": 1300, "kind": "delay_clear", "a": "core", "b": "s{leaf}"}}
]}}"#
            ),
        });
        ops.push(CtlRequest::Heal);
        ops.push(CtlRequest::Teardown { chain: c.name });
        if (k + 1) % scrape_every == 0 {
            ops.push(CtlRequest::Metrics {
                format: MetricsFormat::Prometheus,
            });
        }
    }
    (ops, flows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_reproducible() {
        for kind in Kind::ALL {
            let a = Workload::generate(kind, 42, 1).render();
            let b = Workload::generate(kind, 42, 1).render();
            assert_eq!(a.as_bytes(), b.as_bytes(), "{}", kind.name());
            let c = Workload::generate(kind, 43, 1).render();
            assert_ne!(a, c, "{}: another seed must give other inputs", kind.name());
        }
    }

    #[test]
    fn preloaded_chains_use_distinct_sap_pairs() {
        let w = Workload::generate(Kind::ChainSteady, 5, 1);
        assert_eq!(w.preload.len(), CHAINS);
        let mut pairs: Vec<(&str, &str)> = w
            .preload
            .iter()
            .map(|c| (c.src.as_str(), c.dst.as_str()))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), CHAINS);
    }

    #[test]
    fn kinds_round_trip_by_name() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("multidomain"), None);
    }
}
