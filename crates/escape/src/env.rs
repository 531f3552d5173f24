//! The ESCAPE environment: build, deploy, steer, generate traffic,
//! monitor.
//!
//! [`Escape`] owns the emulation ([`Sim`]), the infrastructure addressing
//! ([`Infra`]), the orchestrator and one NETCONF client session per VNF
//! container. Deployment is driven the way the real ESCAPE orchestrator
//! drives its agents: every management action is a `vnf_starter` RPC
//! travelling the emulated control network (so chain setup latency is
//! measured in *virtual* time), and steering rules are handed to the POX
//! traffic-steering app.

use crate::container::{VnfContainer, VnfStatus};
use crate::error::{AdmissionVerdict, DeployPhase, EscapeError, RollbackReport, RollbackStep};
use crate::flight::{self, FlightRecord, NodeKind, SlaVerdict};
use crate::infra::{Infra, ManagerRelay};
use crate::journal::{Journal, JournalKind, Severity, DEFAULT_JOURNAL_CAP};
use bytes::Bytes;
use escape_netconf::client::{switch_port_of, vnf_id_of};
use escape_netconf::message::ReplyBody;
use escape_netconf::{Client, ClientEvent, RetryPolicy, RpcReply};
use escape_netem::{
    CtrlId, FaultInjector, FaultKind, FaultPlan, FaultRecord, GatewayRx, Host, HostStats, NodeId,
    Sim, Time,
};
use escape_openflow::{Action, Match, Switch};
use escape_orch::{ChainMapping, MappingAlgorithm, Orchestrator};
use escape_packet::PacketBuilder;
use escape_pox::{Controller, SteeringMode, SteeringRule, TrafficSteering};
use escape_scale::{bucket_plan, Autoscaler, AutoscalerConfig, MigrationPhase};
use escape_sg::{ResourceTopology, ServiceGraph};
use escape_telemetry::{Counter, Histogram, Registry, Sampler, SamplerConfig, Snapshot, Tracer};
use std::collections::{HashMap, HashSet};

/// Virtual-time budget for a single NETCONF round trip before we declare
/// the agent dead.
const RPC_TIMEOUT: Time = Time::from_ms(100);

/// Capacity watermarks for the admission controller. Disabled by default;
/// enable with [`Escape::set_admission`].
///
/// Compute utilization below `soft_watermark` admits deploys immediately.
/// Between the watermarks, requests park on a bounded queue and retry on
/// a seeded deterministic backoff schedule as capacity frees up. At or
/// above `hard_watermark` requests are rejected outright with a typed
/// [`AdmissionVerdict`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Utilization at which deploys start queueing (0..=1).
    pub soft_watermark: f64,
    /// Utilization at which deploys are rejected outright (0..=1).
    pub hard_watermark: f64,
    /// Most requests the queue holds before new arrivals bounce.
    pub max_queue: usize,
    /// Retry budget per queued request.
    pub max_retries: u32,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            soft_watermark: 0.85,
            hard_watermark: 0.95,
            max_queue: 8,
            max_retries: 8,
        }
    }
}

/// A deploy parked by the admission controller, waiting for utilization
/// to drop below the soft watermark.
struct QueuedDeploy {
    sg: ServiceGraph,
    attempts: u32,
    next_due: Time,
}

/// A VNF the prepare phase has (partially) brought up: enough state to
/// undo exactly what was done.
struct PreparedVnf {
    dv: DeployedVnf,
    /// `startVNF` completed — rollback must stop it.
    started: bool,
}

/// Per-chain transaction log: every completed prepare step, in order, so
/// rollback can replay them in reverse.
struct ChainTxn {
    mapping: ChainMapping,
    cookie: u64,
    vnfs: Vec<PreparedVnf>,
    /// Steering rules compiled and staged (shadow set).
    rules: usize,
    staged: bool,
    /// Staged rules were committed to the live queue.
    committed: bool,
}

impl ChainTxn {
    fn new(mapping: ChainMapping, cookie: u64) -> ChainTxn {
        ChainTxn {
            mapping,
            cookie,
            vnfs: Vec::new(),
            rules: 0,
            staged: false,
            committed: false,
        }
    }

    fn into_deployed(self) -> DeployedChain {
        DeployedChain {
            mapping: self.mapping,
            vnfs: self.vnfs.into_iter().map(|p| p.dv).collect(),
            cookie: self.cookie,
            rules: self.rules,
        }
    }

    fn as_deployed(&self) -> DeployedChain {
        DeployedChain {
            mapping: self.mapping.clone(),
            vnfs: self.vnfs.iter().map(|p| p.dv.clone()).collect(),
            cookie: self.cookie,
            rules: self.rules,
        }
    }
}

/// One deployed VNF instance.
#[derive(Debug, Clone)]
pub struct DeployedVnf {
    pub vnf_name: String,
    pub vnf_type: String,
    pub container: String,
    pub vnf_id: String,
    /// VNF device -> switch port it is attached to (as reported by
    /// `connectVNF`).
    pub switch_ports: HashMap<u16, u16>,
}

/// A deployed chain: mapping plus live instance handles.
#[derive(Debug, Clone)]
pub struct DeployedChain {
    pub mapping: ChainMapping,
    pub vnfs: Vec<DeployedVnf>,
    pub cookie: u64,
    pub rules: usize,
}

/// What `deploy` reports per service graph — the data behind experiment
/// E1 (chain setup latency, by phase).
#[derive(Debug, Clone)]
pub struct DeploymentReport {
    pub chains: Vec<DeployedChain>,
    /// Virtual time when deployment started.
    pub started_at: Time,
    /// Virtual time after mapping (instantaneous in virtual time).
    pub mapped_at: Time,
    /// Virtual time after all NETCONF RPCs completed.
    pub vnfs_ready_at: Time,
    /// Virtual time after steering rules were flushed to switches.
    pub steered_at: Time,
}

impl DeploymentReport {
    /// Total virtual setup latency.
    pub fn total(&self) -> Time {
        Time::from_ns(self.steered_at.since(self.started_at))
    }

    /// NETCONF (VNF management) phase duration.
    pub fn netconf_phase(&self) -> Time {
        Time::from_ns(self.vnfs_ready_at.since(self.mapped_at))
    }

    /// Steering (flow programming) phase duration.
    pub fn steering_phase(&self) -> Time {
        Time::from_ns(self.steered_at.since(self.vnfs_ready_at))
    }
}

/// Most replicas a single chain VNF may scale to. Replica fan-out is
/// bounded by the 8 pre-provisioned attachment points per
/// container-switch adjacency (each replica consumes one per device).
pub const MAX_REPLICAS: u32 = 8;

/// What [`Escape::scale_chain`] reports: the shape and timing of one
/// make-before-break scaling transaction.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub chain: String,
    pub vnf: String,
    /// Replica count before the transaction.
    pub from: u32,
    /// Replica count after it.
    pub to: u32,
    /// Steering rules in the promoted set (the whole chain's).
    pub rules: usize,
    pub started_at: Time,
    /// Virtual instant the staged rules atomically replaced the live set.
    pub promoted_at: Time,
    /// Virtual instant the transaction fully committed (after drain and
    /// retire on scale-in).
    pub committed_at: Time,
}

impl ScaleReport {
    /// Virtual time from the first reservation to the rule cutover — the
    /// window new capacity is being built while old capacity serves.
    pub fn cutover_latency(&self) -> Time {
        Time::from_ns(self.promoted_at.since(self.started_at))
    }
}

/// In-flight state of one scaling transaction: everything rollback needs
/// to restore the fingerprint-identical pre-scale environment.
struct ScaleTxn {
    chain: String,
    vnf: String,
    cookie: u64,
    container: String,
    /// Per-replica compute requirement (from the service graph).
    cpu: f64,
    mem_mb: u64,
    /// Replica reservations made so far (scale-out prepare).
    reserved: u32,
    /// New replicas brought up so far (scale-out prepare).
    prepared: Vec<PreparedVnf>,
    /// Replacement rules sit in the shadow set.
    staged: bool,
    /// Shadow set replaced the live rules (promote ran).
    promoted: bool,
    /// Rules in the replacement set.
    rules: usize,
    /// Bucket-rule count per replica index in the replacement set.
    bucket_rules: Vec<u64>,
    /// The pre-scale deployment record, for rule restore on rollback.
    old: DeployedChain,
}

/// The prototyping environment. See the crate docs for a quickstart.
pub struct Escape {
    pub sim: Sim,
    pub infra: Infra,
    orch: Orchestrator,
    clients: HashMap<String, Client>,
    deployed: HashMap<String, DeployedChain>,
    /// Service graph each deployed chain came from, for crash re-mapping.
    graphs: HashMap<String, ServiceGraph>,
    next_cookie: u64,
    topo: ResourceTopology,
    mode: SteeringMode,
    /// Installed fault injectors, one per loaded plan. Plans can
    /// overlap; healing drains every injector and merges records in
    /// virtual-time order.
    injectors: Vec<NodeId>,
    /// Backoff schedule for NETCONF RPC retries.
    retry: RetryPolicy,
    /// Admission watermarks; `None` admits everything unconditionally.
    admission: Option<AdmissionConfig>,
    /// Deploys parked between the watermarks, FIFO.
    admission_queue: Vec<QueuedDeploy>,
    /// Backoff schedule for queued-deploy retries (derived from the
    /// build seed, so same seed ⇒ same retry cadence).
    admission_retry: RetryPolicy,
    /// Simulation-wide metric registry, shared by every subsystem.
    telemetry: Registry,
    /// Virtual-time span tracer (chain setup phases).
    tracer: Tracer,
    /// NETCONF round-trip latency in virtual ns (`netconf.rpc_latency_ns`).
    rpc_latency: Histogram,
    deploys_ctr: Counter,
    deploy_failures_ctr: Counter,
    chains_ctr: Counter,
    teardowns_ctr: Counter,
    /// RPC attempts that were retried (`netconf.rpc_retries`).
    rpc_retries_ctr: Counter,
    /// Successful chain recoveries (`escape.recoveries`).
    recoveries_ctr: Counter,
    /// Chains that could not be recovered (`escape.recovery_failures`).
    recovery_failures_ctr: Counter,
    /// Virtual ns from fault detection to restored steering
    /// (`recovery.latency_ns`).
    recovery_latency: Histogram,
    /// Deploy transactions rolled back (`escape.rollbacks`).
    rollbacks_ctr: Counter,
    /// Deploys admitted below the soft watermark (`escape.admission_admitted`).
    admission_admitted_ctr: Counter,
    /// Deploys parked on the queue (`escape.admission_queued`).
    admission_queued_ctr: Counter,
    /// Deploys rejected — hard watermark, full queue or spent retry
    /// budget (`escape.admission_rejected`).
    admission_rejected_ctr: Counter,
    /// Queued-deploy retry attempts (`escape.admission_retries`).
    admission_retries_ctr: Counter,
    /// Malformed NETCONF replies noted by containers
    /// (container, reason), drained by the RPC layer.
    malformed_seen: Vec<(String, String)>,
    /// Typed operational event journal (bounded ring, virtual-clock
    /// stamped; evictions counted as `escape.journal_evicted`).
    journal: Journal,
    /// Periodic metric sampler on the virtual clock. `None` until
    /// enabled with [`Escape::enable_sampler`].
    sampler: Option<Sampler>,
    /// Last observed SLA pass flag per chain, for flip detection at
    /// sample points.
    sla_last: HashMap<String, bool>,
    /// `openflow.cache_invalidations` total at the previous sample
    /// point, for storm detection.
    last_cache_invalidations: u64,
    /// Telemetry-driven scaling policy engine; `None` until enabled with
    /// [`Escape::enable_autoscaler`]. Ticked at every sample point.
    autoscaler: Option<Autoscaler>,
    /// Virtual instant of the previous autoscaler tick, for utilization
    /// deltas.
    last_autoscale_ns: u64,
    /// Per-replica cumulative CPU usage (virtual ns) at the previous
    /// autoscaler tick, keyed (container, vnf id).
    replica_usage_last: HashMap<(String, String), u64>,
    /// Committed scale-out transactions (`escape.scale_outs`).
    scale_outs_ctr: Counter,
    /// Committed scale-in transactions (`escape.scale_ins`).
    scale_ins_ctr: Counter,
    /// Scale/migration transactions rolled back
    /// (`escape.migration_rollbacks`).
    migration_rollbacks_ctr: Counter,
}

/// Cache invalidations within one sample period at or above this count
/// are journaled as a storm (rule churn thrashing the fast path).
const CACHE_STORM_THRESHOLD: u64 = 64;

/// How a single RPC attempt failed: retryably (no reply within the
/// budget) or fatally (agent answered with an error, or the target does
/// not exist).
enum AttemptError {
    Timeout,
    Fatal(EscapeError),
}

/// What recovery does to a chain hit by a fault.
#[derive(Debug, Clone, Copy)]
enum RecoveryAction {
    /// Keep the placement, move only the paths (link failures).
    Reroute,
    /// New placement on surviving containers (container crashes).
    Remap,
}

impl RecoveryAction {
    fn label(self) -> &'static str {
        match self {
            RecoveryAction::Reroute => "reroute",
            RecoveryAction::Remap => "remap",
        }
    }
}

impl Escape {
    /// Builds the full environment over `topo` with the given mapping
    /// algorithm and steering mode. Runs the OpenFlow handshakes so the
    /// network is ready for deployment on return.
    pub fn build(
        topo: ResourceTopology,
        algorithm: Box<dyn MappingAlgorithm>,
        mode: SteeringMode,
        seed: u64,
    ) -> Result<Escape, EscapeError> {
        let telemetry = Registry::new();
        let mut sim = Sim::with_registry(seed, telemetry.clone());
        let infra = Infra::build(&mut sim, &topo, mode, seed).map_err(EscapeError::Invalid)?;
        let orch = Orchestrator::with_registry(topo.clone(), algorithm, telemetry.clone())
            .map_err(EscapeError::Invalid)?;
        let mut esc = Escape {
            sim,
            infra,
            orch,
            clients: HashMap::new(),
            deployed: HashMap::new(),
            graphs: HashMap::new(),
            next_cookie: 1,
            topo,
            mode,
            injectors: Vec::new(),
            retry: RetryPolicy::standard(seed),
            admission: None,
            admission_queue: Vec::new(),
            // Queue retries back off longer than RPC retries: the queue
            // waits for capacity, not for a stalled agent.
            admission_retry: RetryPolicy::new(5_000_000, 80_000_000, 0.25, 8, seed ^ 0xAD31),
            tracer: Tracer::new(telemetry.clone()),
            rpc_latency: telemetry.histogram("netconf.rpc_latency_ns"),
            deploys_ctr: telemetry.counter("escape.deploys"),
            deploy_failures_ctr: telemetry.counter("escape.deploy_failures"),
            chains_ctr: telemetry.counter("escape.chains_deployed"),
            teardowns_ctr: telemetry.counter("escape.teardowns"),
            rpc_retries_ctr: telemetry.counter("netconf.rpc_retries"),
            recoveries_ctr: telemetry.counter("escape.recoveries"),
            recovery_failures_ctr: telemetry.counter("escape.recovery_failures"),
            recovery_latency: telemetry.histogram("recovery.latency_ns"),
            rollbacks_ctr: telemetry.counter("escape.rollbacks"),
            admission_admitted_ctr: telemetry.counter("escape.admission_admitted"),
            admission_queued_ctr: telemetry.counter("escape.admission_queued"),
            admission_rejected_ctr: telemetry.counter("escape.admission_rejected"),
            admission_retries_ctr: telemetry.counter("escape.admission_retries"),
            malformed_seen: Vec::new(),
            journal: Journal::new(&telemetry, DEFAULT_JOURNAL_CAP),
            sampler: None,
            sla_last: HashMap::new(),
            last_cache_invalidations: 0,
            autoscaler: None,
            last_autoscale_ns: 0,
            replica_usage_last: HashMap::new(),
            scale_outs_ctr: telemetry.counter("escape.scale_outs"),
            scale_ins_ctr: telemetry.counter("escape.scale_ins"),
            migration_rollbacks_ctr: telemetry.counter("escape.migration_rollbacks"),
            telemetry,
        };
        // Let the OpenFlow handshake and hello exchanges settle.
        esc.sim.run_until(esc.sim.now() + Time::from_ms(5));
        Ok(esc)
    }

    /// Builds a *multi-domain* environment instead: `topo` is split per
    /// `spec` into per-domain ESCAPE instances under a global
    /// orchestrator (see [`crate::domains::MultiDomainEscape`]).
    /// `algorithm` is a factory because every local orchestrator owns
    /// its own instance; `workers` bounds the simulator threads per
    /// epoch (results are identical for any value).
    pub fn with_domains(
        topo: &ResourceTopology,
        spec: &escape_domain::DomainSpec,
        algorithm: &dyn Fn() -> Box<dyn MappingAlgorithm>,
        mode: SteeringMode,
        seed: u64,
        workers: usize,
    ) -> Result<crate::domains::MultiDomainEscape, EscapeError> {
        crate::domains::MultiDomainEscape::build(topo, spec, algorithm, mode, seed, workers)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Advances virtual time by `ms` milliseconds. While deploys are
    /// parked on the admission queue, time advances in 1 ms slices so
    /// due retries fire at their scheduled (virtual) moments.
    pub fn run_for_ms(&mut self, ms: u64) {
        let deadline = self.sim.now() + Time::from_ms(ms);
        while !self.admission_queue.is_empty() && self.sim.now() < deadline {
            let slice = (self.sim.now() + Time::from_ms(1)).min(deadline);
            self.advance_to(slice);
            self.pump_admission();
        }
        self.advance_to(deadline);
    }

    /// Advances virtual time to an absolute deadline. The multi-domain
    /// coordinator uses this to march every domain simulator to the same
    /// epoch barrier; the clock lands exactly on `deadline` even when the
    /// event queue drains early.
    pub fn run_until(&mut self, deadline: Time) {
        self.advance_to(deadline);
    }

    /// Advances the simulator to `deadline`, pausing at every sampler
    /// boundary on the way to take a snapshot (and run the sample-point
    /// observers: SLA flip detection, cache-storm detection) at its
    /// scheduled virtual instant.
    fn advance_to(&mut self, deadline: Time) {
        if self.sampler.is_none() {
            self.sim.run_until(deadline);
            return;
        }
        loop {
            let due = Time::from_ns(self.sampler.as_ref().expect("sampler").next_due_ns());
            let stop = due.min(deadline);
            if stop > self.sim.now() {
                self.sim.run_until(stop);
            }
            if self
                .sampler
                .as_ref()
                .is_some_and(|s| s.due(self.sim.now().as_ns()))
            {
                self.observe_tick();
            }
            if self.sim.now() >= deadline {
                return;
            }
        }
    }

    /// One sample point: detect SLA verdict flips and cache-invalidation
    /// storms, then record a registry snapshot into the sampler ring.
    /// Everything here runs on the virtual clock, so the journal and the
    /// series stay byte-identical across same-seed runs.
    fn observe_tick(&mut self) {
        let now_ns = self.sim.now().as_ns();
        // SLA flips are only observable while the flight recorder runs.
        if self.sim.trace.is_some() {
            for v in self.sla_verdicts() {
                let was = self.sla_last.insert(v.chain.clone(), v.pass);
                if was == Some(v.pass) {
                    continue;
                }
                let (sev, what) = if v.pass {
                    (Severity::Info, "pass")
                } else {
                    (Severity::Warn, "fail")
                };
                self.journal_event(
                    sev,
                    JournalKind::SlaFlip,
                    format!(
                        "chain {}: {what} (delivered {} dropped {} loss {:.3})",
                        v.chain, v.delivered, v.dropped, v.loss
                    ),
                );
            }
        }
        let snap = self.telemetry.snapshot();
        let invalidations = snap.counter_total("openflow.cache_invalidations");
        let delta = invalidations.saturating_sub(self.last_cache_invalidations);
        if delta >= CACHE_STORM_THRESHOLD {
            self.journal_event(
                Severity::Warn,
                JournalKind::CacheInvalidationStorm,
                format!("{delta} flow-cache invalidations in one sample period"),
            );
        }
        self.last_cache_invalidations = invalidations;
        if let Some(s) = &mut self.sampler {
            s.record(now_ns, snap);
        }
        // The autoscaler runs after the snapshot so scaling RPCs (which
        // advance virtual time) never skew the recorded sample.
        self.autoscale_tick();
    }

    /// Turns on the periodic metric sampler. Samples are taken at
    /// period boundaries of the *virtual* clock while time advances
    /// through [`Escape::run_for_ms`] / [`Escape::run_with_recovery`] /
    /// [`Escape::run_until`].
    pub fn enable_sampler(&mut self, cfg: SamplerConfig) {
        self.sampler = Some(Sampler::new(&self.telemetry, cfg));
    }

    /// The sampler ring, if enabled.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// Delta-encoded sampler series as a JSON document (see
    /// [`Sampler::series_json`]). An environment without a sampler
    /// reports an empty window.
    pub fn sampler_series_json(&self) -> String {
        match &self.sampler {
            Some(s) => s.series_json().to_string_pretty(),
            None => escape_json::Value::obj()
                .set("period_ns", 0u64)
                .set("evicted", 0u64)
                .set("at_ns", Vec::<u64>::new())
                .set("series", escape_json::Value::Arr(Vec::new()))
                .to_string_pretty(),
        }
    }

    /// The typed operational event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The retained journal as JSON lines.
    pub fn journal_json_lines(&self) -> String {
        self.journal.json_lines()
    }

    /// Appends a typed entry to the journal at the current virtual time.
    fn journal_event(&mut self, severity: Severity, kind: JournalKind, detail: String) {
        self.journal
            .record(self.sim.now().as_ns(), severity, kind, detail);
    }

    /// Appends a typed journal entry from outside the environment — the
    /// daemon's crash-recovery pass records restart provenance
    /// (daemon-restarted, txn-rolled-back, wal-truncated) through this.
    pub fn journal_note(&mut self, severity: Severity, kind: JournalKind, detail: String) {
        self.journal_event(severity, kind, detail);
    }

    /// Rebases the journal's sequence cursor after a restart so `watch
    /// --since <seq>` cursors taken against the previous incarnation
    /// stay valid (see [`Journal::restore_base`]).
    pub fn restore_journal_base(&mut self, base: u64) {
        self.journal.restore_base(base);
    }

    /// The orchestrator (resource view, algorithm swapping).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Mutable orchestrator access.
    pub fn orchestrator_mut(&mut self) -> &mut Orchestrator {
        &mut self.orch
    }

    /// The underlying topology.
    pub fn topology(&self) -> &ResourceTopology {
        &self.topo
    }

    /// Names of all live (fully committed) chains, sorted.
    pub fn deployed_chains(&self) -> Vec<String> {
        let mut v: Vec<String> = self.deployed.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The deployment record for a live chain, if any.
    pub fn deployed(&self, chain: &str) -> Option<&DeployedChain> {
        self.deployed.get(chain)
    }

    /// The service graph a live chain was deployed from, if any. Crash
    /// recovery checkpoints this alongside the mapping so a restarted
    /// daemon can rebuild the chain without the original deploy text.
    pub fn chain_graph(&self, chain: &str) -> Option<&ServiceGraph> {
        self.graphs.get(chain)
    }

    /// The cookie the next deployed chain will be stamped with.
    pub fn next_cookie(&self) -> u64 {
        self.next_cookie
    }

    /// Restores the cookie allocator after a restart. Cookies tag flow
    /// rules and flight records, so recovery must continue the original
    /// sequence for restored and future chains to stay distinguishable.
    pub fn set_next_cookie(&mut self, next: u64) {
        self.next_cookie = self.next_cookie.max(next);
    }

    /// Advances virtual time to an absolute instant (no-op if the clock
    /// is already past it). Recovery uses this to catch the restored
    /// environment's clock up to the checkpointed one.
    pub fn run_until_ns(&mut self, ns: u64) {
        if ns > self.sim.now().as_ns() {
            self.advance_to(Time::from_ns(ns));
        }
    }

    /// The simulation-wide telemetry registry (netem, pox, orch, netconf
    /// and escape metrics all land here).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The virtual-time span tracer: chain setup phases as nested spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Point-in-time snapshot of every metric in the environment.
    pub fn metrics(&self) -> Snapshot {
        self.telemetry.snapshot()
    }

    /// Enables or disables the exact-match flow cache on every switch
    /// (default on). Disabling flushes the caches, so every subsequent
    /// lookup walks the priority table — the reference path the
    /// differential tests and the dataplane bench compare against.
    pub fn set_flow_cache(&mut self, enabled: bool) {
        let mut names: Vec<&String> = self.infra.dpid.keys().collect();
        names.sort();
        for name in names {
            let Some(node) = self.infra.nodes.get(name).copied() else {
                continue;
            };
            if let Some(sw) = self.sim.node_as_mut::<Switch>(node) {
                sw.set_flow_cache(enabled);
            }
        }
    }

    // ---------------- flight recorder -------------------------------

    /// Turns on the packet flight recorder: a trace ring of `cap`
    /// records that [`Self::flight_record`] later correlates into
    /// per-packet journeys. Enable it *before* starting traffic.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.sim.enable_trace(cap);
    }

    /// Reconstructs every traced packet's journey. Empty if the flight
    /// recorder was never enabled.
    pub fn flight_record(&self) -> FlightRecord {
        let Some(trace) = &self.sim.trace else {
            return FlightRecord::default();
        };
        // Topology-name and role lookup for every emulator node.
        let mut roles: HashMap<NodeId, (String, NodeKind)> = HashMap::new();
        for (name, &node) in &self.infra.nodes {
            let kind = if self.infra.dpid.contains_key(name) {
                NodeKind::Switch
            } else if self.infra.sap_addr.contains_key(name) {
                NodeKind::Host
            } else if self.infra.netconf_conn.contains_key(name) {
                NodeKind::Container
            } else {
                NodeKind::Other
            };
            roles.insert(node, (name.clone(), kind));
        }
        let cookies: HashMap<u64, String> = self
            .deployed
            .iter()
            .map(|(name, dc)| (dc.cookie, name.clone()))
            .collect();
        flight::reconstruct(
            trace.records(),
            |n| {
                roles
                    .get(&n)
                    .cloned()
                    .unwrap_or_else(|| (self.sim.node_name(n).to_string(), NodeKind::Other))
            },
            &cookies,
        )
    }

    /// Reconstructs journeys, publishes per-chain aggregates into the
    /// telemetry registry and returns the record.
    pub fn flight_record_aggregated(&self) -> FlightRecord {
        let fr = self.flight_record();
        fr.aggregate(&self.telemetry);
        fr
    }

    /// Evaluates every deployed chain's SLA (from its service graph)
    /// against the recorded traffic, in chain-name order. Chains without
    /// an SLA get a vacuous pass.
    pub fn sla_verdicts(&self) -> Vec<SlaVerdict> {
        let fr = self.flight_record();
        let mut names: Vec<&String> = self.deployed.keys().collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let sla = self
                    .graphs
                    .get(name)
                    .and_then(|g| g.chains.iter().find(|c| &c.name == name))
                    .and_then(|c| c.sla)
                    .unwrap_or_default();
                flight::evaluate_sla(name, &sla, fr.for_chain(name))
            })
            .collect()
    }

    // ---------------- NETCONF plumbing ------------------------------

    /// Drains the manager relay inbox into the right client sessions;
    /// returns replies seen (container, reply).
    fn drain_inbox(&mut self) -> Vec<(String, RpcReply)> {
        let msgs = {
            let relay = self
                .sim
                .node_as_mut::<ManagerRelay>(self.infra.manager)
                .expect("manager relay");
            std::mem::take(&mut relay.inbox)
        };
        let mut replies = Vec::new();
        let malformed_before = self.malformed_seen.len();
        for (conn, bytes) in msgs {
            let Some(owner) = self.infra.conn_owner.get(&conn.0).cloned() else {
                continue;
            };
            let client = self
                .clients
                .entry(owner.clone())
                .or_insert_with(|| Client::with_registry(self.telemetry.clone()));
            for ev in client.on_bytes(&bytes) {
                match ev {
                    ClientEvent::Reply(r) => replies.push((owner.clone(), r)),
                    ClientEvent::Malformed { reason } => {
                        self.malformed_seen.push((owner.clone(), reason));
                    }
                    _ => {}
                }
            }
        }
        for i in malformed_before..self.malformed_seen.len() {
            let (owner, reason) = self.malformed_seen[i].clone();
            self.journal_event(
                Severity::Warn,
                JournalKind::MalformedReply,
                format!("{owner}: {reason}"),
            );
        }
        replies
    }

    /// Removes and returns the first malformed-reply record for
    /// `container`, if the inbox drain saw one.
    fn take_malformed(&mut self, container: &str) -> Option<String> {
        let idx = self
            .malformed_seen
            .iter()
            .position(|(owner, _)| owner == container)?;
        Some(self.malformed_seen.remove(idx).1)
    }

    /// Ensures the NETCONF session to `container` is up (hello exchange).
    /// A hello timeout is retryable — the agent may just be stalled.
    fn ensure_session(&mut self, container: &str) -> Result<CtrlId, AttemptError> {
        let conn = *self.infra.netconf_conn.get(container).ok_or_else(|| {
            AttemptError::Fatal(EscapeError::NotFound(format!("container {container}")))
        })?;
        let needs_hello = self.clients.get(container).is_none_or(|c| !c.ready());
        if needs_hello {
            let client = self
                .clients
                .entry(container.to_string())
                .or_insert_with(|| Client::with_registry(self.telemetry.clone()));
            let hello = client.start();
            self.sim.ctrl_send_from(self.infra.manager, conn, hello);
            let deadline = self.sim.now() + RPC_TIMEOUT;
            loop {
                self.sim.run_until(self.sim.now().add_ns(50_000));
                self.drain_inbox();
                if self.clients.get(container).is_some_and(|c| c.ready()) {
                    break;
                }
                if self.sim.now() > deadline {
                    return Err(AttemptError::Timeout);
                }
            }
        }
        Ok(conn)
    }

    /// One RPC attempt: send, then wait (in virtual time) up to the RPC
    /// deadline for the matching reply.
    fn rpc_attempt(
        &mut self,
        container: &str,
        build: &mut dyn FnMut(&mut Client) -> (u64, Vec<u8>),
    ) -> Result<RpcReply, AttemptError> {
        let conn = self.ensure_session(container)?;
        let (id, bytes) = build(self.clients.get_mut(container).expect("session exists"));
        let sent_at = self.sim.now();
        self.sim.ctrl_send_from(self.infra.manager, conn, bytes);
        let deadline = self.sim.now() + RPC_TIMEOUT;
        loop {
            self.sim.run_until(self.sim.now().add_ns(50_000));
            for (owner, reply) in self.drain_inbox() {
                if owner == container && reply.message_id == id {
                    self.rpc_latency.observe(self.sim.now().since(sent_at));
                    if let ReplyBody::Errors(errs) = &reply.body {
                        return Err(AttemptError::Fatal(EscapeError::Netconf(format!(
                            "{container}: {}",
                            errs.first().map(|e| e.to_string()).unwrap_or_default()
                        ))));
                    }
                    return Ok(reply);
                }
            }
            if let Some(reason) = self.take_malformed(container) {
                return Err(AttemptError::Fatal(EscapeError::MalformedReply {
                    container: container.to_string(),
                    reason,
                }));
            }
            if self.sim.now() > deadline {
                return Err(AttemptError::Timeout);
            }
        }
    }

    /// Sends one RPC to a container's agent with retry: timeouts back off
    /// on the policy's deterministic schedule (waiting in virtual time)
    /// and re-send a *fresh* message; agent-reported errors fail fast.
    /// After the whole budget is spent the typed
    /// [`EscapeError::RpcTimeout`] names the container and attempt count.
    fn rpc(
        &mut self,
        container: &str,
        mut build: impl FnMut(&mut Client) -> (u64, Vec<u8>),
    ) -> Result<RpcReply, EscapeError> {
        let policy = self.retry;
        let mut attempt = 0u32;
        loop {
            match self.rpc_attempt(container, &mut build) {
                Ok(reply) => return Ok(reply),
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Timeout) => {
                    if attempt >= policy.max_retries {
                        return Err(EscapeError::RpcTimeout {
                            container: container.to_string(),
                            attempts: policy.attempts(),
                        });
                    }
                    self.rpc_retries_ctr.inc();
                    let wait = policy.delay_ns(attempt);
                    self.sim.run_until(self.sim.now().add_ns(wait));
                    attempt += 1;
                }
            }
        }
    }

    // ---------------- deployment ------------------------------------

    /// Enables the admission controller with the given watermarks. Every
    /// subsequent [`Escape::deploy`] is gated on compute utilization;
    /// queued deploys retry while time advances through
    /// [`Escape::run_for_ms`] / [`Escape::run_with_recovery`].
    pub fn set_admission(&mut self, cfg: AdmissionConfig) {
        self.admission_retry = RetryPolicy::new(
            5_000_000,
            80_000_000,
            0.25,
            cfg.max_retries,
            self.admission_retry.seed,
        );
        self.admission = Some(cfg);
    }

    /// Deploys queued by admission control, still waiting.
    pub fn pending_admissions(&self) -> usize {
        self.admission_queue.len()
    }

    /// Deploys a service graph as a staged transaction:
    ///
    /// 1. **plan** — reserve compute and bandwidth in the orchestrator;
    /// 2. **prepare** — initiate/connect/start every VNF over NETCONF and
    ///    stage the compiled steering rules in a shadow set (no flow-mod
    ///    leaves the controller yet);
    /// 3. **commit** — atomically activate the staged rules and publish
    ///    the chains.
    ///
    /// A failure or RPC timeout in prepare/commit rolls back exactly the
    /// completed steps in reverse order — stop started VNFs, disconnect
    /// their ports, discard or delete rules, release every reservation —
    /// and surfaces as [`EscapeError::DeployFailed`] carrying the phase,
    /// the root cause and the rollback report. Plan failures surface as
    /// plain [`EscapeError::MappingFailed`] (nothing to undo beyond the
    /// reservations, which are released inline).
    ///
    /// When admission control is enabled ([`Escape::set_admission`]),
    /// the request is first gated on compute utilization.
    ///
    /// The whole operation is traced in virtual time: a `deploy` span
    /// with `mapping`, one `chain_setup` per chain (its NETCONF leg) and
    /// `steering` children.
    pub fn deploy(&mut self, sg: &ServiceGraph) -> Result<DeploymentReport, EscapeError> {
        if let Some(cfg) = self.admission {
            let sp = self.tracer.enter("admission", self.sim.now().as_ns());
            let verdict = self.admit(sg, cfg);
            self.tracer.exit(sp, self.sim.now().as_ns());
            if let Some(v) = verdict {
                return Err(EscapeError::Admission(v));
            }
        }
        self.deploy_txn(sg)
    }

    /// The admission gate: `None` admits, `Some(verdict)` queues or
    /// rejects the request.
    fn admit(&mut self, sg: &ServiceGraph, cfg: AdmissionConfig) -> Option<AdmissionVerdict> {
        let utilization = self.orch.cpu_utilization();
        if utilization >= cfg.hard_watermark {
            self.admission_rejected_ctr.inc();
            self.journal_event(
                Severity::Warn,
                JournalKind::AdmissionRejected,
                format!(
                    "utilization {utilization:.2} >= hard watermark {:.2}",
                    cfg.hard_watermark
                ),
            );
            return Some(AdmissionVerdict::RejectedHard {
                utilization,
                hard_watermark: cfg.hard_watermark,
            });
        }
        if utilization >= cfg.soft_watermark {
            if self.admission_queue.len() >= cfg.max_queue {
                self.admission_rejected_ctr.inc();
                self.journal_event(
                    Severity::Warn,
                    JournalKind::AdmissionRejected,
                    format!("queue full ({} waiting)", self.admission_queue.len()),
                );
                return Some(AdmissionVerdict::QueueFull {
                    capacity: cfg.max_queue,
                });
            }
            let position = self.admission_queue.len();
            let next_due = self.sim.now().add_ns(self.admission_retry.delay_ns(0));
            self.admission_queue.push(QueuedDeploy {
                sg: sg.clone(),
                attempts: 0,
                next_due,
            });
            self.admission_queued_ctr.inc();
            self.journal_event(
                Severity::Info,
                JournalKind::AdmissionQueued,
                format!("position {position} (utilization {utilization:.2})"),
            );
            return Some(AdmissionVerdict::Queued {
                position,
                utilization,
            });
        }
        self.admission_admitted_ctr.inc();
        None
    }

    /// Retries due queued deploys: below the soft watermark a queued
    /// request deploys now; otherwise it backs off on the deterministic
    /// schedule until its retry budget is spent.
    fn pump_admission(&mut self) {
        let Some(cfg) = self.admission else { return };
        if self.admission_queue.is_empty() {
            return;
        }
        let mut queue = std::mem::take(&mut self.admission_queue);
        let mut i = 0;
        while i < queue.len() {
            if queue[i].next_due > self.sim.now() {
                i += 1;
                continue;
            }
            let utilization = self.orch.cpu_utilization();
            if utilization < cfg.soft_watermark {
                let q = queue.remove(i);
                self.admission_admitted_ctr.inc();
                self.journal_event(
                    Severity::Info,
                    JournalKind::AdmissionDequeued,
                    format!(
                        "after {} retr{} (utilization {utilization:.2})",
                        q.attempts,
                        if q.attempts == 1 { "y" } else { "ies" }
                    ),
                );
                if let Err(e) = self.deploy_txn(&q.sg) {
                    self.journal_event(
                        Severity::Warn,
                        JournalKind::AdmissionDropped,
                        format!("dequeued deploy failed: {e}"),
                    );
                }
                continue;
            }
            let q = &mut queue[i];
            q.attempts += 1;
            self.admission_retries_ctr.inc();
            if q.attempts >= cfg.max_retries {
                let q = queue.remove(i);
                self.admission_rejected_ctr.inc();
                self.journal_event(
                    Severity::Warn,
                    JournalKind::AdmissionDropped,
                    format!(
                        "retry budget spent after {} attempts (utilization {utilization:.2})",
                        q.attempts
                    ),
                );
                continue;
            }
            q.next_due = self
                .sim
                .now()
                .add_ns(self.admission_retry.delay_ns(q.attempts));
            i += 1;
        }
        // New arrivals queued by deploys issued above land behind.
        queue.append(&mut self.admission_queue);
        self.admission_queue = queue;
    }

    /// One deployment transaction (no admission gate): span, counters,
    /// plan → prepare → commit with rollback.
    fn deploy_txn(&mut self, sg: &ServiceGraph) -> Result<DeploymentReport, EscapeError> {
        let sp = self.tracer.enter("deploy", self.sim.now().as_ns());
        let result = self.deploy_inner(sg);
        let now = self.sim.now().as_ns();
        self.tracer.exit(sp, now);
        match &result {
            Ok(_) => self.deploys_ctr.inc(),
            Err(_) => self.deploy_failures_ctr.inc(),
        }
        result
    }

    fn deploy_inner(&mut self, sg: &ServiceGraph) -> Result<DeploymentReport, EscapeError> {
        sg.validate().map_err(EscapeError::Invalid)?;
        let started_at = self.sim.now();

        // ---- plan: reserve every chain's compute and bandwidth ------
        let sp_map = self.tracer.enter("mapping", self.sim.now().as_ns());
        let (mappings, rejected) = self.orch.embed_graph(sg);
        self.tracer.exit(sp_map, self.sim.now().as_ns());
        if !rejected.is_empty() {
            for m in &mappings {
                self.orch.release_chain(&m.chain.name);
            }
            return Err(EscapeError::MappingFailed(rejected));
        }
        let mapped_at = self.sim.now();

        // ---- prepare: VNFs up over NETCONF, rules staged ------------
        let mut txns: Vec<ChainTxn> = Vec::new();
        for mapping in &mappings {
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            let mut txn = ChainTxn::new(mapping.clone(), cookie);
            let sp = self.tracer.enter("chain_setup", self.sim.now().as_ns());
            let res = self.prepare_chain(sg, &mut txn);
            self.tracer.exit(sp, self.sim.now().as_ns());
            txns.push(txn); // keep partial progress for rollback
            if let Err(cause) = res {
                return Err(self.roll_back(DeployPhase::Prepare, cause, &txns));
            }
        }
        let vnfs_ready_at = self.sim.now();

        // ---- commit: activate every staged rule set atomically ------
        if let Err(cause) = self.commit_chains(&mut txns) {
            return Err(self.roll_back(DeployPhase::Commit, cause, &txns));
        }
        let steered_at = self.sim.now();

        let mut chains = Vec::new();
        for txn in txns {
            let dc = txn.into_deployed();
            self.chains_ctr.inc();
            self.journal_event(
                Severity::Info,
                JournalKind::DeployCommitted,
                format!(
                    "chain {} ({} vnfs, {} rules)",
                    dc.mapping.chain.name,
                    dc.vnfs.len(),
                    dc.rules
                ),
            );
            self.deployed
                .insert(dc.mapping.chain.name.clone(), dc.clone());
            // Remember the source graph so a crash can re-map the chain.
            self.graphs
                .insert(dc.mapping.chain.name.clone(), sg.clone());
            chains.push(dc);
        }
        Ok(DeploymentReport {
            chains,
            started_at,
            mapped_at,
            vnfs_ready_at,
            steered_at,
        })
    }

    /// Restores one checkpointed chain verbatim: the recorded mapping
    /// and cookie are committed without re-running the placement
    /// algorithm, so a restarted daemon reproduces the exact pre-crash
    /// placements, cookies and steering rules even though the
    /// algorithm's greedy choices depend on the full deploy history.
    /// Runs the same prepare/commit transaction (and rollback on
    /// failure) as a fresh deploy — recovery is never a special,
    /// less-safe code path.
    pub fn restore_chain(
        &mut self,
        sg: &ServiceGraph,
        mapping: ChainMapping,
        cookie: u64,
    ) -> Result<(), EscapeError> {
        sg.validate().map_err(EscapeError::Invalid)?;
        let name = mapping.chain.name.clone();
        self.orch
            .restore_embedding(sg, &mapping)
            .map_err(EscapeError::Invalid)?;
        let mut txns = vec![ChainTxn::new(mapping, cookie)];
        if let Err(cause) = self.prepare_chain(sg, &mut txns[0]) {
            return Err(self.roll_back(DeployPhase::Prepare, cause, &txns));
        }
        if let Err(cause) = self.commit_chains(&mut txns) {
            return Err(self.roll_back(DeployPhase::Commit, cause, &txns));
        }
        let dc = txns.pop().expect("one restore txn").into_deployed();
        self.chains_ctr.inc();
        self.journal_event(
            Severity::Info,
            JournalKind::ChainRecovered,
            format!(
                "chain {name} restored from checkpoint (cookie {cookie}, {} rules)",
                dc.rules
            ),
        );
        self.deployed.insert(name.clone(), dc);
        self.graphs.insert(name, sg.clone());
        self.set_next_cookie(cookie + 1);
        Ok(())
    }

    /// Prepare leg for one chain: bring its VNFs up over NETCONF
    /// (recording progress step by step in `txn`), then compile its
    /// steering rules into the controller's shadow set.
    fn prepare_chain(&mut self, sg: &ServiceGraph, txn: &mut ChainTxn) -> Result<(), EscapeError> {
        self.prepare_vnfs(sg, txn)?;
        let rules = compile_rules(&self.infra, &txn.as_deployed())?;
        txn.rules = rules.len();
        self.steering_mut().stage_rules(txn.cookie, rules);
        txn.staged = true;
        Ok(())
    }

    /// Commit phase: move every chain's staged rules to the live queue,
    /// flush once, wait for the switches, provision ARP.
    fn commit_chains(&mut self, txns: &mut [ChainTxn]) -> Result<(), EscapeError> {
        {
            let st = self.steering_mut();
            for txn in txns.iter_mut() {
                st.commit_staged(txn.cookie);
                txn.staged = false;
                txn.committed = true;
            }
        }
        Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
        let sp_steer = self.tracer.enter("steering", self.sim.now().as_ns());
        let steer_res = self.await_steering();
        self.tracer.exit(sp_steer, self.sim.now().as_ns());
        steer_res?;

        // Provision static ARP on the SAP endpoints of each chain.
        for txn in txns.iter() {
            let hops = &txn.mapping.chain.hops;
            let (src, dst) = (hops.first().unwrap().clone(), hops.last().unwrap().clone());
            self.provision_arp(&src, &dst)?;
        }
        Ok(())
    }

    /// Undoes a failed deployment transaction: walks every chain's
    /// progress log in reverse — rules out of the controller (staged
    /// sets discarded, committed sets deleted), started VNFs stopped,
    /// connected ports disconnected — then releases every reservation
    /// the plan phase made. Steps that fail (an agent that stayed dead)
    /// are recorded as best-effort in the report.
    fn roll_back(
        &mut self,
        phase: DeployPhase,
        cause: EscapeError,
        txns: &[ChainTxn],
    ) -> EscapeError {
        let mut steps = Vec::new();
        let mut need_flush = false;
        for txn in txns.iter().rev() {
            let chain = txn.mapping.chain.name.clone();
            {
                let st = self.steering_mut();
                if txn.committed {
                    st.remove_chain(txn.cookie);
                    need_flush = true;
                    steps.push(RollbackStep {
                        action: "remove-rules",
                        target: chain.clone(),
                        ok: true,
                    });
                } else if txn.staged {
                    st.discard_staged(txn.cookie);
                    steps.push(RollbackStep {
                        action: "discard-rules",
                        target: chain.clone(),
                        ok: true,
                    });
                }
            }
            self.roll_back_vnfs(&txn.vnfs, &mut steps);
        }
        if need_flush {
            // Committed rules may have reached switches: delete them.
            Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
            self.sim
                .run_until(self.sim.now() + crate::infra::CTRL_LATENCY + Time::from_ms(1));
        }
        for txn in txns.iter().rev() {
            let chain = txn.mapping.chain.name.clone();
            self.orch.release_chain(&chain);
            steps.push(RollbackStep {
                action: "release-reservation",
                target: chain,
                ok: true,
            });
        }
        // Sessions that never finished their hello died with the deploy.
        self.clients.retain(|_, c| c.ready());
        let rollback = RollbackReport { steps };
        self.rollbacks_ctr.inc();
        self.journal_event(
            Severity::Warn,
            JournalKind::DeployRolledBack,
            format!("{phase} phase: {cause} ({rollback})"),
        );
        EscapeError::DeployFailed {
            phase,
            cause: Box::new(cause),
            rollback,
        }
    }

    /// Reverse-order undo of (partially) prepared VNFs: stop each one
    /// that reached `startVNF`, then disconnect its bound devices.
    /// Best-effort — a dead agent marks the step failed and moves on.
    fn roll_back_vnfs(&mut self, vnfs: &[PreparedVnf], steps: &mut Vec<RollbackStep>) {
        for p in vnfs.iter().rev() {
            let target = format!("{}/{}", p.dv.container, p.dv.vnf_id);
            if p.started {
                let vid = p.dv.vnf_id.clone();
                let ok = self.rpc(&p.dv.container, |c| c.stop_vnf(&vid)).is_ok();
                steps.push(RollbackStep {
                    action: "stop-vnf",
                    target: target.clone(),
                    ok,
                });
            }
            let mut devs: Vec<u16> = p.dv.switch_ports.keys().copied().collect();
            devs.sort_unstable();
            for dev in devs.into_iter().rev() {
                let vid = p.dv.vnf_id.clone();
                let ok = self
                    .rpc(&p.dv.container, move |c| c.disconnect_vnf(&vid, dev))
                    .is_ok();
                steps.push(RollbackStep {
                    action: "disconnect-vnf",
                    target: format!("{target}:dev{dev}"),
                    ok,
                });
            }
        }
    }

    /// The controller's traffic-steering component.
    fn steering_mut(&mut self) -> &mut TrafficSteering {
        self.sim
            .node_as_mut::<Controller>(self.infra.controller)
            .expect("controller")
            .component_as_mut::<TrafficSteering>()
            .expect("steering component")
    }

    /// Waits (in virtual time) until flushed steering rules reached the
    /// switches (proactive), or gives reactive arming a settle beat.
    fn await_steering(&mut self) -> Result<(), EscapeError> {
        if self.mode == SteeringMode::Proactive {
            // Wait for the rules to reach the switches.
            let deadline = self.sim.now() + RPC_TIMEOUT;
            loop {
                self.sim.run_until(self.sim.now().add_ns(50_000));
                let pending = self
                    .sim
                    .node_as::<Controller>(self.infra.controller)
                    .and_then(|c| c.component_as::<TrafficSteering>())
                    .map_or(0, |s| s.pending());
                if pending == 0 {
                    // One more control-latency beat for in-flight flow-mods.
                    self.sim
                        .run_until(self.sim.now() + crate::infra::CTRL_LATENCY + Time::from_us(10));
                    return Ok(());
                }
                if self.sim.now() > deadline {
                    return Err(EscapeError::Steering(format!(
                        "{pending} rules stuck in the controller queue"
                    )));
                }
            }
        } else {
            self.sim.run_until(self.sim.now().add_ns(100_000));
            Ok(())
        }
    }

    /// The NETCONF leg for one chain, recording progress in `txn` after
    /// every completed step so rollback can undo exactly what happened.
    /// Recovery reuses a chain's original cookie so its rules replace
    /// the stale ones.
    fn prepare_vnfs(&mut self, sg: &ServiceGraph, txn: &mut ChainTxn) -> Result<(), EscapeError> {
        let mapping = txn.mapping.clone();
        for (i, (vnf_name, container)) in mapping.placement.iter().enumerate() {
            let req = sg
                .vnf_named(vnf_name)
                .ok_or_else(|| EscapeError::NotFound(format!("vnf {vnf_name}")))?;
            // initiateVNF (raw Click config wins over the catalog type)
            let options: Vec<(String, String)> = req.params.clone();
            let (ty, opts) = (req.vnf_type.clone(), options);
            let cfg = req.click_config.clone();
            let reply = self.rpc(container, |c| c.initiate_vnf(&ty, cfg.as_deref(), &opts))?;
            let vnf_id = vnf_id_of(&reply)
                .ok_or_else(|| EscapeError::Netconf("initiateVNF reply missing vnf-id".into()))?;
            txn.vnfs.push(PreparedVnf {
                dv: DeployedVnf {
                    vnf_name: vnf_name.clone(),
                    vnf_type: req.vnf_type.clone(),
                    container: container.clone(),
                    vnf_id: vnf_id.clone(),
                    switch_ports: HashMap::new(),
                },
                started: false,
            });

            // connectVNF for dev 0 (ingress) and dev 1 (egress). The
            // target switch is the neighbor along the adjacent segment;
            // same-container neighbors are patched internally instead.
            let hop_idx = i + 1; // position in the hop list
            let seg_in = &mapping.segments[hop_idx - 1];
            let seg_out = &mapping.segments[hop_idx];
            if seg_in.nodes.len() >= 2 {
                let sw = seg_in.nodes[seg_in.nodes.len() - 2].clone();
                let vid = vnf_id.clone();
                let reply = self.rpc(container, |c| c.connect_vnf(&vid, 0, &sw))?;
                let sp = switch_port_of(&reply)
                    .ok_or_else(|| EscapeError::Netconf("connectVNF reply missing port".into()))?;
                txn.vnfs.last_mut().unwrap().dv.switch_ports.insert(0, sp);
            } else {
                // Previous hop is co-located: patch its egress to us.
                if txn.vnfs.len() < 2 {
                    return Err(EscapeError::Invalid("co-located first hop".into()));
                }
                let prev_id = txn.vnfs[txn.vnfs.len() - 2].dv.vnf_id.clone();
                let node = self.infra.node(container).expect("container node");
                let c = self
                    .sim
                    .node_as_mut::<VnfContainer>(node)
                    .expect("container logic");
                c.host_mut()
                    .bind_internal(&prev_id, 1, &vnf_id, 0)
                    .map_err(EscapeError::Netconf)?;
            }
            if seg_out.nodes.len() >= 2 {
                let sw = seg_out.nodes[1].clone();
                let vid = vnf_id.clone();
                let reply = self.rpc(container, |c| c.connect_vnf(&vid, 1, &sw))?;
                let sp = switch_port_of(&reply)
                    .ok_or_else(|| EscapeError::Netconf("connectVNF reply missing port".into()))?;
                txn.vnfs.last_mut().unwrap().dv.switch_ports.insert(1, sp);
            }
            // (If seg_out is single-node, the *next* VNF patches us.)

            // startVNF
            let vid = vnf_id.clone();
            self.rpc(container, |c| c.start_vnf(&vid))?;
            txn.vnfs.last_mut().unwrap().started = true;
        }
        Ok(())
    }

    /// Tears down a chain: stop + disconnect its VNFs, delete its rules,
    /// release its resources.
    ///
    /// Teardown is all-or-nothing on the bookkeeping side: if an agent
    /// RPC fails (stalled or dead container) the chain stays *deployed*
    /// — rules installed, resources reserved — and the call returns the
    /// error so the caller can retry once the agent is reachable again.
    /// Already-stopped VNFs stop idempotently on the retry. This is what
    /// keeps the conservation invariants honest: a chain is either fully
    /// live or fully gone, never a half-dismantled leak.
    pub fn teardown(&mut self, chain: &str) -> Result<(), EscapeError> {
        let dc = self
            .deployed
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
        for v in &dc.vnfs {
            let vid = v.vnf_id.clone();
            // Agent-reported errors (already stopped / already
            // disconnected) happen when a prior teardown attempt got
            // partway before an RPC timed out; they mean the step is
            // already done. Transport errors abort the teardown.
            match self.rpc(&v.container, |c| c.stop_vnf(&vid)) {
                Ok(_) | Err(EscapeError::Netconf(_)) => {}
                Err(e) => return Err(e),
            }
            let mut devs: Vec<u16> = v.switch_ports.keys().copied().collect();
            devs.sort_unstable();
            for dev in devs {
                let vid = v.vnf_id.clone();
                match self.rpc(&v.container, move |c| c.disconnect_vnf(&vid, dev)) {
                    Ok(_) | Err(EscapeError::Netconf(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        self.deployed.remove(chain);
        {
            let ctl = self
                .sim
                .node_as_mut::<Controller>(self.infra.controller)
                .expect("controller");
            ctl.component_as_mut::<TrafficSteering>()
                .expect("steering")
                .remove_chain(dc.cookie);
        }
        Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
        self.sim
            .run_until(self.sim.now() + crate::infra::CTRL_LATENCY + Time::from_ms(1));
        self.orch.release_chain(chain);
        self.graphs.remove(chain);
        self.teardowns_ctr.inc();
        self.journal_event(
            Severity::Info,
            JournalKind::Teardown,
            format!("chain {chain}"),
        );
        Ok(())
    }

    // ---------------- fault injection & self-healing ----------------

    /// Installs a fault plan into the emulation. Event times are relative
    /// to *now*; entity names are resolved immediately, so a plan naming
    /// an unknown node or link fails here rather than mid-run.
    pub fn load_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), EscapeError> {
        let node = FaultInjector::install(&mut self.sim, plan).map_err(EscapeError::FaultPlan)?;
        self.injectors.push(node);
        self.journal_event(
            Severity::Info,
            JournalKind::FaultPlanArmed,
            format!("plan {:?} ({} events)", plan.name, plan.events.len()),
        );
        Ok(())
    }

    /// The retained journal rendered one line per entry
    /// (`[{ns}ns] {severity} {kind}: {detail}`). Same seed + same inputs
    /// ⇒ byte-identical lines (asserted by the chaos harness).
    pub fn event_trace(&self) -> Vec<String> {
        self.journal.entries().map(|e| e.to_string()).collect()
    }

    /// Advances virtual time by `ms` milliseconds like
    /// [`Escape::run_for_ms`], but checks for injected faults every
    /// millisecond and runs recovery (re-route / re-map / re-steer) as
    /// soon as one lands.
    pub fn run_with_recovery(&mut self, ms: u64) {
        let deadline = self.sim.now() + Time::from_ms(ms);
        while self.sim.now() < deadline {
            let slice = (self.sim.now() + Time::from_ms(1)).min(deadline);
            self.advance_to(slice);
            self.heal();
            self.pump_admission();
        }
    }

    /// Runs one healing pass right now: drains any pending injected-fault
    /// records and recovers affected chains. The multi-domain coordinator
    /// calls this at every epoch barrier instead of using
    /// [`Escape::run_with_recovery`]'s internal slicing.
    pub fn heal_now(&mut self) {
        self.heal();
    }

    /// Drains injected-fault records from every loaded plan and reacts
    /// to each in virtual-time order.
    fn heal(&mut self) {
        let mut records = Vec::new();
        for inj in self.injectors.clone() {
            if let Some(fi) = self.sim.node_as_mut::<FaultInjector>(inj) {
                records.extend(fi.take_records());
            }
        }
        records.sort_by_key(|r| r.at);
        for rec in records {
            self.handle_fault(rec);
        }
    }

    /// Loss at or above this fraction is treated as a link failure (the
    /// paper's "degraded beyond use" threshold) and triggers a re-route.
    const LOSS_FAILURE_THRESHOLD: f64 = 0.25;

    fn handle_fault(&mut self, rec: FaultRecord) {
        self.journal_event(
            Severity::Warn,
            JournalKind::FaultInjected,
            format!("{} {}", rec.kind.label(), rec.kind.target()),
        );
        match rec.kind {
            FaultKind::LinkDown { a, b } => self.heal_link(&a, &b),
            FaultKind::LossSpike { a, b, loss } if loss >= Self::LOSS_FAILURE_THRESHOLD => {
                self.heal_link(&a, &b)
            }
            FaultKind::LinkUp { a, b } | FaultKind::LossClear { a, b } => {
                if self.orch.mark_link_recovered(&a, &b) {
                    self.journal_event(
                        Severity::Info,
                        JournalKind::LinkRestored,
                        format!("link {a}-{b}"),
                    );
                }
            }
            FaultKind::VnfCrash { node } => self.heal_container(&node),
            // Tolerable degradations: delay spikes ride out on their own,
            // stalls are bridged by the RPC retry schedule.
            FaultKind::LossSpike { .. }
            | FaultKind::DelaySpike { .. }
            | FaultKind::DelayClear { .. }
            | FaultKind::VnfStall { .. }
            | FaultKind::VnfResume { .. } => {}
        }
    }

    /// Link failed (or degraded beyond use): mark it in the resource view
    /// and re-route every chain whose path crossed it, keeping placements.
    fn heal_link(&mut self, a: &str, b: &str) {
        self.orch.mark_link_failed(a, b);
        for chain in self.orch.chains_using_link(a, b) {
            self.recover_chain(&chain, RecoveryAction::Reroute);
        }
    }

    /// Container died: its agent is gone, its residuals are written off,
    /// and every chain with a VNF on it is re-mapped onto survivors and
    /// redeployed over NETCONF.
    fn heal_container(&mut self, container: &str) {
        self.clients.remove(container); // session died with the agent
        self.orch.mark_container_failed(container);
        for chain in self.orch.chains_on_container(container) {
            self.recover_chain(&chain, RecoveryAction::Remap);
        }
    }

    /// Runs one recovery action under a `recovery` span, updating the
    /// recovery counters and latency histogram.
    fn recover_chain(&mut self, chain: &str, action: RecoveryAction) {
        let start = self.sim.now();
        let sp = self.tracer.enter("recovery", start.as_ns());
        let result = match action {
            RecoveryAction::Reroute => self.reroute_deployed(chain),
            RecoveryAction::Remap => self.remap_deployed(chain),
        };
        self.tracer.exit(sp, self.sim.now().as_ns());
        match result {
            Ok(()) => {
                self.recoveries_ctr.inc();
                self.recovery_latency.observe(self.sim.now().since(start));
                self.journal_event(
                    Severity::Info,
                    JournalKind::HealRecovered,
                    format!("chain {chain} ({})", action.label()),
                );
            }
            Err(e) => {
                self.recovery_failures_ctr.inc();
                self.abandon_chain(chain);
                self.journal_event(
                    Severity::Error,
                    JournalKind::HealFailed,
                    format!("chain {chain}: {e}"),
                );
            }
        }
    }

    /// Re-routes a deployed chain around failed links (placement kept),
    /// then re-steers its flows onto the new paths.
    fn reroute_deployed(&mut self, chain: &str) -> Result<(), EscapeError> {
        let mapping = self
            .orch
            .reroute_chain(chain)
            .map_err(|e| EscapeError::MappingFailed(vec![(chain.to_string(), e)]))?;
        let mut dc = self
            .deployed
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
        dc.mapping = mapping;
        self.resteer(&mut dc)?;
        self.deployed.insert(chain.to_string(), dc);
        Ok(())
    }

    /// Fully re-maps a chain (new placement on surviving containers),
    /// redeploys its VNFs over NETCONF under the original cookie, and
    /// re-steers.
    fn remap_deployed(&mut self, chain: &str) -> Result<(), EscapeError> {
        let sg = self
            .graphs
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("service graph of chain {chain}")))?;
        let old = self
            .deployed
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
        let mapping = self
            .orch
            .remap_chain(&sg, chain)
            .map_err(|e| EscapeError::MappingFailed(vec![(chain.to_string(), e)]))?;
        // Best-effort stop of surviving old instances: their containers
        // may host the replacements too, so don't leak running VNFs.
        for v in &old.vnfs {
            if self.orch.state().container_failed(&v.container) {
                continue; // died with the container
            }
            let vid = v.vnf_id.clone();
            let _ = self.rpc(&v.container, |c| c.stop_vnf(&vid));
        }
        let mut txn = ChainTxn::new(mapping, old.cookie);
        if let Err(e) = self.prepare_vnfs(&sg, &mut txn) {
            // Undo the partial redeploy so nothing keeps running for a
            // chain that is about to be abandoned.
            let mut steps = Vec::new();
            self.roll_back_vnfs(&txn.vnfs, &mut steps);
            return Err(e);
        }
        let mut dc = txn.into_deployed();
        self.resteer(&mut dc)?;
        self.deployed.insert(chain.to_string(), dc);
        Ok(())
    }

    /// Replaces a chain's steering rules atomically (stale rules deleted,
    /// new ones installed at one flush) and waits for the switches.
    fn resteer(&mut self, dc: &mut DeployedChain) -> Result<(), EscapeError> {
        let rules = compile_rules(&self.infra, dc)?;
        dc.rules = rules.len();
        let ctl = self
            .sim
            .node_as_mut::<Controller>(self.infra.controller)
            .expect("controller");
        ctl.component_as_mut::<TrafficSteering>()
            .expect("steering component")
            .resteer_chain(dc.cookie, rules);
        Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
        self.await_steering()
    }

    /// A chain that could not be recovered: stop whatever VNFs of it
    /// survive (best effort), tear its stale rules out of the switches,
    /// release any reservation still held and forget it. Its service
    /// graph stays cached for a later manual redeploy.
    fn abandon_chain(&mut self, chain: &str) {
        let Some(dc) = self.deployed.remove(chain) else {
            return;
        };
        // Nothing may keep running for a dead chain (leak audit).
        for v in &dc.vnfs {
            if self.orch.state().container_failed(&v.container) {
                continue; // died with the container
            }
            let vid = v.vnf_id.clone();
            let _ = self.rpc(&v.container, |c| c.stop_vnf(&vid));
        }
        self.steering_mut().remove_chain(dc.cookie);
        Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
        // Usually a no-op (the failed re-map/re-route already released),
        // but a steering failure after a successful re-map leaves the
        // reservation live — drop it here.
        self.orch.release_chain(chain);
    }

    // ---------------- elastic scaling -------------------------------

    /// Enables the telemetry-driven autoscaler. It is ticked at every
    /// sampler boundary (see [`Escape::enable_sampler`] — without a
    /// sampler there are no ticks), reading per-replica utilization,
    /// queue depth and the flight recorder's SLA verdicts, and executes
    /// its decisions through [`Escape::scale_chain`]. Same seed + same
    /// workload ⇒ byte-identical decision and journal streams.
    pub fn enable_autoscaler(&mut self, cfg: AutoscalerConfig, seed: u64) {
        self.autoscaler = Some(Autoscaler::new(cfg, seed));
        self.last_autoscale_ns = self.sim.now().as_ns();
    }

    /// The autoscaler, if enabled (tick/decision counters).
    pub fn autoscaler(&self) -> Option<&Autoscaler> {
        self.autoscaler.as_ref()
    }

    /// Live replica count of a chain VNF (primary included); 0 if the
    /// chain or VNF is unknown.
    pub fn replica_count(&self, chain: &str, vnf: &str) -> u32 {
        self.deployed
            .get(chain)
            .map_or(0, |dc| replicas_of(dc, vnf).len() as u32)
    }

    /// The live replicas of a chain VNF as (replica index, vnf id,
    /// container), primary (index 0) first.
    pub fn replicas(&self, chain: &str, vnf: &str) -> Vec<(u32, String, String)> {
        let Some(dc) = self.deployed.get(chain) else {
            return Vec::new();
        };
        replicas_of(dc, vnf)
            .into_iter()
            .enumerate()
            .map(|(j, v)| (j as u32, v.vnf_id.clone(), v.container.clone()))
            .collect()
    }

    /// Resizes one chain VNF to `to` replicas with a make-before-break
    /// migration:
    ///
    /// 1. **prepare** — reserve compute for each new replica, bring it up
    ///    over NETCONF on the primary's container (own Click router, own
    ///    virtual-CPU process), and stage the chain's *replacement* rule
    ///    set — hash-bucket fan-out across the replicas — in the
    ///    controller's shadow set. Live traffic still rides the old rules.
    /// 2. **promote** — the staged set atomically replaces the live set
    ///    at one flush: every flow is re-hashed onto its bucket with no
    ///    window in which neither rule set answers.
    /// 3. **drain** (scale-in) — one control-latency beat lets in-flight
    ///    frames clear the retiring replicas.
    /// 4. **retire** (scale-in) — surplus replicas are stopped,
    ///    disconnected and their reservations released.
    ///
    /// A failure in prepare or promote rolls the transaction back to the
    /// fingerprint-identical pre-scale state and surfaces as
    /// [`EscapeError::ScaleFailed`] carrying the migration phase. A
    /// disruptive fault landing mid-transaction aborts it the same way
    /// (the fault record is left for the regular healing pass).
    /// Scaling to the current count is a no-op.
    pub fn scale_chain(
        &mut self,
        chain: &str,
        vnf: &str,
        to: u32,
    ) -> Result<ScaleReport, EscapeError> {
        self.scale_chain_tagged(chain, vnf, to, "manual")
    }

    /// [`Escape::scale_chain`] with the decision origin (`manual` or an
    /// autoscaler reason label) stamped into the journal detail.
    fn scale_chain_tagged(
        &mut self,
        chain: &str,
        vnf: &str,
        to: u32,
        why: &str,
    ) -> Result<ScaleReport, EscapeError> {
        if !(1..=MAX_REPLICAS).contains(&to) {
            return Err(EscapeError::Invalid(format!(
                "replica count {to} out of range 1..={MAX_REPLICAS}"
            )));
        }
        let dc = self
            .deployed
            .get(chain)
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
        let pos = dc
            .mapping
            .placement
            .iter()
            .position(|(n, _)| n == vnf)
            .ok_or_else(|| EscapeError::NotFound(format!("vnf {vnf} in chain {chain}")))?;
        let current: Vec<DeployedVnf> = replicas_of(&dc, vnf).into_iter().cloned().collect();
        let from = current.len() as u32;
        let started_at = self.sim.now();
        if from == to {
            return Ok(ScaleReport {
                chain: chain.to_string(),
                vnf: vnf.to_string(),
                from,
                to,
                rules: dc.rules,
                started_at,
                promoted_at: started_at,
                committed_at: started_at,
            });
        }
        let seg_in = &dc.mapping.segments[pos];
        let seg_out = &dc.mapping.segments[pos + 1];
        if seg_in.nodes.len() < 2 || seg_out.nodes.len() < 2 {
            return Err(EscapeError::Invalid(format!(
                "vnf {vnf} in chain {chain} is co-located (internal bindings); scaling needs fabric-attached devices"
            )));
        }
        let sw_in = seg_in.nodes[seg_in.nodes.len() - 2].clone();
        let sw_out = seg_out.nodes[1].clone();
        let req = self
            .graphs
            .get(chain)
            .and_then(|sg| sg.vnf_named(vnf))
            .cloned()
            .ok_or_else(|| EscapeError::NotFound(format!("service graph vnf {vnf}")))?;
        let txn = ScaleTxn {
            chain: chain.to_string(),
            vnf: vnf.to_string(),
            cookie: dc.cookie,
            container: dc.mapping.placement[pos].1.clone(),
            cpu: req.cpu,
            mem_mb: req.mem_mb,
            reserved: 0,
            prepared: Vec::new(),
            staged: false,
            promoted: false,
            rules: 0,
            bucket_rules: Vec::new(),
            old: dc,
        };
        let (kind, ctr) = if to > from {
            (JournalKind::ScaleOut, self.scale_outs_ctr.clone())
        } else {
            (JournalKind::ScaleIn, self.scale_ins_ctr.clone())
        };
        self.journal_event(
            Severity::Info,
            kind,
            format!("chain {chain} vnf {vnf} {from}->{to} ({why})"),
        );
        let sp = self.tracer.enter("scale", self.sim.now().as_ns());
        let result = if to > from {
            self.scale_out(txn, &current, to, &req, &sw_in, &sw_out, started_at)
        } else {
            self.scale_in(txn, &current, to, started_at)
        };
        self.tracer.exit(sp, self.sim.now().as_ns());
        if let Ok(report) = &result {
            ctr.inc();
            self.journal_event(
                Severity::Info,
                JournalKind::MigrationCommitted,
                format!(
                    "chain {chain} vnf {vnf} {from}->{to} rules {} cutover {}ns",
                    report.rules,
                    report.cutover_latency().as_ns()
                ),
            );
        }
        result
    }

    /// Scale-out: prepare (reserve + bring up + stage) then promote.
    #[allow(clippy::too_many_arguments)]
    fn scale_out(
        &mut self,
        mut txn: ScaleTxn,
        current: &[DeployedVnf],
        to: u32,
        req: &escape_sg::VnfReq,
        sw_in: &str,
        sw_out: &str,
        started_at: Time,
    ) -> Result<ScaleReport, EscapeError> {
        let from = current.len() as u32;
        // Admission gate: growing a chain competes with new deploys for
        // the same compute, so the hard watermark applies here too.
        if let Some(cfg) = self.admission {
            let utilization = self.orch.cpu_utilization();
            if utilization >= cfg.hard_watermark {
                let cause = EscapeError::Admission(AdmissionVerdict::RejectedHard {
                    utilization,
                    hard_watermark: cfg.hard_watermark,
                });
                return Err(self.roll_back_scale(txn, MigrationPhase::Prepare, cause));
            }
        }
        if let Err(cause) = self.scale_prepare_out(&mut txn, current, to, req, sw_in, sw_out) {
            return Err(self.roll_back_scale(txn, MigrationPhase::Prepare, cause));
        }
        if let Some(fault) = self.disruptive_fault_pending() {
            let cause = EscapeError::Steering(format!("fault {fault} landed mid-migration"));
            return Err(self.roll_back_scale(txn, MigrationPhase::Prepare, cause));
        }
        if let Err(cause) = self.scale_promote(&mut txn) {
            return Err(self.roll_back_scale(txn, MigrationPhase::Promote, cause));
        }
        let promoted_at = self.sim.now();
        // Commit: publish the grown replica set.
        let dc = self.deployed.get_mut(&txn.chain).expect("chain is live");
        dc.vnfs.extend(txn.prepared.iter().map(|p| p.dv.clone()));
        dc.rules = txn.rules;
        self.publish_bucket_gauges(&txn.chain, &txn.vnf, &txn.bucket_rules, from as usize);
        Ok(ScaleReport {
            chain: txn.chain,
            vnf: txn.vnf,
            from,
            to,
            rules: txn.rules,
            started_at,
            promoted_at,
            committed_at: self.sim.now(),
        })
    }

    /// Scale-out prepare leg: one reservation and one NETCONF bring-up
    /// (initiate, connect dev 0/1 to the fabric, start) per new replica,
    /// then the whole replacement rule set into the shadow set.
    fn scale_prepare_out(
        &mut self,
        txn: &mut ScaleTxn,
        current: &[DeployedVnf],
        to: u32,
        req: &escape_sg::VnfReq,
        sw_in: &str,
        sw_out: &str,
    ) -> Result<(), EscapeError> {
        let from = current.len() as u32;
        for _ in from..to {
            self.orch
                .reserve_replica(&txn.chain, &txn.container, txn.cpu, txn.mem_mb)
                .map_err(|e| EscapeError::Invalid(format!("replica reservation: {e}")))?;
            txn.reserved += 1;
        }
        for j in from..to {
            let (ty, opts, cfg) = (
                req.vnf_type.clone(),
                req.params.clone(),
                req.click_config.clone(),
            );
            let reply = self.rpc(&txn.container.clone(), |c| {
                c.initiate_vnf(&ty, cfg.as_deref(), &opts)
            })?;
            let vnf_id = vnf_id_of(&reply)
                .ok_or_else(|| EscapeError::Netconf("initiateVNF reply missing vnf-id".into()))?;
            txn.prepared.push(PreparedVnf {
                dv: DeployedVnf {
                    vnf_name: format!("{}#{j}", txn.vnf),
                    vnf_type: req.vnf_type.clone(),
                    container: txn.container.clone(),
                    vnf_id: vnf_id.clone(),
                    switch_ports: HashMap::new(),
                },
                started: false,
            });
            for (dev, sw) in [(0u16, sw_in), (1u16, sw_out)] {
                let vid = vnf_id.clone();
                let reply = self.rpc(&txn.container.clone(), move |c| {
                    c.connect_vnf(&vid, dev, sw)
                })?;
                let sp = switch_port_of(&reply)
                    .ok_or_else(|| EscapeError::Netconf("connectVNF reply missing port".into()))?;
                txn.prepared
                    .last_mut()
                    .unwrap()
                    .dv
                    .switch_ports
                    .insert(dev, sp);
            }
            let vid = vnf_id.clone();
            self.rpc(&txn.container.clone(), |c| c.start_vnf(&vid))?;
            txn.prepared.last_mut().unwrap().started = true;
        }
        let mut candidate = txn.old.clone();
        candidate
            .vnfs
            .extend(txn.prepared.iter().map(|p| p.dv.clone()));
        self.stage_replacement(txn, &candidate, to)
    }

    /// Scale-in: stage the survivor rule set, promote, drain, retire.
    fn scale_in(
        &mut self,
        mut txn: ScaleTxn,
        current: &[DeployedVnf],
        to: u32,
        started_at: Time,
    ) -> Result<ScaleReport, EscapeError> {
        let from = current.len() as u32;
        // Highest replica indices retire; the primary never does.
        let retired: Vec<DeployedVnf> = current[to as usize..].to_vec();
        let retired_ids: HashSet<&str> = retired.iter().map(|v| v.vnf_id.as_str()).collect();
        let mut candidate = txn.old.clone();
        candidate
            .vnfs
            .retain(|v| !retired_ids.contains(v.vnf_id.as_str()));
        if let Err(cause) = self.stage_replacement(&mut txn, &candidate, to) {
            return Err(self.roll_back_scale(txn, MigrationPhase::Prepare, cause));
        }
        if let Some(fault) = self.disruptive_fault_pending() {
            let cause = EscapeError::Steering(format!("fault {fault} landed mid-migration"));
            return Err(self.roll_back_scale(txn, MigrationPhase::Prepare, cause));
        }
        if let Err(cause) = self.scale_promote(&mut txn) {
            return Err(self.roll_back_scale(txn, MigrationPhase::Promote, cause));
        }
        let promoted_at = self.sim.now();
        // Drain: flows already re-hashed onto survivors; one
        // control-latency beat flushes frames still inside the retiring
        // replicas out to the egress switch.
        self.sim
            .run_until(self.sim.now() + crate::infra::CTRL_LATENCY + Time::from_ms(1));
        // Retire. Agent-reported errors mean the step was already done
        // (idempotent retry); transport errors abort with the remaining
        // replicas still registered, so a retry can finish the job.
        self.deployed
            .get_mut(&txn.chain)
            .expect("chain is live")
            .rules = txn.rules;
        for v in retired.iter().rev() {
            let vid = v.vnf_id.clone();
            match self.rpc(&v.container.clone(), |c| c.stop_vnf(&vid)) {
                Ok(_) | Err(EscapeError::Netconf(_)) => {}
                Err(e) => return Err(self.fail_retire(&txn, e)),
            }
            let mut devs: Vec<u16> = v.switch_ports.keys().copied().collect();
            devs.sort_unstable();
            for dev in devs {
                let vid = v.vnf_id.clone();
                match self.rpc(&v.container.clone(), move |c| c.disconnect_vnf(&vid, dev)) {
                    Ok(_) | Err(EscapeError::Netconf(_)) => {}
                    Err(e) => return Err(self.fail_retire(&txn, e)),
                }
            }
            self.orch
                .release_replica(&txn.chain, &v.container, txn.cpu, txn.mem_mb);
            self.deployed
                .get_mut(&txn.chain)
                .expect("chain is live")
                .vnfs
                .retain(|x| x.vnf_id != v.vnf_id);
            self.replica_usage_last
                .remove(&(v.container.clone(), v.vnf_id.clone()));
        }
        self.publish_bucket_gauges(&txn.chain, &txn.vnf, &txn.bucket_rules, from as usize);
        Ok(ScaleReport {
            chain: txn.chain,
            vnf: txn.vnf,
            from,
            to,
            rules: txn.rules,
            started_at,
            promoted_at,
            committed_at: self.sim.now(),
        })
    }

    /// Compiles the replacement rule set for `candidate` (hash-bucket
    /// fan-out across its replica sets) and stages it under the chain's
    /// cookie. Also records the per-replica bucket-rule counts for the
    /// telemetry gauges.
    fn stage_replacement(
        &mut self,
        txn: &mut ScaleTxn,
        candidate: &DeployedChain,
        to: u32,
    ) -> Result<(), EscapeError> {
        let rules = compile_rules(&self.infra, candidate)?;
        txn.rules = rules.len();
        txn.bucket_rules = (0..to)
            .map(|j| {
                rules
                    .iter()
                    .filter(|r| r.match_.bucket == Some((to as u8, j as u8)))
                    .count() as u64
            })
            .collect();
        self.steering_mut().stage_rules(txn.cookie, rules);
        txn.staged = true;
        Ok(())
    }

    /// Promote: the staged set replaces the live rules at one flush —
    /// the make-before-break cutover.
    fn scale_promote(&mut self, txn: &mut ScaleTxn) -> Result<(), EscapeError> {
        self.steering_mut().promote_staged(txn.cookie);
        txn.staged = false;
        txn.promoted = true;
        Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
        self.await_steering()
    }

    /// Undoes a failed scaling transaction in reverse: staged rules
    /// discarded (or, post-promote, the pre-scale rules recompiled and
    /// swapped back), new replicas stopped and disconnected, replica
    /// reservations released. Leaves the environment
    /// fingerprint-identical to its pre-scale state.
    fn roll_back_scale(
        &mut self,
        txn: ScaleTxn,
        phase: MigrationPhase,
        cause: EscapeError,
    ) -> EscapeError {
        let mut steps = Vec::new();
        if txn.staged {
            self.steering_mut().discard_staged(txn.cookie);
            steps.push(RollbackStep {
                action: "discard-rules",
                target: txn.chain.clone(),
                ok: true,
            });
        }
        if txn.promoted {
            let ok = match compile_rules(&self.infra, &txn.old) {
                Ok(rules) => {
                    self.steering_mut().resteer_chain(txn.cookie, rules);
                    Controller::request_flush(&mut self.sim, self.infra.controller, Time::ZERO);
                    self.await_steering().is_ok()
                }
                Err(_) => false,
            };
            steps.push(RollbackStep {
                action: "restore-rules",
                target: txn.chain.clone(),
                ok,
            });
        }
        self.roll_back_vnfs(&txn.prepared, &mut steps);
        for p in &txn.prepared {
            self.replica_usage_last
                .remove(&(p.dv.container.clone(), p.dv.vnf_id.clone()));
        }
        for _ in 0..txn.reserved {
            let ok = self
                .orch
                .release_replica(&txn.chain, &txn.container, txn.cpu, txn.mem_mb);
            steps.push(RollbackStep {
                action: "release-replica",
                target: format!("{}/{}", txn.chain, txn.vnf),
                ok,
            });
        }
        let rollback = RollbackReport { steps };
        self.migration_rollbacks_ctr.inc();
        self.journal_event(
            Severity::Warn,
            JournalKind::MigrationRolledBack,
            format!(
                "chain {} vnf {} in {phase}: {cause} ({rollback})",
                txn.chain, txn.vnf
            ),
        );
        EscapeError::ScaleFailed {
            chain: txn.chain,
            vnf: txn.vnf,
            phase,
            cause: Box::new(cause),
            rollback,
        }
    }

    /// A transport failure while retiring surplus replicas: the cutover
    /// is already committed (survivor rules live), so nothing is undone —
    /// the not-yet-retired replicas stay registered and reserved, and a
    /// scale retry finishes the job once the agent answers again.
    fn fail_retire(&mut self, txn: &ScaleTxn, cause: EscapeError) -> EscapeError {
        self.migration_rollbacks_ctr.inc();
        self.journal_event(
            Severity::Warn,
            JournalKind::MigrationRolledBack,
            format!(
                "chain {} vnf {} in retire: {cause} (cutover kept; retry to finish)",
                txn.chain, txn.vnf
            ),
        );
        EscapeError::ScaleFailed {
            chain: txn.chain.clone(),
            vnf: txn.vnf.clone(),
            phase: MigrationPhase::Retire,
            cause: Box::new(cause),
            rollback: RollbackReport::default(),
        }
    }

    /// A destabilizing fault record (link down, container crash, loss at
    /// or above the failure threshold) sitting in an injector, waiting
    /// for the healing pass. Benign records (clears, tolerable spikes)
    /// don't abort migrations.
    fn disruptive_fault_pending(&self) -> Option<String> {
        for &inj in &self.injectors {
            let Some(fi) = self.sim.peek_node_as::<FaultInjector>(inj) else {
                continue;
            };
            for r in fi.pending_records() {
                let disruptive = matches!(
                    r.kind,
                    FaultKind::LinkDown { .. } | FaultKind::VnfCrash { .. }
                ) || matches!(
                    r.kind,
                    FaultKind::LossSpike { loss, .. } if loss >= Self::LOSS_FAILURE_THRESHOLD
                );
                if disruptive {
                    return Some(format!("{} {}", r.kind.label(), r.kind.target()));
                }
            }
        }
        None
    }

    /// One autoscaler tick: build per-replica-set samples from the
    /// containers' virtual CPU models and the latest SLA verdicts,
    /// publish the per-replica gauges, and execute the policy's
    /// decisions. Failures roll back inside [`Escape::scale_chain`] and
    /// are journaled there; the loop moves on.
    fn autoscale_tick(&mut self) {
        if self.autoscaler.is_none() || self.deployed.is_empty() {
            return;
        }
        let now_ns = self.sim.now().as_ns();
        let interval_ns = now_ns.saturating_sub(self.last_autoscale_ns).max(1);
        self.last_autoscale_ns = now_ns;
        let samples = self.replica_samples(interval_ns);
        let decisions = self
            .autoscaler
            .as_mut()
            .expect("checked above")
            .tick(&samples);
        for d in decisions {
            let _ = self.scale_chain_tagged(&d.chain, &d.vnf, d.to, d.reason.label());
        }
    }

    /// One [`escape_scale::VnfSample`] per replica set of every deployed
    /// chain, plus the per-replica utilization and queue-depth gauges.
    /// Utilization is the virtual-CPU busy fraction over the tick
    /// interval; queue depth is the hosting container's output backlog.
    fn replica_samples(&mut self, interval_ns: u64) -> Vec<escape_scale::VnfSample> {
        let mut sets: Vec<(String, String, Vec<DeployedVnf>)> = Vec::new();
        for chain in self.deployed_chains() {
            let dc = &self.deployed[&chain];
            for (vnf_name, _) in &dc.mapping.placement {
                let set: Vec<DeployedVnf> =
                    replicas_of(dc, vnf_name).into_iter().cloned().collect();
                if !set.is_empty() {
                    sets.push((chain.clone(), vnf_name.clone(), set));
                }
            }
        }
        let mut samples = Vec::new();
        for (chain, vnf, set) in sets {
            let sla_violated = self.sla_last.get(&chain) == Some(&false);
            let mut util_sum = 0.0;
            let mut queue_max = 0u64;
            let mut drops = 0u64;
            for (j, v) in set.iter().enumerate() {
                let Some((usage, queue, dropped)) = self
                    .infra
                    .node(&v.container)
                    .and_then(|n| self.sim.peek_node_as::<VnfContainer>(n))
                    .and_then(|c| {
                        let host = c.host();
                        let idx = host.vnf_index(&v.vnf_id)?;
                        let slot = &host.vnfs[idx];
                        Some((
                            host.cpu.process_usage(slot.proc),
                            c.pending_depth() as u64,
                            slot.dropped_not_running,
                        ))
                    })
                else {
                    continue;
                };
                let key = (v.container.clone(), v.vnf_id.clone());
                let last = self.replica_usage_last.insert(key, usage).unwrap_or(0);
                let util = usage.saturating_sub(last) as f64 / interval_ns as f64;
                util_sum += util;
                queue_max = queue_max.max(queue);
                drops += dropped;
                let replica = j.to_string();
                let labels = [
                    ("chain", chain.as_str()),
                    ("replica", replica.as_str()),
                    ("vnf", vnf.as_str()),
                ];
                self.telemetry
                    .gauge_with("escape.replica_utilization_pm", &labels)
                    .set((util * 1000.0).round() as i64);
                self.telemetry
                    .gauge_with("escape.replica_queue_depth", &labels)
                    .set(queue as i64);
            }
            samples.push(escape_scale::VnfSample {
                chain,
                vnf,
                replicas: set.len() as u32,
                utilization: util_sum / set.len() as f64,
                queue_depth: queue_max,
                drops,
                sla_violated,
            });
        }
        samples
    }

    /// Per-replica steering-bucket gauges
    /// (`escape.steering_bucket_rules{chain,vnf,replica}`): how many
    /// live flow rules fan traffic into each replica's bucket. 0 for an
    /// unscaled (single-replica, unbucketed) set. Replica indexes in
    /// `bucket_rules.len()..prev_replicas` were just retired by a
    /// scale-in; their gauges (bucket rules, utilization, queue depth)
    /// are zeroed rather than left frozen at the last live reading.
    fn publish_bucket_gauges(
        &self,
        chain: &str,
        vnf: &str,
        bucket_rules: &[u64],
        prev_replicas: usize,
    ) {
        for (j, count) in bucket_rules.iter().enumerate() {
            let replica = j.to_string();
            self.telemetry
                .gauge_with(
                    "escape.steering_bucket_rules",
                    &[
                        ("chain", chain),
                        ("replica", replica.as_str()),
                        ("vnf", vnf),
                    ],
                )
                .set(*count as i64);
        }
        for j in bucket_rules.len()..prev_replicas {
            let replica = j.to_string();
            let labels = [
                ("chain", chain),
                ("replica", replica.as_str()),
                ("vnf", vnf),
            ];
            for name in [
                "escape.steering_bucket_rules",
                "escape.replica_utilization_pm",
                "escape.replica_queue_depth",
            ] {
                self.telemetry.gauge_with(name, &labels).set(0);
            }
        }
    }

    // ---------------- traffic & inspection --------------------------

    /// Installs static ARP entries so `src` can address `dst` directly
    /// (chains steer by IP; ESCAPE pre-provisions ARP like Mininet's
    /// `--arp`).
    fn provision_arp(&mut self, src: &str, dst: &str) -> Result<(), EscapeError> {
        let (dst_mac, dst_ip) = *self
            .infra
            .sap_addr
            .get(dst)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {dst}")))?;
        let src_node = self
            .infra
            .node(src)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {src}")))?;
        self.sim
            .node_as_mut::<Host>(src_node)
            .ok_or_else(|| EscapeError::Invalid(format!("{src} is not a SAP")))?
            .static_arp(dst_ip, dst_mac);
        Ok(())
    }

    /// Starts a paced UDP stream between two SAPs: `count` frames of
    /// `frame_len` bytes, one every `interval_us` microseconds.
    pub fn start_udp(
        &mut self,
        from: &str,
        to: &str,
        frame_len: usize,
        interval_us: u64,
        count: u64,
    ) -> Result<(), EscapeError> {
        self.start_udp_with_sport(from, to, frame_len, interval_us, count, 40_000)
    }

    /// [`Escape::start_udp`] with an explicit UDP source port. The
    /// multi-domain coordinator stamps each chain's wire-identity port
    /// here so gateways can tell co-located chains apart.
    pub fn start_udp_with_sport(
        &mut self,
        from: &str,
        to: &str,
        frame_len: usize,
        interval_us: u64,
        count: u64,
        sport: u16,
    ) -> Result<(), EscapeError> {
        let (_, dst_ip) = *self
            .infra
            .sap_addr
            .get(to)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {to}")))?;
        self.provision_arp(from, to)?;
        let node = self
            .infra
            .node(from)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {from}")))?;
        let host = self
            .sim
            .node_as_mut::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{from} is not a SAP")))?;
        host.add_stream(
            dst_ip,
            sport,
            9_000,
            frame_len,
            Time::from_us(interval_us),
            count,
        );
        Host::start_streams(&mut self.sim, node, Time::from_us(1));
        Ok(())
    }

    /// Starts a paced ICMP ping from one SAP to another: `count` echo
    /// requests, one every `interval_us`. The echo *replies* need a
    /// return path, so deploy a chain in each direction first.
    pub fn start_ping(
        &mut self,
        from: &str,
        to: &str,
        interval_us: u64,
        count: u64,
    ) -> Result<(), EscapeError> {
        let (_, dst_ip) = *self
            .infra
            .sap_addr
            .get(to)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {to}")))?;
        self.provision_arp(from, to)?;
        self.provision_arp(to, from)?;
        let node = self
            .infra
            .node(from)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {from}")))?;
        let host = self
            .sim
            .node_as_mut::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{from} is not a SAP")))?;
        host.add_ping(dst_ip, Time::from_us(interval_us), count);
        Host::start_streams(&mut self.sim, node, Time::from_us(1));
        Ok(())
    }

    // ---------------- cross-domain gateway hooks --------------------

    /// Marks a SAP as a domain gateway: UDP payloads it receives are
    /// parked in a handoff buffer (with arrival time and original birth
    /// timestamp) for the multi-domain coordinator instead of landing in
    /// the user inbox.
    pub fn set_gateway_sap(&mut self, sap: &str) -> Result<(), EscapeError> {
        let node = self
            .infra
            .node(sap)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {sap}")))?;
        self.sim
            .node_as_mut::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{sap} is not a SAP")))?
            .set_gateway(true);
        Ok(())
    }

    /// Takes everything a gateway SAP has received since the last drain.
    pub fn drain_gateway_rx(&mut self, sap: &str) -> Result<Vec<GatewayRx>, EscapeError> {
        let node = self
            .infra
            .node(sap)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {sap}")))?;
        Ok(std::mem::take(
            &mut self
                .sim
                .node_as_mut::<Host>(node)
                .ok_or_else(|| EscapeError::Invalid(format!("{sap} is not a SAP")))?
                .gw_rx,
        ))
    }

    /// Re-originates a handed-off payload from gateway SAP `from` toward
    /// SAP `to` at absolute virtual time `at`, preserving the packet's
    /// original birth timestamp so end-to-end latency spans domains.
    /// `src_port` identifies the chain on the wire: downstream gateways
    /// see the shared gateway SAP as the source IP, so the port is what
    /// keeps chains sharing a gateway path distinguishable.
    /// `at` must not be in this domain's past.
    pub fn gateway_send(
        &mut self,
        from: &str,
        to: &str,
        payload: Vec<u8>,
        born_ns: u64,
        at: Time,
        src_port: u16,
    ) -> Result<(), EscapeError> {
        let (src_mac, src_ip) = *self
            .infra
            .sap_addr
            .get(from)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {from}")))?;
        let (dst_mac, dst_ip) = *self
            .infra
            .sap_addr
            .get(to)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {to}")))?;
        let frame = PacketBuilder::udp(
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            9_000,
            Bytes::from(payload),
        );
        let node = self
            .infra
            .node(from)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {from}")))?;
        let delay = Time::from_ns(at.since(self.sim.now()));
        let host = self
            .sim
            .node_as_mut::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{from} is not a SAP")))?;
        host.queue_frame(frame, born_ns);
        Host::flush_queued(&mut self.sim, node, delay);
        Ok(())
    }

    /// Receive-side statistics of a SAP.
    pub fn sap_stats(&self, sap: &str) -> Result<HostStats, EscapeError> {
        let node = self
            .infra
            .node(sap)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {sap}")))?;
        Ok(self
            .sim
            .node_as::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{sap} is not a SAP")))?
            .stats
            .clone())
    }

    /// Payloads received by a SAP ("inspect live traffic").
    pub fn sap_inbox(&self, sap: &str) -> Result<Vec<Vec<u8>>, EscapeError> {
        let node = self
            .infra
            .node(sap)
            .ok_or_else(|| EscapeError::NotFound(format!("sap {sap}")))?;
        Ok(self
            .sim
            .node_as::<Host>(node)
            .ok_or_else(|| EscapeError::Invalid(format!("{sap} is not a SAP")))?
            .inbox
            .clone())
    }

    // ---------------- conservation invariants -----------------------

    /// Audits the whole environment for leaks and returns every
    /// violation found (empty = clean). Checked after every soak step:
    ///
    /// * **resource conservation** — per container and per link,
    ///   effective free capacity plus the sum of live-chain reservations
    ///   equals the topology capacity ([`Orchestrator::audit`]);
    /// * **no orphan flow rules** — every cookie on every switch, and
    ///   every cookie tracked by the steering component, belongs to a
    ///   live chain;
    /// * **no orphan VNFs** — every *running* VNF on a live container is
    ///   one a deployed chain put there;
    /// * **no dangling sessions** — every ready NETCONF session points
    ///   at an existing container.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = self.orch.audit();
        let live_cookies: HashMap<u64, &str> = self
            .deployed
            .iter()
            .map(|(name, dc)| (dc.cookie, name.as_str()))
            .collect();

        // Flow tables: no rule without a live chain's cookie.
        let mut switches: Vec<(&String, &u64)> = self.infra.dpid.iter().collect();
        switches.sort();
        for (name, _) in switches {
            let Some(node) = self.infra.node(name) else {
                continue;
            };
            let Some(sw) = self.sim.peek_node_as::<Switch>(node) else {
                continue;
            };
            for e in sw.table.entries() {
                if e.cookie != 0 && !live_cookies.contains_key(&e.cookie) {
                    violations.push(format!(
                        "switch {name}: flow rule with cookie {} but no live chain",
                        e.cookie
                    ));
                }
            }
        }

        // Steering component: every tracked chain id must be live.
        if let Some(st) = self
            .sim
            .node_as::<Controller>(self.infra.controller)
            .and_then(|c| c.component_as::<TrafficSteering>())
        {
            for id in st.tracked_chains() {
                if !live_cookies.contains_key(&id) {
                    violations.push(format!(
                        "steering: rules tracked for cookie {id} but no live chain"
                    ));
                }
            }
        }

        // Containers: every running VNF belongs to a deployed chain.
        let expected: HashSet<(&str, &str)> = self
            .deployed
            .values()
            .flat_map(|dc| dc.vnfs.iter())
            .map(|v| (v.container.as_str(), v.vnf_id.as_str()))
            .collect();
        let mut containers: Vec<&String> = self.infra.netconf_conn.keys().collect();
        containers.sort();
        for name in containers {
            if self.orch.state().container_failed(name) {
                continue; // crashed: its husk is unreachable
            }
            let Some(node) = self.infra.node(name) else {
                continue;
            };
            let Some(c) = self.sim.peek_node_as::<VnfContainer>(node) else {
                continue;
            };
            for slot in &c.host().vnfs {
                if slot.status == VnfStatus::Running
                    && !expected.contains(&(name.as_str(), slot.id.as_str()))
                {
                    violations.push(format!(
                        "container {name}: vnf {} running outside any embedding",
                        slot.id
                    ));
                }
            }
        }

        // Sessions: every ready client names an existing container.
        let mut sessions: Vec<&String> = self.clients.keys().collect();
        sessions.sort();
        for name in sessions {
            if self.clients[name].ready() && !self.infra.netconf_conn.contains_key(name) {
                violations.push(format!("netconf: dangling session to {name}"));
            }
        }
        violations
    }

    /// A deterministic, byte-comparable digest of all externally
    /// observable deployment state: the orchestrator's effective
    /// resource view, every switch's flow table, every live container's
    /// running VNFs (with their bindings) and the ready NETCONF
    /// sessions. Two environments with equal fingerprints hold the same
    /// chains. A rolled-back deploy must leave the fingerprint
    /// byte-identical to its pre-deploy value.
    pub fn state_fingerprint(&self) -> String {
        let mut out = String::new();
        let st = self.orch.state();
        for c in st.containers_sorted() {
            out.push_str(&format!(
                "cpu {c} {:.6} mem {}\n",
                st.effective_cpu_of(&c),
                st.effective_mem_of(&c)
            ));
        }
        let mut links: Vec<&(String, String)> = st.bw.keys().collect();
        links.sort();
        for l in links {
            out.push_str(&format!(
                "bw {}-{} {:.6}\n",
                l.0,
                l.1,
                st.effective_bw_of(&l.0, &l.1)
            ));
        }
        let mut switches: Vec<(&String, &u64)> = self.infra.dpid.iter().collect();
        switches.sort();
        for (name, _) in switches {
            let Some(sw) = self
                .infra
                .node(name)
                .and_then(|n| self.sim.peek_node_as::<Switch>(n))
            else {
                continue;
            };
            let mut flows: Vec<String> = sw
                .table
                .entries()
                .iter()
                .map(|e| {
                    format!(
                        "flow {name} cookie={} prio={} match={:?} actions={:?}\n",
                        e.cookie, e.priority, e.match_, e.actions
                    )
                })
                .collect();
            flows.sort();
            for f in flows {
                out.push_str(&f);
            }
        }
        let mut containers: Vec<&String> = self.infra.netconf_conn.keys().collect();
        containers.sort();
        for name in containers {
            if self.orch.state().container_failed(name) {
                continue;
            }
            let Some(c) = self
                .infra
                .node(name)
                .and_then(|n| self.sim.peek_node_as::<VnfContainer>(n))
            else {
                continue;
            };
            for slot in &c.host().vnfs {
                if slot.status != VnfStatus::Running {
                    continue;
                }
                let mut bindings: Vec<String> = slot
                    .bindings
                    .iter()
                    .map(|(dev, b)| format!("{dev}:{b:?}"))
                    .collect();
                bindings.sort();
                out.push_str(&format!(
                    "vnf {name} {} {} [{}]\n",
                    slot.id,
                    slot.vnf_type,
                    bindings.join(", ")
                ));
            }
        }
        let mut sessions: Vec<&String> = self
            .clients
            .iter()
            .filter(|(_, c)| c.ready())
            .map(|(n, _)| n)
            .collect();
        sessions.sort();
        for s in sessions {
            out.push_str(&format!("session {s}\n"));
        }
        out
    }

    /// Live VNF state over NETCONF (`getVNFInfo`) — the Clicky view:
    /// returns (handler path, value) pairs of the named chain VNF.
    pub fn monitor_vnf(
        &mut self,
        chain: &str,
        vnf_name: &str,
    ) -> Result<Vec<(String, String)>, EscapeError> {
        let (container, vnf_id) = {
            let dc = self
                .deployed
                .get(chain)
                .ok_or_else(|| EscapeError::NotFound(format!("chain {chain}")))?;
            let v = dc
                .vnfs
                .iter()
                .find(|v| v.vnf_name == vnf_name)
                .ok_or_else(|| EscapeError::NotFound(format!("vnf {vnf_name} in {chain}")))?;
            (v.container.clone(), v.vnf_id.clone())
        };
        let vid = vnf_id.clone();
        let reply = self.rpc(&container, |c| c.get_vnf_info(Some(&vid)))?;
        let ReplyBody::Data(data) = &reply.body else {
            return Err(EscapeError::Netconf("getVNFInfo returned no data".into()));
        };
        let mut out = Vec::new();
        for vnfs in data {
            for vnf in vnfs.find_all("vnf") {
                if vnf.child_text("id") == Some(vnf_id.as_str()) {
                    out.push((
                        "status".to_string(),
                        vnf.child_text("status").unwrap_or("").to_string(),
                    ));
                    for h in vnf.find_all("handler") {
                        out.push((
                            h.child_text("name").unwrap_or("").to_string(),
                            h.child_text("value").unwrap_or("").to_string(),
                        ));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The base (hop) name of a VNF instance: replicas are named
/// `{base}#{index}`, the primary keeps the bare base name.
fn replica_base(vnf_name: &str) -> &str {
    vnf_name.split('#').next().unwrap_or(vnf_name)
}

/// Replica index of a VNF instance: 0 for the primary, the suffix after
/// `#` for replicas.
fn replica_index(vnf_name: &str) -> u32 {
    vnf_name
        .split_once('#')
        .and_then(|(_, j)| j.parse().ok())
        .unwrap_or(0)
}

/// All live instances of one chain hop (primary + replicas), ordered by
/// replica index.
fn replicas_of<'a>(dc: &'a DeployedChain, vnf: &str) -> Vec<&'a DeployedVnf> {
    let mut set: Vec<&DeployedVnf> = dc
        .vnfs
        .iter()
        .filter(|v| replica_base(&v.vnf_name) == vnf)
        .collect();
    set.sort_by_key(|v| replica_index(&v.vnf_name));
    set
}

/// Compiles steering rules for a deployed chain: on every switch of every
/// segment, match the chain's traffic (by destination SAP IP, ingress
/// port, and — absent an upstream NAT — source SAP IP) and forward toward
/// the next node.
///
/// A scaled hop (replica set larger than one) fans traffic out with
/// hash-bucket matches on the switch feeding it — one rule per replica,
/// each claiming bucket `b` of `n` of the flow-key hash space — and fans
/// it back in on the switch draining it (one plain rule per replica
/// ingress port). Every flow sticks to exactly one replica, so per-flow
/// frame order survives scaling.
fn compile_rules(infra: &Infra, dc: &DeployedChain) -> Result<Vec<SteeringRule>, EscapeError> {
    let hops = &dc.mapping.chain.hops;
    let src_sap = hops.first().unwrap();
    let dst_sap = hops.last().unwrap();
    let (_, src_ip) = *infra
        .sap_addr
        .get(src_sap)
        .ok_or_else(|| EscapeError::NotFound(format!("sap {src_sap}")))?;
    let (_, dst_ip) = *infra
        .sap_addr
        .get(dst_sap)
        .ok_or_else(|| EscapeError::NotFound(format!("sap {dst_sap}")))?;

    // Replica sets keyed by hop (base) name, primary first.
    let mut sets: HashMap<&str, Vec<&DeployedVnf>> = HashMap::new();
    for v in &dc.vnfs {
        sets.entry(replica_base(&v.vnf_name)).or_default().push(v);
    }
    for set in sets.values_mut() {
        set.sort_by_key(|v| replica_index(&v.vnf_name));
    }

    // Does a NAT-ish hop precede segment k? (NAT rewrites nw_src.)
    // Walk placement order, not dc.vnfs — replicas append out of hop
    // order and must not shift the segment indexing.
    let nat_before: Vec<bool> = {
        let mut v = Vec::with_capacity(dc.mapping.segments.len());
        let mut seen_nat = false;
        v.push(seen_nat);
        for (name, _) in &dc.mapping.placement {
            // The hop sits between segment i and i+1 in placement order.
            seen_nat = seen_nat
                || sets
                    .get(name.as_str())
                    .is_some_and(|set| set[0].vnf_type == "nat");
            v.push(seen_nat);
        }
        v
    };

    let mut rules = Vec::new();
    for (k, seg) in dc.mapping.segments.iter().enumerate() {
        if seg.nodes.len() < 3 {
            // [loc] (co-located) or [loc, loc2]? Two-node segments would
            // mean SAP adjacent to container, which Infra::build rejects,
            // so only the co-located single-node case appears here.
            continue;
        }
        let hop_from = &hops[k];
        let hop_to = &hops[k + 1];
        for i in 1..seg.nodes.len() - 1 {
            let sw = &seg.nodes[i];
            let prev = &seg.nodes[i - 1];
            let next = &seg.nodes[i + 1];
            let dpid = *infra
                .dpid
                .get(sw)
                .ok_or_else(|| EscapeError::Invalid(format!("{sw} is not a switch")))?;
            // Fan-in: the first switch of a segment takes frames from
            // every replica of the upstream hop.
            let in_ports: Vec<u16> = if i == 1 && sets.contains_key(hop_from.as_str()) {
                sets[hop_from.as_str()]
                    .iter()
                    .map(|v| {
                        v.switch_ports.get(&1).copied().ok_or_else(|| {
                            EscapeError::Steering(format!("{} egress unbound", v.vnf_name))
                        })
                    })
                    .collect::<Result<_, _>>()?
            } else {
                vec![*infra
                    .switch_port
                    .get(&(sw.clone(), prev.clone()))
                    .ok_or_else(|| EscapeError::Steering(format!("no port {sw} -> {prev}")))?]
            };
            // Fan-out: the last switch of a segment hash-buckets frames
            // across the downstream hop's replicas.
            let outs: Vec<(Option<(u8, u8)>, u16)> = if i == seg.nodes.len() - 2
                && sets.contains_key(hop_to.as_str())
            {
                let set = &sets[hop_to.as_str()];
                let plan = bucket_plan(set.len() as u32);
                set.iter()
                    .enumerate()
                    .map(|(j, v)| {
                        let port = v.switch_ports.get(&0).copied().ok_or_else(|| {
                            EscapeError::Steering(format!("{} ingress unbound", v.vnf_name))
                        })?;
                        Ok((plan.get(j).copied(), port))
                    })
                    .collect::<Result<_, EscapeError>>()?
            } else {
                vec![(
                    None,
                    *infra
                        .switch_port
                        .get(&(sw.clone(), next.clone()))
                        .ok_or_else(|| EscapeError::Steering(format!("no port {sw} -> {next}")))?,
                )]
            };
            for &in_port in &in_ports {
                for &(bucket, out_port) in &outs {
                    let mut m = Match::any()
                        .with_in_port(in_port)
                        .with_dl_type(0x0800)
                        .with_nw_dst(dst_ip, 32);
                    if !nat_before[k] {
                        m = m.with_nw_src(src_ip, 32);
                    }
                    if let Some((n, b)) = bucket {
                        m = m.with_bucket(n, b);
                    }
                    rules.push(SteeringRule {
                        dpid,
                        match_: m,
                        priority: 500,
                        actions: vec![Action::out(out_port)],
                        idle_timeout: 0,
                        hard_timeout: 0,
                        chain_id: dc.cookie,
                    });
                }
            }
        }
    }
    Ok(rules)
}
