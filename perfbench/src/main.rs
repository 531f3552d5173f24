//! `escape-perfbench`: the end-to-end benchmark of ESCAPE-RS.
//!
//! ```text
//! escape-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! escape-perfbench spread < results.jsonl
//! ```
//!
//! Every workload is one seeded op sequence sent by a single closed-loop
//! client over one persistent unix-socket connection to an in-process
//! `escaped` (`Daemon::run` with a WAL state dir), followed by fresh
//! `connect + status + hang-up` calls; at most one connection is open at
//! a time. Between the op loop's blocks the chain workloads run their
//! seeded traffic plan in-process, as episodes on fresh
//! `escape::Session`s with the same chains deployed (that is where their
//! `sim_fps` comes from), and ctl_lifecycle sets up more daemons.
//!
//! Every timing is taken per block and scaled to a reference host speed
//! by probes of the benchmark's own work timed around the block (see
//! `gauge.rs`), since a shared host's speed drifts for minutes at a time.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` makes the same
//! untraced pass, then a traced pass that replays the identical inputs
//! in-process and times calls into each layer's public functions from
//! here; it prints the per-layer metrics. Nothing inside the program is
//! instrumented. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Virtual outputs are
//! correctness results, not metrics: a run whose outputs disagree with
//! the in-process replay, or with the outputs recorded for its seed in
//! `expected_outputs.txt`, reports `"correct": false`.
//!
//! All files (socket, WAL state dirs, the gauge's synced file) live under
//! `.bench_run/` in the working directory and are removed at the end.

mod ctl;
mod dataplane;
mod gauge;
mod gen;
mod host;
mod stats;

use ctl::{Client, Escaped, Failures, Layers};
use dataplane::Outputs;
use escape::session::InputFormat;
use escape::{Session, SessionConfig};
use escape_ctl::launch::DaemonOptions;
use escape_ctl::{CtlRequest, CtlResponse, MetricsFormat};
use escape_json::Value;
use escape_telemetry::SamplerConfig;
use gauge::{Gauge, Probe};
use gen::{Kind, Workload, FRAME_LENS, HELD_OUT_SEED, VNF_TYPES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: escape-perfbench --workload <ctl_lifecycle|chain_steady|chain_churn> \
                     --seed <n> --seconds <s> --trace <0|1>\n       escape-perfbench spread < results.jsonl";

/// Daemon set-ups spread through a ctl_lifecycle run besides the one
/// serving the op loop (the chain workloads set up once per episode).
const CTL_SETUPS: usize = 24;

/// Virtual outputs recorded per `(workload, seed, seconds)`; a run with
/// a recorded entry must reproduce it exactly.
const RECORDED_OUTPUTS: &str = include_str!("../expected_outputs.txt");

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {val:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("spread") {
        return spread_main();
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&root)
        .map_err(|e| format!("{}: {e}", root.display()))
        .and_then(|()| run(&args, &root));
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_run");
    match result {
        Ok(report) => {
            print!("{}", report.render(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: Option<usize>,
}

#[derive(Default)]
struct Report {
    head: Vec<String>,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    checks: Vec<(String, bool)>,
    fails: Failures,
}

impl Report {
    fn e2e(&mut self, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
        self.e2e.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.into(),
            value,
            unit,
            n: None,
        });
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.e2e.iter().all(|m| m.value.is_finite())
    }

    fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for h in &self.head {
            let _ = writeln!(out, "# {h}");
        }
        let line = |out: &mut String, kind: &str, m: &Metric| {
            let n = m.n.map_or(String::new(), |n| format!("n={n}"));
            let _ = writeln!(
                out,
                "{kind:<6} {:<34} {:>16.3} {:<9} {n}",
                m.name, m.value, m.unit
            );
        };
        for m in &self.e2e {
            line(&mut out, "e2e", m);
        }
        for m in &self.layers {
            line(&mut out, "layer", m);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note   {n}");
        }
        for (what, ok) in &self.checks {
            let _ = writeln!(out, "check  {:<4} {what}", if *ok { "ok" } else { "FAIL" });
        }
        let ratio = self.fails.failed as f64 / self.fails.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "e2e    {:<34} {ratio:>16.6} {:<9} n={}",
            "failed_ratio", "-", self.fails.attempted
        );
        for f in &self.fails.first {
            let _ = writeln!(out, "failed {f}");
        }
        let metrics: Vec<String> = if trace { &self.layers } else { &self.e2e }
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(v),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.fails.attempted.max(1),
            self.fails.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Full-precision JSON number (Rust's shortest round-trip form, with a
/// decimal point so integers and floats read alike).
fn fmt_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Builds the workload's environment with the daemon's default session
/// settings and deploys its standing chains. Returns the session and
/// the time the deploys took.
fn setup_session(wl: &Workload) -> Result<(Session, Duration), String> {
    let o = DaemonOptions::default();
    let cfg = SessionConfig {
        algorithm: o.algorithm,
        steering: o.steering,
        seed: wl.seed,
        admission: o.admission,
        flight_recorder: (o.flight_recorder > 0).then_some(o.flight_recorder),
        // ctl_lifecycle serves the session as `escaped` does by default,
        // time-series sampler included. The chain workloads turn the
        // sampler off, as the repository's daemon tests do: each sample
        // walks the whole flight-recorder ring for SLA verdicts, and that
        // one cost would hide the dataplane layers they measure.
        sampler: (wl.kind == Kind::CtlLifecycle && o.sample_ms > 0).then(|| SamplerConfig {
            period_ns: o.sample_ms * 1_000_000,
            retention: o.sample_retention,
        }),
    };
    let topo = escape_sg::topo::builders::star(wl.leaves, wl.container_cpu);
    let mut session = Session::new(topo, cfg).map_err(|e| format!("session build: {e}"))?;
    let t = Instant::now();
    for c in &wl.preload {
        session
            .deploy_text(&c.sg_dsl(), InputFormat::Dsl)
            .map_err(|e| format!("set-up deploy of {}: {e}", c.name))?;
    }
    Ok((session, t.elapsed()))
}

/// What the untraced pass leaves for the traced one.
struct Untraced {
    /// Median wall time of one dataplane episode.
    dp_wall: Duration,
    dp_outputs: Option<Outputs>,
    /// Virtual outputs of the op loop (from the in-process replay).
    ctl_outputs: Outputs,
    loop_wall: Duration,
    rtt_mean_us: f64,
    status_p50_us: f64,
    connect_p50_us: f64,
    fingerprint: String,
}

fn run(args: &Args, root: &Path) -> Result<Report, String> {
    let wl = Workload::generate(args.kind, args.seed, args.seconds);
    let mut rep = Report::default();
    rep.head.push(format!(
        "escape-perfbench workload={} seed={} seconds={} trace={} held_out_seed={HELD_OUT_SEED}",
        wl.kind.name(),
        wl.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    rep.head.push(format!("why: {}", wl.kind.why()));
    let hostfp: Vec<String> = host::fingerprint(root)
        .into_iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    rep.head.push(format!("host {}", hostfp.join(" ")));
    rep.head.push(format!(
        "inputs star({}) preload={} dataplane_steps={} ops={} connects={} hash={:016x}",
        wl.leaves,
        wl.preload.len(),
        wl.dataplane.len(),
        wl.ops.len(),
        wl.connects,
        wl.digest()
    ));
    let u = untraced(&wl, root, &mut rep)?;
    let ctl_out = u.ctl_outputs.digest();
    let dp_out = u.dp_outputs.as_ref().map_or("-".into(), Outputs::digest);
    let digest = dataplane::fnv(format!("ctl {ctl_out}\ndataplane {dp_out}").bytes());
    rep.notes.push(format!(
        "virtual outputs {digest:016x}: ctl loop {ctl_out}; dataplane episode {dp_out}"
    ));
    match recorded_outputs(wl.kind, wl.seed, args.seconds) {
        Some(want) => rep.check(
            format!("virtual outputs equal the ones recorded for this seed ({want:016x})"),
            digest == want,
        ),
        None => rep.notes.push(format!(
            "no virtual outputs recorded for {} seed {} at {} s; only this run's own checks apply",
            wl.kind.name(),
            wl.seed,
            args.seconds
        )),
    }
    if args.trace {
        traced(&wl, root, &u, &mut rep)?;
    }
    Ok(rep)
}

/// The digest recorded in `expected_outputs.txt` for one run, if any.
fn recorded_outputs(kind: Kind, seed: u64, seconds: u64) -> Option<u64> {
    let key = format!("{} {seed} {seconds} ", kind.name());
    RECORDED_OUTPUTS
        .lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
}

/// The measured pass: set-ups, the op loop over the socket with the
/// dataplane episodes or extra set-ups between its blocks, the connect
/// phase, the untimed in-process replay that checks the daemon's
/// outcome, then end-of-run store sizes.
fn untraced(wl: &Workload, root: &Path, rep: &mut Report) -> Result<Untraced, String> {
    let chain = wl.kind != Kind::CtlLifecycle;
    // Every timed block is scaled to the reference host speed by the
    // gauge readings taken just before and after it (see gauge.rs).
    let mut gauge = Gauge::new(&root.join("gauge.log"))?;
    // (seconds, gauge reading before) per set-up.
    let mut setup_s: Vec<(f64, usize)> = Vec::new();
    let mut deploy_s = Vec::new();
    let mut fingerprints = Vec::new();
    // Builds one set-up; the caller stops the clock it returns once
    // the set-up is complete (for ctl_lifecycle: daemon up).
    let mut timed_setup = || -> Result<(Session, Instant), String> {
        let t = Instant::now();
        let (s, d) = setup_session(wl)?;
        deploy_s.push(d.as_secs_f64());
        fingerprints.push(s.state_fingerprint());
        Ok((s, t))
    };

    // The daemon serving the op loop. For ctl_lifecycle the daemon start
    // is part of every set-up.
    let k = gauge.read()?;
    let (s, t) = timed_setup()?;
    if chain {
        setup_s.push((t.elapsed().as_secs_f64(), k));
    }
    let (esc, conn) = Escaped::start(s, &root.join("daemon"))?;
    if !chain {
        setup_s.push((t.elapsed().as_secs_f64(), k));
    }
    gauge.read()?;
    let mut replay_session = timed_setup()?.0;
    let mut client = Client::new(&esc.socket, conn);
    let fp0 = call_fingerprint(&mut client, &mut rep.fails);
    rep.check(
        "daemon and replay sessions start from the same state",
        fp0.as_deref() == Some(replay_session.state_fingerprint().as_str()),
    );

    // The op loop, one block (two lifecycle cycles) at a time, with a
    // gauge reading before each. The run's other timed samples are taken
    // between blocks, spread evenly over the loop: a dataplane episode on
    // a fresh set-up (chain workloads) or one more daemon set-up
    // (ctl_lifecycle).
    ctl::run_ops(
        &mut client,
        &wl.warmup,
        &mut ctl::LoopResult::default(),
        &mut rep.fails,
    );
    let ends = ctl::op_blocks(&wl.ops);
    let extras = if chain { gen::EPISODES } else { CTL_SETUPS };
    let mut lr = ctl::LoopResult::default();
    // (episode, gauge reading before) per dataplane episode, and the
    // reading before each op-loop block.
    let mut episodes = Vec::new();
    let mut block_k = Vec::new();
    let (mut from, mut done) = (0, 0);
    for (i, &end) in ends.iter().enumerate() {
        block_k.push(gauge.read()?);
        ctl::run_ops(&mut client, &wl.ops[from..=end], &mut lr, &mut rep.fails);
        from = end + 1;
        while done < (i + 1) * extras / ends.len() {
            done += 1;
            let k = gauge.read()?;
            let (mut s, t) = timed_setup()?;
            if chain {
                setup_s.push((t.elapsed().as_secs_f64(), k));
                episodes.push((
                    dataplane::run_phase(&mut s, &wl.dataplane, wl.leaves, false, &mut rep.fails),
                    k,
                ));
            } else {
                // The set-up's own client is the only open connection.
                client.hang_up();
                let (extra, conn) = Escaped::start(s, &root.join(format!("setup{done}")))?;
                setup_s.push((t.elapsed().as_secs_f64(), k));
                extra.stop(Some(conn))?;
                // Reconnect outside the timed ops.
                call_fingerprint(&mut client, &mut rep.fails);
            }
        }
    }
    gauge.read()?;
    let (episodes, episode_k): (Vec<dataplane::Phase>, Vec<usize>) = episodes.into_iter().unzip();

    // What every `escape ctl` invocation pays, on fresh connections.
    client.hang_up();
    let connect_us = ctl::connect_phase(&esc.socket, wl.connects, &mut rep.fails);

    // End-of-run reads, from the outside, through the daemon's verbs.
    let fingerprint = call_fingerprint(&mut client, &mut rep.fails).unwrap_or_default();
    let prom = match client.call(&CtlRequest::Metrics {
        format: MetricsFormat::Prometheus,
    }) {
        Ok(CtlResponse::Metrics { body, .. }) => Some(body),
        other => {
            rep.fails
                .record(false, || format!("final metrics scrape: {other:?}"));
            None
        }
    };
    let journal_lines = match client.call(&CtlRequest::Journal) {
        Ok(CtlResponse::Journal { body }) => body.lines().count(),
        _ => 0,
    };
    let event_trace = match client.call(&CtlRequest::Status) {
        Ok(CtlResponse::Status(s)) => s.events,
        _ => 0,
    };
    let wal_bytes = esc.wal_bytes();
    client.hang_up();

    // The workload ends here. Its peak memory is read before the
    // benchmark's own probes below (the JSON reply, the replay).
    let peak_rss = host::peak_rss_mib();
    // The JSON reply is only sized: the client-side decode of a large
    // reply takes seconds.
    let json_reply_bytes = ctl::raw_reply_len(
        &esc.socket,
        &CtlRequest::Metrics {
            format: MetricsFormat::Json,
        },
    );
    rep.fails.record(json_reply_bytes.is_ok(), || {
        format!("metrics --json reply: {json_reply_bytes:?}")
    });
    esc.stop(None)?;

    // The same ops, executed in-process on an identical session.
    ctl::replay(&mut replay_session, &wl.warmup, None)?;
    let before = dataplane::outputs(&replay_session, wl.leaves);
    let rl = ctl::replay(&mut replay_session, &wl.ops, None)?;
    let replayed = dataplane::outputs(&replay_session, wl.leaves);
    rep.check(
        "daemon fingerprint equals the in-process replay's",
        fingerprint == replay_session.state_fingerprint(),
    );
    if let Some(body) = &prom {
        let daemon = prometheus_outputs(body, wl.leaves);
        let mut replay = replayed.clone();
        replay.sap_udp_rx = daemon.sap_udp_rx.clone();
        rep.check(
            "daemon dataplane counters equal the replay's (frames, drops, cache hits/misses)",
            daemon == replay,
        );
    }
    let spans = replay_session.escape().tracer().records().len();
    rep.check(
        "set-up is deterministic (state fingerprints of repeated set-ups agree)",
        fingerprints.windows(2).all(|w| w[0] == w[1]),
    );
    if let Some(first) = episodes.first() {
        rep.notes.push(format!(
            "dataplane episodes {} (sent {} frames each)",
            episodes.len(),
            dataplane_frames_sent(wl),
        ));
        rep.check(
            "every dataplane episode has identical virtual outputs",
            episodes.iter().all(|e| e.outputs == first.outputs),
        );
        // Without flow-mods during traffic, lossless links and no
        // congestion, every frame must arrive.
        if wl.kind == Kind::ChainSteady {
            rep.check(
                "every dataplane frame sent reaches its SAP, none dropped",
                first.outputs.drops.is_empty()
                    && first.outputs.sap_frames() == dataplane_frames_sent(wl),
            );
        }
    }

    // End-to-end metrics.
    let n = lr.rtt_us.len();
    let p99 = stats::percentile(&lr.rtt_us, 0.99).unwrap_or(f64::NAN);
    rep.notes.push(format!(
        "verb_p99_us {p99:.1} us n={n} ({} beyond); printed, not in BENCHMARK.json: its run-to-run \
         spread on a shared host exceeds any bound the benchmark may set",
        stats::beyond(n, 0.99)
    ));
    // Timings are taken per block (two lifecycle cycles of the op loop,
    // one dataplane episode, one set-up), and each block is scaled to
    // the reference host speed by the gauge readings around it (see
    // gauge.rs): op-loop blocks, which cross the daemon's WAL, by the
    // verb probe; episodes and set-ups, in-process, by the compute probe.
    // Latencies are the median of the scaled round trips, rates the
    // median of the scaled block rates.
    let loop_scale: Vec<f64> = block_k
        .iter()
        .map(|&k| gauge.scale(Probe::Verb, k))
        .collect();
    let mut rtt_ref = Vec::with_capacity(n);
    let mut from = 0;
    for (&end, &f) in ends.iter().zip(&loop_scale) {
        rtt_ref.extend(lr.rtt_us[from..=end].iter().map(|r| r * f));
        from = end + 1;
    }
    let deploys_of = |rtt: &[f64]| -> Vec<f64> {
        (0..n)
            .filter(|&i| matches!(wl.ops[i], CtlRequest::Deploy { .. }))
            .map(|i| rtt[i])
            .collect()
    };
    let deploy_ref = deploys_of(&rtt_ref);
    let connect_p50 = stats::percentile(&connect_us, 0.5).unwrap_or(f64::NAN);
    let count: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    // A slow host (scale below 1) lowered a block's rate by the same
    // factor it raised its times. Every block takes time, so
    // `block_rates` gives one rate per block, in block order.
    let unscale = |rates: &[f64], scale: &[f64]| -> Vec<f64> {
        rates.iter().zip(scale).map(|(r, f)| r / f).collect()
    };
    let op_rates_raw = stats::block_rates(&lr.done_at, &count, &ends);
    let ctl_outputs = replayed.since(&before);
    let (frames, fps_raw, fps_scale) = if episodes.is_empty() {
        (
            ctl_outputs.sap_frames(),
            stats::block_rates(&lr.done_at, &rl.sap_frames_after, &ends),
            loop_scale.clone(),
        )
    } else {
        (
            episodes[0].outputs.sap_frames(),
            episodes.iter().map(dataplane::Phase::fps).collect(),
            episode_k
                .iter()
                .map(|&k| gauge.scale(Probe::Compute, k))
                .collect(),
        )
    };
    let setup_raw: Vec<f64> = setup_s.iter().map(|&(s, _)| s).collect();
    let setup_ref: Vec<f64> = setup_s
        .iter()
        .map(|&(s, k)| s * gauge.scale(Probe::Compute, k))
        .collect();
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    rep.e2e("verb_p50_us", med(&rtt_ref), "us", Some(n));
    rep.e2e(
        "deploy_p50_us",
        med(&deploy_ref),
        "us",
        Some(deploy_ref.len()),
    );
    rep.e2e("connect_p50_us", connect_p50, "us", Some(connect_us.len()));
    rep.e2e(
        "ops_per_s",
        med(&unscale(&op_rates_raw, &loop_scale)),
        "1/s",
        Some(n),
    );
    rep.e2e(
        "sim_fps",
        med(&unscale(&fps_raw, &fps_scale)),
        "frames/s",
        Some(frames as usize),
    );
    rep.e2e("setup_s", med(&setup_ref), "s", Some(setup_s.len()));
    let fmt_blocks = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    rep.notes.push(format!(
        "unscaled medians: verb_p50_us {:.1} deploy_p50_us {:.1} ops_per_s {:.1} sim_fps {:.0} \
         setup_s {:.4}",
        med(&lr.rtt_us),
        med(&deploys_of(&lr.rtt_us)),
        med(&op_rates_raw),
        med(&fps_raw),
        med(&setup_raw),
    ));
    for (name, probe) in [("compute", Probe::Compute), ("verb", Probe::Verb)] {
        let r = &gauge.readings[probe as usize];
        rep.notes.push(format!(
            "gauge {name} probe: {} readings, median {:.1} us, range {:.1}-{:.1} us \
             (reference {} us)",
            r.len(),
            med(r),
            stats::percentile(r, 0.0).unwrap_or(0.0),
            stats::percentile(r, 1.0).unwrap_or(0.0),
            gauge::REFERENCE_US[probe as usize],
        ));
    }
    rep.e2e("peak_rss_mb", peak_rss, "MiB", None);
    rep.notes.push(format!(
        "setup_s samples (ms): {}; standing-chain deploys {:.3} ms median",
        fmt_blocks(&setup_raw.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        stats::median(&deploy_s).unwrap_or(0.0) * 1e3
    ));
    for (verb, v) in &lr.by_verb {
        rep.notes.push(format!(
            "verb {verb:<11} p50 {:>10.1} us  p99 {:>10.1} us  n={}",
            stats::percentile(v, 0.5).unwrap_or(0.0),
            stats::percentile(v, 0.99).unwrap_or(0.0),
            v.len()
        ));
    }
    rep.notes.push(format!(
        "store sizes at end: journal.len={journal_lines} event_trace.len={event_trace} \
         span_records={spans} metrics_reply_bytes={} wal_log_bytes={wal_bytes} rss_mib={:.1}",
        json_reply_bytes.map_or_else(|e| e.to_string(), |n| n.to_string()),
        host::rss_mib()
    ));
    rep.notes.push(format!(
        "replay (execute only) {:.3} s vs socket loop {:.3} s; connections dropped {}",
        rl.wall.as_secs_f64(),
        lr.wall.as_secs_f64(),
        client.dropped,
    ));
    let status = lr.by_verb.get("status").cloned().unwrap_or_default();
    Ok(Untraced {
        dp_wall: Duration::from_secs_f64(
            stats::median(
                &episodes
                    .iter()
                    .map(|e| e.wall.as_secs_f64())
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0),
        ),
        dp_outputs: episodes.into_iter().next().map(|e| e.outputs),
        ctl_outputs,
        loop_wall: lr.wall,
        rtt_mean_us: stats::mean(&lr.rtt_us).unwrap_or(0.0),
        status_p50_us: stats::percentile(&status, 0.5).unwrap_or(0.0),
        connect_p50_us: connect_p50,
        fingerprint,
    })
}

fn dataplane_frames_sent(wl: &Workload) -> u64 {
    wl.dataplane
        .iter()
        .map(|s| match s {
            gen::DpStep::Flow(f) => f.frames,
            _ => 0,
        })
        .sum()
}

fn call_fingerprint(client: &mut Client, fails: &mut Failures) -> Option<String> {
    let resp = client.call(&CtlRequest::Fingerprint);
    let ok = matches!(resp, Ok(CtlResponse::Fingerprint { .. }));
    fails.record(ok, || format!("fingerprint: {resp:?}"));
    match resp {
        Ok(CtlResponse::Fingerprint { digest }) => Some(digest),
        _ => None,
    }
}

/// Dataplane counters from a Prometheus `metrics` reply (SAP counters
/// are not exported there; they stay zero).
fn prometheus_outputs(body: &str, leaves: usize) -> Outputs {
    let mut snap = escape_telemetry::Snapshot::default();
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        let Some((key, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        let (name, labels) = match key.split_once('{') {
            Some((n, l)) => (n, l.trim_end_matches('}')),
            None => (key, ""),
        };
        let name = match name {
            "netem_frames_delivered" => "netem.frames_delivered",
            "netem_drops" => "netem.drops",
            "openflow_cache_hits" => "openflow.cache_hits",
            "openflow_cache_misses" => "openflow.cache_misses",
            _ => continue,
        };
        let labels = labels
            .split(',')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.trim_matches('"').to_string()))
            .collect();
        snap.entries.push(escape_telemetry::MetricSnapshot {
            name: name.into(),
            labels,
            value: escape_telemetry::MetricValue::Counter(value),
        });
    }
    dataplane::outputs_from(&snap, |_| 0, leaves)
}

/// The traced pass: the same inputs replayed in-process with each
/// layer call timed from here, plus the lookup and Click replays.
fn traced(wl: &Workload, root: &Path, u: &Untraced, rep: &mut Report) -> Result<(), String> {
    let (mut dp_session, deploy_time) = setup_session(wl)?;
    rep.layer(
        "escape.session.deploy_us_per_chain",
        us(deploy_time) / wl.preload.len() as f64,
        "us",
    );

    // Dataplane phase (chain workloads) or the op loop (ctl) is where
    // this workload's traffic runs.
    let mut lookup_flows: Vec<&gen::Flow> = wl.flows();
    let preload_flows: Vec<gen::Flow> = wl
        .preload
        .iter()
        .map(|c| gen::Flow {
            vnf_type: c.vnf_type,
            src: c.src.clone(),
            dst: c.dst.clone(),
            sport: 40_000,
            len: c.frame_len,
            interval_us: 0,
            frames: 0,
        })
        .collect();
    lookup_flows.extend(preload_flows.iter());

    let mut phase = None;
    if let Some(expect) = &u.dp_outputs {
        let p = dataplane::run_phase(
            &mut dp_session,
            &wl.dataplane,
            wl.leaves,
            true,
            &mut rep.fails,
        );
        rep.check(
            "traced dataplane outputs equal the untraced run's",
            &p.outputs == expect,
        );
        for (kind, (d, n)) in &p.steps {
            rep.notes.push(format!(
                "dataplane step {kind:<8} {:>10.1} us mean  n={n}",
                us(*d) / *n as f64
            ));
        }
        phase = Some(p);
    }

    // The op loop, in the daemon's order, against a fresh session and WAL.
    let (mut session, _) = setup_session(wl)?;
    ctl::replay(&mut session, &wl.warmup, None)?;
    let m0 = session.escape().metrics();
    let out0 = dataplane::outputs(&session, wl.leaves);
    let c0 = dataplane::Counters::read(&m0);
    let layers = ctl::replay(&mut session, &wl.ops, Some(&root.join("traced-wal")))?;
    rep.check(
        "traced replay fingerprint equals the daemon's",
        session.state_fingerprint() == u.fingerprint,
    );
    let m1 = session.escape().metrics();
    let loop_counters = dataplane::Counters::read(&m1).since(&c0);
    let loop_out = dataplane::outputs(&session, wl.leaves).since(&out0);
    ctl_layers(rep, &layers, u, wl, &loop_counters, &m0, &m1);

    // Store sizes and the telemetry exposition at the end of the run.
    let t = Instant::now();
    let body = session.metrics_exposition(true);
    rep.layer("telemetry.metrics_json_us", us(t.elapsed()), "us");
    rep.layer("telemetry.metrics_json_bytes", body.len() as f64, "bytes");
    let esc = session.escape();
    rep.layer(
        "telemetry.span_records",
        esc.tracer().records().len() as f64,
        "count",
    );
    rep.layer("escape.journal.len", esc.journal().len() as f64, "count");
    rep.layer(
        "escape.event_trace_len",
        esc.event_trace().len() as f64,
        "count",
    );

    // Dataplane layers over the workload's traffic phase.
    let (traffic_session, out, counters, traffic_wall) = match &phase {
        Some(p) => (&dp_session, p.outputs.clone(), p.counters.clone(), p.wall),
        None => {
            let run_for = layers.exec.get("run_for").map_or(Duration::ZERO, |e| e.0);
            (&session, loop_out, loop_counters, run_for)
        }
    };
    rep.layer("netem.events", counters.events as f64, "count");
    rep.layer(
        "netem.frames_delivered",
        out.frames_delivered as f64,
        "count",
    );
    rep.layer(
        "netem.host_ns_per_event",
        traffic_wall.as_nanos() as f64 / counters.events.max(1) as f64,
        "ns",
    );
    let lookups = out.cache_hits + out.cache_misses;
    rep.layer(
        "openflow.cache_hit_ratio",
        out.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    rep.layer(
        "openflow.cache_invalidations",
        counters.invalidations as f64,
        "count",
    );
    rep.layer("pox.flow_mods", counters.flow_mods as f64, "count");
    let lk = dataplane::lookup_replay(traffic_session, &lookup_flows);
    rep.layer("openflow.rules_max", lk.rules_max as f64, "count");
    rep.layer("openflow.lookup_hit_ns", lk.hit_ns, "ns");
    rep.layer("openflow.lookup_miss_ns", lk.miss_ns, "ns");
    rep.notes.push(format!(
        "lookup replay: {} (key, in-port, switch) combinations matched a rule",
        lk.matched
    ));
    let click = dataplane::click_replay(&VNF_TYPES, &FRAME_LENS);
    for ty in VNF_TYPES {
        let v: Vec<f64> = FRAME_LENS
            .iter()
            .filter_map(|l| click.get(&(ty, *l)).copied())
            .collect();
        rep.layer(
            format!("click.push_ns.{ty}"),
            stats::mean(&v).unwrap_or(f64::NAN),
            "ns",
        );
    }
    // Residual: traffic-phase wall time the lookup and Click replays do
    // not explain, per SAP-delivered frame. Each chain has one VNF, so
    // each delivered frame was pushed through Click once.
    let click_ns: f64 = traffic_flows(wl)
        .iter()
        .map(|f| f.frames as f64 * click.get(&(f.vnf_type, f.len)).copied().unwrap_or(0.0))
        .sum();
    let lookup_ns = out.cache_hits as f64 * lk.hit_ns + out.cache_misses as f64 * lk.miss_ns;
    rep.layer(
        "netem.residual_ns_per_frame",
        (traffic_wall.as_nanos() as f64 - lookup_ns - click_ns) / out.sap_frames().max(1) as f64,
        "ns",
    );
    rep.layer("process.rss_mb", host::rss_mib(), "MiB");
    // Tracing overhead: the traced pass's ctl replay and dataplane
    // episode against the untraced loop and median episode. Negative
    // when the in-process replay saves more (socket, queue, thread
    // hand-off) than the timing calls cost.
    let dp_traced = phase.as_ref().map_or(Duration::ZERO, |p| p.wall);
    let untraced_total = u.loop_wall + u.dp_wall;
    let traced_total = layers.wall + dp_traced;
    rep.layer(
        "bench.trace_overhead_ms",
        (traced_total.as_secs_f64() - untraced_total.as_secs_f64()) * 1e3,
        "ms",
    );
    rep.notes.push(format!(
        "tracing overhead: traced {:.3} s (replay {:.3} + episode {:.3}) - untraced {:.3} s (loop {:.3} + median episode {:.3})",
        traced_total.as_secs_f64(),
        layers.wall.as_secs_f64(),
        dp_traced.as_secs_f64(),
        untraced_total.as_secs_f64(),
        u.loop_wall.as_secs_f64(),
        u.dp_wall.as_secs_f64()
    ));
    rep.notes.push(
        "escape.domains: not measured; MultiDomainEscape has no daemon front end, so the \
         multidomain workload (which cannot report the ctl metrics every workload must) was dropped"
            .into(),
    );
    Ok(())
}

/// Flows whose frames crossed Click during the traffic phase.
fn traffic_flows(wl: &Workload) -> Vec<&gen::Flow> {
    if wl.dataplane.is_empty() {
        wl.op_flows.iter().collect()
    } else {
        wl.flows()
            .into_iter()
            .filter(|f| !wl.op_flows.contains(f))
            .collect()
    }
}

fn ctl_layers(
    rep: &mut Report,
    l: &Layers,
    u: &Untraced,
    wl: &Workload,
    counters: &dataplane::Counters,
    m0: &escape_telemetry::Snapshot,
    m1: &escape_telemetry::Snapshot,
) {
    let ops = l.ops.max(1) as f64;
    rep.layer("ctl.proto.codec_us", us(l.codec) / ops, "us");
    rep.layer(
        "ctl.wal.append_us",
        us(l.wal) / l.mutating.max(1) as f64,
        "us",
    );
    rep.layer("ctl.wal.compactions", l.compactions as f64, "count");
    rep.layer(
        "ctl.wal.compact_us",
        us(l.compact) / l.compactions.max(1) as f64,
        "us",
    );
    rep.layer("ctl.wal.log_bytes", l.max_wal_bytes as f64, "bytes");
    rep.layer("ctl.server.publish_us", us(l.publish) / ops, "us");
    // Means, not medians, so the parts add up: the residual of the
    // untraced mean round trip is the socket, the command queue, the
    // thread hand-offs and the client's decode.
    let per_op = us(l.per_op_sum()) / ops;
    rep.layer("ctl.server.transport_us", u.rtt_mean_us - per_op, "us");
    rep.layer(
        "ctl.server.accept_wait_us",
        u.connect_p50_us - u.status_p50_us,
        "us",
    );
    for verb in [
        "deploy", "traffic", "run_for", "scale", "status", "fault", "heal", "teardown", "metrics",
    ] {
        let (d, n) = l.exec.get(verb).copied().unwrap_or_default();
        rep.layer(
            format!("escape.session.execute_us.{verb}"),
            us(d) / n.max(1) as f64,
            "us",
        );
    }
    let placement = |m: &escape_telemetry::Snapshot| {
        m.histogram("wallclock.orch_placement_ns", &[])
            .map_or((0, 0), |h| (h.sum, h.count))
    };
    let (s0, c0) = placement(m0);
    let (s1, c1) = placement(m1);
    rep.layer(
        "orch.placement_us",
        (s1 - s0) as f64 / 1e3 / (c1 - c0).max(1) as f64,
        "us",
    );
    let deploys = l.exec.get("deploy").map_or(0, |e| e.1).max(1) as f64;
    rep.layer(
        "netconf.rpcs_per_deploy",
        counters.netconf_rpcs as f64 / deploys,
        "count",
    );
    rep.layer(
        "pox.flow_mods_per_deploy",
        counters.flow_mods as f64 / deploys,
        "count",
    );
    // The additive split of one untraced round trip.
    let parts = [
        ("codec", us(l.codec) / ops),
        ("wal", us(l.wal) / ops),
        ("execute", us(l.exec_total()) / ops),
        ("publish", us(l.publish) / ops),
        ("compact", us(l.compact) / ops),
        ("transport", u.rtt_mean_us - per_op),
    ];
    let split: Vec<String> = parts
        .iter()
        .map(|(k, v)| format!("{k} {v:.1} us ({:.0}%)", 100.0 * v / u.rtt_mean_us))
        .collect();
    rep.notes.push(format!(
        "mean round trip {:.1} us = {}",
        u.rtt_mean_us,
        split.join(" + ")
    ));
    rep.notes.push(format!(
        "ctl loop: {} ops untraced in {:.3} s, traced replay {:.3} s; workload {}",
        l.ops,
        u.loop_wall.as_secs_f64(),
        l.wall.as_secs_f64(),
        wl.kind.name()
    ));
}

/// Reads result lines (the benchmark's last stdout lines) on stdin and
/// prints, per metric, the median and the inter-quartile spread as a
/// share of the median — the figure the bounds are checked against.
fn spread_main() -> ExitCode {
    let mut by_metric: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    for line in std::io::stdin().lines().map_while(Result::ok) {
        let Ok(doc) = Value::parse(line.trim()) else {
            continue;
        };
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            continue;
        };
        runs += 1;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    println!("{runs} runs");
    for (name, v) in &by_metric {
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{name:<34} median {:>14.3}  q1 {:>14.3}  q3 {:>14.3}  spread {:>7.4}",
            stats::median(v).unwrap_or(f64::NAN),
            q1,
            q3,
            stats::spread(v).unwrap_or(f64::NAN)
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload chain_churn --seed 4 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.kind, Kind::ChainChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 12, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload all --seed 1 --seconds 1 --trace 0").is_err());
        // Every option is required: no default can differ from the
        // driver's settings.
        assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload ctl_lifecycle --seconds 1 --trace 0").is_err());
        assert!(args("--workload ctl_lifecycle --seed 1 --trace 0").is_err());
        assert!(args("--workload ctl_lifecycle --seed 1 --seconds 1").is_err());
        assert!(args("--workload ctl_lifecycle --seed").is_err());
    }

    #[test]
    fn recorded_outputs_are_well_formed() {
        let mut n = 0;
        for line in RECORDED_OUTPUTS
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "{line}");
            let kind = Kind::parse(f[0]).expect("workload name");
            let want = u64::from_str_radix(f[3], 16).expect("hex digest");
            let (seed, secs) = (f[1].parse().unwrap(), f[2].parse().unwrap());
            assert_eq!(recorded_outputs(kind, seed, secs), Some(want), "{line}");
            n += 1;
        }
        assert!(n > 0, "no outputs recorded");
        assert_eq!(recorded_outputs(Kind::ChainSteady, 1, 7), None);
    }

    #[test]
    fn result_line_is_last_and_well_formed() {
        let mut r = Report::default();
        r.e2e("setup_s", 0.5, "s", Some(3));
        r.layer("netem.events", 10.0, "count");
        r.fails.record(true, String::new);
        let out = r.render(false);
        let last = out.lines().last().unwrap();
        let doc = Value::parse(last).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(1));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64),
            Some(0.5)
        );
        assert!(m.get("netem.events").is_none());
        let traced = r.render(true);
        let doc = Value::parse(traced.lines().last().unwrap()).unwrap();
        assert!(doc.get("metrics").unwrap().get("netem.events").is_some());
    }
}
