//! The control-plane half: a real `escaped` core (`Daemon::run`) on a
//! unix socket driven by one closed-loop client, and the in-process
//! replay of the same op sequence that checks its outcome and, when
//! traced, times each layer the daemon passes a request through.

use escape::Session;
use escape_ctl::server::{execute, DEFAULT_WAL_COMPACT_EVERY};
use escape_ctl::{
    ChainRecord, CtlClient, CtlRequest, CtlResponse, Daemon, DaemonConfig, Snapshot, Wal,
    SNAPSHOT_VERSION,
};
use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Verb label as `escape ctl` spells it.
pub fn verb(req: &CtlRequest) -> &'static str {
    match req {
        CtlRequest::Status => "status",
        CtlRequest::Deploy { .. } => "deploy",
        CtlRequest::Teardown { .. } => "teardown",
        CtlRequest::RunFor { .. } => "run_for",
        CtlRequest::Fault { .. } => "fault",
        CtlRequest::Heal => "heal",
        CtlRequest::Metrics { .. } => "metrics",
        CtlRequest::Sla => "sla",
        CtlRequest::Series => "series",
        CtlRequest::Journal => "journal",
        CtlRequest::Watch { .. } => "watch",
        CtlRequest::Traffic { .. } => "traffic",
        CtlRequest::Scale { .. } => "scale",
        CtlRequest::Fingerprint => "fingerprint",
        CtlRequest::Shutdown => "shutdown",
    }
}

/// Verbs the daemon journals through its WAL (intent + commit).
fn is_mutating(req: &CtlRequest) -> bool {
    matches!(
        req,
        CtlRequest::Deploy { .. }
            | CtlRequest::Teardown { .. }
            | CtlRequest::RunFor { .. }
            | CtlRequest::Fault { .. }
            | CtlRequest::Heal
            | CtlRequest::Traffic { .. }
            | CtlRequest::Scale { .. }
    )
}

/// True when `resp` is the success variant `req` must produce.
pub fn expected(req: &CtlRequest, resp: &CtlResponse) -> bool {
    use CtlRequest as Q;
    use CtlResponse as R;
    matches!(
        (req, resp),
        (Q::Status, R::Status(_))
            | (Q::Deploy { .. }, R::Deployed(_))
            | (Q::Teardown { .. }, R::ToreDown { .. })
            | (Q::RunFor { .. }, R::Advanced { .. })
            | (Q::Fault { .. }, R::FaultArmed { .. })
            | (Q::Heal, R::Healed { .. })
            | (Q::Metrics { .. }, R::Metrics { .. })
            | (Q::Journal, R::Journal { .. })
            | (Q::Traffic { .. }, R::TrafficStarted)
            | (Q::Scale { .. }, R::Scaled { .. })
            | (Q::Fingerprint, R::Fingerprint { .. })
            | (Q::Shutdown, R::ShuttingDown)
    )
}

/// An in-process `escaped` serving one session with a WAL state dir.
pub struct Escaped {
    pub socket: PathBuf,
    state_dir: PathBuf,
    thread: JoinHandle<io::Result<()>>,
}

impl Escaped {
    /// Starts the daemon under `dir` and returns once a client could
    /// connect (the WAL is open and the socket bound by then).
    pub fn start(session: Session, dir: &Path) -> Result<(Escaped, CtlClient), String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("ctl.sock");
        let state_dir = dir.join("state");
        let mut cfg = DaemonConfig::new(&socket);
        cfg.state_dir = Some(state_dir.clone());
        let thread = thread::spawn(move || Daemon::run(session, cfg));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match CtlClient::connect(&socket) {
                Ok(c) => {
                    return Ok((
                        Escaped {
                            socket,
                            state_dir,
                            thread,
                        },
                        c,
                    ))
                }
                Err(e) if thread.is_finished() || Instant::now() > deadline => {
                    let why = match thread.join() {
                        Ok(Err(run)) => run.to_string(),
                        _ => e.to_string(),
                    };
                    return Err(format!("daemon did not come up: {why}"));
                }
                Err(_) => thread::sleep(Duration::from_micros(50)),
            }
        }
    }

    /// Graceful `shutdown` verb, then waits for the daemon thread.
    pub fn stop(self, client: Option<CtlClient>) -> Result<(), String> {
        let mut c = match client {
            Some(c) => c,
            None => CtlClient::connect(&self.socket).map_err(|e| e.to_string())?,
        };
        let resp = c.call(&CtlRequest::Shutdown).map_err(|e| e.to_string())?;
        drop(c);
        let joined = self.thread.join();
        if resp != CtlResponse::ShuttingDown {
            return Err(format!("shutdown answered {resp:?}"));
        }
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }

    pub fn wal_bytes(&self) -> u64 {
        fs::metadata(self.state_dir.join("wal.log")).map_or(0, |m| m.len())
    }
}

/// The one client connection. After a transport error it reconnects on
/// the next call, so a dropped connection costs one failed op, not the
/// run. It is hung up while the benchmark opens any other connection,
/// so at most one is open at a time.
pub struct Client {
    socket: PathBuf,
    conn: Option<CtlClient>,
    /// Connections lost to a transport error.
    pub dropped: u64,
}

impl Client {
    pub fn new(socket: &Path, conn: CtlClient) -> Client {
        Client {
            socket: socket.to_path_buf(),
            conn: Some(conn),
            dropped: 0,
        }
    }

    pub fn call(&mut self, req: &CtlRequest) -> io::Result<CtlResponse> {
        if self.conn.is_none() {
            self.conn = Some(CtlClient::connect(&self.socket)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let resp = conn.call(req);
        if resp.is_err() {
            self.conn = None;
            self.dropped += 1;
        }
        resp
    }

    /// Closes the connection; the next call opens a new one.
    pub fn hang_up(&mut self) {
        self.conn = None;
    }
}

/// Counts and the first few reasons of failed operations.
#[derive(Default)]
pub struct Failures {
    pub attempted: u64,
    pub failed: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first.len() < 5 {
                self.first.push(what());
            }
        }
    }
}

/// Round-trip samples of the closed loop.
#[derive(Default)]
pub struct LoopResult {
    /// Time spent in the loop so far (pauses between blocks excluded).
    pub wall: Duration,
    /// Loop time from the start to each reply, in seconds.
    pub done_at: Vec<f64>,
    pub rtt_us: Vec<f64>,
    pub by_verb: BTreeMap<&'static str, Vec<f64>>,
}

/// Sends `ops` one after another, each after the previous reply, and
/// appends the samples to `out`; a run may pause between such blocks.
pub fn run_ops(
    client: &mut Client,
    ops: &[CtlRequest],
    out: &mut LoopResult,
    fails: &mut Failures,
) {
    let base = out.wall;
    let start = Instant::now();
    for op in ops {
        let t = Instant::now();
        let resp = client.call(op);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.rtt_us.push(us);
        out.done_at.push((base + start.elapsed()).as_secs_f64());
        out.by_verb.entry(verb(op)).or_default().push(us);
        fails.record(matches!(&resp, Ok(r) if expected(op, r)), || match &resp {
            Ok(r) => format!("{}: {}", verb(op), short(&format!("{r:?}"))),
            Err(e) => format!("{}: {e}", verb(op)),
        });
    }
    out.wall = base + start.elapsed();
}

/// Lifecycle cycles per timing block of the op loop.
const CYCLES_PER_BLOCK: usize = 2;

/// Timing blocks of the op loop, as the index of each block's last op:
/// every block holds `CYCLES_PER_BLOCK` whole lifecycle cycles (a cycle
/// starts with its `deploy`), plus the scrape that may follow them.
/// Blocks are short, so the gauge readings around each one see the host
/// at the speed the block ran at.
pub fn op_blocks(ops: &[CtlRequest]) -> Vec<usize> {
    let mut ends: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, CtlRequest::Deploy { .. }))
        .map(|(i, _)| i)
        .skip(CYCLES_PER_BLOCK)
        .step_by(CYCLES_PER_BLOCK)
        .map(|i| i - 1)
        .collect();
    if let Some(last) = ops.len().checked_sub(1) {
        ends.push(last);
    }
    ends
}

/// What every `escape ctl` invocation pays: connect, `status`, hang up.
pub fn connect_phase(socket: &Path, n: usize, fails: &mut Failures) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let resp = CtlClient::connect(socket).and_then(|mut c| c.call(&CtlRequest::Status));
            let us = t.elapsed().as_secs_f64() * 1e6;
            fails.record(matches!(resp, Ok(CtlResponse::Status(_))), || {
                format!("connect+status: {}", short(&format!("{resp:?}")))
            });
            us
        })
        .collect()
}

/// Size of the daemon's reply to `req` on a fresh connection, read as
/// a raw frame without decoding it.
pub fn raw_reply_len(socket: &Path, req: &CtlRequest) -> io::Result<usize> {
    let mut stream = std::os::unix::net::UnixStream::connect(socket)?;
    escape_ctl::write_frame(&mut stream, &req.encode())?;
    escape_ctl::read_frame(&mut stream)?
        .map(|b| b.len())
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no reply"))
}

fn short(s: &str) -> String {
    s.chars().take(160).collect()
}

/// Per-layer wall time of the traced replay, summed over all ops.
#[derive(Default)]
pub struct Layers {
    pub ops: u64,
    /// Frames delivered to SAPs since the replay began, after each op
    /// (untraced replay).
    pub sap_frames_after: Vec<f64>,
    pub mutating: u64,
    pub codec: Duration,
    pub wal: Duration,
    pub publish: Duration,
    pub compact: Duration,
    pub compactions: u64,
    pub exec: BTreeMap<&'static str, (Duration, u64)>,
    pub wall: Duration,
    pub max_wal_bytes: u64,
}

impl Layers {
    pub fn exec_total(&self) -> Duration {
        self.exec.values().map(|(d, _)| *d).sum()
    }

    /// Traced time per op: the sum the untraced round trip is split into.
    pub fn per_op_sum(&self) -> Duration {
        self.codec + self.wal + self.exec_total() + self.publish + self.compact
    }
}

/// Replays `ops` against `session` in the daemon's order. Untraced it
/// only executes (the cheap outcome check); traced it runs each request
/// through decode → WAL intent → execute → WAL commit → encode → metrics
/// snapshot + diff → compaction, with its own WAL under `wal_dir`, and
/// times each step from the outside.
pub fn replay(
    session: &mut Session,
    ops: &[CtlRequest],
    wal_dir: Option<&Path>,
) -> Result<Layers, String> {
    let mut l = Layers::default();
    let start = Instant::now();
    let Some(dir) = wal_dir else {
        let base = sap_frames(session);
        let mut frames = base;
        for op in ops {
            black_box(execute(session, op));
            if matches!(op, CtlRequest::RunFor { .. }) {
                frames = sap_frames(session);
            }
            l.sap_frames_after.push((frames - base) as f64);
        }
        l.ops = ops.len() as u64;
        l.wall = start.elapsed();
        return Ok(l);
    };
    let (mut wal, _) = Wal::open(dir, session.config().seed).map_err(|e| e.to_string())?;
    let wal_log = dir.join("wal.log");
    let mut last = session.escape().metrics();
    let mut commits = 0u64;
    for op in ops {
        let text = op.encode();
        let t = Instant::now();
        let (req, _) = CtlRequest::decode_enveloped(&text).map_err(|e| e.to_string())?;
        l.codec += t.elapsed();
        let mutating = is_mutating(&req);
        let mut seq = 0;
        if mutating {
            let t = Instant::now();
            seq = wal.append_intent(&req, None).map_err(|e| e.to_string())?;
            l.wal += t.elapsed();
        }
        let t = Instant::now();
        let resp = execute(session, &req);
        let e = l.exec.entry(verb(&req)).or_default();
        e.0 += t.elapsed();
        e.1 += 1;
        if mutating {
            let t = Instant::now();
            wal.append_commit(seq, &resp).map_err(|e| e.to_string())?;
            l.wal += t.elapsed();
            l.mutating += 1;
            commits += 1;
        }
        let t = Instant::now();
        black_box(resp.encode());
        l.codec += t.elapsed();
        let t = Instant::now();
        let snap = session.escape().metrics();
        black_box(last.diff(&snap));
        last = snap;
        l.publish += t.elapsed();
        if commits >= DEFAULT_WAL_COMPACT_EVERY && session.escape().pending_admissions() == 0 {
            l.max_wal_bytes = l
                .max_wal_bytes
                .max(fs::metadata(&wal_log).map_or(0, |m| m.len()));
            let t = Instant::now();
            let snap = capture_snapshot(session, wal.next_seq());
            wal.compact(&snap).map_err(|e| e.to_string())?;
            l.compact += t.elapsed();
            l.compactions += 1;
            commits = 0;
        }
        l.ops += 1;
    }
    l.wall = start.elapsed();
    l.max_wal_bytes = l
        .max_wal_bytes
        .max(fs::metadata(&wal_log).map_or(0, |m| m.len()));
    wal.remove_files().map_err(|e| e.to_string())?;
    Ok(l)
}

fn sap_frames(session: &Session) -> u64 {
    let esc = session.escape();
    esc.topology()
        .saps()
        .filter_map(|sap| esc.sap_stats(&sap.name).ok())
        .map(|s| s.udp_rx)
        .sum()
}

/// The checkpoint the daemon writes at compaction, rebuilt from the
/// session's public accessors.
fn capture_snapshot(session: &Session, next_seq: u64) -> Snapshot {
    let esc = session.escape();
    let mut chains: Vec<ChainRecord> = esc
        .deployed_chains()
        .into_iter()
        .filter_map(|name| {
            let dc = esc.deployed(&name)?;
            let sg = esc.chain_graph(&name)?;
            Some(ChainRecord {
                cookie: dc.cookie,
                sg_json: sg.to_json(),
                placement: dc.mapping.placement.clone(),
                segments: dc
                    .mapping
                    .segments
                    .iter()
                    .map(|s| (s.nodes.clone(), s.delay_us))
                    .collect(),
                total_delay_us: dc.mapping.total_delay_us,
                replicas: dc
                    .mapping
                    .placement
                    .iter()
                    .filter_map(|(vnf, _)| {
                        let n = esc.replica_count(&name, vnf) as u64;
                        (n > 1).then(|| (vnf.clone(), n))
                    })
                    .collect(),
                name,
            })
        })
        .collect();
    chains.sort_by_key(|c| c.cookie);
    Snapshot {
        version: SNAPSHOT_VERSION,
        seed: session.config().seed,
        now_ns: esc.now().as_ns(),
        next_cookie: esc.next_cookie(),
        next_seq,
        journal_base: esc.journal().seq_end(),
        chains,
        autoscaler: None,
        dedup: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escape_ctl::{MetricsFormat, SgFormat};

    #[test]
    fn timing_blocks_hold_whole_cycles() {
        let deploy = || CtlRequest::Deploy {
            sg: String::new(),
            format: SgFormat::Dsl,
        };
        let mut ops = Vec::new();
        for k in 0..5 {
            ops.push(deploy());
            ops.push(CtlRequest::Heal);
            if k == 1 {
                ops.push(CtlRequest::Metrics {
                    format: MetricsFormat::Prometheus,
                });
            }
        }
        // Cycles at 0-1, 2-3 (+ scrape at 4), 5-6, 7-8 and 9-10: two per
        // block, the scrape with the cycles before it, the odd one last.
        assert_eq!(op_blocks(&ops), vec![4, 8, 10]);
        assert_eq!(op_blocks(&ops[..9]), vec![4, 8]);
        assert_eq!(op_blocks(&[]), Vec::<usize>::new());
    }
}
