//! Host fingerprint and process memory, read from `/proc`.

use std::fs;
use std::path::Path;

/// `nproc`, CPU model, kernel and the filesystem type under `state_dir`.
pub fn fingerprint(state_dir: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        (
            "state_dir_fs",
            fs_type(state_dir).unwrap_or_else(|| "unknown".into()),
        ),
    ]
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> Option<String> {
    let path = fs::canonicalize(path).ok()?;
    let info = fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|l| {
            let (pre, post) = l.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fstype = post.split(' ').next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
}

/// A `/proc/self/status` field in kB, converted to MiB.
fn status_mib(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size of this process.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}
