//! Host speed gauge. A shared host runs the same code at different
//! speeds from one stretch of seconds or minutes to the next, and every
//! timing of the program moves with it. The gauge times fixed pieces of
//! the benchmark's own work (never the program's) just before and after
//! each measured block, so each block can be scaled to the speed the
//! host had while it ran. A change to the program does not change the
//! gauge's work, so it moves the scaled timings as it moves the raw ones.
//!
//! The host's processor and its disk slow down independently, so there
//! are two probes:
//! - [`Probe::Compute`]: small allocations, ordered-map inserts,
//!   formatting and hashing, the shape of the program's own work. It
//!   scales what runs in-process: dataplane episodes and set-ups.
//! - [`Probe::Verb`]: half that work, then two appends to a file beside
//!   the daemon's WAL, each synced to disk, the shape of one state-changing
//!   ctl verb (its WAL intent and commit). It scales the op loop: its
//!   round trips and its rates. In one slow stretch on the VM the benchmark was built on, the compute
//!   probe took 1.46x its calm time, `status` round trips (no WAL) 1.47x,
//!   and the WAL-writing verbs 2.1-2.3x; the compute probe alone would
//!   have reported the difference as the program's.

use crate::dataplane::fnv;
use crate::gen::Rng;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Probe {
    Compute = 0,
    Verb = 1,
}

/// Reference time of each probe, in microseconds: a block measured while
/// a probe takes this long is reported unscaled by it. On the 2-vCPU
/// Xeon VM the benchmark was built on, the probes took about this long in
/// the host's calm stretches (the compute probe about 1,000 µs in its
/// slow ones).
pub const REFERENCE_US: [f64; 2] = [650.0, 480.0];

/// Probes per reading; the reading is their median, so one preemption
/// inside a probe does not move it.
const PROBES: usize = 3;

/// Map inserts of the compute probe; the verb probe does half.
const INSERTS: u64 = 4_000;

/// Bytes per synced append, about one WAL record of a mutating verb.
const RECORD: usize = 160;

pub struct Gauge {
    /// Readings per probe in the order they were taken, in microseconds.
    pub readings: [Vec<f64>; 2],
    log: File,
}

impl Gauge {
    /// `log` is the verb probe's file; put it on the daemon's state-dir
    /// filesystem.
    pub fn new(log: &Path) -> Result<Gauge, String> {
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("gauge {}: {e}", log.display()))?;
        let mut g = Gauge {
            readings: [Vec::new(), Vec::new()],
            log,
        };
        // Warm the allocator and the file once, outside any reading.
        black_box(work(INSERTS));
        g.verb().map_err(|e| format!("gauge: {e}"))?;
        Ok(g)
    }

    /// Takes one reading of each probe and returns its index.
    pub fn read(&mut self) -> Result<usize, String> {
        for probe in [Probe::Compute, Probe::Verb] {
            let mut t = Vec::with_capacity(PROBES);
            for _ in 0..PROBES {
                let start = Instant::now();
                match probe {
                    Probe::Compute => {
                        black_box(work(INSERTS));
                    }
                    Probe::Verb => self.verb().map_err(|e| format!("gauge: {e}"))?,
                }
                t.push(start.elapsed().as_secs_f64() * 1e6);
            }
            t.sort_by(f64::total_cmp);
            self.readings[probe as usize].push(t[PROBES / 2]);
        }
        Ok(self.readings[0].len() - 1)
    }

    /// Scale for a block run between readings `before` and `before + 1`:
    /// its time times this is its time at the reference speed.
    pub fn scale(&self, probe: Probe, before: usize) -> f64 {
        scale_at(
            &self.readings[probe as usize],
            REFERENCE_US[probe as usize],
            before,
        )
    }

    fn verb(&mut self) -> io::Result<()> {
        let v = work(INSERTS / 2);
        for _ in 0..2 {
            self.log.write_all(&[v as u8; RECORD])?;
            self.log.sync_data()?;
        }
        Ok(())
    }
}

/// `reference` over the mean of readings `before` and `before + 1` (the
/// last reading stands alone).
fn scale_at(readings: &[f64], reference: f64, before: usize) -> f64 {
    let after = readings.get(before + 1).unwrap_or(&readings[before]);
    reference / ((readings[before] + after) / 2.0)
}

/// The fixed processor work of a probe. Of the probes tried, this one
/// tracked the program's timings best: dependent loads over a table
/// larger than the core's caches swung far more with the neighbours'
/// cache use than the program does, and round trips between threads were
/// too noisy to time in a few milliseconds.
fn work(inserts: u64) -> u64 {
    let mut rng = Rng::new(0xBB67_AE85);
    let map: BTreeMap<u64, String> = (0..inserts)
        .map(|i| (rng.below(1 << 20), format!("chain-{i}")))
        .collect();
    let acc = map.iter().fold(0u64, |a, (k, v)| {
        a.wrapping_mul(31).wrapping_add(k ^ v.len() as u64)
    });
    let text: String = map.values().map(String::as_str).collect();
    acc ^ fnv(text.bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_scale_by_the_readings_around_them() {
        let r = [100.0, 200.0, 50.0];
        // Between a reference reading and one twice as slow: mean 1.5x.
        assert!((scale_at(&r, 100.0, 0) - 1.0 / 1.5).abs() < 1e-12);
        assert!((scale_at(&r, 100.0, 1) - 1.0 / 1.25).abs() < 1e-12);
        // The last reading has none after it and stands alone.
        assert_eq!(scale_at(&r, 100.0, 2), 2.0);
    }
}
