//! Per-worker bookkeeping: latency samples by op kind, attempted and
//! failed op counts, output-check mismatches, and a digest of the op
//! sequence the worker issued.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Latency samples in nanoseconds, keyed by op kind.
pub type Samples = BTreeMap<&'static str, Vec<u32>>;

/// What one worker observed during a timed window.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Latency samples of successful calls.
    pub lat: Samples,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Output checks that did not hold.
    pub mismatches: u64,
    /// Order-sensitive hash of the ops issued (kind, tenant, target).
    pub digest: u64,
    /// The first error or mismatch, for the diagnostic printout.
    pub first_problem: Option<String>,
}

impl Recorder {
    /// Times `f` as one call of `kind`, inside an obs span of that name
    /// (inert unless tracing is on). Records the latency on success.
    pub fn time<T, E: Display>(
        &mut self,
        kind: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, String> {
        let span = maxoid_obs::span(kind);
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        drop(span);
        match out {
            Ok(v) => {
                self.push(kind, took);
                Ok(v)
            }
            Err(e) => Err(format!("{kind}: {e}")),
        }
    }

    /// Adds one latency sample.
    pub fn push(&mut self, kind: &'static str, took: Duration) {
        let ns = u32::try_from(took.as_nanos()).unwrap_or(u32::MAX);
        self.lat.entry(kind).or_default().push(ns);
    }

    /// Counts one attempted op and, if it failed, the failure.
    pub fn op<T>(&mut self, out: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_problem.get_or_insert(e);
                None
            }
        }
    }

    /// Records an output check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            if self.first_problem.is_none() {
                self.first_problem = Some(what());
            }
        }
    }

    /// Folds the identity of an issued op into the sequence digest.
    pub fn note(&mut self, parts: &[u64]) {
        self.digest = crate::rng::hash(self.digest, parts);
    }

    /// Merges another worker's observations into this one.
    pub fn merge(&mut self, other: Recorder) {
        for (kind, mut v) in other.lat {
            self.lat.entry(kind).or_default().append(&mut v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.digest = crate::rng::hash(self.digest, &[other.digest]);
        if self.first_problem.is_none() {
            self.first_problem = other.first_problem;
        }
    }

    /// Nearest-rank percentile of a kind's samples, in microseconds
    /// (0 when the kind has none).
    pub fn percentile_us(&self, kind: &str, q: f64) -> f64 {
        self.lat.get(kind).map_or(0.0, |v| percentile(v, q) / 1e3)
    }

    /// Number of samples of a kind.
    pub fn count(&self, kind: &str) -> u64 {
        self.lat.get(kind).map_or(0, |v| v.len() as u64)
    }

    /// Sum of a kind's samples, in nanoseconds.
    pub fn total_ns(&self, kind: &str) -> u64 {
        self.lat.get(kind).map_or(0, |v| v.iter().map(|&x| u64::from(x)).sum())
    }
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let (_, nth, _) = v.select_nth_unstable(rank - 1);
    f64::from(*nth)
}

/// Median of a list of values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failures_are_counted_not_raised() {
        let mut r = Recorder::default();
        let ok = r.time("x", || Ok::<_, String>(1));
        let bad = r.time("x", || Err::<u8, _>("boom"));
        assert_eq!(r.op(ok), Some(1));
        assert_eq!(r.op(bad), None);
        assert_eq!((r.attempted, r.failed, r.count("x")), (2, 1, 1));
        assert_eq!(r.first_problem.as_deref(), Some("x: boom"));
    }
}
