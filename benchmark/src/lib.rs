//! End-to-end and per-layer benchmark of the Maxoid substrate.
//!
//! A run is a fixed number of rounds. Each round sets a system up from
//! scratch (timed as `setup_s`), then drives closed-loop windows of a
//! fixed op count from [`WORKERS`] threads on it, checking the system's
//! outputs after each, outside the timed window. A workload may start a
//! round with an untimed warm-up window. With `--trace 1`, timed windows
//! alternate between plain and traced; the traced ones give the
//! per-layer rows, and the two kinds together give `trace_overhead`.
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! the spreads measured.

pub mod durable;
pub mod fleet;
pub mod ops;
pub mod provider_cow;
pub mod record;
pub mod rng;
pub mod trace;

use maxoid::{MaxoidSystem, Pid};
use record::{median, peak_rss_mib, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::Instant;
use trace::{layer_metrics, Probe, Tracer};

/// Worker threads driving every workload, in one process.
pub const WORKERS: usize = 2;

/// The worker that owns tenant (or row) `i`: owners alternate, so a
/// tenant's sessions run in sequence on one thread.
pub fn worker_of(i: usize) -> usize {
    i % WORKERS
}

/// Runs `work` on each worker state, one thread per state, released
/// together. Returns the outputs in worker order and the window's wall
/// time in seconds.
pub fn drive<S: Send, T: Send>(
    states: &mut [S],
    work: impl Fn(&mut S) -> T + Sync,
) -> (Vec<T>, f64) {
    let barrier = Barrier::new(states.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|st| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(st)
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let outs =
            handles.into_iter().map(|h| h.join().expect("benchmark worker panicked")).collect();
        (outs, started.elapsed().as_secs_f64())
    })
}

/// A set-up system and the closed loop that drives it.
pub trait Fixture: Sync {
    /// One worker's op generator and expectations; kept across windows.
    type Worker: Send;
    /// The system under test.
    fn sys(&self) -> &MaxoidSystem;
    /// Processes whose union-resolution caches the vfs rows read.
    fn pids(&self) -> Vec<Pid>;
    /// The [`WORKERS`] worker states.
    fn workers(&self) -> Vec<Self::Worker>;
    /// Issues one window's ops from one worker; split and spanned calls
    /// when `tracer` is set.
    fn run(&self, wk: &mut Self::Worker, tracer: Option<&Tracer>) -> Recorder;
    /// Checks the system against the workers' expectations, outside the
    /// timed window. Returns workload-specific counts for this window.
    fn check(
        &self,
        rec: &mut Recorder,
        workers: &mut [Self::Worker],
    ) -> BTreeMap<&'static str, u64>;
}

/// What a window is run for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed warm-up: checked and counted, not measured.
    Warm,
    /// Tracing off: the end-to-end metrics.
    Plain,
    /// Tracing on, calls split at layer boundaries: the per-layer metrics.
    Traced,
}

/// One window of a fixed op count, checked.
#[derive(Debug)]
pub struct Window {
    /// Wall seconds of the window.
    pub window_s: f64,
    /// What the window was run for.
    pub phase: Phase,
    /// All workers' observations plus the checks' mismatches.
    pub rec: Recorder,
    /// Layer counters' change over the window (journal flushed first).
    pub probe: Probe,
    /// Per-layer metrics (traced windows only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Span totals by name (traced windows only).
    pub spans: BTreeMap<&'static str, trace::SpanTotals>,
    /// Workload-specific counts gathered by the checks.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Window {
    /// Ops per second of the window.
    pub fn ops_per_s(&self) -> f64 {
        self.rec.attempted as f64 / self.window_s
    }

    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// One set-up followed by timed windows on the same system.
#[derive(Debug)]
pub struct Round {
    /// Seconds to set the system up.
    pub setup_s: f64,
    /// Peak RSS in MiB after the first window, before its checks.
    pub rss_mib: f64,
    /// The windows, in order.
    pub windows: Vec<Window>,
}

impl Round {
    /// Drives one window per entry of `plan` over a set-up fixture,
    /// checking after each.
    pub fn drive<F: Fixture>(fx: &F, setup_s: f64, plan: &[Phase]) -> Result<Round, String> {
        let sys = fx.sys();
        let pids = fx.pids();
        let mut workers = fx.workers();
        let mut rss_mib = 0.0;
        let mut windows = Vec::with_capacity(plan.len());
        for &phase in plan {
            let before = Probe::take(sys, &pids);
            let tracer = (phase == Phase::Traced).then(Tracer::start);
            let (recs, window_s) = drive(&mut workers, |wk| fx.run(wk, tracer.as_ref()));
            let folded = tracer.map(Tracer::finish);
            // Untimed: make what is queued durable so the journal counts
            // cover every record the window produced.
            if let Some(j) = sys.journal() {
                j.flush().map_err(|e| format!("journal flush after the window: {e}"))?;
            }
            let probe = before.delta(&Probe::take(sys, &pids));
            if windows.is_empty() {
                rss_mib = peak_rss_mib();
            }
            let mut rec = Recorder::default();
            for r in recs {
                rec.merge(r);
            }
            let layers =
                folded.as_ref().map(|f| layer_metrics(f, &rec, &probe)).unwrap_or_default();
            let spans = folded.map(|f| f.spans).unwrap_or_default();
            let counts = fx.check(&mut rec, &mut workers);
            windows.push(Window { window_s, phase, rec, probe, layers, spans, counts });
        }
        Ok(Round { setup_s, rss_mib, windows })
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tenant file I/O through unions: kernel and vfs.
    Fleet,
    /// COW provider traffic: providers, cowproxy, sqldb.
    ProviderCow,
    /// Journaled device past its caches: journal and block.
    Durable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::ProviderCow, Workload::Durable];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::ProviderCow => "provider_cow",
            Workload::Durable => "durable",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Seconds one round takes on a 2-core x86-64 box (set-up, windows
    /// and checks). Sets the round count for a `--seconds` budget, so a
    /// run's op count is fixed by its arguments and not by the speed of
    /// the code under test.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::Fleet => 2.7,
            Workload::ProviderCow => 10.5,
            Workload::Durable => 0.95,
        }
    }

    /// Untimed warm-up windows and timed windows per set-up. Every fleet
    /// tenant starts cold, so `fleet`'s first window pays first-touch
    /// costs (delegate forks, resolution-cache fills, file creation) that
    /// a running fleet pays once per tenant; it is not timed.
    /// `provider_cow` sets up for seconds, so it times several windows on
    /// each system. Its throughput falls by about a fifth over the first
    /// ~10k ops after set-up, the first window most, so that window is
    /// not timed either.
    pub fn windows_per_round(self) -> (usize, usize) {
        match self {
            Workload::Fleet => (1, 2),
            Workload::ProviderCow => (1, 3),
            Workload::Durable => (0, 1),
        }
    }

    /// Sets up and runs one round of windows.
    pub fn round(self, seed: u64, plan: &[Phase]) -> Result<Round, String> {
        match self {
            Workload::Fleet => fleet::round(seed, &fleet::Params::full(), plan),
            Workload::ProviderCow => provider_cow::round(seed, &provider_cow::Params::full(), plan),
            Workload::Durable => durable::round(seed, &durable::Params::full(), plan),
        }
    }
}

/// The end-to-end metrics, with units. Every workload reports every one
/// of them, and each is measured on every workload: `provider_cow`'s
/// sessions include a little file I/O for that reason.
pub const END_TO_END_UNITS: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fs_read_p50_us", "us"),
    ("fs_write_p50_us", "us"),
    ("cp_query_p50_us", "us"),
    ("gesture_p50_us", "us"),
];

/// Per-layer metrics of the traced run, with units. Every workload
/// reports all of them; a layer that does no work on a workload reads 0.
/// The rows in [`RUN_LEVEL`] are computed over the whole run, the rest
/// over its traced windows.
pub const PER_LAYER_UNITS: &[(&str, &str)] = &[
    ("kernel.process_us", "us"),
    ("kernel.self_us_per_op", "us/op"),
    ("core.caller_us", "us"),
    ("core.self_us_per_op", "us/op"),
    ("vfs.read_us", "us"),
    ("vfs.write_us", "us"),
    ("vfs.self_us_per_op", "us/op"),
    ("vfs.resolve_hit_ratio", "ratio"),
    ("vfs.spill_hit_ratio", "ratio"),
    ("vfs.spill_writeback_bytes_per_op", "B/op"),
    ("providers.query_us", "us"),
    ("providers.update_us", "us"),
    ("providers.self_us_per_op", "us/op"),
    ("providers.snapshot_read_ratio", "ratio"),
    ("cowproxy.self_us_per_op", "us/op"),
    ("cowproxy.fork_us", "us"),
    ("cowproxy.publish_us_per_write", "us/write"),
    ("cowproxy.rewrite_hit_ratio", "ratio"),
    ("sqldb.self_us_per_op", "us/op"),
    ("sqldb.begin_read_us", "us"),
    ("sqldb.snapshots_per_write", "count/write"),
    ("sqldb.rows_scanned_per_op", "count/op"),
    ("journal.records_per_op", "count/op"),
    ("journal.bytes_per_op", "B/op"),
    ("journal.records_per_flush", "count"),
    ("journal.bytes_per_user_byte", "ratio"),
    ("journal.lost_commit_share", "ratio"),
    ("block.heap_hit_ratio", "ratio"),
    ("block.heap_misses_per_query", "count/query"),
    ("unattributed_us_per_op", "us/op"),
    ("trace_overhead", "ratio"),
];

/// Per-layer rows computed over all of a run's windows: the ratio of
/// plain to traced throughput, and the journal's write amplification and
/// lost commits, which tracing does not change.
pub const RUN_LEVEL: [&str; 3] =
    ["trace_overhead", "journal.bytes_per_user_byte", "journal.lost_commit_share"];

/// A run's arguments.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: u64,
    /// Report per-layer instead of end-to-end metrics.
    pub trace: bool,
}

impl Config {
    /// The fewest rounds a run makes: three set-ups, and at least two
    /// windows of each kind when traced.
    pub fn min_rounds(&self) -> usize {
        if self.trace && self.workload.windows_per_round().1 == 1 {
            4
        } else {
            3
        }
    }

    /// Rounds the run makes: the budget over the nominal round time.
    pub fn rounds(&self) -> usize {
        let n = (self.seconds as f64 / self.workload.nominal_round_s()).round() as usize;
        n.max(self.min_rounds())
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Every output check held.
    pub correct: bool,
    /// Ops issued in all windows.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Metric name, value and unit, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs the benchmark. Progress and problems go to stderr.
///
/// A run that falls far behind its budget (a host slower than the
/// nominal round times assume) stops starting rounds after the minimum,
/// so it still ends well within its time limit.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let started = Instant::now();
    let give_up = 1.5 * cfg.seconds as f64;
    let (warm, timed) = cfg.workload.windows_per_round();
    let mut rounds = Vec::new();
    for i in 0..cfg.rounds() {
        if i >= cfg.min_rounds() && started.elapsed().as_secs_f64() > give_up {
            eprintln!("{}: over budget after {i} rounds; stopping", cfg.workload.name());
            break;
        }
        // Timed windows alternate plain and traced across the whole run.
        let traced = |k: usize| cfg.trace && (i * timed + k) % 2 == 1;
        let plan: Vec<Phase> = std::iter::repeat_n(Phase::Warm, warm)
            .chain((0..timed).map(|k| if traced(k) { Phase::Traced } else { Phase::Plain }))
            .collect();
        // Each round on a fresh thread: thread-local state the system
        // leaves behind dies with it (see README, Findings).
        let r = std::thread::scope(|s| s.spawn(|| cfg.workload.round(cfg.seed, &plan)).join())
            .map_err(|_| "a benchmark round panicked".to_string())??;
        report_round(cfg.workload, i, &r);
        rounds.push(r);
    }
    let windows: Vec<&Window> = rounds.iter().flat_map(|r| &r.windows).collect();
    let metrics = if cfg.trace {
        per_layer(&windows)
    } else {
        END_TO_END_UNITS
            .iter()
            .map(|&(name, unit)| (name, end_to_end(name, &rounds, &windows), unit))
            .collect()
    };
    Ok(Report {
        correct: windows.iter().all(|w| w.rec.mismatches == 0),
        attempted: windows.iter().map(|w| w.rec.attempted).sum(),
        failed: windows.iter().map(|w| w.rec.failed).sum(),
        metrics,
    })
}

/// Progress line per window, and the top spans of a traced one.
fn report_round(workload: Workload, i: usize, r: &Round) {
    eprintln!("{} round {i}: set-up {:.3}s", workload.name(), r.setup_s);
    for w in &r.windows {
        eprintln!(
            "  window{}: {} ops in {:.3}s ({:.0} ops/s), {} failed, {} mismatches",
            match w.phase {
                Phase::Warm => " (warm-up)",
                Phase::Plain => "",
                Phase::Traced => " (traced)",
            },
            w.rec.attempted,
            w.window_s,
            w.ops_per_s(),
            w.rec.failed,
            w.rec.mismatches,
        );
        if let Some(p) = &w.rec.first_problem {
            eprintln!("    first problem: {p}");
        }
        let mut top: Vec<_> = w.spans.iter().collect();
        top.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in top.iter().take(12) {
            eprintln!(
                "    {name:<28} n={:<8} self {:>9.1} us/op  incl {:>9.1} us/span",
                t.count,
                t.self_ns as f64 / 1e3 / w.rec.attempted.max(1) as f64,
                t.incl_ns as f64 / 1e3 / t.count.max(1) as f64,
            );
        }
    }
}

fn in_phase<'a>(windows: &'a [&'a Window], phase: Phase) -> impl Iterator<Item = &'a Window> {
    windows.iter().copied().filter(move |w| w.phase == phase)
}

/// One end-to-end metric over a run's plain windows (set-up and memory:
/// over its rounds).
fn end_to_end(name: &str, rounds: &[Round], windows: &[&Window]) -> f64 {
    let med = |f: &dyn Fn(&Window) -> f64| {
        median(&in_phase(windows, Phase::Plain).map(f).collect::<Vec<_>>())
    };
    match name {
        "ops_per_s" => med(&Window::ops_per_s),
        "setup_s" => median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        "peak_rss_mb" => rounds.first().map_or(0.0, |r| r.rss_mib),
        _ => {
            let (kind, q) = match (name.strip_suffix("_p50_us"), name.strip_suffix("_p99_us")) {
                (Some(k), _) => (k, 0.50),
                (_, Some(k)) => (k, 0.99),
                _ => unreachable!("unknown end-to-end metric {name}"),
            };
            // Pooled over windows: one window holds too few tail samples.
            let pooled: Vec<u32> = in_phase(windows, Phase::Plain)
                .flat_map(|w| w.rec.lat.get(kind).into_iter().flatten().copied())
                .collect();
            record::percentile(&pooled, q) / 1e3
        }
    }
}

/// The per-layer metrics: medians over traced windows, plus the
/// [`RUN_LEVEL`] rows.
fn per_layer(windows: &[&Window]) -> Vec<(&'static str, f64, &'static str)> {
    let traced: Vec<&Window> = in_phase(windows, Phase::Traced).collect();
    let med = |ws: &[&Window], f: &dyn Fn(&Window) -> f64| {
        median(&ws.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    PER_LAYER_UNITS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace_overhead" => {
                    let plain: Vec<&Window> = in_phase(windows, Phase::Plain).collect();
                    let slow = med(&traced, &Window::ops_per_s);
                    if slow > 0.0 {
                        med(&plain, &Window::ops_per_s) / slow
                    } else {
                        0.0
                    }
                }
                "journal.bytes_per_user_byte" => {
                    med(windows, &|w| ratio(w.probe.journal.2, w.count("user_bytes")))
                }
                "journal.lost_commit_share" => ratio(
                    windows.iter().map(|w| w.count("lost_commits")).sum(),
                    windows.iter().map(|w| w.count("acked_commits")).sum(),
                ),
                _ => med(&traced, &|w| w.layers.get(name).copied().unwrap_or(0.0)),
            };
            (name, value, unit)
        })
        .collect()
}

impl Report {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_rows_are_exactly_the_declared_ones() {
        let rows =
            trace::layer_metrics(&Default::default(), &Recorder::default(), &Probe::default());
        let mut names: Vec<&str> = rows.keys().copied().chain(RUN_LEVEL).collect();
        names.sort_unstable();
        let mut declared: Vec<&str> = PER_LAYER_UNITS.iter().map(|(n, _)| *n).collect();
        declared.sort_unstable();
        assert_eq!(names, declared);
        assert!(rows.values().all(|v| *v == 0.0), "an idle layer must read 0");
    }

    #[test]
    fn result_line_is_one_json_object() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("ops_per_s", 1.5, "1/s"), ("setup_s", f64::NAN, "s")],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }
}
