//! The traced run's per-layer numbers.
//!
//! Spans come from two places: the benchmark's own spans around the
//! split calls (see `ops`), and the spans and counters the program
//! already emits. The collector is drained every few thousand ops and
//! each drain is folded into per-name count, inclusive and self time, so
//! memory stays flat however long the run. A span's self time is its
//! duration minus its children's; a child drained before its parent
//! leaves its duration in `carry` until the parent arrives.
//!
//! A span's layer is its name prefix; `system.*` and `delegation.*`
//! belong to core and `resolver.*` to providers.

use crate::ops;
use crate::record::Recorder;
use maxoid::MaxoidSystem;
use maxoid::Pid;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Sessions (or single ops) a worker issues between two drains of the
/// collector.
pub const DRAIN_EVERY: usize = 2048;

/// Layers of the stack, in call order.
pub const LAYERS: [&str; 8] =
    ["kernel", "core", "vfs", "providers", "cowproxy", "sqldb", "journal", "block"];

/// The layer a span belongs to, by name prefix.
pub fn layer_of(span: &str) -> Option<&'static str> {
    let head = span.split('.').next().unwrap_or("");
    match head {
        "system" | "delegation" => Some("core"),
        "resolver" => Some("providers"),
        _ => LAYERS.iter().copied().find(|l| *l == head),
    }
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans finished.
    pub count: u64,
    /// Summed duration.
    pub incl_ns: u64,
    /// Summed duration minus children.
    pub self_ns: u64,
}

/// Drained spans and counters, folded.
#[derive(Debug, Default)]
pub struct Folded {
    /// Totals per span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Counter sums.
    pub counters: BTreeMap<String, u64>,
    /// Child time of spans whose parent has not been drained yet.
    carry: HashMap<u64, u64>,
}

impl Folded {
    /// Folds one drained snapshot in.
    pub fn absorb(&mut self, snap: maxoid_obs::Snapshot) {
        // Completion order: a child always precedes its parent.
        for sp in snap.spans {
            let children = self.carry.remove(&sp.id).unwrap_or(0);
            let t = self.spans.entry(sp.name).or_default();
            t.count += 1;
            t.incl_ns += sp.dur_ns;
            t.self_ns += sp.dur_ns.saturating_sub(children);
            if let Some(parent) = sp.parent {
                *self.carry.entry(parent).or_default() += sp.dur_ns;
            }
        }
        for (name, v) in snap.counters {
            *self.counters.entry(name).or_default() += v;
        }
    }

    fn totals(&self, name: &str) -> SpanTotals {
        self.spans.get(name).copied().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Self time of every span of one layer.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.spans.iter().filter(|(n, _)| layer_of(n) == Some(layer)).map(|(_, t)| t.self_ns).sum()
    }
}

/// The collector's drain point, shared by the workers of a traced window.
#[derive(Debug, Default)]
pub struct Tracer {
    folded: Mutex<Folded>,
}

impl Tracer {
    /// Turns tracing on for a window.
    pub fn start() -> Self {
        maxoid_obs::reset();
        maxoid_obs::enable();
        Tracer::default()
    }

    /// Drains the collector into the fold.
    pub fn drain(&self) {
        let snap = maxoid_obs::take_snapshot();
        self.folded.lock().expect("fold lock poisoned by a panicked worker").absorb(snap);
    }

    /// Turns tracing off and returns everything folded.
    pub fn finish(self) -> Folded {
        maxoid_obs::disable();
        self.drain();
        self.folded.into_inner().expect("fold lock poisoned by a panicked worker")
    }
}

/// Layer counters read directly off the system, before and after a window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    /// Union-mount resolution cache (hits, misses) over the given processes.
    pub resolve: (u64, u64),
    /// Resolver queries served from a snapshot / under the lock.
    pub read_path: (u64, u64),
    /// VFS spill page cache (hits, misses, writeback bytes).
    pub spill: (u64, u64, u64),
    /// sqldb heap page cache (hits, misses).
    pub heap: (u64, u64),
    /// Journal (records, flushes, bytes flushed).
    pub journal: (u64, u64, u64),
}

impl Probe {
    /// Reads every counter; `pids` are the processes whose namespaces
    /// the workload reads files through.
    pub fn take(sys: &MaxoidSystem, pids: &[Pid]) -> Probe {
        let resolve = pids
            .iter()
            .filter_map(|&p| sys.kernel.resolve_cache_stats(p).ok())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        let spill =
            sys.store_stats().cache.map_or((0, 0, 0), |c| (c.hits, c.misses, c.writeback_bytes));
        let heap = sys.heap().map_or((0, 0), |h| {
            let c = h.stats();
            (c.hits, c.misses)
        });
        let journal = sys.journal().map_or((0, 0, 0), |j| {
            let s = j.stats();
            (s.records, s.flushes, s.bytes_flushed)
        });
        Probe { resolve, read_path: sys.resolver.read_path_stats(), spill, heap, journal }
    }

    /// What changed between `self` (before) and `after`.
    pub fn delta(&self, after: &Probe) -> Probe {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        Probe {
            resolve: (d(self.resolve.0, after.resolve.0), d(self.resolve.1, after.resolve.1)),
            read_path: (
                d(self.read_path.0, after.read_path.0),
                d(self.read_path.1, after.read_path.1),
            ),
            spill: (
                d(self.spill.0, after.spill.0),
                d(self.spill.1, after.spill.1),
                d(self.spill.2, after.spill.2),
            ),
            heap: (d(self.heap.0, after.heap.0), d(self.heap.1, after.heap.1)),
            journal: (
                d(self.journal.0, after.journal.0),
                d(self.journal.1, after.journal.1),
                d(self.journal.2, after.journal.2),
            ),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn hit_ratio((hits, misses): (u64, u64)) -> f64 {
    ratio(hits, hits + misses)
}

/// The per-layer metrics of one traced window (all but `trace_overhead`,
/// which compares two windows). A layer that did no work reads 0.
pub fn layer_metrics(f: &Folded, rec: &Recorder, d: &Probe) -> BTreeMap<&'static str, f64> {
    let ops = rec.attempted;
    let per_op_us = |ns: u64| ratio(ns, ops) / 1e3;
    let mean_us = |name: &str| {
        let t = f.totals(name);
        ratio(t.incl_ns, t.count) / 1e3
    };
    let queries = rec.count(ops::PROVIDERS_QUERY);
    let writes = rec.count(ops::PROVIDERS_UPDATE);
    let attributed: u64 = LAYERS.iter().map(|l| f.layer_self_ns(l)).sum();

    let mut m = BTreeMap::new();
    m.insert("kernel.process_us", rec.percentile_us(ops::KERNEL_PROCESS, 0.5));
    m.insert("core.caller_us", rec.percentile_us(ops::CORE_CALLER, 0.5));
    m.insert("vfs.read_us", rec.percentile_us(ops::VFS_READ, 0.5));
    m.insert("vfs.write_us", rec.percentile_us(ops::VFS_WRITE, 0.5));
    m.insert("providers.query_us", rec.percentile_us(ops::PROVIDERS_QUERY, 0.5));
    m.insert("providers.update_us", rec.percentile_us(ops::PROVIDERS_UPDATE, 0.5));
    for (layer, name) in [
        ("kernel", "kernel.self_us_per_op"),
        ("core", "core.self_us_per_op"),
        ("vfs", "vfs.self_us_per_op"),
        ("providers", "providers.self_us_per_op"),
        ("cowproxy", "cowproxy.self_us_per_op"),
        ("sqldb", "sqldb.self_us_per_op"),
    ] {
        m.insert(name, per_op_us(f.layer_self_ns(layer)));
    }
    m.insert("vfs.resolve_hit_ratio", hit_ratio(d.resolve));
    m.insert("vfs.spill_hit_ratio", hit_ratio((d.spill.0, d.spill.1)));
    m.insert("vfs.spill_writeback_bytes_per_op", ratio(d.spill.2, ops));
    m.insert("providers.snapshot_read_ratio", hit_ratio(d.read_path));
    m.insert("cowproxy.fork_us", mean_us("cowproxy.cow_fork"));
    m.insert(
        "cowproxy.publish_us_per_write",
        ratio(f.totals("cowproxy.publish").incl_ns, writes) / 1e3,
    );
    m.insert(
        "cowproxy.rewrite_hit_ratio",
        hit_ratio((
            f.counter("cowproxy.rewrite_cache_hits"),
            f.counter("cowproxy.rewrite_cache_misses"),
        )),
    );
    m.insert("sqldb.begin_read_us", mean_us("sqldb.begin_read"));
    m.insert("sqldb.snapshots_per_write", ratio(f.counter("sqldb.snapshots_published"), writes));
    m.insert("sqldb.rows_scanned_per_op", ratio(f.counter("sqldb.rows_scanned"), ops));
    m.insert("journal.records_per_op", ratio(d.journal.0, ops));
    m.insert("journal.bytes_per_op", ratio(d.journal.2, ops));
    m.insert("journal.records_per_flush", ratio(d.journal.0, d.journal.1));
    m.insert("block.heap_hit_ratio", hit_ratio(d.heap));
    m.insert("block.heap_misses_per_query", ratio(d.heap.1, queries));
    m.insert(
        "unattributed_us_per_op",
        per_op_us(rec.total_ns(ops::SESSION).saturating_sub(attributed)),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_obs::SpanRecord;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord { id, parent, name, start_ns: 0, dur_ns, fields: Vec::new() }
    }

    fn snap(spans: Vec<SpanRecord>) -> maxoid_obs::Snapshot {
        maxoid_obs::Snapshot { spans, ..Default::default() }
    }

    #[test]
    fn self_time_survives_a_drain_between_child_and_parent() {
        let mut f = Folded::default();
        f.absorb(snap(vec![
            rec(2, Some(1), "sqldb.query", 30),
            rec(3, Some(1), "sqldb.query", 20),
        ]));
        assert_eq!(f.carry.len(), 1);
        f.absorb(snap(vec![rec(1, None, "cowproxy.query", 100)]));
        assert_eq!(f.carry.len(), 0);
        assert_eq!(f.totals("cowproxy.query"), SpanTotals { count: 1, incl_ns: 100, self_ns: 50 });
        assert_eq!(f.layer_self_ns("sqldb"), 50);
    }

    #[test]
    fn prefixes_map_to_layers() {
        assert_eq!(layer_of("delegation.commit_vol"), Some("core"));
        assert_eq!(layer_of("resolver.locked_reads"), Some("providers"));
        assert_eq!(layer_of("vfs.union.read"), Some("vfs"));
        assert_eq!(layer_of("session"), None);
    }
}
