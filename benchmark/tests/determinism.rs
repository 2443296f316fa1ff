//! Same seed, same inputs: two rounds of a workload at a small size
//! issue the same op sequence and leave the same exact counts, and their
//! output checks hold. A different seed changes the sequence.

use maxoid_perf::{durable, fleet, provider_cow, Phase, Round, Window, END_TO_END_UNITS};

const PLAIN: Phase = Phase::Plain;

/// The round's windows, each checked clean.
fn clean(r: &Round) -> &[Window] {
    for w in &r.windows {
        assert_eq!(w.rec.failed, 0, "failed ops: {:?}", w.rec.first_problem);
        assert_eq!(w.rec.mismatches, 0, "check mismatches: {:?}", w.rec.first_problem);
    }
    &r.windows
}

fn assert_same(a: &Round, b: &Round) {
    assert_eq!(a.windows.len(), b.windows.len());
    for (a, b) in clean(a).iter().zip(clean(b)) {
        assert_eq!(a.rec.digest, b.rec.digest, "op sequence differs");
        assert_eq!(a.rec.attempted, b.rec.attempted);
        let calls = |w: &Window| w.rec.lat.iter().map(|(k, v)| (*k, v.len())).collect::<Vec<_>>();
        assert_eq!(calls(a), calls(b), "call counts differ");
        let reads = |w: &Window| w.probe.read_path.0 + w.probe.read_path.1;
        assert_eq!(reads(a), reads(b), "routed query count differs");
    }
}

#[test]
fn fleet_repeats() {
    let p = fleet::Params { tenants: 24, sessions: 2_000 };
    let a = fleet::round(7, &p, &[PLAIN, PLAIN]).expect("round");
    let b = fleet::round(7, &p, &[PLAIN, PLAIN]).expect("round");
    assert_same(&a, &b);
    assert_ne!(a.windows[0].rec.digest, a.windows[1].rec.digest, "windows continue the sequence");
    let c = fleet::round(8, &p, &[PLAIN]).expect("round");
    assert_ne!(a.windows[0].rec.digest, c.windows[0].rec.digest);
}

#[test]
fn provider_cow_repeats() {
    let p = provider_cow::Params { tenants: 16, rows: 400, ops: 1_200 };
    let a = provider_cow::round(7, &p, &[PLAIN, PLAIN]).expect("round");
    let b = provider_cow::round(7, &p, &[PLAIN, PLAIN]).expect("round");
    assert_same(&a, &b);
}

#[test]
fn durable_repeats_to_the_byte() {
    let p = durable::Params { tenants: 8, rows: 2_000, sessions: 800 };
    let a = durable::round(7, &p, &[PLAIN]).expect("round");
    let b = durable::round(7, &p, &[PLAIN]).expect("round");
    assert_same(&a, &b);
    let (a, b) = (&a.windows[0], &b.windows[0]);
    // Paged tables refuse snapshots: every query takes the locked path.
    assert_eq!(a.probe.read_path, b.probe.read_path);
    assert_eq!(a.probe.read_path.0, 0);
    // Journal records and flushed bytes repeat exactly.
    assert_eq!(a.probe.journal.0, b.probe.journal.0, "journal records differ");
    assert_eq!(a.probe.journal.2, b.probe.journal.2, "journal bytes differ");
    assert_eq!(a.counts["user_bytes"], b.counts["user_bytes"]);
    assert_eq!(a.counts["acked_commits"], b.counts["acked_commits"]);
    assert!(a.counts["acked_commits"] > 0);
}

#[test]
fn traced_windows_report_layers() {
    let p = durable::Params { tenants: 8, rows: 2_000, sessions: 800 };
    let r = durable::round(7, &p, &[PLAIN, Phase::Traced]).expect("round");
    let (plain, traced) = (&clean(&r)[0], &r.windows[1]);
    assert!(plain.layers.is_empty());
    assert_eq!(plain.rec.attempted, traced.rec.attempted);
    for row in
        ["vfs.read_us", "providers.query_us", "journal.records_per_op", "block.heap_hit_ratio"]
    {
        assert!(traced.layers[row] > 0.0, "{row} is 0 on a traced durable window");
    }
    assert!(traced.spans.contains_key("delegation.commit_vol"));
}

#[test]
fn every_latency_metric_has_samples_on_every_workload() {
    let rounds = [
        ("fleet", fleet::round(7, &fleet::Params { tenants: 24, sessions: 2_000 }, &[PLAIN])),
        (
            "provider_cow",
            provider_cow::round(
                7,
                &provider_cow::Params { tenants: 16, rows: 400, ops: 1_200 },
                &[PLAIN],
            ),
        ),
        (
            "durable",
            durable::round(
                7,
                &durable::Params { tenants: 8, rows: 2_000, sessions: 800 },
                &[PLAIN],
            ),
        ),
    ];
    for (name, r) in rounds {
        let r = r.expect("round");
        let w = &clean(&r)[0];
        for (metric, _) in END_TO_END_UNITS {
            if let Some(kind) = metric.strip_suffix("_p50_us") {
                assert!(w.rec.count(kind) > 0, "{name} has no {kind} samples for {metric}");
            }
        }
    }
}
