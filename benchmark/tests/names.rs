//! Every metric and workload the benchmark emits is declared, with the
//! same unit, in the repository's `BENCHMARK.json`, and nothing declared
//! there is missing from the benchmark.

use maxoid_perf::{Workload, END_TO_END_UNITS, PER_LAYER_UNITS};
use std::collections::BTreeMap;

/// The `BENCHMARK.json` next to the benchmark's directory.
fn spec() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The quoted string starting at `s[i]` (a `"`), and the index after it.
fn string_at(s: &str, i: usize) -> (String, usize) {
    let rest = &s[i + 1..];
    let end = rest.find('"').expect("unterminated string");
    (rest[..end].to_string(), i + end + 2)
}

/// The string value of `"key": "..."` at or after `from`, within the
/// enclosing object (before the next `}`).
fn value_of(s: &str, key: &str, from: usize) -> Option<String> {
    let close = s[from..].find('}').map_or(s.len(), |c| from + c);
    let k = s[from..close].find(&format!("\"{key}\""))? + from;
    let colon = s[k..].find(':')? + k;
    let quote = s[colon..].find('"')? + colon;
    Some(string_at(s, quote).0)
}

/// The objects of one top-level array: `name` → `unit` (empty if none).
fn section(s: &str, key: &str) -> BTreeMap<String, String> {
    let start =
        s.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let end = s[start..].find(']').expect("unterminated array") + start;
    let mut out = BTreeMap::new();
    let mut at = start;
    while let Some(i) = s[at..end].find("\"name\"") {
        let obj = s[..at + i].rfind('{').expect("name outside an object");
        let name = value_of(s, "name", obj).expect("name value");
        let unit = value_of(s, "unit", obj).unwrap_or_default();
        out.insert(name, unit);
        at += i + 6;
    }
    out
}

#[test]
fn workloads_match() {
    let declared: Vec<String> = section(&spec(), "workloads").into_keys().collect();
    let mut ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    ours.sort();
    assert_eq!(declared, ours);
}

#[test]
fn end_to_end_metrics_match() {
    let declared = section(&spec(), "end_to_end");
    let ours: BTreeMap<String, String> =
        END_TO_END_UNITS.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(declared, ours);
}

#[test]
fn per_layer_metrics_match() {
    let declared = section(&spec(), "per_layer");
    let ours: BTreeMap<String, String> =
        PER_LAYER_UNITS.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(declared, ours);
}
