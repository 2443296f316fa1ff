//! `PMap` ≡ `BTreeMap`: random inserts, removes, upserts, in-place
//! updates, bulk runs, ranged and reversed scans against a `std` oracle, with every
//! root captured along the way re-checked against its own frozen oracle
//! after all later writes (persistence: path copying never leaks a write
//! into an older version).

use maxoid_sqldb::PMap;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, u32),
    Remove(i64),
    /// `update_or_remove`: odd values update in place, even ones remove.
    Update(i64, u32),
    Upsert(i64, u32),
    /// Inserts `n` ascending keys from `start` (exercises the
    /// append-biased leaf split and multi-level trees).
    InsertRun(i64, i64),
    /// Removes every key in `start..start + n` (exercises merges and
    /// root collapse).
    RemoveRun(i64, i64),
    Range(u8, i64, u8, i64),
    RangeRev(u8, i64, u8, i64),
    Snapshot,
    Clear,
}

const KEYS: i64 = 4000;

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..KEYS).prop_map(Op::Remove),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Op::Update(k, v)),
        (0..KEYS, any::<u32>()).prop_map(|(k, v)| Op::Upsert(k, v)),
        (0..KEYS, 1..1500i64).prop_map(|(s, n)| Op::InsertRun(s, n)),
        (0..KEYS, 1..1500i64).prop_map(|(s, n)| Op::RemoveRun(s, n)),
        (0..3u8, 0..KEYS, 0..3u8, 0..KEYS).prop_map(|(a, lo, b, hi)| Op::Range(a, lo, b, hi)),
        (0..3u8, 0..KEYS, 0..3u8, 0..KEYS).prop_map(|(a, lo, b, hi)| Op::RangeRev(a, lo, b, hi)),
        Just(Op::Snapshot),
        (0..40u8).prop_map(|n| if n == 0 { Op::Clear } else { Op::Snapshot }),
    ]
}

fn bound(kind: u8, k: &i64) -> Bound<&i64> {
    match kind {
        0 => Bound::Unbounded,
        1 => Bound::Included(k),
        _ => Bound::Excluded(k),
    }
}

/// `BTreeMap::range` panics on inverted intervals; `PMap::range` yields
/// nothing. The oracle side filters instead.
fn in_bounds(k: i64, lo: Bound<&i64>, hi: Bound<&i64>) -> bool {
    let above = match lo {
        Bound::Unbounded => true,
        Bound::Included(l) => k >= *l,
        Bound::Excluded(l) => k > *l,
    };
    let below = match hi {
        Bound::Unbounded => true,
        Bound::Included(h) => k <= *h,
        Bound::Excluded(h) => k < *h,
    };
    above && below
}

fn contents(m: &PMap<i64, u32>) -> Vec<(i64, u32)> {
    m.iter().map(|(k, v)| (*k, *v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pmap_matches_btreemap_and_keeps_old_roots(ops in proptest::collection::vec(op(), 1..80)) {
        let mut map: PMap<i64, u32> = PMap::new();
        let mut oracle: BTreeMap<i64, u32> = BTreeMap::new();
        let mut snaps: Vec<(PMap<i64, u32>, BTreeMap<i64, u32>)> = Vec::new();
        for o in &ops {
            match o {
                Op::Insert(k, v) => {
                    prop_assert_eq!(map.insert(*k, *v), oracle.insert(*k, *v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(map.remove(k), oracle.remove(k));
                }
                Op::Update(k, v) => {
                    // Odd values update in place, even ones remove.
                    let keep = v % 2 == 1;
                    let got = map.update_or_remove(k, |slot| {
                        *slot = *v;
                        keep
                    });
                    let want = match oracle.get_mut(k) {
                        Some(slot) if keep => {
                            *slot = *v;
                            true
                        }
                        Some(_) => oracle.remove(k).is_some(),
                        None => false,
                    };
                    prop_assert_eq!(got, want);
                }
                Op::Upsert(k, v) => {
                    map.upsert(*k, |slot| *slot = slot.wrapping_add(*v));
                    let slot = oracle.entry(*k).or_default();
                    *slot = slot.wrapping_add(*v);
                }
                Op::InsertRun(s, n) => {
                    for k in *s..s + n {
                        prop_assert_eq!(map.insert(k, k as u32), oracle.insert(k, k as u32));
                    }
                }
                Op::RemoveRun(s, n) => {
                    for k in *s..s + n {
                        prop_assert_eq!(map.remove(&k), oracle.remove(&k));
                    }
                }
                Op::Range(a, lo, b, hi) => {
                    let (lo, hi) = (bound(*a, lo), bound(*b, hi));
                    let got: Vec<_> = map.range(lo, hi).map(|(k, v)| (*k, *v)).collect();
                    let want: Vec<_> = oracle
                        .iter()
                        .filter(|(k, _)| in_bounds(**k, lo, hi))
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::RangeRev(a, lo, b, hi) => {
                    let (lo, hi) = (bound(*a, lo), bound(*b, hi));
                    let got: Vec<_> = map.range_rev(lo, hi).map(|(k, v)| (*k, *v)).collect();
                    let want: Vec<_> = oracle
                        .iter()
                        .rev()
                        .filter(|(k, _)| in_bounds(**k, lo, hi))
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::Snapshot => snaps.push((map.clone(), oracle.clone())),
                Op::Clear => {
                    map.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
            prop_assert_eq!(map.is_empty(), oracle.is_empty());
            prop_assert_eq!(map.last_key(), oracle.keys().next_back());
        }
        let want: Vec<_> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(contents(&map), want);
        for k in 0..KEYS + 1500 {
            prop_assert_eq!(map.get(&k), oracle.get(&k));
        }
        // Every captured root still reads back exactly its old contents.
        for (snap, frozen) in &snaps {
            let want: Vec<_> = frozen.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(contents(snap), want);
            prop_assert_eq!(snap.len(), frozen.len());
            prop_assert_eq!(snap.last_key(), frozen.keys().next_back());
        }
    }
}

#[test]
fn string_keys_borrow_as_str() {
    let mut m: PMap<String, usize> = PMap::new();
    for i in 0..500 {
        m.insert(format!("t{i:04}"), i);
    }
    assert_eq!(m.get("t0042"), Some(&42));
    assert!(m.contains_key("t0499") && !m.contains_key("t0500"));
    assert_eq!(m.remove("t0042"), Some(42));
    assert_eq!(m.get("t0042"), None);
    assert_eq!(m.len(), 499);
}
