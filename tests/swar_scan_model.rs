//! Property tests for the PR-5 SWAR scan path: every word-at-a-time tag scan
//! (fingerprint probe, first-empty search, occupancy iteration) must agree
//! bit-for-bit with the scalar byte loops it replaced — over arbitrary tag
//! patterns (including the `0x80` zero-fingerprint tag and every bucket width
//! `d` in `1..=8`), at the table level, and through chain shapes churned by
//! random expansions and contractions.

use cuckoograph::chain::{ChainInsert, ChainParams, TableChain};
use cuckoograph::hash::KeyHash;
use cuckoograph::rng::KickRng;
use cuckoograph::scht::CuckooTable;
use cuckoograph::swar;
use cuckoograph::{CuckooGraph, RebuildScratch, ShardedCuckooGraph};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn eq_positions(tags: &[u8], tag: u8) -> Vec<usize> {
    let mut out = Vec::new();
    swar::scan_eq(tags, tag, |i| {
        out.push(i);
        false
    });
    out
}

fn eq_positions_scalar(tags: &[u8], tag: u8) -> Vec<usize> {
    let mut out = Vec::new();
    swar::scan_eq_scalar(tags, tag, |i| {
        out.push(i);
        false
    });
    out
}

fn occupied_positions(tags: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    swar::scan_occupied(tags, |i| out.push(i));
    out
}

fn occupied_positions_scalar(tags: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    swar::scan_occupied_scalar(tags, |i| out.push(i));
    out
}

/// One operation of the randomised chain-iteration workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Delete(u64),
    Expand,
    Contract,
}

fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..keys).prop_map(Op::Insert),
        2 => (0..keys).prop_map(Op::Delete),
        // The vendored proptest shim has no `Just`; a trivial map stands in.
        1 => (0u64..1).prop_map(|_| Op::Expand),
        1 => (0u64..1).prop_map(|_| Op::Contract),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SWAR slice scans agree with the scalar loops on *arbitrary* byte
    /// patterns — not just well-formed tags — for every length (exact words
    /// plus tails) and every needle value.
    #[test]
    fn swar_slice_scans_match_scalar_on_arbitrary_bytes(
        tags in prop::collection::vec(0u8..255, 0..40),
        needle in 0u8..255
    ) {
        prop_assert_eq!(eq_positions(&tags, needle), eq_positions_scalar(&tags, needle));
        prop_assert_eq!(swar::find_eq(&tags, needle), swar::find_eq_scalar(&tags, needle));
        prop_assert_eq!(occupied_positions(&tags), occupied_positions_scalar(&tags));
        // The empty-tag search backs first-empty-slot placement: exercise it
        // explicitly on every pattern (padding lanes also read as zero, so
        // this pins the tail guard).
        prop_assert_eq!(eq_positions(&tags, 0), eq_positions_scalar(&tags, 0));
    }

    /// Well-formed tag patterns (`0` = empty, `0x80 | fp` = occupied),
    /// deliberately including `fp = 0` — the `0x80` tag whose low seven bits
    /// look like an empty slot to any scan that forgets the occupancy bit.
    #[test]
    fn realistic_tag_patterns_match_scalar(
        pattern in prop::collection::vec((0u8..2, 0u8..128), 0..33)
    ) {
        let tags: Vec<u8> = pattern
            .iter()
            .map(|&(occupied, fp)| if occupied == 1 { 0x80 | fp } else { 0 })
            .collect();
        for needle in [0u8, 0x80, 0x81, 0xff] {
            prop_assert_eq!(
                eq_positions(&tags, needle),
                eq_positions_scalar(&tags, needle),
                "needle {:#x}", needle
            );
            prop_assert_eq!(swar::find_eq(&tags, needle), swar::find_eq_scalar(&tags, needle));
        }
        for &(_, fp) in &pattern {
            let needle = 0x80 | fp;
            prop_assert_eq!(eq_positions(&tags, needle), eq_positions_scalar(&tags, needle));
        }
        prop_assert_eq!(occupied_positions(&tags), occupied_positions_scalar(&tags));
    }

    /// Table-level agreement for every bucket width `d` in `1..=8`: the SWAR
    /// probe and the scalar probe answer identically for stored and absent
    /// keys, and the word-skipping iteration visits exactly the stored items.
    #[test]
    fn table_probe_and_iteration_agree_for_all_d(
        d in 1usize..9,
        keys in prop::collection::hash_set(0u64..400, 1..100),
        probes in prop::collection::vec(0u64..400, 1..60)
    ) {
        let mut table: CuckooTable<u64> = CuckooTable::new(16, d, 0xd00d + d as u64);
        let mut rng = KickRng::new(42);
        let mut p = 0u64;
        let mut expected: BTreeSet<u64> = BTreeSet::new();
        for &k in &keys {
            match table.insert(k, KeyHash::new(k), &mut rng, 60, &mut p) {
                Ok(()) => {
                    expected.insert(k);
                }
                Err(homeless) => {
                    // The homeless item may be a kick-walk victim, not `k`.
                    expected.insert(k);
                    expected.remove(&homeless);
                }
            }
        }
        for &k in keys.iter().chain(probes.iter()) {
            let kh = KeyHash::new(k);
            prop_assert_eq!(
                table.get(kh),
                table.get_scalar(kh),
                "probe paths disagree on {} at d={}", k, d
            );
            prop_assert_eq!(table.get(kh).is_some(), expected.contains(&k));
        }
        let mut swar_seen = Vec::new();
        table.for_each(|&v| swar_seen.push(v));
        let mut scalar_seen = Vec::new();
        table.for_each_scalar(|&v| scalar_seen.push(v));
        prop_assert_eq!(&swar_seen, &scalar_seen, "iteration order diverged at d={}", d);
        let as_set: BTreeSet<u64> = swar_seen.iter().copied().collect();
        prop_assert_eq!(as_set.len(), swar_seen.len(), "duplicate visit");
        prop_assert_eq!(as_set, expected);
        table.assert_tags_consistent();
    }

    /// Chain-level iteration agreement under random expansion/contraction
    /// churn: after every op, the SWAR walk and the scalar walk must visit
    /// the same multiset of items across whatever table shapes the
    /// TRANSFORMATION machinery produced.
    #[test]
    fn chain_iteration_agrees_under_expand_contract(
        ops in prop::collection::vec(op_strategy(64), 1..250)
    ) {
        let params = ChainParams {
            cells_per_bucket: 4,
            r: 3,
            expand_threshold: 0.9,
            contract_threshold: 0.5,
            max_kicks: 80,
            base_len: 4,
        };
        let mut chain: TableChain<u64> = TableChain::new(params, 0xc0de);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        let mut rng = KickRng::new(0x5eed);
        let mut p = 0u64;
        let mut s: RebuildScratch<u64> = RebuildScratch::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    if model.insert(k) {
                        match chain.insert(k, KeyHash::new(k), &mut rng, &mut p, &mut s) {
                            ChainInsert::Stored => {}
                            ChainInsert::Failed(item) => {
                                chain.insert_forced(item, &mut rng, &mut p, &mut s);
                            }
                        }
                    }
                }
                Op::Delete(k) => {
                    prop_assert_eq!(chain.remove(KeyHash::new(k)).is_some(), model.remove(&k));
                }
                Op::Expand => {
                    for item in chain.expand(&mut rng, &mut p, &mut s) {
                        chain.insert_forced(item, &mut rng, &mut p, &mut s);
                    }
                }
                Op::Contract => {
                    for item in chain.contract(&mut rng, &mut p, &mut s) {
                        chain.insert_forced(item, &mut rng, &mut p, &mut s);
                    }
                }
            }
            let mut swar_seen = Vec::new();
            chain.for_each(|&v| swar_seen.push(v));
            let mut scalar_seen = Vec::new();
            chain.for_each_scalar(|&v| scalar_seen.push(v));
            prop_assert_eq!(&swar_seen, &scalar_seen, "chain walks diverged");
            let as_set: BTreeSet<u64> = swar_seen.iter().copied().collect();
            prop_assert_eq!(as_set.len(), swar_seen.len(), "duplicate visit");
            prop_assert_eq!(&as_set, &model);
            prop_assert!(s.is_empty(), "scratch left items behind");
        }
        chain.assert_cached_consistent();
    }

    /// Whole-graph case: the production successor visitor agrees with a
    /// `BTreeSet` model on every op return value and every adjacency after
    /// arbitrary churn — on the serial graph and through the sharded
    /// fan-out. Compared as sorted lists: the scan-segment path (PR 8) visits
    /// in append order, so the visited multiset is the contract, not the
    /// order. No duplicate visits either way.
    #[test]
    fn graph_successor_scans_agree_with_scalar_reference(
        edges in prop::collection::hash_set((0u64..40, 0u64..120), 1..300),
        deleted in prop::collection::hash_set((0u64..40, 0u64..120), 0..80)
    ) {
        use graph_api::DynamicGraph;
        let mut serial = CuckooGraph::new();
        let mut sharded = ShardedCuckooGraph::new(3);
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        for &(u, v) in &edges {
            let created = model.insert((u, v));
            prop_assert_eq!(serial.insert_edge(u, v), created);
            prop_assert_eq!(sharded.insert_edge(u, v), created);
        }
        for &(u, v) in &deleted {
            let present = model.remove(&(u, v));
            prop_assert_eq!(serial.delete_edge(u, v), present);
            prop_assert_eq!(sharded.delete_edge(u, v), present);
        }
        for u in 0..40u64 {
            let want: Vec<u64> = model.range((u, 0)..=(u, u64::MAX)).map(|e| e.1).collect();
            let mut serial_seen = Vec::new();
            serial.for_each_successor(u, &mut |v| serial_seen.push(v));
            serial_seen.sort_unstable();
            prop_assert_eq!(&serial_seen, &want, "serial scan diverged at {}", u);

            let mut sharded_seen = Vec::new();
            sharded.for_each_successor(u, &mut |v| sharded_seen.push(v));
            sharded_seen.sort_unstable();
            prop_assert_eq!(&sharded_seen, &want, "sharded scan diverged at {}", u);
        }
    }
}

/// Deterministic pin of the documented tail-padding hazard: a partial word
/// whose real bytes are all occupied must not report a phantom empty slot in
/// the zero-padded lanes.
#[test]
fn tail_padding_never_reports_phantom_empty_slots() {
    for len in 1..8usize {
        let tags = vec![0x80u8; len];
        assert_eq!(swar::find_eq(&tags, 0), None, "phantom empty at len {len}");
        assert_eq!(occupied_positions(&tags).len(), len);
    }
}

/// Deterministic pin of the zero-fingerprint edge case at the table level:
/// keys whose 7-bit fingerprint is zero carry the tag `0x80`, one bit away
/// from an empty slot; probes and iteration must treat them as occupied.
#[test]
fn zero_fingerprint_keys_round_trip() {
    let mut zero_fp_keys: Vec<u64> = (0u64..50_000)
        .filter(|&k| KeyHash::new(k).fingerprint() == 0)
        .take(12)
        .collect();
    assert!(zero_fp_keys.len() >= 8, "need zero-fingerprint keys");
    let mut table: CuckooTable<u64> = CuckooTable::new(8, 8, 0xfeed);
    let mut rng = KickRng::new(7);
    let mut p = 0u64;
    for &k in &zero_fp_keys {
        table
            .insert(k, KeyHash::new(k), &mut rng, 100, &mut p)
            .unwrap();
    }
    for &k in &zero_fp_keys {
        assert_eq!(table.get(KeyHash::new(k)), Some(&k));
        assert_eq!(table.get_scalar(KeyHash::new(k)), Some(&k));
    }
    let mut seen = Vec::new();
    table.for_each(|&v| seen.push(v));
    seen.sort_unstable();
    zero_fp_keys.sort_unstable();
    assert_eq!(seen, zero_fp_keys);
    table.assert_tags_consistent();
}
