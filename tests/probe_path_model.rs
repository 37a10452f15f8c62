//! Property tests for the PR-4 probe path: the tagged, hash-memoized table
//! chain must behave exactly like a `BTreeMap` reference model under random
//! insert/update/delete/expand/contract interleavings, the cached aggregates
//! must never drift from the ground truth, and fingerprint collisions must
//! never compromise exactness.

use cuckoograph::chain::{ChainInsert, ChainParams, TableChain};
use cuckoograph::hash::KeyHash;
use cuckoograph::payload::{Payload, WeightedSlot};
use cuckoograph::rng::KickRng;
use cuckoograph::scht::CuckooTable;
use cuckoograph::RebuildScratch;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One operation of the randomised chain workload. `Expand`/`Contract` drive
/// the TRANSFORMATION machinery directly, on top of the organic expansions the
/// inserts trigger.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
    Query(u64),
    Expand,
    Contract,
}

fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..keys, 1u64..5).prop_map(|(v, w)| Op::Insert(v, w)),
        2 => (0..keys).prop_map(Op::Delete),
        2 => (0..keys).prop_map(Op::Query),
        // The vendored proptest shim has no `Just`; a trivial map stands in.
        1 => (0u64..1).prop_map(|_| Op::Expand),
        1 => (0u64..1).prop_map(|_| Op::Contract),
    ]
}

fn params() -> ChainParams {
    ChainParams {
        cells_per_bucket: 4,
        r: 3,
        expand_threshold: 0.9,
        contract_threshold: 0.5,
        max_kicks: 100,
        base_len: 4,
    }
}

/// Re-offers items displaced past the kick budget until they settle — the
/// role the denylists play inside the engine.
fn reinsert_all(
    chain: &mut TableChain<WeightedSlot>,
    homeless: Vec<WeightedSlot>,
    rng: &mut KickRng,
    p: &mut u64,
    s: &mut RebuildScratch<WeightedSlot>,
) {
    for item in homeless {
        chain.insert_forced(item, rng, p, s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tagged table chain agrees with a `BTreeMap<v, w>` model on every
    /// operation of a random interleaving, including explicit expansions and
    /// contractions, and its cached count/capacity/tag bytes stay consistent.
    #[test]
    fn tagged_chain_matches_btreemap_model(ops in prop::collection::vec(op_strategy(48), 1..600)) {
        let mut chain: TableChain<WeightedSlot> = TableChain::new(params(), 0xbeef);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = KickRng::new(0x5eed);
        let mut p = 0u64;
        let mut s: RebuildScratch<WeightedSlot> = RebuildScratch::new();
        for op in ops {
            match op {
                Op::Insert(v, w) => {
                    let kh = KeyHash::new(v);
                    match model.entry(v) {
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            *e.get_mut() += w;
                            let slot = chain.get_mut(kh).expect("model has v, chain must too");
                            slot.w += w;
                        }
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(w);
                            match chain.insert(WeightedSlot { v, w }, kh, &mut rng, &mut p, &mut s)
                            {
                                ChainInsert::Stored => {}
                                ChainInsert::Failed(item) => {
                                    // The engine would park this in a denylist;
                                    // here the forced path keeps the model exact.
                                    chain.insert_forced(item, &mut rng, &mut p, &mut s);
                                }
                            }
                        }
                    }
                }
                Op::Delete(v) => {
                    let removed = chain.remove(KeyHash::new(v));
                    let expected = model.remove(&v);
                    prop_assert_eq!(removed.map(|s| s.w), expected);
                }
                Op::Query(v) => {
                    let kh = KeyHash::new(v);
                    prop_assert_eq!(chain.get(kh).map(|s| s.w), model.get(&v).copied());
                    prop_assert_eq!(chain.contains(kh), model.contains_key(&v));
                    // The unmemoized reference probe is an oracle for the
                    // tagged path: they must never disagree.
                    prop_assert_eq!(chain.contains_unmemoized(v), model.contains_key(&v));
                }
                Op::Expand => {
                    let homeless = chain.expand(&mut rng, &mut p, &mut s);
                    reinsert_all(&mut chain, homeless, &mut rng, &mut p, &mut s);
                }
                Op::Contract => {
                    let homeless = chain.contract(&mut rng, &mut p, &mut s);
                    reinsert_all(&mut chain, homeless, &mut rng, &mut p, &mut s);
                }
            }
            prop_assert_eq!(chain.count(), model.len());
        }
        chain.assert_cached_consistent();
        for (&v, &w) in &model {
            prop_assert_eq!(chain.get(KeyHash::new(v)).map(|s| s.w), Some(w));
        }
    }

    /// Full-graph case: the memoized tagged query agrees with a `BTreeSet`
    /// model on every op return value and on hits and misses over the whole
    /// key square after arbitrary churn.
    #[test]
    fn unmemoized_reference_agrees_with_tagged_query(
        edges in prop::collection::hash_set((0u64..48, 0u64..48), 1..300),
        deleted in prop::collection::hash_set((0u64..48, 0u64..48), 0..100)
    ) {
        use cuckoograph::CuckooGraph;
        use graph_api::DynamicGraph;
        let mut g = CuckooGraph::new();
        let mut model = std::collections::BTreeSet::new();
        for &(u, v) in &edges {
            prop_assert_eq!(g.insert_edge(u, v), model.insert((u, v)));
        }
        for &(u, v) in &deleted {
            prop_assert_eq!(g.delete_edge(u, v), model.remove(&(u, v)));
        }
        for u in 0..48u64 {
            for v in 0..48u64 {
                prop_assert_eq!(
                    g.has_edge(u, v),
                    model.contains(&(u, v)),
                    "tagged query disagrees with the model on ({}, {})", u, v
                );
            }
        }
    }
}

/// Finds a key whose fingerprint matches `reference` but whose key differs —
/// with 7-bit fingerprints one appears within a few hundred candidates.
fn find_fingerprint_collision(reference: u64) -> u64 {
    let fp = KeyHash::new(reference).fingerprint();
    (reference + 1..)
        .find(|&k| KeyHash::new(k).fingerprint() == fp)
        .expect("7-bit fingerprint space collides quickly")
}

/// Directed tag-collision test: two different keys with the *same* 7-bit
/// fingerprint, stored in the *same* bucket (a length-1 table has exactly one
/// bucket per array, so every key is a bucket collision by construction).
/// The tag fast-path must fall through to the full key compare and stay exact.
#[test]
fn tag_collisions_never_compromise_exactness() {
    let k1 = 7u64;
    let k2 = find_fingerprint_collision(k1);
    assert_ne!(k1, k2);
    assert_eq!(
        KeyHash::new(k1).fingerprint(),
        KeyHash::new(k2).fingerprint()
    );

    // Length-1 table: both arrays have a single bucket, so k1 and k2 collide
    // on bucket *and* tag in both arrays — the worst case for a tagged probe.
    let mut t: CuckooTable<u64> = CuckooTable::new(1, 8, 0x7a65);
    let mut rng = KickRng::new(1);
    let mut p = 0u64;

    t.insert(k1, KeyHash::new(k1), &mut rng, 50, &mut p)
        .unwrap();
    // Same tag, same bucket, different key: must miss.
    assert!(
        !t.contains(KeyHash::new(k2)),
        "tag collision produced a false hit"
    );
    assert!(t.get(KeyHash::new(k2)).is_none());
    assert_eq!(
        t.remove(KeyHash::new(k2)),
        None,
        "tag collision removed the wrong key"
    );
    assert!(t.contains(KeyHash::new(k1)));

    // Both collide into the same bucket and coexist, each exactly findable.
    t.insert(k2, KeyHash::new(k2), &mut rng, 50, &mut p)
        .unwrap();
    assert_eq!(t.get(KeyHash::new(k1)), Some(&k1));
    assert_eq!(t.get(KeyHash::new(k2)), Some(&k2));

    // Removing one must not disturb its tag twin.
    assert_eq!(t.remove(KeyHash::new(k1)), Some(k1));
    assert!(!t.contains(KeyHash::new(k1)));
    assert_eq!(t.get(KeyHash::new(k2)), Some(&k2));
    t.assert_tags_consistent();
}

/// The same collision pair driven through a whole chain (which adds the
/// per-table multiply-shift on top): exactness must survive expansions that
/// redistribute the twins.
#[test]
fn tag_collisions_survive_chain_expansions() {
    let k1 = 3u64;
    let k2 = find_fingerprint_collision(k1);
    let mut chain: TableChain<u64> = TableChain::new(params(), 0x51ab);
    let mut rng = KickRng::new(2);
    let mut p = 0u64;
    let mut s: RebuildScratch<u64> = RebuildScratch::new();
    for k in [k1, k2] {
        chain.insert_forced(k, &mut rng, &mut p, &mut s);
    }
    // Grow through several shapes; the twins must stay distinct throughout.
    for fill in 1000..1200u64 {
        chain.insert_forced(fill, &mut rng, &mut p, &mut s);
        assert_eq!(chain.get(KeyHash::new(k1)), Some(&k1));
        assert_eq!(chain.get(KeyHash::new(k2)), Some(&k2));
    }
    assert_eq!(chain.remove(KeyHash::new(k2)), Some(k2));
    assert!(chain.contains(KeyHash::new(k1)));
    assert!(!chain.contains(KeyHash::new(k2)));
    chain.assert_cached_consistent();
}

/// `key_hash` on payloads is exactly `KeyHash::new(key())` — the contract the
/// kick-out walk relies on when re-hashing victims.
#[test]
fn payload_key_hash_contract() {
    let slot = WeightedSlot { v: 42, w: 7 };
    assert_eq!(slot.key_hash(), KeyHash::new(42));
}
