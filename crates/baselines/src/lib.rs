//! Re-implementations of the dynamic-graph storage schemes the paper compares
//! CuckooGraph against (§ II-A, § V-A "Competitors"), plus the classic static
//! structures they evolved from.
//!
//! All of them sit behind the shared [`graph_api::DynamicGraph`] trait so the
//! benchmark harness and the analytics algorithms treat every scheme exactly
//! the same way the paper's evaluation driver does.
//!
//! | Module | Scheme | Paper reference |
//! |--------|--------|-----------------|
//! | [`adjacency_list`] | plain adjacency list | § I (the traditional baseline) |
//! | [`livegraph`] | LiveGraph: vertex blocks + transactional edge log | \[30\] |
//! | [`sortledton`] | Sortledton: adjacency index + sorted blocked sets | \[34\] |
//! | [`wbi`] | Wind-Bell Index: adjacency matrix + hanging lists | \[35\] |
//! | [`spruce`] | Spruce: split node index + adjacency edge storage | \[36\] |
//! | [`pma`] | Packed Memory Array (substrate for PCSR) | \[44\] |
//! | [`csr`] | static Compressed Sparse Row | § I |
//! | [`pcsr`] | PCSR: PMA-backed mutable CSR | \[26\] |
//!
//! These are clean-room re-implementations of the *storage data structures*
//! (the part the paper measures); transactional/MVCC machinery that the
//! paper's single-threaded evaluation never exercises is reduced to sequence
//! stamping, as documented in `DESIGN.md`.

pub mod adjacency_list;
pub mod csr;
pub mod livegraph;
pub mod pcsr;
pub mod pma;
pub mod sortledton;
pub mod spruce;
pub mod wbi;

pub use adjacency_list::AdjacencyListGraph;
pub use csr::CsrGraph;
pub use livegraph::LiveGraphStore;
pub use pcsr::PcsrGraph;
pub use pma::PackedMemoryArray;
pub use sortledton::SortledtonGraph;
pub use spruce::SpruceGraph;
pub use wbi::WindBellIndex;

use graph_api::DynamicGraph;

/// Builds one instance of every dynamic scheme the paper benchmarks
/// (Figures 6–16), boxed behind the common trait. The plain adjacency list is
/// included as an extra reference point.
pub fn all_schemes() -> Vec<Box<dyn DynamicGraph>> {
    vec![
        Box::new(livegraph::LiveGraphStore::new()),
        Box::new(spruce::SpruceGraph::new()),
        Box::new(sortledton::SortledtonGraph::new()),
        Box::new(wbi::WindBellIndex::new()),
        Box::new(adjacency_list::AdjacencyListGraph::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_schemes_builds_every_competitor() {
        let schemes = all_schemes();
        assert_eq!(schemes.len(), 5);
        let labels: Vec<_> = schemes.iter().map(|s| s.scheme().label()).collect();
        assert!(labels.contains(&"LiveGraph"));
        assert!(labels.contains(&"Spruce"));
        assert!(labels.contains(&"Sortledton"));
        assert!(labels.contains(&"WBI"));
    }

    /// Every scheme must agree on a small randomised workload — the same
    /// cross-checking the integration tests do at larger scale.
    #[test]
    fn schemes_agree_on_a_small_workload() {
        let mut schemes = all_schemes();
        let edges: Vec<(u64, u64)> = (0..200u64).map(|i| (i % 20, (i * 7 + 3) % 50)).collect();
        for s in schemes.iter_mut() {
            for &(u, v) in &edges {
                s.insert_edge(u, v);
            }
        }
        let reference: std::collections::BTreeSet<_> = edges.iter().copied().collect();
        for s in &schemes {
            assert_eq!(s.edge_count(), reference.len(), "{}", s.scheme().label());
            for &(u, v) in &reference {
                assert!(s.has_edge(u, v), "{} lost ({u},{v})", s.scheme().label());
            }
            assert!(!s.has_edge(999, 999), "{}", s.scheme().label());
        }
    }
}
