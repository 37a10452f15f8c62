//! # CuckooGraph
//!
//! A from-scratch Rust implementation of **CuckooGraph** (ICDE 2025), a
//! space-time efficient data structure for large-scale dynamic graphs.
//!
//! Instead of adjacency lists or CSR, CuckooGraph stores the graph in a
//! hierarchy of cuckoo hash tables:
//!
//! * a **large cuckoo hash table** (L-CHT) keyed by source nodes `u`, whose
//!   cells hold the node plus a *transformable* Part 2;
//! * Part 2 starts as `2R` inline **small slots** holding neighbours `v`
//!   directly, and transforms into `R` pointer slots referencing a chain of
//!   **small cuckoo hash tables** (S-CHTs) once the degree exceeds `2R`;
//! * the S-CHT chain (and the L-CHT itself) grows and shrinks following the
//!   **TRANSFORMATION** rule (Table II of the paper), doubling geometry so that
//!   lookups touch a small constant number of buckets in the worst case;
//! * insertion failures caused by cuckoo kick-out loops are absorbed by the
//!   bounded **DENYLIST** vectors (S-DL for neighbour entries, L-DL for whole
//!   cells), which are drained back into the tables on every expansion.
//!
//! Three public graph types are provided:
//!
//! * [`CuckooGraph`] — the basic version (§ III-A): distinct directed edges.
//! * [`WeightedCuckooGraph`] — the extended version (§ III-B): duplicate edges
//!   folded into weights, for streaming scenarios.
//! * [`MultiEdgeCuckooGraph`] — the Neo4j adaptation (§ V-G): parallel edges
//!   kept as identifier lists, query returns an iterator.
//!
//! For parallel ingest, [`ShardedCuckooGraph`] (and
//! [`ShardedWeightedCuckooGraph`]) partition the source-node space across N
//! independent engines and fan batched mutations out on scoped threads — see
//! [`shard`].
//!
//! ```
//! use cuckoograph::CuckooGraph;
//! use graph_api::DynamicGraph;
//!
//! let mut g = CuckooGraph::new();
//! g.insert_edge(1, 2);
//! g.insert_edge(1, 3);
//! assert!(g.has_edge(1, 2));
//! assert_eq!(g.out_degree(1), 2);
//! g.delete_edge(1, 2);
//! assert!(!g.has_edge(1, 2));
//! ```

pub mod arena;
pub mod cell;
pub mod chain;
pub mod config;
pub mod denylist;
pub mod engine;
pub mod error;
pub mod graph;
pub mod hash;
pub mod lcht;
pub mod multi;
pub mod payload;
pub mod rng;
pub mod scht;
pub mod scratch;
pub mod segment;
pub mod shard;
pub mod stats;
pub mod swar;
pub mod weighted;

pub use arena::{SlotArena, NO_BLOCK};
pub use config::CuckooGraphConfig;
pub use error::{CuckooGraphError, Result};
pub use graph::CuckooGraph;
pub use multi::{EdgeId, MultiEdgeCuckooGraph};
pub use scratch::RebuildScratch;
pub use segment::{ScanArena, NO_SEG};
pub use shard::{
    ReadCounters, ShardReadView, Sharded, ShardedCuckooGraph, ShardedWeightedCuckooGraph,
};
pub use stats::StructureStats;
pub use weighted::WeightedCuckooGraph;

pub use graph_api::{
    DynamicGraph, Edge, MemoryFootprint, NodeId, ShardedGraph, WeightedDynamicGraph,
};
