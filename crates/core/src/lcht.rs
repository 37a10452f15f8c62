//! The L-CHT: the node-level cuckoo structure plus its denylist.
//!
//! [`NodeTable`] owns the chain of large cuckoo hash tables whose payloads are
//! whole [`Cell`]s (Part 1 = `u`, Part 2 = the neighbour storage), and the
//! L-DL that absorbs cells evicted past the kick budget. Because the L-DL unit
//! is an entire cell, an evicted node's S-CHT chain never has to be copied —
//! exactly the property § III-A2 calls out.

use crate::cell::Cell;
use crate::chain::{ChainInsert, ChainParams, TableChain};
use crate::denylist::LargeDenylist;
use crate::hash::KeyHash;
use crate::payload::Payload;
use crate::rng::KickRng;
use crate::scratch::RebuildScratch;
use graph_api::NodeId;

/// Opaque coordinates of a cell (chain slot or L-DL index), produced by
/// [`NodeTable::find`] and consumed by [`NodeTable::cell_at_mut`]. Valid only
/// until the next mutation of the node table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NodePos {
    /// Chain coordinates (table, (array, flat slot)).
    Chain((usize, (usize, usize))),
    /// Index into the L-DL.
    Deny(usize),
}

/// Counters the node table feeds back to the engine's [`crate::StructureStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeTableCounters {
    /// Cell placements performed (initial, kick-out, and expansion re-inserts).
    pub placements: u64,
    /// Distinct nodes whose insertion was requested.
    pub items: u64,
    /// Insertions that exceeded the kick budget and fell back to the L-DL.
    pub failures: u64,
}

/// The L-CHT chain plus its L-DL.
///
/// L-CHT rebuilds take a fresh [`RebuildScratch`] per event: a merge drains
/// every cell, and a kept buffer would hold that high-water mark for good.
#[derive(Debug, Clone)]
pub struct NodeTable<P> {
    chain: TableChain<Cell<P>>,
    denylist: LargeDenylist<Cell<P>>,
    use_denylist: bool,
    counters: NodeTableCounters,
    /// Reusable buffer for draining the L-DL back into the chain after an
    /// expansion, so the denylist path stops allocating per event too.
    park_buf: Vec<Cell<P>>,
}

impl<P: Payload> NodeTable<P> {
    /// Creates an empty node table.
    pub fn new(
        params: ChainParams,
        seed: u64,
        denylist_capacity: usize,
        use_denylist: bool,
    ) -> Self {
        Self {
            chain: TableChain::new(params, seed),
            denylist: LargeDenylist::new(denylist_capacity),
            use_denylist,
            counters: NodeTableCounters::default(),
            park_buf: Vec::new(),
        }
    }

    /// Number of distinct nodes stored (chain plus denylist).
    pub fn node_count(&self) -> usize {
        self.chain.count() + self.denylist.len()
    }

    /// Counter snapshot for stats reporting.
    pub fn counters(&self) -> NodeTableCounters {
        self.counters
    }

    /// Number of L-CHT tables currently enabled.
    pub fn table_count(&self) -> usize {
        self.chain.table_count()
    }

    /// Total cell capacity across the L-CHT chain.
    pub fn cell_capacity(&self) -> usize {
        self.chain.capacity()
    }

    /// Entries currently parked in the L-DL.
    pub fn denylist_len(&self) -> usize {
        self.denylist.len()
    }

    /// Expansions performed by the L-CHT chain.
    pub fn expansions(&self) -> u64 {
        self.chain.expansions()
    }

    /// Contractions performed by the L-CHT chain.
    pub fn contractions(&self) -> u64 {
        self.chain.contractions()
    }

    /// Looks up the cell for node `kh.key()` (chain first, then the L-DL —
    /// the same order the paper's query procedure uses).
    pub fn get(&self, kh: KeyHash) -> Option<&Cell<P>> {
        self.chain.get(kh).or_else(|| {
            let u = kh.key();
            self.denylist.find(|c| c.node() == u)
        })
    }

    /// Mutable lookup of the cell for node `kh.key()` — a single probe: the
    /// chain is located once (tag-byte scan) and the slot re-borrowed in
    /// O(1), instead of the probe-twice `contains` + `get_mut` shape this
    /// method had before PR 4.
    pub fn get_mut(&mut self, kh: KeyHash) -> Option<&mut Cell<P>> {
        if let Some(pos) = self.chain.find_index(kh) {
            return Some(self.chain.item_at_mut(pos));
        }
        let u = kh.key();
        self.denylist.find_mut(|c| c.node() == u)
    }

    /// True if node `kh.key()` has a cell.
    pub fn contains(&self, kh: KeyHash) -> bool {
        let u = kh.key();
        self.chain.contains(kh) || self.denylist.find(|c| c.node() == u).is_some()
    }

    /// Locates the cell for `kh.key()`, returning opaque coordinates for
    /// [`NodeTable::cell_at_mut`].
    pub(crate) fn find(&self, kh: KeyHash) -> Option<NodePos> {
        if let Some(pos) = self.chain.find_index(kh) {
            return Some(NodePos::Chain(pos));
        }
        let u = kh.key();
        self.denylist.position(|c| c.node() == u).map(NodePos::Deny)
    }

    /// Direct access to a cell located by [`NodeTable::find`].
    #[inline]
    pub(crate) fn cell_at_mut(&mut self, pos: NodePos) -> &mut Cell<P> {
        match pos {
            NodePos::Chain(p) => self.chain.item_at_mut(p),
            NodePos::Deny(i) => self.denylist.cell_at_mut(i),
        }
    }

    /// Returns a mutable reference to the cell for `kh.key()`, creating it if
    /// needed. The creation path implements the insertion Step 2 of § III-A3:
    /// place the new cell, kicking residents as needed; route the final
    /// homeless cell to the L-DL; force an expansion when denylists are
    /// disabled or full. The hit path resolves the key exactly once (the
    /// pre-PR-4 shape probed up to three times: `contains`, `insert_cell`'s
    /// duplicate check, then `get_mut`).
    pub fn ensure(&mut self, kh: KeyHash, rng: &mut KickRng) -> &mut Cell<P> {
        if let Some(pos) = self.find(kh) {
            return self.cell_at_mut(pos);
        }
        self.counters.items += 1;
        self.insert_cell(Cell::new(kh.key()), kh, rng);
        // The fresh cell settled in the chain or was parked in the L-DL; one
        // more probe pins it down (creation only — the hot hit path above
        // never reaches this).
        let pos = self.find(kh).expect("cell was just ensured");
        self.cell_at_mut(pos)
    }

    /// Inserts a cell (new or drained from the L-DL), handling expansion and
    /// denylist fallback so the operation always succeeds.
    fn insert_cell(&mut self, cell: Cell<P>, kh: KeyHash, rng: &mut KickRng) {
        // The chain consults the expansion rule itself; when it expands we
        // first give parked cells a chance to move back in.
        let expansions_before = self.chain.expansions();
        match self.chain.insert(
            cell,
            kh,
            rng,
            &mut self.counters.placements,
            &mut RebuildScratch::new(),
        ) {
            ChainInsert::Stored => {}
            ChainInsert::Failed(cell) => {
                self.counters.failures += 1;
                if self.use_denylist {
                    match self.denylist.push(cell) {
                        Ok(()) => {}
                        Err(cell) => {
                            // Denylist full: expand and retry; the larger table
                            // accepts the cell with overwhelming probability.
                            self.force_expand_and_insert(cell, rng);
                        }
                    }
                } else {
                    self.force_expand_and_insert(cell, rng);
                }
            }
        }
        if self.chain.expansions() > expansions_before {
            self.drain_denylist(rng);
        }
    }

    fn force_expand_and_insert(&mut self, cell: Cell<P>, rng: &mut KickRng) {
        let mut pending = cell;
        let mut pending_kh = pending.key_hash();
        loop {
            let leftovers = self.chain.expand(
                rng,
                &mut self.counters.placements,
                &mut RebuildScratch::new(),
            );
            for cell in leftovers {
                // Cells displaced by the merge go to the denylist regardless of
                // the capacity limit — nothing may be dropped.
                self.denylist.push_forced(cell);
            }
            match self.chain.insert_no_expand(
                pending,
                pending_kh,
                rng,
                &mut self.counters.placements,
            ) {
                ChainInsert::Stored => break,
                ChainInsert::Failed(cell) => {
                    // The homeless cell may be a kick-walk victim, not the one
                    // we started with — re-derive its hash material.
                    pending_kh = cell.key_hash();
                    pending = cell;
                }
            }
        }
        self.drain_denylist(rng);
    }

    /// Moves every parked cell back into the (recently expanded) chain;
    /// anything that still cannot be placed is re-parked. Runs through the
    /// reusable `park_buf`, so the per-expansion denylist drain allocates
    /// nothing in the steady state.
    fn drain_denylist(&mut self, rng: &mut KickRng) {
        if self.denylist.is_empty() {
            return;
        }
        debug_assert!(self.park_buf.is_empty(), "denylist drain re-entered");
        self.denylist.drain_all_into(&mut self.park_buf);
        while let Some(cell) = self.park_buf.pop() {
            let kh = cell.key_hash();
            match self
                .chain
                .insert_no_expand(cell, kh, rng, &mut self.counters.placements)
            {
                ChainInsert::Stored => {}
                ChainInsert::Failed(cell) => self.denylist.push_forced(cell),
            }
        }
    }

    /// Calls `f` for every stored cell (chain and denylist). The chain pass
    /// is the SWAR occupancy scan — node enumeration skips empty L-CHT
    /// regions in whole-word jumps.
    pub fn for_each(&self, mut f: impl FnMut(&Cell<P>)) {
        self.chain.for_each(&mut f);
        for cell in self.denylist.iter() {
            f(cell);
        }
    }

    /// Mutable walk over every stored cell (chain and denylist). Callers must
    /// not change a cell's node; used by the engine's arena compaction to
    /// rewrite every inline cell's block handle.
    pub(crate) fn for_each_cell_mut(&mut self, mut f: impl FnMut(&mut Cell<P>)) {
        self.chain.for_each_mut(&mut f);
        for cell in self.denylist.iter_mut() {
            f(cell);
        }
    }

    /// Bytes held by the L-CHT chain, its cells' Part 2 and the L-DL buffer.
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.chain.memory_bytes() + self.denylist.buffer_bytes();
        for cell in self.denylist.iter() {
            bytes += cell.part2_bytes();
        }
        bytes
    }

    /// Applies the reverse-transformation rule to the L-CHT chain (used after
    /// bulk deletions); cells displaced by a contraction go to the L-DL.
    pub fn maybe_contract(&mut self, rng: &mut KickRng) {
        let displaced = self.chain.maybe_contract(
            rng,
            &mut self.counters.placements,
            &mut RebuildScratch::new(),
        );
        for cell in displaced {
            self.denylist.push_forced(cell);
        }
    }
}

/// Compile-time proof that the node table (L-CHT chain + L-DL) is
/// `Send + Sync`, as the sharded engine's thread fan-out requires.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NodeTable<NodeId>>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn kh(u: NodeId) -> KeyHash {
        KeyHash::new(u)
    }

    fn params() -> ChainParams {
        ChainParams {
            cells_per_bucket: 8,
            r: 3,
            expand_threshold: 0.9,
            contract_threshold: 0.5,
            max_kicks: 100,
            base_len: 4,
        }
    }

    fn table() -> NodeTable<NodeId> {
        NodeTable::new(params(), 0x77, 64, true)
    }

    #[test]
    fn ensure_creates_each_node_once() {
        let mut t = table();
        let mut rng = KickRng::new(1);
        for u in 0..100u64 {
            t.ensure(kh(u), &mut rng);
        }
        // Second pass must not create duplicates.
        for u in 0..100u64 {
            t.ensure(kh(u), &mut rng);
        }
        assert_eq!(t.node_count(), 100);
        assert_eq!(t.counters().items, 100);
        for u in 0..100u64 {
            assert!(t.contains(kh(u)));
            assert_eq!(t.get(kh(u)).unwrap().node(), u);
        }
        assert!(!t.contains(kh(1000)));
    }

    #[test]
    fn growth_keeps_all_nodes_reachable() {
        let mut t = table();
        let mut rng = KickRng::new(2);
        for u in 0..5_000u64 {
            t.ensure(kh(u), &mut rng);
        }
        assert_eq!(t.node_count(), 5_000);
        assert!(t.expansions() > 0, "L-CHT never expanded");
        for u in (0..5_000u64).step_by(97) {
            assert!(t.contains(kh(u)), "lost node {u}");
        }
    }

    #[test]
    fn denylist_absorbs_failures_without_losing_nodes() {
        // A tiny kick budget causes frequent failures; every node must still
        // be reachable afterwards (via the chain or the L-DL).
        let p = ChainParams {
            max_kicks: 2,
            base_len: 2,
            ..params()
        };
        let mut t: NodeTable<NodeId> = NodeTable::new(p, 5, 1024, true);
        let mut rng = KickRng::new(3);
        for u in 0..2_000u64 {
            t.ensure(kh(u), &mut rng);
        }
        assert_eq!(t.node_count(), 2_000);
        for u in 0..2_000u64 {
            assert!(t.contains(kh(u)), "node {u} was lost");
        }
    }

    #[test]
    fn denylist_disabled_forces_expansion() {
        let p = ChainParams {
            max_kicks: 2,
            base_len: 2,
            ..params()
        };
        let mut t: NodeTable<NodeId> = NodeTable::new(p, 5, 0, false);
        let mut rng = KickRng::new(4);
        for u in 0..1_000u64 {
            t.ensure(kh(u), &mut rng);
        }
        assert_eq!(t.node_count(), 1_000);
        assert_eq!(
            t.denylist_len(),
            0,
            "denylist must stay unused when disabled"
        );
        for u in 0..1_000u64 {
            assert!(t.contains(kh(u)));
        }
    }

    #[test]
    fn cells_keep_their_neighbors_through_node_evictions() {
        let mut t = table();
        let mut rng = KickRng::new(5);
        let ctx = crate::cell::CellCtx {
            small_slots: 6,
            chain: params(),
            seed: 1,
        };
        let mut placements = 0u64;
        let mut scratch = RebuildScratch::new();
        let mut arena = crate::arena::SlotArena::new(ctx.small_slots);
        let mut scan = crate::segment::ScanArena::new();
        // Give node 7 some neighbours, then insert many more nodes to force
        // kick-outs and expansions around it.
        {
            let cell = t.ensure(kh(7), &mut rng);
            for v in 0..20u64 {
                cell.insert(
                    v,
                    kh(v),
                    &ctx,
                    &mut arena,
                    &mut rng,
                    &mut placements,
                    &mut scratch,
                    &mut scan,
                );
            }
        }
        for u in 1_000..6_000u64 {
            t.ensure(kh(u), &mut rng);
        }
        let cell = t.get(kh(7)).expect("node 7 must survive");
        assert_eq!(cell.degree(), 20);
        let mut nbrs = cell.neighbors(&arena);
        nbrs.sort_unstable();
        assert_eq!(nbrs, (0..20u64).collect::<Vec<_>>());
    }

    #[test]
    fn memory_bytes_grow_with_nodes() {
        let mut t = table();
        let mut rng = KickRng::new(6);
        let before = t.memory_bytes();
        for u in 0..1_000u64 {
            t.ensure(kh(u), &mut rng);
        }
        assert!(t.memory_bytes() > before);
    }

    #[test]
    fn nodes_lists_every_source() {
        let mut t = table();
        let mut rng = KickRng::new(7);
        for u in [5u64, 9, 200, 3] {
            t.ensure(kh(u), &mut rng);
        }
        let mut nodes = Vec::new();
        t.for_each(|c| nodes.push(c.node()));
        nodes.sort_unstable();
        assert_eq!(nodes, vec![3, 5, 9, 200]);
    }
}
