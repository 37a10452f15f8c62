//! Connected Components via Tarjan's algorithm (Figure 13).
//!
//! The paper runs "the Tarjan algorithm" \[55\] on subgraphs extracted from the
//! top-degree nodes and returns the components and their number. We implement
//! Tarjan's strongly-connected-components algorithm iteratively (no recursion,
//! so million-node subgraphs cannot overflow the stack) over whichever node
//! set the caller selected.

use graph_api::{DynamicGraph, NodeId};
use std::collections::{HashMap, HashSet};

/// The result of a connected-components run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSummary {
    /// Component id assigned to every analysed node.
    pub assignment: HashMap<NodeId, usize>,
    /// Number of components found.
    pub count: usize,
    /// Size of each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl ComponentSummary {
    /// Size of the largest component (0 for an empty analysis).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Tarjan SCC over the subgraph induced by `nodes`. Edges leading outside the
/// selected node set are ignored, matching the paper's subgraph methodology.
pub fn connected_components<G: DynamicGraph + ?Sized>(
    graph: &G,
    nodes: &[NodeId],
) -> ComponentSummary {
    let selected: HashSet<NodeId> = nodes.iter().copied().collect();

    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }

    let mut states: HashMap<NodeId, NodeState> = HashMap::with_capacity(nodes.len());
    let mut stack: Vec<NodeId> = Vec::new();
    let mut assignment: HashMap<NodeId, usize> = HashMap::with_capacity(nodes.len());
    let mut sizes: Vec<usize> = Vec::new();
    let mut next_index = 0usize;

    // Iterative Tarjan. Per-frame neighbour lists live in one shared arena:
    // a frame records its `(start, cursor)` into `arena`, pushes its
    // neighbours through `for_each_successor` on entry, and truncates the
    // arena back on exit — no per-node allocation, the hot successor queries
    // go straight through the scheme's probe path.
    let mut arena: Vec<NodeId> = Vec::new();
    // Frame layout: (node, arena start, cursor).
    let mut frames: Vec<(NodeId, usize, usize)> = Vec::new();
    let push_neighbours = |arena: &mut Vec<NodeId>, v: NodeId| {
        graph.for_each_successor(v, &mut |w| {
            if selected.contains(&w) {
                arena.push(w);
            }
        })
    };

    for &root in nodes {
        if states.get(&root).and_then(|s| s.index).is_some() {
            continue;
        }
        let start = arena.len();
        push_neighbours(&mut arena, root);
        {
            let st = states.entry(root).or_default();
            st.index = Some(next_index);
            st.lowlink = next_index;
            st.on_stack = true;
        }
        next_index += 1;
        stack.push(root);
        frames.push((root, start, start));

        while let Some(frame) = frames.last_mut() {
            let (u, start, cursor) = (frame.0, frame.1, &mut frame.2);
            if *cursor < arena.len() {
                let v = arena[*cursor];
                *cursor += 1;
                let v_state = states.entry(v).or_default();
                match v_state.index {
                    None => {
                        // Recurse into v.
                        v_state.index = Some(next_index);
                        v_state.lowlink = next_index;
                        v_state.on_stack = true;
                        next_index += 1;
                        stack.push(v);
                        let v_start = arena.len();
                        push_neighbours(&mut arena, v);
                        frames.push((v, v_start, v_start));
                    }
                    Some(v_index) if v_state.on_stack => {
                        let u_state = states.get_mut(&u).expect("u was visited");
                        u_state.lowlink = u_state.lowlink.min(v_index);
                    }
                    Some(_) => {}
                }
            } else {
                // All neighbours of u processed: maybe emit a component, then
                // propagate the lowlink to the parent frame.
                let u_state = states.get(&u).expect("u was visited").clone();
                if Some(u_state.lowlink) == u_state.index {
                    let id = sizes.len();
                    let mut size = 0usize;
                    loop {
                        let w = stack.pop().expect("stack holds the component");
                        states.get_mut(&w).expect("on stack").on_stack = false;
                        assignment.insert(w, id);
                        size += 1;
                        if w == u {
                            break;
                        }
                    }
                    sizes.push(size);
                }
                arena.truncate(start);
                frames.pop();
                if let Some(parent) = frames.last() {
                    let parent_node = parent.0;
                    let child_low = states[&u].lowlink;
                    let p = states.get_mut(&parent_node).expect("parent visited");
                    p.lowlink = p.lowlink.min(child_low);
                }
            }
        }
    }

    ComponentSummary {
        count: sizes.len(),
        assignment,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_baselines::AdjacencyListGraph;

    #[test]
    fn cycle_forms_one_component() {
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(2, 3);
        g.insert_edge(3, 1);
        let c = connected_components(&g, &[1, 2, 3]);
        assert_eq!(c.count, 1);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.assignment[&1], c.assignment[&3]);
    }

    #[test]
    fn dag_nodes_are_singleton_components() {
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(2, 3);
        let c = connected_components(&g, &[1, 2, 3]);
        assert_eq!(c.count, 3);
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn two_cycles_and_a_bridge() {
        let mut g = AdjacencyListGraph::new();
        for (u, v) in [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3)] {
            g.insert_edge(u, v);
        }
        let c = connected_components(&g, &[1, 2, 3, 4]);
        assert_eq!(c.count, 2);
        assert_eq!(c.assignment[&1], c.assignment[&2]);
        assert_eq!(c.assignment[&3], c.assignment[&4]);
        assert_ne!(c.assignment[&1], c.assignment[&3]);
    }

    #[test]
    fn edges_outside_the_selection_are_ignored() {
        let mut g = AdjacencyListGraph::new();
        g.insert_edge(1, 2);
        g.insert_edge(2, 1);
        g.insert_edge(2, 99); // 99 is not selected
        let c = connected_components(&g, &[1, 2]);
        assert_eq!(c.count, 1);
        assert!(!c.assignment.contains_key(&99));
    }

    #[test]
    fn large_cycle_does_not_overflow_the_stack() {
        let mut g = AdjacencyListGraph::new();
        let n = 50_000u64;
        for i in 0..n {
            g.insert_edge(i, (i + 1) % n);
        }
        let nodes: Vec<u64> = (0..n).collect();
        let c = connected_components(&g, &nodes);
        assert_eq!(c.count, 1);
        assert_eq!(c.largest(), n as usize);
    }

    #[test]
    fn empty_selection_yields_no_components() {
        let g = AdjacencyListGraph::new();
        let c = connected_components(&g, &[]);
        assert_eq!(c.count, 0);
        assert_eq!(c.largest(), 0);
    }
}
