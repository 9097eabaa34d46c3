//! Structural splice operations: the graph edits behind FCP application.
//!
//! The paper (§2.2) defines three kinds of application point — a node, an
//! edge, or the entire graph. Edge application interposes the pattern's flow
//! between two consecutive operations; node application replaces an operation
//! with a sub-flow (e.g. `partition → replicas → merge` for
//! `ParallelizeTask`). Both reduce to the operations in this module.

use crate::graph::{DiGraph, EdgeId, GraphError, NodeId};

/// Result of interposing a single node on an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterposeSplice {
    /// The newly inserted node.
    pub node: NodeId,
    /// The (pre-existing, retargeted) edge now ending at `node`.
    pub in_edge: EdgeId,
    /// The new edge from `node` to the original destination.
    pub out_edge: EdgeId,
}

/// Result of embedding a subgraph (node id remapping) plus the boundary
/// edges created to stitch it in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphSplice {
    /// For each node id in the donor graph (dense by donor `NodeId::index`),
    /// the corresponding id in the host graph, if the donor slot was live.
    pub node_map: Vec<Option<NodeId>>,
    /// Edges created from the host into the embedded subgraph.
    pub entry_edges: Vec<EdgeId>,
    /// Edges created from the embedded subgraph back into the host.
    pub exit_edges: Vec<EdgeId>,
}

impl SubgraphSplice {
    /// Maps a donor-graph node id to its host-graph id.
    pub fn mapped(&self, donor: NodeId) -> Option<NodeId> {
        self.node_map.get(donor.index()).copied().flatten()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Interposes one new node on an existing edge `u → v`, producing
    /// `u → new → v`. The original edge keeps its id and weight but is
    /// retargeted at the new node; a fresh edge carries `out_weight`.
    pub fn interpose_on_edge(
        &mut self,
        e: EdgeId,
        node_weight: N,
        _in_weight_unused: E,
        out_weight: E,
    ) -> Result<InterposeSplice, GraphError>
    where
        N: Clone,
        E: Clone,
    {
        let (_, dst) = self.endpoints(e).ok_or(GraphError::MissingEdge(e))?;
        let pos = self
            .in_edges(dst)
            .position(|x| x == e)
            .expect("edge is incoming at its dst");
        let node = self.add_node(node_weight);
        self.retarget_edge(e, node)?;
        let out_edge = self.add_edge(node, dst, out_weight)?;
        // Keep dst's input ordering: the replacement edge takes the slot the
        // original edge occupied (a join's sides are positional).
        self.set_in_position(dst, out_edge, pos)?;
        Ok(InterposeSplice {
            node,
            in_edge: e,
            out_edge,
        })
    }

    /// Embeds a disjoint copy of `donor` into `self`, remapping ids.
    /// No boundary edges are created; use the returned map to stitch.
    pub fn embed(&mut self, donor: &DiGraph<N, E>) -> SubgraphSplice
    where
        N: Clone,
        E: Clone,
    {
        let mut node_map: Vec<Option<NodeId>> = vec![None; donor.node_bound()];
        for (id, w) in donor.nodes() {
            node_map[id.index()] = Some(self.add_node(w.clone()));
        }
        for er in donor.edges() {
            let s = node_map[er.src.index()].expect("donor edge endpoints are live");
            let d = node_map[er.dst.index()].expect("donor edge endpoints are live");
            self.add_edge(s, d, er.weight.clone())
                .expect("embedding a valid donor edge cannot fail");
        }
        SubgraphSplice {
            node_map,
            entry_edges: Vec::new(),
            exit_edges: Vec::new(),
        }
    }

    /// Replaces node `n` with a donor sub-flow.
    ///
    /// Every incoming edge of `n` is retargeted at the donor's single source;
    /// every outgoing edge is re-sourced from the donor's single sink; `n`
    /// itself is removed. Edge ids and weights of the boundary edges are
    /// preserved. Returns the splice map plus the removed node's weight.
    pub fn replace_node_with_subgraph(
        &mut self,
        n: NodeId,
        donor: &DiGraph<N, E>,
    ) -> Result<(SubgraphSplice, N), GraphError>
    where
        N: Clone,
        E: Clone,
    {
        if !self.contains_node(n) {
            return Err(GraphError::MissingNode(n));
        }
        let entry = single(donor.sources()).ok_or(GraphError::InvalidSubgraph(
            "donor must have exactly one source",
        ))?;
        let exit = single(donor.sinks()).ok_or(GraphError::InvalidSubgraph(
            "donor must have exactly one sink",
        ))?;
        let mut splice = self.embed(donor);
        let entry_host = splice.mapped(entry).expect("entry is live");
        let exit_host = splice.mapped(exit).expect("exit is live");
        let in_edges: Vec<EdgeId> = self.in_edges(n).collect();
        let out_edges: Vec<EdgeId> = self.out_edges(n).collect();
        for e in &in_edges {
            self.retarget_edge(*e, entry_host)?;
        }
        for e in &out_edges {
            self.resource_edge(*e, exit_host)?;
        }
        let weight = self.remove_node(n).expect("node was checked live");
        splice.entry_edges = in_edges;
        splice.exit_edges = out_edges;
        Ok((splice, weight))
    }
}

fn single<I: Iterator<Item = NodeId>>(mut it: I) -> Option<NodeId> {
    let first = it.next()?;
    if it.next().is_some() {
        None
    } else {
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_dag;

    fn chain(labels: &[&'static str]) -> (DiGraph<&'static str, u32>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = labels.iter().map(|&l| g.add_node(l)).collect();
        for (i, w) in ids.windows(2).enumerate() {
            g.add_edge(w[0], w[1], i as u32).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn interpose_single_node() {
        let (mut g, ids) = chain(&["a", "b"]);
        let e = g.out_edges(ids[0]).next().unwrap();
        let s = g.interpose_on_edge(e, "mid", 0, 7).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(ids[0]).collect::<Vec<_>>(), vec![s.node]);
        assert_eq!(g.successors(s.node).collect::<Vec<_>>(), vec![ids[1]]);
        // original edge id survives, new edge has requested weight
        assert_eq!(s.in_edge, e);
        assert_eq!(g.edge(s.out_edge), Some(&7));
        assert!(is_dag(&g));
    }

    #[test]
    fn interpose_preserves_input_position_of_multi_input_node() {
        // left -> join, right -> join; interposing on the LEFT edge must
        // keep the join's predecessor order [left-side, right-side].
        let mut g: DiGraph<&str, u32> = DiGraph::new();
        let left = g.add_node("left");
        let right = g.add_node("right");
        let join = g.add_node("join");
        let e_left = g.add_edge(left, join, 0).unwrap();
        g.add_edge(right, join, 1).unwrap();
        let s = g.interpose_on_edge(e_left, "mid", 0, 2).unwrap();
        let preds: Vec<NodeId> = g.predecessors(join).collect();
        assert_eq!(preds, vec![s.node, right], "left side must stay first");
    }

    #[test]
    fn interpose_missing_edge_fails() {
        let (mut g, _) = chain(&["a", "b"]);
        let ghost = EdgeId(42);
        assert!(matches!(
            g.interpose_on_edge(ghost, "x", 0, 0),
            Err(GraphError::MissingEdge(_))
        ));
    }

    #[test]
    fn embed_is_disjoint() {
        let (mut host, _) = chain(&["a", "b"]);
        let (donor, _) = chain(&["x", "y", "z"]);
        let splice = host.embed(&donor);
        assert_eq!(host.node_count(), 5);
        assert_eq!(host.edge_count(), 3);
        assert_eq!(splice.node_map.iter().flatten().count(), 3);
    }

    #[test]
    fn replace_node_with_parallel_block() {
        // a -> work -> z   becomes   a -> split -> {w1,w2} -> merge -> z
        let (mut g, ids) = chain(&["a", "work", "z"]);
        let mut donor: DiGraph<&str, u32> = DiGraph::new();
        let split = donor.add_node("split");
        let w1 = donor.add_node("w1");
        let w2 = donor.add_node("w2");
        let merge = donor.add_node("merge");
        donor.add_edge(split, w1, 0).unwrap();
        donor.add_edge(split, w2, 0).unwrap();
        donor.add_edge(w1, merge, 0).unwrap();
        donor.add_edge(w2, merge, 0).unwrap();

        let (splice, removed) = g.replace_node_with_subgraph(ids[1], &donor).unwrap();
        assert_eq!(removed, "work");
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(is_dag(&g));
        let split_h = splice.mapped(split).unwrap();
        let merge_h = splice.mapped(merge).unwrap();
        assert_eq!(g.successors(ids[0]).collect::<Vec<_>>(), vec![split_h]);
        assert_eq!(g.predecessors(ids[2]).collect::<Vec<_>>(), vec![merge_h]);
        // boundary edges preserved their ids
        assert_eq!(splice.entry_edges.len(), 1);
        assert_eq!(splice.exit_edges.len(), 1);
    }

    #[test]
    fn replace_missing_node_fails() {
        let (mut g, _) = chain(&["a", "b"]);
        let (donor, _) = chain(&["x"]);
        assert!(matches!(
            g.replace_node_with_subgraph(NodeId(77), &donor),
            Err(GraphError::MissingNode(_))
        ));
    }

    #[test]
    fn replace_preserves_multiple_boundary_edges() {
        // Node with 2 ins and 2 outs.
        let mut g: DiGraph<&str, u32> = DiGraph::new();
        let i1 = g.add_node("i1");
        let i2 = g.add_node("i2");
        let mid = g.add_node("mid");
        let o1 = g.add_node("o1");
        let o2 = g.add_node("o2");
        g.add_edge(i1, mid, 1).unwrap();
        g.add_edge(i2, mid, 2).unwrap();
        g.add_edge(mid, o1, 3).unwrap();
        g.add_edge(mid, o2, 4).unwrap();
        let (donor, _) = chain(&["solo"]);
        let (splice, _) = g.replace_node_with_subgraph(mid, &donor).unwrap();
        let solo = splice.mapped(donor.node_ids().next().unwrap()).unwrap();
        assert_eq!(g.in_degree(solo), 2);
        assert_eq!(g.out_degree(solo), 2);
        // weights intact
        let mut ws: Vec<u32> = g.edges().map(|e| *e.weight).collect();
        ws.sort();
        assert_eq!(ws, vec![1, 2, 3, 4]);
    }
}
