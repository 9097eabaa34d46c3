//! Core arena-based directed graph with stable node/edge ids.
//!
//! Storage is copy-on-write: every slot sits behind an [`Arc`], so cloning a
//! graph is `O(n)` refcount bumps and a clone's mutations copy only the slots
//! they touch ([`Arc::make_mut`]). [`DiGraph::cow_delta`] recovers exactly
//! which nodes diverged between a fork and its base by pointer comparison,
//! which is what makes delta re-evaluation of forked flows possible.

use std::fmt;
use std::sync::Arc;

/// Stable handle to a node in a [`DiGraph`].
///
/// Ids are never reused within one graph instance, so a `NodeId` obtained
/// while enumerating application points stays valid (or is reported as
/// removed) across subsequent edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Stable handle to an edge in a [`DiGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// Raw index, mainly useful for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index (e.g. deserialisation). The id is
    /// only meaningful against the graph it originally came from.
    pub fn from_raw(i: u32) -> Self {
        NodeId(i)
    }
}

impl EdgeId {
    /// Raw index, mainly useful for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index (e.g. deserialisation). The id is
    /// only meaningful against the graph it originally came from.
    pub fn from_raw(i: u32) -> Self {
        EdgeId(i)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Errors produced by structural graph edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The referenced node does not exist (never existed or was removed).
    MissingNode(NodeId),
    /// The referenced edge does not exist (never existed or was removed).
    MissingEdge(EdgeId),
    /// An edit would have produced a self-loop where none is allowed.
    SelfLoop(NodeId),
    /// A splice operation received an empty or otherwise unusable subgraph.
    InvalidSubgraph(&'static str),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingNode(n) => write!(f, "node {n} does not exist"),
            GraphError::MissingEdge(e) => write!(f, "edge {e} does not exist"),
            GraphError::SelfLoop(n) => write!(f, "self-loop on {n} is not allowed"),
            GraphError::InvalidSubgraph(msg) => write!(f, "invalid subgraph: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[derive(Debug, Clone)]
struct NodeSlot<N> {
    weight: N,
    /// Outgoing edge ids, in insertion order.
    out: Vec<EdgeId>,
    /// Incoming edge ids, in insertion order.
    inc: Vec<EdgeId>,
}

#[derive(Debug, Clone)]
struct EdgeSlot<E> {
    weight: E,
    src: NodeId,
    dst: NodeId,
}

/// A borrowed view of one edge: id, endpoints and weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef<'a, E> {
    /// The edge's stable id.
    pub id: EdgeId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Borrowed edge weight.
    pub weight: &'a E,
}

/// Arena-backed directed multigraph with stable ids.
///
/// * `N` — node weight (an ETL operation in the POIESIS model).
/// * `E` — edge weight (a transition; often carries schema/channel info).
///
/// Parallel edges are allowed (the ETL model itself forbids them at a higher
/// layer where needed); self-loops are rejected because an ETL transition
/// from an operation to itself is meaningless.
///
/// Slots are `Arc`-shared: `clone()` is cheap and structurally shares every
/// slot with the original; mutating either side copies only the touched slots
/// (copy-on-write), so a fork never observes writes through to its base.
/// `clone_from` refreshes a graph that is no longer needed into such a
/// clone in place, touching only the slots that differ: the planner
/// recycles its forks this way instead of dropping them.
#[derive(Debug)]
pub struct DiGraph<N, E> {
    nodes: Vec<Option<Arc<NodeSlot<N>>>>,
    edges: Vec<Option<Arc<EdgeSlot<E>>>>,
    node_count: usize,
    edge_count: usize,
}

impl<N, E> Clone for DiGraph<N, E> {
    /// `O(n)` refcount bumps; no node or edge weight is cloned. The same as
    /// [`clone_from`](Self::clone_from) into an empty graph.
    fn clone(&self) -> Self {
        let mut g = DiGraph::new();
        g.clone_from(self);
        g
    }

    /// Makes `self` a copy-on-write clone of `source` in place, keeping its
    /// slot vectors' allocations: see [`refresh_slots`]. Only the slots whose
    /// pointer differs from `source`'s are replaced, so refreshing a fork
    /// from its parent costs the slots the fork diverged on, not `O(n)`
    /// refcount traffic. Afterwards `self` shares every slot with `source`,
    /// exactly as a fresh [`clone`](Self::clone) does.
    fn clone_from(&mut self, source: &Self) {
        let DiGraph {
            nodes,
            edges,
            node_count,
            edge_count,
        } = self;
        refresh_slots(nodes, &source.nodes);
        refresh_slots(edges, &source.edges);
        *node_count = source.node_count;
        *edge_count = source.edge_count;
    }
}

/// Makes `dst` slot-for-slot equal to `src` in place: truncates or extends
/// it to `src`'s length and replaces only the slots whose [`Arc`] pointer
/// (or absence) differs, so a slot already shared costs nothing. The std
/// `clone_from` of a `Vec` re-clones every element, bumping and dropping
/// every refcount. Copy-on-write forks ([`DiGraph`]'s slot vectors) and the
/// schema tables kept beside them are refreshed with this one body.
pub fn refresh_slots<T>(dst: &mut Vec<Option<Arc<T>>>, src: &[Option<Arc<T>>]) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        let shared = match (&*d, s) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        if !shared {
            *d = s.clone();
        }
    }
    let kept = dst.len();
    dst.extend_from_slice(&src[kept..]);
}

/// Difference between a copy-on-write fork and the base it was cloned from,
/// recovered by [`DiGraph::cow_delta`].
#[derive(Debug, Clone, Default)]
pub struct CowDelta {
    /// Live nodes of the fork whose slot diverged from the base: added nodes,
    /// nodes with edited weights, and nodes whose adjacency changed. Endpoints
    /// of edges with diverged slots are folded in too, so any semantic change
    /// is anchored at a touched node. Sorted ascending, deduplicated.
    pub touched_nodes: Vec<NodeId>,
    /// Nodes live in the base but removed in the fork. Sorted ascending.
    pub removed_nodes: Vec<NodeId>,
}

impl CowDelta {
    /// True when the fork's structure is identical (slot-for-slot shared)
    /// with its base.
    pub fn is_empty(&self) -> bool {
        self.touched_nodes.is_empty() && self.removed_nodes.is_empty()
    }
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            node_count: 0,
            edge_count: 0,
        }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            node_count: 0,
            edge_count: 0,
        }
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Upper bound (exclusive) on node indices ever allocated; useful for
    /// dense side tables indexed by [`NodeId::index`].
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on edge indices ever allocated.
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its stable id.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(Arc::new(NodeSlot {
            weight,
            out: Vec::new(),
            inc: Vec::new(),
        })));
        self.node_count += 1;
        id
    }

    /// Adds a directed edge `src → dst`.
    ///
    /// Fails if either endpoint is missing or if `src == dst`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, weight: E) -> Result<EdgeId, GraphError>
    where
        N: Clone,
    {
        if src == dst {
            return Err(GraphError::SelfLoop(src));
        }
        if !self.contains_node(src) {
            return Err(GraphError::MissingNode(src));
        }
        if !self.contains_node(dst) {
            return Err(GraphError::MissingNode(dst));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges
            .push(Some(Arc::new(EdgeSlot { weight, src, dst })));
        self.slot_mut(src).out.push(id);
        self.slot_mut(dst).inc.push(id);
        self.edge_count += 1;
        Ok(id)
    }

    /// True if the node id refers to a live node.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|s| s.is_some())
    }

    /// True if the edge id refers to a live edge.
    pub fn contains_edge(&self, e: EdgeId) -> bool {
        self.edges.get(e.index()).is_some_and(|s| s.is_some())
    }

    fn slot(&self, n: NodeId) -> &NodeSlot<N> {
        self.nodes[n.index()].as_ref().expect("live node")
    }

    /// Copy-on-write access: unshares the slot from any fork before handing
    /// out the mutable borrow.
    fn slot_mut(&mut self, n: NodeId) -> &mut NodeSlot<N>
    where
        N: Clone,
    {
        Arc::make_mut(self.nodes[n.index()].as_mut().expect("live node"))
    }

    fn eslot(&self, e: EdgeId) -> &EdgeSlot<E> {
        self.edges[e.index()].as_ref().expect("live edge")
    }

    fn eslot_mut(&mut self, e: EdgeId) -> &mut EdgeSlot<E>
    where
        E: Clone,
    {
        Arc::make_mut(self.edges[e.index()].as_mut().expect("live edge"))
    }

    /// Borrow a node weight.
    pub fn node(&self, n: NodeId) -> Option<&N> {
        self.nodes.get(n.index())?.as_deref().map(|s| &s.weight)
    }

    /// Mutably borrow a node weight (copy-on-write: unshares the slot).
    pub fn node_mut(&mut self, n: NodeId) -> Option<&mut N>
    where
        N: Clone,
    {
        self.nodes
            .get_mut(n.index())?
            .as_mut()
            .map(|s| &mut Arc::make_mut(s).weight)
    }

    /// Borrow an edge weight.
    pub fn edge(&self, e: EdgeId) -> Option<&E> {
        self.edges.get(e.index())?.as_deref().map(|s| &s.weight)
    }

    /// Endpoints `(src, dst)` of a live edge.
    pub fn endpoints(&self, e: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges.get(e.index())?.as_ref().map(|s| (s.src, s.dst))
    }

    /// Removes a node and every incident edge, returning its weight.
    pub fn remove_node(&mut self, n: NodeId) -> Option<N>
    where
        N: Clone,
        E: Clone,
    {
        if !self.contains_node(n) {
            return None;
        }
        let incident: Vec<EdgeId> = {
            let slot = self.slot(n);
            slot.out.iter().chain(slot.inc.iter()).copied().collect()
        };
        for e in incident {
            self.remove_edge(e);
        }
        let slot = self.nodes[n.index()].take().expect("live node");
        self.node_count -= 1;
        Some(Arc::try_unwrap(slot).map_or_else(|s| s.weight.clone(), |s| s.weight))
    }

    /// Removes an edge, returning its weight.
    pub fn remove_edge(&mut self, e: EdgeId) -> Option<E>
    where
        N: Clone,
        E: Clone,
    {
        if !self.contains_edge(e) {
            return None;
        }
        let slot = self.edges[e.index()].take().expect("live edge");
        self.slot_mut(slot.src).out.retain(|&x| x != e);
        self.slot_mut(slot.dst).inc.retain(|&x| x != e);
        self.edge_count -= 1;
        Some(Arc::try_unwrap(slot).map_or_else(|s| s.weight.clone(), |s| s.weight))
    }

    /// Iterator over live node ids, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterator over `(id, &weight)` for live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (NodeId(i as u32), &s.weight)))
    }

    /// Iterator over live edge ids, ascending.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// Iterator over borrowed edge views.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, s)| {
            s.as_ref().map(|s| EdgeRef {
                id: EdgeId(i as u32),
                src: s.src,
                dst: s.dst,
                weight: &s.weight,
            })
        })
    }

    /// Outgoing edges of `n`, in insertion order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.slot(n).out.iter().copied()
    }

    /// Incoming edges of `n`, in insertion order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.slot(n).inc.iter().copied()
    }

    /// Successor nodes of `n` (one entry per outgoing edge).
    pub fn successors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.slot(n).out.iter().map(move |&e| self.eslot(e).dst)
    }

    /// Predecessor nodes of `n` (one entry per incoming edge).
    pub fn predecessors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.slot(n).inc.iter().map(move |&e| self.eslot(e).src)
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.slot(n).out.len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.slot(n).inc.len()
    }

    /// Nodes with in-degree 0 (ETL sources sit here).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.in_degree(n) == 0)
    }

    /// Nodes with out-degree 0 (ETL sinks / load targets sit here).
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.out_degree(n) == 0)
    }

    /// Retargets an existing edge to a new destination, keeping its id and
    /// weight. Used by splice operations.
    pub fn retarget_edge(&mut self, e: EdgeId, new_dst: NodeId) -> Result<(), GraphError>
    where
        N: Clone,
        E: Clone,
    {
        if !self.contains_edge(e) {
            return Err(GraphError::MissingEdge(e));
        }
        if !self.contains_node(new_dst) {
            return Err(GraphError::MissingNode(new_dst));
        }
        let (src, old_dst) = self.endpoints(e).expect("live edge");
        if src == new_dst {
            return Err(GraphError::SelfLoop(src));
        }
        if old_dst == new_dst {
            return Ok(());
        }
        self.slot_mut(old_dst).inc.retain(|&x| x != e);
        self.slot_mut(new_dst).inc.push(e);
        self.eslot_mut(e).dst = new_dst;
        Ok(())
    }

    /// Re-sources an existing edge from a new origin, keeping id and weight.
    pub fn resource_edge(&mut self, e: EdgeId, new_src: NodeId) -> Result<(), GraphError>
    where
        N: Clone,
        E: Clone,
    {
        if !self.contains_edge(e) {
            return Err(GraphError::MissingEdge(e));
        }
        if !self.contains_node(new_src) {
            return Err(GraphError::MissingNode(new_src));
        }
        let (old_src, dst) = self.endpoints(e).expect("live edge");
        if dst == new_src {
            return Err(GraphError::SelfLoop(dst));
        }
        if old_src == new_src {
            return Ok(());
        }
        self.slot_mut(old_src).out.retain(|&x| x != e);
        self.slot_mut(new_src).out.push(e);
        self.eslot_mut(e).src = new_src;
        Ok(())
    }

    /// Moves edge `e` (already incoming at `v`) to position `pos` within
    /// `v`'s incoming-edge order. Splice operations use this to preserve
    /// the input ordering of multi-input operators (a join's left/right
    /// sides are positional).
    pub fn set_in_position(&mut self, v: NodeId, e: EdgeId, pos: usize) -> Result<(), GraphError>
    where
        N: Clone,
    {
        if !self.contains_node(v) {
            return Err(GraphError::MissingNode(v));
        }
        let inc = &mut self.slot_mut(v).inc;
        let cur = inc
            .iter()
            .position(|&x| x == e)
            .ok_or(GraphError::MissingEdge(e))?;
        let e = inc.remove(cur);
        let pos = pos.min(inc.len());
        inc.insert(pos, e);
        Ok(())
    }

    /// Maps node and edge weights into a new graph, preserving ids exactly
    /// (including tombstones), so side tables remain valid.
    pub fn map<N2, E2>(
        &self,
        mut fnode: impl FnMut(NodeId, &N) -> N2,
        mut fedge: impl FnMut(EdgeId, &E) -> E2,
    ) -> DiGraph<N2, E2> {
        DiGraph {
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_ref().map(|s| {
                        Arc::new(NodeSlot {
                            weight: fnode(NodeId(i as u32), &s.weight),
                            out: s.out.clone(),
                            inc: s.inc.clone(),
                        })
                    })
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_ref().map(|s| {
                        Arc::new(EdgeSlot {
                            weight: fedge(EdgeId(i as u32), &s.weight),
                            src: s.src,
                            dst: s.dst,
                        })
                    })
                })
                .collect(),
            node_count: self.node_count,
            edge_count: self.edge_count,
        }
    }

    /// Recovers the set of nodes on which `self` (a copy-on-write fork)
    /// diverged from `base`, by comparing slot pointers.
    ///
    /// Any mutation — weight edit, adjacency change, node/edge add or remove —
    /// unshares the slots it touches, so pointer inequality is a sound
    /// overapproximation of "semantically changed" and pointer equality is an
    /// exact proof of "identical". Endpoints of edges whose slot diverged are
    /// folded into `touched_nodes`, so a re-pointed edge is anchored at the
    /// end whose adjacency list did not change too.
    ///
    /// `base` must be the graph this one was cloned from (ids are only
    /// comparable within one clone family); `self.cow_delta(self)` is empty.
    pub fn cow_delta(&self, base: &Self) -> CowDelta {
        let mut touched: Vec<NodeId> = Vec::new();
        let mut removed: Vec<NodeId> = Vec::new();
        let upper = self.nodes.len().max(base.nodes.len());
        for i in 0..upper {
            let ours = self.nodes.get(i).and_then(|s| s.as_ref());
            let theirs = base.nodes.get(i).and_then(|s| s.as_ref());
            match (ours, theirs) {
                (Some(a), Some(b)) => {
                    if !Arc::ptr_eq(a, b) {
                        touched.push(NodeId(i as u32));
                    }
                }
                (Some(_), None) => touched.push(NodeId(i as u32)),
                (None, Some(_)) => removed.push(NodeId(i as u32)),
                (None, None) => {}
            }
        }
        let eupper = self.edges.len().max(base.edges.len());
        for i in 0..eupper {
            let ours = self.edges.get(i).and_then(|s| s.as_ref());
            let theirs = base.edges.get(i).and_then(|s| s.as_ref());
            let diverged = match (ours, theirs) {
                (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
                (Some(_), None) => true,
                // Edge removed: remove_edge unshared both endpoint slots, so
                // the anchoring nodes are already in `touched` (or removed).
                (None, _) => false,
            };
            if diverged {
                let s = ours.expect("diverged implies live in self");
                touched.push(s.src);
                touched.push(s.dst);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        CowDelta {
            touched_nodes: touched,
            removed_nodes: removed,
        }
    }

    /// Number of live node slots structurally shared (same allocation) with
    /// `base`. Diagnostic for tests and benchmarks of copy-on-write forking.
    pub fn shared_node_slots(&self, base: &Self) -> usize {
        self.nodes
            .iter()
            .zip(base.nodes.iter())
            .filter(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<&'static str, u32>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, c, 2).unwrap();
        g.add_edge(b, d, 3).unwrap();
        g.add_edge(c, d, 4).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, [a, b, c, d]) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.node(a), Some(&"a"));
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![b, c]);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        assert_eq!(g.add_edge(a, a, ()), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn missing_endpoint_rejected() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let a = g.add_node(());
        let ghost = NodeId(99);
        assert_eq!(
            g.add_edge(a, ghost, ()),
            Err(GraphError::MissingNode(ghost))
        );
        assert_eq!(
            g.add_edge(ghost, a, ()),
            Err(GraphError::MissingNode(ghost))
        );
    }

    #[test]
    fn remove_edge_updates_adjacency() {
        let (mut g, [a, b, _c, d]) = diamond();
        let e = g.out_edges(a).next().unwrap();
        assert_eq!(g.remove_edge(e), Some(1));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 0);
        assert!(!g.contains_edge(e));
        // d untouched
        assert_eq!(g.in_degree(d), 2);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, [a, b, c, d]) = diamond();
        assert_eq!(g.remove_node(b), Some("b"));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(d), 1);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![c]);
    }

    #[test]
    fn ids_stable_after_removal() {
        let (mut g, [a, b, c, d]) = diamond();
        g.remove_node(b);
        // Remaining ids still resolve.
        assert_eq!(g.node(a), Some(&"a"));
        assert_eq!(g.node(c), Some(&"c"));
        assert_eq!(g.node(d), Some(&"d"));
        assert_eq!(g.node(b), None);
        // New node takes a fresh id, not b's.
        let e = g.add_node("e");
        assert_ne!(e, b);
    }

    #[test]
    fn sources_and_sinks() {
        let (g, [a, _b, _c, d]) = diamond();
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![a]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![d]);
    }

    #[test]
    fn retarget_edge_moves_incoming_list() {
        let (mut g, [a, b, c, _d]) = diamond();
        let ab = g.out_edges(a).next().unwrap();
        g.retarget_edge(ab, c).unwrap();
        assert_eq!(g.endpoints(ab), Some((a, c)));
        assert_eq!(g.in_degree(b), 0);
        assert_eq!(g.in_degree(c), 2);
        // weight preserved
        assert_eq!(g.edge(ab), Some(&1));
    }

    #[test]
    fn resource_edge_moves_outgoing_list() {
        let (mut g, [a, b, c, _d]) = diamond();
        let ab = g.out_edges(a).next().unwrap();
        g.resource_edge(ab, c).unwrap();
        assert_eq!(g.endpoints(ab), Some((c, b)));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.out_degree(c), 2);
    }

    #[test]
    fn retarget_rejects_self_loop() {
        let (mut g, [a, _b, _c, _d]) = diamond();
        let ab = g.out_edges(a).next().unwrap();
        assert_eq!(g.retarget_edge(ab, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn map_preserves_structure() {
        let (g, [a, _b, _c, d]) = diamond();
        let g2 = g.map(|_, n| n.to_uppercase(), |_, e| *e * 10);
        assert_eq!(g2.node(a), Some(&"A".to_string()));
        assert_eq!(g2.node_count(), 4);
        assert_eq!(g2.edge_count(), 4);
        let w: Vec<u32> = g2.edges().map(|e| *e.weight).collect();
        assert_eq!(w, vec![10, 20, 30, 40]);
        assert_eq!(g2.in_degree(d), 2);
    }

    #[test]
    fn cow_clone_shares_all_slots() {
        let (g, _) = diamond();
        let f = g.clone();
        assert_eq!(f.shared_node_slots(&g), 4);
        assert!(f.cow_delta(&g).is_empty());
        assert!(g.cow_delta(&g).is_empty());
    }

    #[test]
    fn cow_fork_mutation_never_observed_by_base() {
        let (g, [a, b, _c, d]) = diamond();
        let mut f = g.clone();
        *f.node_mut(a).unwrap() = "A!";
        f.remove_node(b);
        assert_eq!(g.node(a), Some(&"a"));
        assert!(g.contains_node(b));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.in_degree(d), 2);
        assert_eq!(f.node(a), Some(&"A!"));
        assert!(!f.contains_node(b));
    }

    #[test]
    fn cow_delta_reports_touched_and_removed() {
        let (g, [a, b, c, d]) = diamond();
        let mut f = g.clone();
        *f.node_mut(c).unwrap() = "C!";
        f.remove_node(b); // also unshares a (out list) and d (inc list)
        let x = f.add_node("x");
        f.add_edge(c, x, 9).unwrap();
        let delta = f.cow_delta(&g);
        assert_eq!(delta.removed_nodes, vec![b]);
        assert_eq!(delta.touched_nodes, vec![a, c, d, x]);
    }

    #[test]
    fn cow_delta_anchors_a_retargeted_edge_at_both_ends() {
        let (g, [a, b, c, _d]) = diamond();
        let mut f = g.clone();
        let ab = f.out_edges(a).next().unwrap();
        f.retarget_edge(ab, c).unwrap();
        // a's out list still names the edge, so its slot stays shared…
        assert_eq!(f.shared_node_slots(&g), 2);
        // …but the re-pointed edge anchors it in the delta.
        assert_eq!(f.cow_delta(&g).touched_nodes, vec![a, b, c]);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: DiGraph<(), u8> = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(a, b, 2).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(a).collect::<Vec<_>>(), vec![b, b]);
    }
}
