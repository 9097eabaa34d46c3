//! Graph algorithms used by the POIESIS quality measures and the planner:
//! topological order, cycle checks, the longest path, the affected region
//! of an edit and weakly connected components.

use crate::graph::{DiGraph, NodeId};

/// Error returned by [`topo_sort`] when the graph has a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoError {
    /// One node that participates in (or is reachable only through) a cycle.
    pub witness: NodeId,
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "graph contains a cycle (witness node {})", self.witness)
    }
}

impl std::error::Error for TopoError {}

/// Kahn's algorithm. Returns the nodes in a topological order, or a
/// [`TopoError`] naming a node stuck on a cycle.
pub fn topo_sort<N, E>(g: &DiGraph<N, E>) -> Result<Vec<NodeId>, TopoError> {
    let mut indeg = vec![0usize; g.node_bound()];
    for n in g.node_ids() {
        indeg[n.index()] = g.in_degree(n);
    }
    let mut queue: Vec<NodeId> = g.sources().collect();
    let mut order = Vec::with_capacity(g.node_count());
    while let Some(n) = queue.pop() {
        order.push(n);
        for s in g.successors(n) {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                queue.push(s);
            }
        }
    }
    if order.len() == g.node_count() {
        Ok(order)
    } else {
        let witness = g
            .node_ids()
            .find(|n| indeg[n.index()] > 0)
            .expect("cycle implies a node with positive residual in-degree");
        Err(TopoError { witness })
    }
}

/// True if the graph is acyclic.
pub fn is_dag<N, E>(g: &DiGraph<N, E>) -> bool {
    topo_sort(g).is_ok()
}

/// True if the graph contains at least one directed cycle.
pub fn has_cycle<N, E>(g: &DiGraph<N, E>) -> bool {
    !is_dag(g)
}

/// Length (in edges) of the longest directed path in a DAG.
///
/// This is the paper's manageability measure *"length of process workflow's
/// longest path"* (Fig. 1). Returns `None` when the graph has a cycle.
pub fn longest_path_len<N, E>(g: &DiGraph<N, E>) -> Option<usize> {
    let order = topo_sort(g).ok()?;
    let mut dist = vec![0usize; g.node_bound()];
    let mut best = 0;
    // Process in reverse topological order: dist[n] = longest path starting at n.
    for &n in order.iter().rev() {
        let d = g
            .successors(n)
            .map(|s| dist[s.index()] + 1)
            .max()
            .unwrap_or(0);
        dist[n.index()] = d;
        best = best.max(d);
    }
    Some(best)
}

/// Topological order of the *affected region*: `seeds` plus every node
/// reachable from them, restricted to live nodes. Returns `None` when the
/// affected region contains a directed cycle.
///
/// This powers delta re-evaluation: after a patch, only the touched nodes and
/// their descendants can change, so this local order is all that needs to be
/// re-walked. Cycle detection over the region alone is sound for patched DAGs
/// because any cycle introduced by a patch must pass through a touched node
/// (the base was acyclic, so the cycle uses a changed edge, whose endpoints
/// are touched) — and every node on such a cycle is reachable from that
/// touched node, hence inside the region.
pub fn affected_topo<N, E>(g: &DiGraph<N, E>, seeds: &[NodeId]) -> Option<Vec<NodeId>> {
    let bound = g.node_bound();
    let mut affected = vec![false; bound];
    let mut members: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for &s in seeds {
        if g.contains_node(s) && !affected[s.index()] {
            affected[s.index()] = true;
            members.push(s);
            stack.push(s);
        }
    }
    while let Some(n) = stack.pop() {
        for m in g.successors(n) {
            if !affected[m.index()] {
                affected[m.index()] = true;
                members.push(m);
                stack.push(m);
            }
        }
    }
    // Kahn restricted to the region: in-degree counts only edges from other
    // affected nodes; edges entering from the stable part are satisfied by
    // construction.
    let mut indeg = vec![0usize; bound];
    for &n in &members {
        indeg[n.index()] = g.predecessors(n).filter(|p| affected[p.index()]).count();
    }
    let mut queue: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|n| indeg[n.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(members.len());
    while let Some(n) = queue.pop() {
        order.push(n);
        for s in g.successors(n) {
            if affected[s.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
    }
    if order.len() == members.len() {
        Some(order)
    } else {
        None
    }
}

/// Weakly connected components (edge direction ignored), each sorted.
pub fn weakly_connected_components<N, E>(g: &DiGraph<N, E>) -> Vec<Vec<NodeId>> {
    let mut comp = vec![usize::MAX; g.node_bound()];
    let mut n_comp = 0;
    for start in g.node_ids() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        let c = n_comp;
        n_comp += 1;
        let mut stack = vec![start];
        comp[start.index()] = c;
        while let Some(n) = stack.pop() {
            for m in g.successors(n).chain(g.predecessors(n)) {
                if comp[m.index()] == usize::MAX {
                    comp[m.index()] = c;
                    stack.push(m);
                }
            }
        }
    }
    let mut out = vec![Vec::new(); n_comp];
    for n in g.node_ids() {
        out[comp[n.index()]].push(n);
    }
    for c in &mut out {
        c.sort();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (DiGraph<usize, ()>, Vec<NodeId>) {
        let mut g = DiGraph::new();
        let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn topo_sort_chain_in_order() {
        let (g, ids) = chain(5);
        let order = topo_sort(&g).unwrap();
        let pos: Vec<usize> = ids
            .iter()
            .map(|id| order.iter().position(|o| o == id).unwrap())
            .collect();
        assert!(pos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn topo_sort_detects_cycle() {
        let (mut g, ids) = chain(3);
        g.add_edge(ids[2], ids[0], ()).unwrap();
        assert!(topo_sort(&g).is_err());
        assert!(has_cycle(&g));
        assert!(!is_dag(&g));
    }

    #[test]
    fn topo_sort_after_node_removal() {
        let (mut g, ids) = chain(4);
        g.remove_node(ids[1]);
        let order = topo_sort(&g).unwrap();
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn longest_path_on_chain_and_diamond() {
        let (g, _) = chain(6);
        assert_eq!(longest_path_len(&g), Some(5));

        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let e = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, c, ()).unwrap();
        g.add_edge(b, d, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        g.add_edge(d, e, ()).unwrap();
        // longest: a->b->d->e = 3 edges
        assert_eq!(longest_path_len(&g), Some(3));
    }

    #[test]
    fn longest_path_none_on_cycle() {
        let (mut g, ids) = chain(3);
        g.add_edge(ids[2], ids[0], ()).unwrap();
        assert_eq!(longest_path_len(&g), None);
    }

    #[test]
    fn affected_topo_orders_downstream_closure() {
        let (g, ids) = chain(6);
        let order = affected_topo(&g, &[ids[2]]).unwrap();
        assert_eq!(order, vec![ids[2], ids[3], ids[4], ids[5]]);
        // A seed with no successors is its own region.
        assert_eq!(affected_topo(&g, &[ids[5]]).unwrap(), vec![ids[5]]);
        // No seeds → empty region.
        assert_eq!(affected_topo(&g, &[]).unwrap(), Vec::<NodeId>::new());
        // Dead seeds are ignored.
        let mut g2 = g.clone();
        g2.remove_node(ids[4]);
        assert_eq!(affected_topo(&g2, &[ids[4]]).unwrap(), Vec::<NodeId>::new());
    }

    #[test]
    fn affected_topo_respects_cross_edges_within_region() {
        // a → b → d, a → c → d: seeding {b, c} must yield d after both.
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, c, ()).unwrap();
        g.add_edge(b, d, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        let order = affected_topo(&g, &[b, c]).unwrap();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        assert_eq!(order.len(), 3);
        assert!(pos(d) > pos(b) && pos(d) > pos(c));
    }

    #[test]
    fn affected_topo_detects_cycle_in_region() {
        let (mut g, ids) = chain(4);
        g.add_edge(ids[3], ids[1], ()).unwrap();
        assert!(affected_topo(&g, &[ids[1]]).is_none());
        // Region not touching the cycle is still fine… but here everything
        // downstream of ids[0] includes the cycle.
        assert!(affected_topo(&g, &[ids[0]]).is_none());
    }

    #[test]
    fn components() {
        let (mut g, ids) = chain(3);
        let x = g.add_node(7);
        let y = g.add_node(8);
        g.add_edge(y, x, ()).unwrap();
        let comps = weakly_connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![ids[0], ids[1], ids[2]]));
        assert!(comps.contains(&vec![x, y]));
    }
}
