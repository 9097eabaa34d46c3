//! Graph algorithms used by the POIESIS quality measures and the planner:
//! topological order, cycle checks, the longest path, the affected region
//! of an edit and weakly connected components.

use crate::graph::{DiGraph, NodeId};
use std::cell::RefCell;

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
/// [`TopoError`] naming a node stuck on a cycle. The allocating wrapper of
/// [`topo_sort_into`].
pub fn topo_sort<N, E>(g: &DiGraph<N, E>) -> Result<Vec<NodeId>, TopoError> {
    let mut order = Vec::with_capacity(g.node_count());
    topo_sort_into(g, &mut Vec::new(), &mut Vec::new(), &mut order)?;
    Ok(order)
}

/// Kahn's algorithm into caller buffers: clears `order` and fills it with
/// the nodes in a topological order (the order [`topo_sort`] returns), or
/// fails with a [`TopoError`] naming a node stuck on a cycle. `indeg` and
/// `queue` are scratch space; a caller that keeps all three across calls
/// sorts without allocating once they have grown to the graph's size.
pub fn topo_sort_into<N, E>(
    g: &DiGraph<N, E>,
    indeg: &mut Vec<usize>,
    queue: &mut Vec<NodeId>,
    order: &mut Vec<NodeId>,
) -> Result<(), TopoError> {
    indeg.clear();
    indeg.resize(g.node_bound(), 0);
    for n in g.node_ids() {
        indeg[n.index()] = g.in_degree(n);
    }
    queue.clear();
    queue.extend(g.sources());
    order.clear();
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
        Ok(())
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

/// True when the *affected region* of an edit is acyclic: `seeds` plus
/// every node reachable from them, restricted to live nodes.
///
/// Checking the region alone is sound for patched DAGs: any cycle a patch
/// introduces passes through a touched node (the base was acyclic, so the
/// cycle uses a changed edge, whose endpoints are touched), and every node
/// on such a cycle is reachable from that touched node, hence inside the
/// region. One walk collects the region and counts each member's in-region
/// in-degree; Kahn's algorithm over the region then settles every member
/// exactly when there is no cycle. The buffers are per-thread and reused
/// across calls, so a check allocates nothing once they have grown.
pub fn region_is_acyclic<N, E>(g: &DiGraph<N, E>, seeds: &[NodeId]) -> bool {
    /// In-degree marker of a node outside the region.
    const OUTSIDE: usize = usize::MAX;
    thread_local! {
        static BUFFERS: RefCell<(Vec<usize>, Vec<NodeId>, Vec<NodeId>)> =
            const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    }
    BUFFERS.with_borrow_mut(|(indeg, members, ready)| {
        indeg.clear();
        indeg.resize(g.node_bound(), OUTSIDE);
        members.clear();
        for &s in seeds {
            if g.contains_node(s) && indeg[s.index()] == OUTSIDE {
                indeg[s.index()] = 0;
                members.push(s);
            }
        }
        // `members` doubles as the walk's queue. Every successor of a
        // member is a member, so each in-region edge is counted once, when
        // its source is visited; edges entering from outside never are.
        let mut next = 0;
        while let Some(&n) = members.get(next) {
            next += 1;
            for m in g.successors(n) {
                if indeg[m.index()] == OUTSIDE {
                    indeg[m.index()] = 0;
                    members.push(m);
                }
                indeg[m.index()] += 1;
            }
        }
        ready.clear();
        ready.extend(members.iter().copied().filter(|n| indeg[n.index()] == 0));
        let mut settled = 0;
        while let Some(n) = ready.pop() {
            settled += 1;
            for m in g.successors(n) {
                indeg[m.index()] -= 1;
                if indeg[m.index()] == 0 {
                    ready.push(m);
                }
            }
        }
        settled == members.len()
    })
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
    fn region_is_acyclic_on_downstream_closure() {
        let (g, ids) = chain(6);
        assert!(region_is_acyclic(&g, &[ids[2]]));
        // A seed with no successors is its own region.
        assert!(region_is_acyclic(&g, &[ids[5]]));
        // No seeds → empty region.
        assert!(region_is_acyclic(&g, &[]));
        // Dead seeds are ignored.
        let mut g2 = g.clone();
        g2.remove_node(ids[4]);
        assert!(region_is_acyclic(&g2, &[ids[4]]));
    }

    #[test]
    fn region_is_acyclic_respects_cross_edges_within_region() {
        // a → b → d, a → c → d: seeding {b, c} reaches d along both
        // branches, and parallel edges count once per edge.
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, c, ()).unwrap();
        g.add_edge(b, d, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        assert!(region_is_acyclic(&g, &[b, c]));
        assert!(region_is_acyclic(&g, &[a, b, c, d]));
    }

    #[test]
    fn region_is_acyclic_detects_cycle_in_region() {
        let (mut g, ids) = chain(4);
        g.add_edge(ids[3], ids[1], ()).unwrap();
        assert!(!region_is_acyclic(&g, &[ids[1]]));
        // Everything downstream of ids[0] includes the cycle too.
        assert!(!region_is_acyclic(&g, &[ids[0]]));
        // A larger graph afterwards reuses the buffers from a clean state.
        let (big, big_ids) = chain(12);
        assert!(region_is_acyclic(&big, &[big_ids[0]]));
    }

    #[test]
    fn topo_sort_into_reuses_buffers() {
        let (g, _) = chain(5);
        let (mut indeg, mut queue, mut order) = (Vec::new(), Vec::new(), Vec::new());
        topo_sort_into(&g, &mut indeg, &mut queue, &mut order).unwrap();
        assert_eq!(order, topo_sort(&g).unwrap());
        let (mut cyclic, ids) = chain(3);
        cyclic.add_edge(ids[2], ids[0], ()).unwrap();
        assert!(topo_sort_into(&cyclic, &mut indeg, &mut queue, &mut order).is_err());
        topo_sort_into(&g, &mut indeg, &mut queue, &mut order).unwrap();
        assert_eq!(order, topo_sort(&g).unwrap());
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
