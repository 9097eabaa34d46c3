//! Property-based tests for the flowgraph invariants the planner relies on:
//! splices never create cycles in a DAG, id stability, adjacency
//! consistency under random edit sequences, the local cycle check, and
//! in-place refreshing of copy-on-write forks.

use flowgraph::{is_dag, longest_path_len, region_is_acyclic, topo_sort, DiGraph, NodeId};
use proptest::prelude::*;

/// Builds a random DAG with `n` nodes; edges only go from lower to higher
/// node index so acyclicity holds by construction.
fn arb_dag(max_nodes: usize) -> impl Strategy<Value = DiGraph<u32, u32>> {
    (2..max_nodes).prop_flat_map(|n| {
        let pairs = proptest::collection::vec((0..n, 0..n), 0..n * 2);
        pairs.prop_map(move |pairs| {
            let mut g = DiGraph::new();
            let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(i as u32)).collect();
            for (a, b) in pairs {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if lo != hi {
                    let _ = g.add_edge(ids[lo], ids[hi], (lo * 100 + hi) as u32);
                }
            }
            g
        })
    })
}

/// The region `region_is_acyclic` checks, built as its own graph: `seeds`
/// and every node reachable from them, with the edges among them.
fn region_graph(g: &DiGraph<u32, u32>, seeds: &[NodeId]) -> DiGraph<u32, u32> {
    let mut inside = vec![false; g.node_bound()];
    let mut stack: Vec<NodeId> = seeds.to_vec();
    while let Some(n) = stack.pop() {
        if !std::mem::replace(&mut inside[n.index()], true) {
            stack.extend(g.successors(n));
        }
    }
    let mut region = DiGraph::new();
    let mut ids = vec![None; g.node_bound()];
    for n in g.node_ids().filter(|n| inside[n.index()]) {
        ids[n.index()] = Some(region.add_node(n.index() as u32));
    }
    for e in g.edges() {
        if let (Some(s), Some(d)) = (ids[e.src.index()], ids[e.dst.index()]) {
            region.add_edge(s, d, *e.weight).unwrap();
        }
    }
    region
}

/// Applies `edits` to `g`: each `(kind, a, b)` picks live nodes or edges by
/// index and adds, removes or retargets an edge, adds or removes a node, or
/// rewrites a node's weight. Edits the graph rejects are skipped.
fn edit(g: &mut DiGraph<u32, u32>, edits: &[(u8, prop::sample::Index, prop::sample::Index)]) {
    for (step, (kind, a, b)) in edits.iter().enumerate() {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let edges: Vec<_> = g.edge_ids().collect();
        let weight = 1000 + step as u32;
        match kind % 6 {
            0 => {
                g.add_node(weight);
            }
            1 if !nodes.is_empty() => {
                let (x, y) = (nodes[a.index(nodes.len())], nodes[b.index(nodes.len())]);
                let _ = g.add_edge(x, y, weight);
            }
            2 if !edges.is_empty() => {
                g.remove_edge(edges[a.index(edges.len())]);
            }
            3 if !edges.is_empty() && !nodes.is_empty() => {
                let e = edges[a.index(edges.len())];
                let _ = g.retarget_edge(e, nodes[b.index(nodes.len())]);
            }
            4 if nodes.len() > 1 => {
                g.remove_node(nodes[a.index(nodes.len())]);
            }
            5 if !nodes.is_empty() => {
                *g.node_mut(nodes[a.index(nodes.len())]).unwrap() = weight;
            }
            _ => {}
        }
    }
}

/// Everything observable about a graph: bounds, counts, live ids with
/// their weights and adjacency order, and every edge's endpoints.
fn observe(g: &DiGraph<u32, u32>) -> String {
    let nodes: Vec<_> = g
        .nodes()
        .map(|(n, w)| {
            let out: Vec<_> = g.out_edges(n).collect();
            let inc: Vec<_> = g.in_edges(n).collect();
            (n, *w, out, inc)
        })
        .collect();
    let edges: Vec<_> = g.edges().map(|e| (e.id, e.src, e.dst, *e.weight)).collect();
    format!(
        "{} {} {} {} {nodes:?} {edges:?}",
        g.node_bound(),
        g.edge_bound(),
        g.node_count(),
        g.edge_count()
    )
}

proptest! {
    #[test]
    fn clone_from_equals_a_fresh_clone(
        base in arb_dag(12),
        unrelated in arb_dag(12),
        edits in proptest::collection::vec(
            (0u8..6, any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        after in proptest::collection::vec(
            (0u8..6, any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..6,
        ),
    ) {
        let mut fork = base.clone();
        edit(&mut fork, &edits);
        // Refresh each kind of spare from each source: the fork back to its
        // base, the base's clone forward to the fork, and a graph sharing
        // nothing with either.
        for src in [&base, &fork] {
            for spare in [&base, &fork, &unrelated] {
                let mut dst = spare.clone();
                dst.clone_from(src);
                prop_assert_eq!(observe(&dst), observe(&src.clone()));
                prop_assert_eq!(dst.shared_node_slots(src), src.node_count());
                prop_assert!(dst.cow_delta(src).is_empty());
                let before = observe(src);
                edit(&mut dst, &after);
                prop_assert_eq!(observe(src), before);
            }
        }
    }

    #[test]
    fn region_check_agrees_with_a_full_sort_of_the_region(
        g in arb_dag(20),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
        extra in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
    ) {
        // The edit: one edge between two nodes picked in either order, so
        // it may close a cycle. Its endpoints are the nodes it touches.
        let mut g = g;
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let (src, dst) = (nodes[a.index(nodes.len())], nodes[b.index(nodes.len())]);
        prop_assume!(src != dst);
        g.add_edge(src, dst, 0).unwrap();
        let mut seeds = vec![src, dst];
        seeds.extend(extra.iter().map(|i| nodes[i.index(nodes.len())]));
        let local = region_is_acyclic(&g, &seeds);
        prop_assert_eq!(local, topo_sort(&region_graph(&g, &seeds)).is_ok());
        // The base was a DAG, so the region sees every cycle the edit made.
        prop_assert_eq!(local, is_dag(&g));
    }

    #[test]
    fn dag_by_construction_is_dag(g in arb_dag(20)) {
        prop_assert!(is_dag(&g));
    }

    #[test]
    fn topo_order_respects_edges(g in arb_dag(20)) {
        let order = topo_sort(&g).unwrap();
        prop_assert_eq!(order.len(), g.node_count());
        let mut pos = vec![usize::MAX; g.node_bound()];
        for (i, n) in order.iter().enumerate() {
            pos[n.index()] = i;
        }
        for e in g.edges() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    #[test]
    fn interpose_preserves_dag_and_grows_by_one(g in arb_dag(15), pick in any::<prop::sample::Index>()) {
        let mut g = g;
        let edges: Vec<_> = g.edge_ids().collect();
        prop_assume!(!edges.is_empty());
        let e = edges[pick.index(edges.len())];
        let before_nodes = g.node_count();
        let before_edges = g.edge_count();
        let lp_before = longest_path_len(&g).unwrap();
        g.interpose_on_edge(e, 999, 0, 0).unwrap();
        prop_assert!(is_dag(&g));
        prop_assert_eq!(g.node_count(), before_nodes + 1);
        prop_assert_eq!(g.edge_count(), before_edges + 1);
        // Longest path never shrinks when a node is interposed.
        prop_assert!(longest_path_len(&g).unwrap() >= lp_before);
    }

    #[test]
    fn node_removal_keeps_adjacency_consistent(g in arb_dag(15), pick in any::<prop::sample::Index>()) {
        let mut g = g;
        let nodes: Vec<_> = g.node_ids().collect();
        let victim = nodes[pick.index(nodes.len())];
        g.remove_node(victim);
        // No edge may reference the removed node.
        for e in g.edges() {
            prop_assert!(e.src != victim && e.dst != victim);
            prop_assert!(g.contains_node(e.src) && g.contains_node(e.dst));
        }
        // Degree bookkeeping must match edge list.
        for n in g.node_ids() {
            let out = g.edges().filter(|e| e.src == n).count();
            let inc = g.edges().filter(|e| e.dst == n).count();
            prop_assert_eq!(g.out_degree(n), out);
            prop_assert_eq!(g.in_degree(n), inc);
        }
    }

    #[test]
    fn embed_preserves_both_structures(host in arb_dag(10), donor in arb_dag(8)) {
        let mut host = host;
        let hn = host.node_count();
        let he = host.edge_count();
        let splice = host.embed(&donor);
        prop_assert_eq!(host.node_count(), hn + donor.node_count());
        prop_assert_eq!(host.edge_count(), he + donor.edge_count());
        prop_assert!(is_dag(&host));
        // Every donor edge must exist (remapped) in the host.
        for e in donor.edges() {
            let s = splice.mapped(e.src).unwrap();
            let d = splice.mapped(e.dst).unwrap();
            prop_assert!(host.successors(s).any(|x| x == d));
        }
    }
}
