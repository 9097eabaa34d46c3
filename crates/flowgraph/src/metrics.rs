//! Structural graph metrics backing the paper's manageability measures
//! (Fig. 1: coupling of the process workflow, number of merge elements, …).

use crate::graph::DiGraph;

/// Workflow coupling in the sense of Reijers & Vanderfeesten, the metric the
/// paper's manageability characteristic cites: the probability that two
/// distinct activities are directly connected, i.e. the mean over nodes of
/// `degree(n) / (|V| - 1)`; equivalently `2|E| / (|V|·(|V|−1))` for simple
/// graphs. Higher coupling means edits ripple further, hurting manageability.
pub fn coupling<N, E>(g: &DiGraph<N, E>) -> f64 {
    let v = g.node_count();
    if v < 2 {
        return 0.0;
    }
    2.0 * g.edge_count() as f64 / (v as f64 * (v as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph<(), ()> {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, c, ()).unwrap();
        g.add_edge(b, d, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        g
    }

    #[test]
    fn density_and_coupling() {
        let g = diamond();
        // 4 edges over 4·3 ordered node pairs: density 4/12, and coupling
        // counts each edge at both ends, twice the density.
        let density = 4.0 / 12.0;
        assert!((coupling(&g) - 2.0 * density).abs() < 1e-12);
    }

    #[test]
    fn coupling_degenerate() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        assert_eq!(coupling(&g), 0.0);
        g.add_node(());
        assert_eq!(coupling(&g), 0.0);
    }

    #[test]
    fn chain_has_lower_coupling_than_clique_ish() {
        let mut chain: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| chain.add_node(())).collect();
        for w in ids.windows(2) {
            chain.add_edge(w[0], w[1], ()).unwrap();
        }
        let mut dense: DiGraph<(), ()> = DiGraph::new();
        let ids: Vec<_> = (0..5).map(|_| dense.add_node(())).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                dense.add_edge(ids[i], ids[j], ()).unwrap();
            }
        }
        assert!(coupling(&chain) < coupling(&dense));
    }
}
