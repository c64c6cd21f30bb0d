//! Sparse transitivity constraints for the *e*ij encoding.
//!
//! The equality-comparison graph (one vertex per g-term variable, one edge per
//! compared pair) is made *chordal* by greedy vertex elimination: repeatedly
//! remove degree-≤1 vertices, then eliminate a minimum-degree vertex after
//! connecting its remaining neighbours.  Every triangle of the resulting graph
//! receives the three transitivity clauses
//! `(eab ∧ ebc → eac)`, `(eab ∧ eac → ebc)`, `(ebc ∧ eac → eab)` — the sparse
//! method of Bryant & Velev (2002) referenced in Section 6 of the paper.

use super::ordered;
use std::collections::{BTreeMap, BTreeSet};
use velv_eufm::Symbol;

/// A triangle of the chordal equality-comparison graph.
pub type Triangle = [(Symbol, Symbol); 3];

/// Result of triangulating the equality-comparison graph.
#[derive(Clone, Debug, Default)]
pub struct Triangulation {
    /// Edges added to make the graph chordal (these need *e*ij variables too).
    pub added_edges: Vec<(Symbol, Symbol)>,
    /// All triangles whose transitivity must be constrained.
    pub triangles: Vec<Triangle>,
}

/// Triangulates the graph given by `edges`.
pub fn triangulate(edges: &BTreeSet<(Symbol, Symbol)>) -> Triangulation {
    let mut adjacency: BTreeMap<Symbol, BTreeSet<Symbol>> = BTreeMap::new();
    for &(a, b) in edges {
        adjacency.entry(a).or_default().insert(b);
        adjacency.entry(b).or_default().insert(a);
    }
    let mut result = Triangulation::default();
    let mut edge_set: BTreeSet<(Symbol, Symbol)> = edges.clone();

    loop {
        // Remove vertices of degree 0 or 1 — they cannot be part of a cycle.
        loop {
            let low: Vec<Symbol> = adjacency
                .iter()
                .filter(|(_, nbrs)| nbrs.len() <= 1)
                .map(|(v, _)| *v)
                .collect();
            if low.is_empty() {
                break;
            }
            for v in low {
                if let Some(nbrs) = adjacency.remove(&v) {
                    for n in nbrs {
                        if let Some(set) = adjacency.get_mut(&n) {
                            set.remove(&v);
                        }
                    }
                }
            }
        }
        if adjacency.is_empty() {
            break;
        }
        // Eliminate a minimum-degree vertex.
        let v = *adjacency
            .iter()
            .min_by_key(|(_, nbrs)| nbrs.len())
            .map(|(v, _)| v)
            .expect("adjacency is non-empty");
        let neighbours: Vec<Symbol> = adjacency
            .get(&v)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        // Connect the neighbours along a path (up to n−1 extra edges, forming
        // n−1 triangles with the eliminated vertex's edges) — the sparse scheme
        // described in Section 6 of the paper.  For small neighbourhoods we
        // complete the clique instead, which yields a chordal graph and hence
        // the strongest transitivity enforcement at negligible extra cost.
        let clique = neighbours.len() <= 8;
        for i in 0..neighbours.len() {
            let js: Vec<usize> = if clique {
                ((i + 1)..neighbours.len()).collect()
            } else if i + 1 < neighbours.len() {
                vec![i + 1]
            } else {
                Vec::new()
            };
            for j in js {
                let a = neighbours[i];
                let b = neighbours[j];
                let fill = ordered(a, b);
                if edge_set.insert(fill) {
                    result.added_edges.push(fill);
                    adjacency.entry(a).or_default().insert(b);
                    adjacency.entry(b).or_default().insert(a);
                }
                result.triangles.push([ordered(v, a), ordered(v, b), fill]);
            }
        }
        // Remove the eliminated vertex.
        if let Some(nbrs) = adjacency.remove(&v) {
            for n in nbrs {
                if let Some(set) = adjacency.get_mut(&n) {
                    set.remove(&v);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        // Symbols are constructed through a context normally; for graph tests we
        // only need distinct ordered values, so build them via a context.
        use velv_eufm::Context;
        thread_local! {
            static CTX: std::cell::RefCell<Context> = std::cell::RefCell::new(Context::new());
        }
        CTX.with(|ctx| ctx.borrow_mut().symbol(&format!("g{i}")))
    }

    fn edge(a: u32, b: u32) -> (Symbol, Symbol) {
        ordered(sym(a), sym(b))
    }

    #[test]
    fn tree_needs_no_constraints() {
        let edges: BTreeSet<_> = [edge(0, 1), edge(1, 2), edge(1, 3)].into_iter().collect();
        let result = triangulate(&edges);
        assert!(result.triangles.is_empty());
        assert!(result.added_edges.is_empty());
    }

    #[test]
    fn triangle_produces_one_triangle_no_added_edges() {
        let edges: BTreeSet<_> = [edge(0, 1), edge(1, 2), edge(0, 2)].into_iter().collect();
        let result = triangulate(&edges);
        assert_eq!(result.triangles.len(), 1);
        assert!(result.added_edges.is_empty());
    }

    #[test]
    fn square_gets_one_chord_and_two_triangles() {
        // Cycle of length 4, as in Fig. 8 of the paper: one extra edge, two triangles.
        let edges: BTreeSet<_> = [edge(0, 1), edge(1, 2), edge(2, 3), edge(0, 3)]
            .into_iter()
            .collect();
        let result = triangulate(&edges);
        assert_eq!(result.added_edges.len(), 1);
        assert_eq!(result.triangles.len(), 2);
    }

    #[test]
    fn every_triangle_edge_is_in_the_final_edge_set() {
        let edges: BTreeSet<_> = [
            edge(0, 1),
            edge(1, 2),
            edge(2, 3),
            edge(3, 4),
            edge(4, 0),
            edge(1, 3),
        ]
        .into_iter()
        .collect();
        let result = triangulate(&edges);
        let mut all_edges = edges.clone();
        all_edges.extend(result.added_edges.iter().copied());
        for triangle in &result.triangles {
            for e in triangle {
                assert!(
                    all_edges.contains(e),
                    "triangle edge {e:?} missing from edge set"
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let result = triangulate(&BTreeSet::new());
        assert!(result.triangles.is_empty());
        assert!(result.added_edges.is_empty());
    }
}
