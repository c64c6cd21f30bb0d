//! The lift rule and the one check path (Bryant & Velev, "Boolean
//! Satisfiability with Transitivity Constraints").
//!
//! A SAT model of the *e*ij encoding is a counterexample only if its *e*ij
//! assignment lifts to an equality interpretation (Bryant, German & Velev:
//! one value per connected component of the true equality edges).  Neither
//! encoding mode guarantees that: a lazily encoded translation
//! ([`crate::TransitivityMode::Lazy`]) seeds no transitivity triangles, and
//! the eager triangulation links large elimination neighbourhoods along a
//! path, which is not chordal, so a model can still set `e(x,y)` and
//! `e(y,z)` true but `e(x,z)` false.  Every SAT answer of every back end
//! therefore passes the lift rule before it becomes [`Verdict::Buggy`]:
//!
//! 1. a model whose *e*ij assignment is transitivity-consistent lifts as it
//!    is;
//! 2. otherwise its *closure repair* — every *e*ij variable set to whether
//!    its endpoints share a component of the true edges — lifts when it
//!    makes the side constraints true and the encoded correctness formula
//!    false under `velv_eufm` evaluation;
//! 3. otherwise every false *e*ij variable whose endpoints are connected by
//!    true edges yields the valid clause `¬e(p₁) ∨ … ∨ ¬e(pₖ) ∨ e(x,z)`
//!    along a connecting path, and
//!    [`Solver::solve_refining`](velv_sat::Solver::solve_refining) asserts
//!    them and solves again.
//!
//! The loop terminates: each added clause eliminates the current model, the
//! model space is finite, and every added clause is *valid* for equality, so
//! no real counterexample is ever excluded and an UNSAT answer stays a
//! proof of correctness.  The counterexample is built from the accepted
//! assignment, so a `Buggy` verdict always carries a transitivity-consistent
//! assignment that falsifies the encoded formula.

use crate::counterexample::Counterexample;
use crate::flow::{Translation, Verdict};
use crate::stats::RefinementStats;
use std::collections::HashMap;
use velv_eufm::{Evaluator, Interpretation, Symbol};
use velv_sat::{Lit, Model, SatResult, Var};

/// Detects transitivity violations of `model` over the *e*ij `pairs` and
/// returns one correcting clause per violated pair.
///
/// A pair `(x, y, v)` with `model[v] = false` is violated when `x` and `y`
/// are connected in the graph of true *e*ij edges; the clause disjoins the
/// negations of one connecting path with the violated variable.  Returns an
/// empty vector iff the *e*ij assignment is transitivity-consistent (and the
/// model therefore lifts to a genuine equality interpretation).
pub fn transitivity_violations(pairs: &[(Symbol, Symbol, Var)], model: &Model) -> Vec<Vec<Lit>> {
    // Index the vertices.
    let mut index: HashMap<Symbol, usize> = HashMap::new();
    for &(x, y, _) in pairs {
        let n = index.len();
        index.entry(x).or_insert(n);
        let n = index.len();
        index.entry(y).or_insert(n);
    }
    let num_vertices = index.len();
    // Adjacency over the true edges, remembering each edge's variable.
    let mut adjacency: Vec<Vec<(usize, Var)>> = vec![Vec::new(); num_vertices];
    let mut false_pairs: Vec<(usize, usize, Var)> = Vec::new();
    for &(x, y, v) in pairs {
        if v.index() >= model.len() {
            // The pair's variable never reached the CNF (its equation was
            // simplified away); it is unconstrained and cannot be violated.
            continue;
        }
        let (xi, yi) = (index[&x], index[&y]);
        if model.value(v) {
            adjacency[xi].push((yi, v));
            adjacency[yi].push((xi, v));
        } else {
            false_pairs.push((xi, yi, v));
        }
    }
    if false_pairs.is_empty() {
        return Vec::new();
    }
    // One BFS forest over the true edges: component id + parent edge per
    // vertex, so any two connected vertices have a path through their
    // component's root.
    let mut component = vec![usize::MAX; num_vertices];
    let mut parent: Vec<Option<(usize, Var)>> = vec![None; num_vertices];
    let mut queue = Vec::new();
    for root in 0..num_vertices {
        if component[root] != usize::MAX {
            continue;
        }
        component[root] = root;
        queue.clear();
        queue.push(root);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &(w, var) in &adjacency[u] {
                if component[w] == usize::MAX {
                    component[w] = root;
                    parent[w] = Some((u, var));
                    queue.push(w);
                }
            }
        }
    }
    let path_to_root = |mut u: usize, edges: &mut Vec<Var>| {
        while let Some((p, var)) = parent[u] {
            edges.push(var);
            u = p;
        }
    };
    let mut clauses = Vec::new();
    for (xi, yi, v) in false_pairs {
        if component[xi] != component[yi] {
            continue; // consistent: the endpoints are genuinely unequal
        }
        // Walk both endpoints to the shared root; the union of the two walks
        // is a set of true edges connecting x and y (edges past the meeting
        // point appear in both walks and are deduplicated).
        let mut edges = Vec::new();
        path_to_root(xi, &mut edges);
        path_to_root(yi, &mut edges);
        edges.sort_unstable();
        edges.dedup();
        let mut clause: Vec<Lit> = edges.into_iter().map(Lit::negative).collect();
        clause.push(Lit::positive(v));
        clauses.push(clause);
    }
    clauses
}

/// Union-find over the *e*ij endpoints under `model`: every symbol gets the
/// id of its equality class (connected component of true edges).  Returns
/// the classes and their number.
fn equality_classes(
    pairs: &[(Symbol, Symbol, Var)],
    model: &Model,
) -> (HashMap<Symbol, usize>, usize) {
    let mut index: HashMap<Symbol, usize> = HashMap::new();
    for &(x, y, _) in pairs {
        let n = index.len();
        index.entry(x).or_insert(n);
        let n = index.len();
        index.entry(y).or_insert(n);
    }
    let mut parent: Vec<usize> = (0..index.len()).collect();
    fn find(parent: &mut [usize], mut v: usize) -> usize {
        while parent[v] != v {
            parent[v] = parent[parent[v]];
            v = parent[v];
        }
        v
    }
    for &(x, y, v) in pairs {
        if v.index() < model.len() && model.value(v) {
            let (rx, ry) = (find(&mut parent, index[&x]), find(&mut parent, index[&y]));
            parent[rx] = ry;
        }
    }
    let mut roots: HashMap<usize, usize> = HashMap::new();
    let mut classes: HashMap<Symbol, usize> = HashMap::new();
    for (&sym, &i) in &index {
        let root = find(&mut parent, i);
        let n = roots.len();
        let class = *roots.entry(root).or_insert(n);
        classes.insert(sym, class);
    }
    (classes, roots.len())
}

/// Checks at the EUFM level that `assignment` is a counterexample of
/// `translation`: under its primary-variable values and one term value per
/// equality class, the side constraints must evaluate to true and the
/// encoded correctness formula to false.  Returns the number of equality
/// classes, or what failed.
///
/// The evaluator recurses over the encoded formula, whose depth on the wide
/// superscalar and VLIW designs overflows a default thread stack, so it runs
/// on a dedicated thread with the translation pipeline's stack bound.
pub(crate) fn falsifies(
    translation: &Translation,
    assignment: &Model,
) -> Result<usize, &'static str> {
    let (classes, num_classes) = equality_classes(&translation.eij_pairs, assignment);
    let mut interp = Interpretation::new();
    for (&sym, &var) in &translation.primary_vars {
        if var.index() < assignment.len() {
            interp.prop_vars.insert(sym, assignment.value(var));
        }
    }
    for (sym, class) in classes {
        // Distinct small values per equality class witness the lifting.
        interp.term_vars.insert(sym, 1 + class as u64);
    }
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("velv-lift-eval".to_owned())
            .stack_size(256 * 1024 * 1024)
            .spawn_scoped(scope, || {
                // The encoded formula first: a failing lift usually fails
                // there, and then the side constraints need no walk.
                let mut evaluator = Evaluator::new(&translation.ctx, interp);
                if evaluator.eval_formula(translation.encoded) {
                    Err("the encoded correctness formula still evaluates to true under the model")
                } else if !evaluator.eval_formula(translation.side_constraints) {
                    Err("the side constraints evaluate to false under the model")
                } else {
                    Ok(num_classes)
                }
            })
            .expect("spawning the evaluation thread succeeds")
            .join()
            .expect("the evaluation thread does not panic")
    })
}

/// The lift rule: the assignment a counterexample of `model` is built from,
/// or the transitivity clauses that refute the model (see the module docs).
pub(crate) fn lift(translation: &Translation, model: &Model) -> Result<Model, Vec<Vec<Lit>>> {
    let pairs = &translation.eij_pairs;
    let violations = transitivity_violations(pairs, model);
    if violations.is_empty() {
        return Ok(model.clone());
    }
    let (classes, _) = equality_classes(pairs, model);
    let mut repaired = model.values().to_vec();
    for &(x, y, v) in pairs {
        if v.index() < repaired.len() {
            repaired[v.index()] = classes[&x] == classes[&y];
        }
    }
    let repaired = Model::new(repaired);
    match falsifies(translation, &repaired) {
        Ok(_) => Ok(repaired),
        Err(_) => Err(violations),
    }
}

/// What one lift-or-refine check of a translation found.
pub(crate) struct Checked {
    /// The solver's answer.  A `Sat` model has passed the lift rule.
    pub result: SatResult,
    /// The accepted assignment of a `Sat` answer: the model, closure-repaired
    /// when it needed it.
    pub lifted: Option<Model>,
    /// The refinement clauses asserted, in the order the solver received
    /// them (after the translation's CNF).
    pub added: Vec<Vec<Lit>>,
    /// Rounds and refinement clauses.
    pub stats: RefinementStats,
}

impl Checked {
    /// The verdict: `Unsat` proves the design correct, a lifted model is a
    /// counterexample, and an undecided result is [`Verdict::Unknown`].
    pub fn verdict(&self, translation: &Translation) -> Verdict {
        match &self.result {
            SatResult::Unsat => Verdict::Correct,
            SatResult::Sat(_) => Verdict::Buggy(Counterexample::from_model(
                &translation.ctx,
                &translation.primary_vars,
                self.lifted
                    .as_ref()
                    .expect("a solver returns a model only once the lift rule accepts it"),
            )),
            other => Verdict::undecided(other),
        }
    }
}

/// The one check path: `solve` solves the translation's CNF with the lift
/// rule as its model check (through
/// [`Solver::solve_refining`](velv_sat::Solver::solve_refining) or the proof-logging CDCL
/// variant), and the outcome is collected.
pub(crate) fn check(
    translation: &Translation,
    solve: impl FnOnce(&mut dyn FnMut(&Model) -> Vec<Vec<Lit>>) -> SatResult,
) -> Checked {
    let mut lifted = None;
    let mut added = Vec::new();
    let mut models = 0;
    let result = solve(&mut |model: &Model| {
        models += 1;
        match lift(translation, model) {
            Ok(assignment) => {
                lifted = Some(assignment);
                Vec::new()
            }
            Err(clauses) => {
                added.extend_from_slice(&clauses);
                clauses
            }
        }
    });
    let stats = RefinementStats {
        iterations: models + usize::from(!result.is_sat()),
        constraints_added: added.len(),
    };
    Checked {
        result,
        lifted,
        added,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(ctx: &mut velv_eufm::Context, name: &str) -> Symbol {
        ctx.symbol(name)
    }

    #[test]
    fn consistent_assignment_has_no_violations() {
        let mut ctx = velv_eufm::Context::new();
        let (x, y, z) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"), sym(&mut ctx, "z"));
        let pairs = vec![
            (x, y, Var::new(0)),
            (y, z, Var::new(1)),
            (x, z, Var::new(2)),
        ];
        // All equal: fine.
        assert!(transitivity_violations(&pairs, &Model::new(vec![true, true, true])).is_empty());
        // x=y, z apart: fine.
        assert!(transitivity_violations(&pairs, &Model::new(vec![true, false, false])).is_empty());
        // All apart: fine.
        assert!(transitivity_violations(&pairs, &Model::new(vec![false, false, false])).is_empty());
    }

    #[test]
    fn violated_triangle_yields_the_transitivity_clause() {
        let mut ctx = velv_eufm::Context::new();
        let (x, y, z) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"), sym(&mut ctx, "z"));
        let pairs = vec![
            (x, y, Var::new(0)),
            (y, z, Var::new(1)),
            (x, z, Var::new(2)),
        ];
        // x=y and y=z but x≠z: violated.
        let clauses = transitivity_violations(&pairs, &Model::new(vec![true, true, false]));
        assert_eq!(clauses.len(), 1);
        let mut clause = clauses[0].clone();
        clause.sort_unstable();
        let mut expected = vec![
            Lit::negative(Var::new(0)),
            Lit::negative(Var::new(1)),
            Lit::positive(Var::new(2)),
        ];
        expected.sort_unstable();
        assert_eq!(clause, expected);
    }

    #[test]
    fn violations_found_across_longer_paths() {
        // A chain x0=x1=...=x4 with e(x0,x4) false: the violation spans the
        // whole path, not just one triangle.
        let mut ctx = velv_eufm::Context::new();
        let syms: Vec<Symbol> = (0..5).map(|i| sym(&mut ctx, &format!("x{i}"))).collect();
        let mut pairs = Vec::new();
        for i in 0..4 {
            pairs.push((syms[i], syms[i + 1], Var::new(i as u32)));
        }
        pairs.push((syms[0], syms[4], Var::new(4)));
        let model = Model::new(vec![true, true, true, true, false]);
        let clauses = transitivity_violations(&pairs, &model);
        assert_eq!(clauses.len(), 1);
        let clause = &clauses[0];
        assert_eq!(clause.len(), 5, "four path edges plus the violated pair");
        assert!(clause.contains(&Lit::positive(Var::new(4))));
    }

    #[test]
    fn pairs_without_cnf_variables_are_ignored() {
        let mut ctx = velv_eufm::Context::new();
        let (x, y) = (sym(&mut ctx, "x"), sym(&mut ctx, "y"));
        // Variable index beyond the model: the pair never reached the CNF.
        let pairs = vec![(x, y, Var::new(40))];
        assert!(transitivity_violations(&pairs, &Model::new(vec![true])).is_empty());
    }
}
