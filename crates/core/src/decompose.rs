//! Decomposition of the correctness criterion into *weak criteria* (Section 7).
//!
//! Instead of the monolithic `⋁_l ⋀_m f_{l,m}`, the criterion is split into a
//! set of smaller obligations that can be evaluated in parallel:
//!
//! 1. a *coverage* obligation `⋁_l w_l`, where the window function `w_l` is a
//!    designated conjunction of match formulas with index `l`, and
//! 2. for every `l` and every group of remaining elements,
//!    `w_l ⇒ ⋀_{m ∈ group} f_{l,m}`.
//!
//! Proving all obligations implies the monolithic criterion without ever
//! evaluating it.  Buggy designs are detected as soon as any obligation is
//! falsified (take the minimum time); correct designs need every obligation
//! (take the maximum time).

use crate::burch_dill::VerificationProblem;
use velv_eufm::{Context, FormulaId};

/// One obligation of the decomposed criterion.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// Human-readable name (used by the experiment tables).
    pub name: String,
    /// The formula that must be valid.
    pub formula: FormulaId,
}

/// Splits the correctness criterion into at most `max_obligations` weak
/// criteria (but always at least the coverage obligation plus one obligation
/// per instruction count `l`).
///
/// The window functions come from the implementation's control logic
/// ([`velv_hdl::Processor::completion_windows`]) when the model supplies them;
/// otherwise the fallback window `w_l = ⋀_m f_{l,m}` is used, which keeps the
/// decomposition sound (and complete) but concentrates the whole criterion in
/// the coverage obligation — i.e. it gives no speed-up.  All benchmark models
/// supply control windows.
///
/// The obligations are created inside `ctx`, which must be (a clone of) the
/// problem's context.
pub fn decompose(
    problem: &VerificationProblem,
    ctx: &mut Context,
    max_obligations: usize,
) -> Vec<Obligation> {
    let num_l = problem.parts.len();
    let num_elements = problem.num_arch_elements();

    let windows: Vec<FormulaId> = match &problem.windows {
        Some(ws) => ws.clone(),
        None => (0..num_l)
            .map(|l| ctx.and_many(problem.parts[l].iter().copied()))
            .collect(),
    };

    let mut obligations = Vec::new();
    let coverage = ctx.or_many(windows.iter().copied());
    obligations.push(Obligation {
        name: "coverage".to_owned(),
        formula: coverage,
    });

    // Group the elements so that the total number of obligations does not
    // exceed the requested maximum.
    let elements: Vec<usize> = (0..num_elements).collect();
    let budget_per_l = ((max_obligations.saturating_sub(1)).max(num_l) / num_l).max(1);
    let group_size = elements.len().div_ceil(budget_per_l);

    for (l, &window) in windows.iter().enumerate() {
        if ctx.is_false(window) {
            // This instruction count cannot occur; its obligations are trivial.
            continue;
        }
        for (g, group) in elements.chunks(group_size).enumerate() {
            let mut conj = ctx.true_id();
            for &m in group {
                conj = ctx.and(conj, problem.parts[l][m]);
            }
            let formula = ctx.implies(window, conj);
            if ctx.is_true(formula) {
                continue;
            }
            let names: Vec<&str> = group
                .iter()
                .map(|&m| &*problem.arch_elements[m].name)
                .collect();
            obligations.push(Obligation {
                name: format!("l={l} group{g} [{}]", names.join(",")),
                formula,
            });
        }
    }
    obligations
}

#[cfg(test)]
mod tests {
    use super::*;
    use velv_eufm::Evaluator;
    use velv_hdl::{Processor, StateElement, SymbolicState};

    struct Direct;

    static ELEMENTS: [StateElement; 3] = [
        StateElement::arch_term("pc"),
        StateElement::arch_memory("rf"),
        StateElement::arch_term("epc"),
    ];

    impl Processor for Direct {
        fn name(&self) -> &str {
            "direct"
        }
        fn state_elements(&self) -> &[StateElement] {
            &ELEMENTS
        }
        fn fetch_width(&self) -> usize {
            1
        }
        fn flush_cycles(&self) -> usize {
            0
        }
        fn step(
            &self,
            ctx: &mut Context,
            state: &SymbolicState,
            fetch_enabled: FormulaId,
        ) -> SymbolicState {
            let pc = state.term(0);
            let rf = state.term(1);
            let epc = state.term(2);
            let next_pc = ctx.uf("pc_plus_4", &[pc]);
            let dest = ctx.uf("imem_dest", &[pc]);
            let data = ctx.uf("imem_data", &[pc]);
            let written = ctx.write(rf, dest, data);
            let mut next = SymbolicState::unset(ELEMENTS.len());
            let pc_val = ctx.ite_term(fetch_enabled, next_pc, pc);
            let rf_val = ctx.ite_term(fetch_enabled, written, rf);
            next.set_term(0, pc_val);
            next.set_term(1, rf_val);
            next.set_term(2, epc);
            next
        }
    }

    #[test]
    fn produces_coverage_plus_grouped_obligations() {
        let problem = VerificationProblem::build(&Direct, &Direct, &[]);
        let mut ctx = problem.ctx.clone();
        let obligations = decompose(&problem, &mut ctx, 8);
        assert!(
            obligations.len() >= 3,
            "coverage + at least one group per l"
        );
        assert!(obligations.len() <= 8 + 2);
        assert_eq!(obligations[0].name, "coverage");
        for o in &obligations {
            assert!(ctx.is_formula(o.formula));
        }
    }

    #[test]
    fn obligations_imply_the_monolithic_criterion_semantically() {
        // For the obligations to be a sound decomposition, under every
        // interpretation where all obligations hold the monolithic criterion
        // must hold as well.  Spot-check with random interpretations.
        let problem = VerificationProblem::build(&Direct, &Direct, &[]);
        let mut ctx = problem.ctx.clone();
        let obligations = decompose(&problem, &mut ctx, 6);
        for seed in 0..32u64 {
            let mut interp = velv_eufm::Interpretation::new();
            // Give the free variables seed-derived values.
            let names: Vec<String> = ctx.symbols().iter().map(|(_, n)| n.to_owned()).collect();
            for (i, name) in names.iter().enumerate() {
                let h = seed.wrapping_mul(31).wrapping_add(i as u64);
                interp.set_term_var(&mut ctx, name, h % 5);
                interp.set_prop_var(&mut ctx, name, h % 3 == 0);
            }
            let mut ev = Evaluator::new(&ctx, interp);
            let all_obligations_hold = obligations.iter().all(|o| ev.eval_formula(o.formula));
            if all_obligations_hold {
                assert!(
                    ev.eval_formula(problem.criterion),
                    "obligations held but the monolithic criterion failed (seed {seed})"
                );
            }
        }
    }
}
