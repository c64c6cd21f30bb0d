//! Construction of the Burch–Dill correctness criterion by flushing.
//!
//! The criterion compares two paths of the commutative diagram:
//!
//! * **Implementation side**: from an arbitrary symbolic pipeline state, run
//!   one normal clock cycle (fetching enabled) and then flush; project the
//!   result onto the architectural state.
//! * **Specification side**: flush the *same* initial state first, project onto
//!   the architectural state, and run the specification for `l = 0, 1, ..., k`
//!   steps, where `k` is the implementation's fetch width.
//!
//! The processor is correct when, for some `l`, every architectural state
//! element matches: `⋁_l ⋀_m f_{l,m}`.  The individual `f_{l,m}` formulas are
//! retained so that the decomposed ("weak criteria") evaluation of Section 7
//! can be generated as well.

use std::collections::BTreeSet;
use velv_eufm::{Context, FormulaId, Symbol};
use velv_hdl::processor::{flush, simulate};
use velv_hdl::{Processor, StateElement, StateKind, SymbolicState};

/// The correctness problem of one implementation/specification pair.
#[derive(Clone, Debug)]
pub struct VerificationProblem {
    /// Expression context owning the correctness formulas.
    pub ctx: Context,
    /// The monolithic correctness criterion (must be valid).
    pub criterion: FormulaId,
    /// `parts[l][m]`: state element `m` matches after `l` specification steps.
    pub parts: Vec<Vec<FormulaId>>,
    /// Optional control-level completion windows supplied by the
    /// implementation (see [`Processor::completion_windows`]); `windows[l]`
    /// holds when exactly `l` fetched instructions complete.
    pub windows: Option<Vec<FormulaId>>,
    /// The architectural state elements, in the order used by `parts`.
    pub arch_elements: Vec<StateElement>,
    /// Initial-state variables that denote memory arrays.
    pub memory_vars: BTreeSet<Symbol>,
    /// Name of the implementation design.
    pub name: String,
    /// Fetch width `k` of the implementation.
    pub fetch_width: usize,
}

impl VerificationProblem {
    /// Builds the correctness problem for an implementation/specification pair.
    ///
    /// `translation_boxes` lists architectural state elements whose values are
    /// wrapped in dummy unary UFs on both sides before comparison — the
    /// conservative approximation of Section 8.
    ///
    /// # Panics
    ///
    /// Panics if the two processors do not declare the same architectural
    /// state elements.
    pub fn build(
        implementation: &dyn Processor,
        specification: &dyn Processor,
        translation_boxes: &[String],
    ) -> Self {
        let mut ctx = Context::new();
        let elements = implementation.state_elements();
        let arch_elements = implementation.arch_state();
        let spec_elements = specification.arch_state();
        assert_eq!(
            arch_elements, spec_elements,
            "implementation and specification must declare identical architectural state"
        );

        // Record which initial-state variables denote memories.
        let memory_vars: BTreeSet<Symbol> = elements
            .iter()
            .filter(|e| e.kind == StateKind::Memory)
            .map(|e| ctx.symbol(&e.name))
            .collect();

        // Arbitrary symbolic initial implementation state.
        let initial = SymbolicState::initial(&mut ctx, elements, "");

        // Implementation side: one step, then flush, then project.
        let enabled = ctx.true_id();
        let stepped = implementation.step(&mut ctx, &initial, enabled);
        let windows = implementation.completion_windows(&mut ctx, &initial, &stepped);
        if let Some(w) = &windows {
            assert_eq!(
                w.len(),
                implementation.fetch_width() + 1,
                "completion windows must cover 0..=fetch_width instructions"
            );
        }
        let impl_flushed = flush(&mut ctx, implementation, &stepped);
        let impl_arch = impl_flushed.architectural(elements);

        // Specification side: flush first, project, then 0..k specification steps.
        let spec_start_full = flush(&mut ctx, implementation, &initial);
        let spec_start = spec_start_full.architectural(elements);
        let k = implementation.fetch_width();
        let mut spec_states = Vec::with_capacity(k + 1);
        spec_states.push(spec_start.clone());
        let mut current = spec_start;
        for _ in 0..k {
            current = simulate(&mut ctx, specification, &current, 1);
            spec_states.push(current.clone());
        }

        // Per-element, per-step match formulas.
        let impl_cmp =
            apply_translation_boxes(&mut ctx, &impl_arch, &arch_elements, translation_boxes);
        let mut parts = Vec::with_capacity(k + 1);
        for spec_state in &spec_states {
            let spec_cmp =
                apply_translation_boxes(&mut ctx, spec_state, &arch_elements, translation_boxes);
            let row: Vec<FormulaId> = (0..arch_elements.len())
                .map(|element| impl_cmp.element_equal(&mut ctx, &spec_cmp, element))
                .collect();
            parts.push(row);
        }

        // Monolithic criterion: ⋁_l ⋀_m parts[l][m].
        let mut criterion = ctx.false_id();
        for row in &parts {
            let all = ctx.and_many(row.iter().copied());
            criterion = ctx.or(criterion, all);
        }

        VerificationProblem {
            ctx,
            criterion,
            parts,
            windows,
            arch_elements,
            memory_vars,
            name: implementation.name().to_owned(),
            fetch_width: k,
        }
    }

    /// Number of architectural state elements.
    pub fn num_arch_elements(&self) -> usize {
        self.arch_elements.len()
    }
}

/// Wraps the designated elements of a state in dummy unary UFs ("translation
/// boxes"), which forces common-subexpression substitution on both sides of
/// the diagram.  Term and memory elements are wrapped; flags are left alone.
fn apply_translation_boxes(
    ctx: &mut Context,
    state: &SymbolicState,
    elements: &[StateElement],
    boxes: &[String],
) -> SymbolicState {
    if boxes.is_empty() {
        return state.clone();
    }
    let mut wrapped = state.clone();
    for (index, element) in elements.iter().enumerate() {
        if !boxes.iter().any(|name| *name == element.name) {
            continue;
        }
        if matches!(element.kind, StateKind::Term | StateKind::Memory) {
            let value = state.term(index);
            let boxed = ctx.uf(&format!("tbox#{}", element.name), &[value]);
            wrapped.set_term(index, boxed);
        }
    }
    wrapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_models::{PipelinedToy, ToySpec};
    use velv_eufm::DagStats;

    #[test]
    fn pipelined_toy_builds_a_problem() {
        let implementation = PipelinedToy::correct();
        let spec = ToySpec;
        let problem = VerificationProblem::build(&implementation, &spec, &[]);
        assert_eq!(problem.fetch_width, 1);
        assert_eq!(problem.num_arch_elements(), 2);
        assert_eq!(problem.parts.len(), 2, "l = 0 and l = 1");
        assert_eq!(problem.parts[0].len(), 2);
        assert_eq!(problem.memory_vars.len(), 1);
        // The criterion is a non-trivial formula over the initial state.
        assert!(!problem.ctx.is_false(problem.criterion));
        assert!(!problem.ctx.is_true(problem.criterion));
        let stats = DagStats::of_formula(&problem.ctx, problem.criterion);
        assert!(stats.equations > 0);
        assert!(stats.uf_apps > 0);
    }

    #[test]
    fn translation_boxes_wrap_the_compared_values() {
        let implementation = PipelinedToy::correct();
        let spec = ToySpec;
        let plain = VerificationProblem::build(&implementation, &spec, &[]);
        let boxed =
            VerificationProblem::build(&implementation, &spec, &["pc".to_owned(), "rf".to_owned()]);
        let plain_stats = DagStats::of_formula(&plain.ctx, plain.criterion);
        let boxed_stats = DagStats::of_formula(&boxed.ctx, boxed.criterion);
        assert!(
            boxed_stats.uf_apps > plain_stats.uf_apps,
            "translation boxes add UF applications"
        );
    }

    #[test]
    #[should_panic(expected = "identical architectural state")]
    fn mismatched_architectural_state_is_rejected() {
        struct Other;
        static OTHER: [StateElement; 1] = [StateElement::arch_term("pc")];
        impl Processor for Other {
            fn name(&self) -> &str {
                "other"
            }
            fn state_elements(&self) -> &[StateElement] {
                &OTHER
            }
            fn fetch_width(&self) -> usize {
                1
            }
            fn flush_cycles(&self) -> usize {
                0
            }
            fn step(
                &self,
                _ctx: &mut Context,
                state: &SymbolicState,
                _fetch_enabled: FormulaId,
            ) -> SymbolicState {
                state.clone()
            }
        }
        let _ = VerificationProblem::build(&ToySpec, &Other, &[]);
    }
}
