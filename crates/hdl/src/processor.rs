//! The [`Processor`] trait and the symbolic-simulation helpers (step, flush).

use crate::state::{StateElement, SymbolicState};
use velv_eufm::{Context, FormulaId};

/// A term-level processor model.
///
/// Both the pipelined/superscalar/VLIW *implementation* and the single-cycle
/// *specification* of a benchmark implement this trait.  The two must use the
/// same uninterpreted-function and -predicate names for the shared logic
/// blocks (ALUs, instruction memory, PC incrementer, ...) and declare the same
/// architectural state elements — that is what makes the Burch–Dill
/// commutative diagram meaningful.
pub trait Processor {
    /// Name of the design (e.g. `"1xDLX-C"`).
    fn name(&self) -> &str;

    /// All state elements, architectural and micro-architectural: the
    /// layout of this design's [`SymbolicState`]s, built once when the design
    /// is constructed.  A state's value at position `i` belongs to element
    /// `i` of this slice.
    fn state_elements(&self) -> &[StateElement];

    /// The architectural state elements (the ISA-visible subset), in layout
    /// order: the layout of [`SymbolicState::architectural`].
    fn arch_state(&self) -> Vec<StateElement> {
        self.state_elements()
            .iter()
            .filter(|e| e.architectural)
            .cloned()
            .collect()
    }

    /// Maximum number of instructions the design can fetch (and hence
    /// complete) per clock cycle — the `k` of the Burch–Dill criterion.
    fn fetch_width(&self) -> usize;

    /// Number of clock cycles with fetching disabled that are guaranteed to
    /// drain every in-flight instruction into architectural state.
    fn flush_cycles(&self) -> usize;

    /// Performs one symbolic clock cycle.
    ///
    /// `fetch_enabled` controls whether new instructions may enter the
    /// pipeline; flushing passes `false` so that in-flight instructions
    /// complete while no new work starts.  `state` and the returned state
    /// are laid out by [`Processor::state_elements`], and the returned state
    /// must set every element of it.
    fn step(
        &self,
        ctx: &mut Context,
        state: &SymbolicState,
        fetch_enabled: FormulaId,
    ) -> SymbolicState;

    /// Optional *completion windows* used by the decomposed ("weak criteria")
    /// evaluation of the correctness criterion.
    ///
    /// `windows[l]` must be a control-level formula (over the initial state
    /// `initial` and the post-step state `stepped`) that holds exactly when
    /// `l` of the instructions fetched during the verified clock cycle will
    /// eventually update architectural state (i.e. are not squashed).  The
    /// disjunction of the windows must be valid.  Designs that do not supply
    /// windows (`None`, the default) are decomposed with a sound but
    /// unoptimised fallback.
    fn completion_windows(
        &self,
        _ctx: &mut Context,
        _initial: &SymbolicState,
        _stepped: &SymbolicState,
    ) -> Option<Vec<FormulaId>> {
        None
    }
}

/// Simulates `steps` clock cycles with fetching enabled.
pub fn simulate(
    ctx: &mut Context,
    processor: &dyn Processor,
    state: &SymbolicState,
    steps: usize,
) -> SymbolicState {
    let enabled = ctx.true_id();
    let mut current = state.clone();
    for _ in 0..steps {
        current = processor.step(ctx, &current, enabled);
    }
    current
}

/// Flushes the pipeline: simulates [`Processor::flush_cycles`] cycles with
/// fetching disabled, so that every instruction in flight completes and the
/// state can be projected onto the architectural elements.
pub fn flush(ctx: &mut Context, processor: &dyn Processor, state: &SymbolicState) -> SymbolicState {
    let disabled = ctx.false_id();
    let mut current = state.clone();
    for _ in 0..processor.flush_cycles() {
        current = processor.step(ctx, &current, disabled);
    }
    current
}

/// Flushes and projects onto the architectural state in one call.
pub fn flush_to_arch(
    ctx: &mut Context,
    processor: &dyn Processor,
    state: &SymbolicState,
) -> SymbolicState {
    let flushed = flush(ctx, processor, state);
    flushed.architectural(processor.state_elements())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateKind;

    /// A toy 2-stage "processor": stage latch holds a pending register write
    /// that retires into the register file one cycle later.
    struct Toy;

    static ELEMENTS: [StateElement; 5] = [
        StateElement::arch_term("pc"),
        StateElement::arch_memory("rf"),
        StateElement::pipe_flag("latch.valid"),
        StateElement::pipe_term("latch.dest"),
        StateElement::pipe_term("latch.data"),
    ];

    /// Positions in [`ELEMENTS`].
    const PC: usize = 0;
    const RF: usize = 1;
    const VALID: usize = 2;
    const DEST: usize = 3;
    const DATA: usize = 4;

    impl Processor for Toy {
        fn name(&self) -> &str {
            "toy"
        }

        fn state_elements(&self) -> &[StateElement] {
            &ELEMENTS
        }

        fn fetch_width(&self) -> usize {
            1
        }

        fn flush_cycles(&self) -> usize {
            1
        }

        fn step(
            &self,
            ctx: &mut Context,
            state: &SymbolicState,
            fetch_enabled: FormulaId,
        ) -> SymbolicState {
            let pc = state.term(PC);
            let rf = state.term(RF);
            let valid = state.formula(VALID);
            let dest = state.term(DEST);
            let data = state.term(DATA);

            // Retire the latched write.
            let written = ctx.write(rf, dest, data);
            let rf_next = ctx.ite_term(valid, written, rf);

            // Fetch a new instruction when allowed.
            let new_dest = ctx.uf("imem_dest", &[pc]);
            let new_data = ctx.uf("imem_data", &[pc]);
            let pc_plus = ctx.uf("pc_plus_4", &[pc]);
            let pc_next = ctx.ite_term(fetch_enabled, pc_plus, pc);

            let mut next = SymbolicState::unset(ELEMENTS.len());
            next.set_term(PC, pc_next);
            next.set_term(RF, rf_next);
            next.set_formula(VALID, fetch_enabled);
            next.set_term(DEST, ctx.ite_term(fetch_enabled, new_dest, dest));
            next.set_term(DATA, ctx.ite_term(fetch_enabled, new_data, data));
            next
        }
    }

    #[test]
    fn arch_state_filters_architectural_elements() {
        let toy = Toy;
        let arch = toy.arch_state();
        assert_eq!(arch.len(), 2);
        assert!(arch.iter().all(|e| e.architectural));
        assert!(arch.iter().any(|e| e.kind == StateKind::Memory));
    }

    #[test]
    fn step_produces_complete_states() {
        let mut ctx = Context::new();
        let toy = Toy;
        let initial = SymbolicState::initial(&mut ctx, toy.state_elements(), "");
        let enabled = ctx.true_id();
        let next = toy.step(&mut ctx, &initial, enabled);
        assert_eq!(next.len(), ELEMENTS.len());
        assert!(next.is_complete());
    }

    #[test]
    fn flush_disables_fetch() {
        let mut ctx = Context::new();
        let toy = Toy;
        let initial = SymbolicState::initial(&mut ctx, toy.state_elements(), "");
        let flushed = flush(&mut ctx, &toy, &initial);
        // After flushing, the latch is invalid (fetch was disabled).
        assert!(ctx.is_false(flushed.formula(VALID)));
        // And the PC did not advance.
        assert_eq!(flushed.term(PC), initial.term(PC));
    }

    #[test]
    fn flush_to_arch_projects() {
        let mut ctx = Context::new();
        let toy = Toy;
        let initial = SymbolicState::initial(&mut ctx, toy.state_elements(), "");
        let arch = flush_to_arch(&mut ctx, &toy, &initial);
        assert_eq!(arch.len(), 2);
        assert!(arch.is_complete());
    }

    #[test]
    fn simulate_advances_multiple_cycles() {
        let mut ctx = Context::new();
        let toy = Toy;
        let initial = SymbolicState::initial(&mut ctx, toy.state_elements(), "");
        let after2 = simulate(&mut ctx, &toy, &initial, 2);
        assert_ne!(after2.term(PC), initial.term(PC));
    }
}
