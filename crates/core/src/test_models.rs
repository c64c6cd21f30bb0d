//! Small processor models used only by this crate's unit tests.
//!
//! `PipelinedToy` is a two-stage accumulator pipeline with a forwarding path
//! from its single pipeline latch to the operand of the next instruction, so
//! the Burch–Dill criterion it produces is genuinely non-trivial (memory
//! elimination, UF elimination and g-equation encoding all have work to do),
//! yet small enough that every back end decides it instantly.

use velv_eufm::{Context, FormulaId};
use velv_hdl::{Processor, StateElement, SymbolicState};

/// The kinds of bugs the toy implementation can be built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ToyBug {
    /// The forwarding path ignores the latch valid bit (omitted gate input).
    ForwardingIgnoresValid,
    /// The write-back stores the destination register identifier instead of
    /// the result (incorrect input to a memory).
    WritesWrongData,
}

/// The layout of the pipelined toy: the architectural state, then its one
/// pipeline latch.  The specification's layout is the architectural prefix.
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

/// Two-stage pipelined implementation.
pub(crate) struct PipelinedToy {
    pub bug: Option<ToyBug>,
}

impl PipelinedToy {
    pub fn correct() -> Self {
        PipelinedToy { bug: None }
    }

    pub fn buggy(bug: ToyBug) -> Self {
        PipelinedToy { bug: Some(bug) }
    }
}

impl Processor for PipelinedToy {
    fn name(&self) -> &str {
        match self.bug {
            None => "toy-pipe",
            Some(_) => "toy-pipe-buggy",
        }
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

        // Write-back of the instruction in the latch.
        let wb_data = match self.bug {
            Some(ToyBug::WritesWrongData) => dest,
            _ => data,
        };
        let written = ctx.write(rf, dest, wb_data);
        let rf_next = ctx.ite_term(valid, written, rf);

        // Fetch and execute a new instruction (reads the old register file and
        // forwards from the latch when the source matches the pending destination).
        let op = ctx.uf("imem_op", &[pc]);
        let src = ctx.uf("imem_src", &[pc]);
        let new_dest = ctx.uf("imem_dest", &[pc]);
        let src_matches = ctx.eq(src, dest);
        let forward = match self.bug {
            Some(ToyBug::ForwardingIgnoresValid) => src_matches,
            _ => ctx.and(valid, src_matches),
        };
        let rf_read = ctx.read(rf, src);
        let operand = ctx.ite_term(forward, data, rf_read);
        let result = ctx.uf("alu", &[op, operand]);

        let pc_plus = ctx.uf("pc_plus_4", &[pc]);
        let pc_next = ctx.ite_term(fetch_enabled, pc_plus, pc);

        let mut next = SymbolicState::unset(ELEMENTS.len());
        next.set_term(PC, pc_next);
        next.set_term(RF, rf_next);
        next.set_formula(VALID, fetch_enabled);
        let latched_dest = ctx.ite_term(fetch_enabled, new_dest, dest);
        let latched_data = ctx.ite_term(fetch_enabled, result, data);
        next.set_term(DEST, latched_dest);
        next.set_term(DATA, latched_data);
        next
    }

    fn completion_windows(
        &self,
        ctx: &mut Context,
        _initial: &SymbolicState,
        _stepped: &SymbolicState,
    ) -> Option<Vec<FormulaId>> {
        // The toy never squashes: the fetched instruction always completes.
        Some(vec![ctx.false_id(), ctx.true_id()])
    }
}

/// The single-cycle specification of the toy ISA.
pub(crate) struct ToySpec;

impl Processor for ToySpec {
    fn name(&self) -> &str {
        "toy-spec"
    }

    fn state_elements(&self) -> &[StateElement] {
        &ELEMENTS[..VALID]
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
        let pc = state.term(PC);
        let rf = state.term(RF);
        let op = ctx.uf("imem_op", &[pc]);
        let src = ctx.uf("imem_src", &[pc]);
        let dest = ctx.uf("imem_dest", &[pc]);
        let operand = ctx.read(rf, src);
        let result = ctx.uf("alu", &[op, operand]);
        let written = ctx.write(rf, dest, result);
        let pc_plus = ctx.uf("pc_plus_4", &[pc]);

        let mut next = SymbolicState::unset(VALID);
        let pc_next = ctx.ite_term(fetch_enabled, pc_plus, pc);
        let rf_next = ctx.ite_term(fetch_enabled, written, rf);
        next.set_term(PC, pc_next);
        next.set_term(RF, rf_next);
        next
    }
}
