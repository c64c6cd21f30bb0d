//! Out-of-order superscalar models whose correctness proofs require
//! transitivity of equality (the FVP-UNSAT.2.0 designs of Tables 4 and 5).
//!
//! The implementation fetches `w` register–register instructions per cycle and
//! retires them *out of program order*: it walks the group from the youngest
//! instruction to the oldest and skips any instruction whose destination is
//! overwritten by a younger instruction of the same group (a write-after-write
//! check), while operands are obtained through an intra-group bypass network.
//! The specification executes the same instructions strictly in program order.
//! Proving the two register files equal requires combining the witness-address
//! comparisons `z = dest_i` with the WAW comparisons `dest_i = dest_j`, i.e.
//! transitivity of equality — exactly the property these benchmarks exercise.

use velv_eufm::{Context, FormulaId, TermId};
use velv_hdl::{Processor, StateElement, SymbolicState};

/// The state layout of both the implementation and the specification: the
/// architectural state only, so a step leaves nothing in flight.
static ELEMENTS: [StateElement; 2] = [
    StateElement::arch_term("pc"),
    StateElement::arch_memory("rf"),
];

/// Positions in [`ELEMENTS`].
const PC: usize = 0;
const RF: usize = 1;

/// The out-of-order implementation, parameterised by issue width.
#[derive(Clone, Debug)]
pub struct Ooo {
    width: usize,
    name: String,
}

impl Ooo {
    /// Creates the implementation with the given issue width (2..=6 in the paper).
    pub fn new(width: usize) -> Self {
        assert!(width >= 1, "issue width must be positive");
        Ooo {
            width,
            name: format!("OOO-{width}wide"),
        }
    }

    /// The issue width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Decoded fields of the `i`-th instruction of the group starting at `pc`.
    fn instr(ctx: &mut Context, pc: TermId, index: usize) -> (TermId, TermId, TermId, TermId) {
        let mut fetch_pc = pc;
        for _ in 0..index {
            fetch_pc = ctx.uf("pc_plus_4", &[fetch_pc]);
        }
        let op = ctx.uf("imem_op", &[fetch_pc]);
        let src = ctx.uf("imem_src1", &[fetch_pc]);
        let dest = ctx.uf("imem_dest", &[fetch_pc]);
        (fetch_pc, op, src, dest)
    }
}

impl Processor for Ooo {
    fn name(&self) -> &str {
        &self.name
    }

    fn state_elements(&self) -> &[StateElement] {
        &ELEMENTS
    }

    fn fetch_width(&self) -> usize {
        self.width
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
        let w = self.width;

        // Decode the group and compute every result through the bypass network:
        // instruction i reads the value produced by the latest older instruction
        // writing its source register, falling back to the register file.
        let mut decoded = Vec::with_capacity(w);
        for i in 0..w {
            decoded.push(Ooo::instr(ctx, pc, i));
        }
        let mut results: Vec<TermId> = Vec::with_capacity(w);
        for i in 0..w {
            let (_, op, src, _) = decoded[i];
            let mut operand = ctx.read(rf, src);
            for j in 0..i {
                let (_, _, _, dest_j) = decoded[j];
                let matches = ctx.eq(src, dest_j);
                operand = ctx.ite_term(matches, results[j], operand);
            }
            results.push(ctx.uf("alu", &[op, operand]));
        }

        // Out-of-order retirement: youngest first, skipping instructions whose
        // destination is overwritten by a younger instruction of the group.
        let mut rf_next = rf;
        for i in (0..w).rev() {
            let (_, _, _, dest_i) = decoded[i];
            let mut overwritten = ctx.false_id();
            for &(_, _, _, dest_j) in &decoded[(i + 1)..w] {
                let same = ctx.eq(dest_i, dest_j);
                overwritten = ctx.or(overwritten, same);
            }
            let retire = ctx.not(overwritten);
            let written = ctx.write(rf_next, dest_i, results[i]);
            rf_next = ctx.ite_term(retire, written, rf_next);
        }

        let mut next_pc = pc;
        for _ in 0..w {
            next_pc = ctx.uf("pc_plus_4", &[next_pc]);
        }

        let mut next = SymbolicState::unset(ELEMENTS.len());
        let pc_value = ctx.ite_term(fetch_enabled, next_pc, pc);
        let rf_value = ctx.ite_term(fetch_enabled, rf_next, rf);
        next.set_term(PC, pc_value);
        next.set_term(RF, rf_value);
        next
    }

    fn completion_windows(
        &self,
        ctx: &mut Context,
        _initial: &SymbolicState,
        _stepped: &SymbolicState,
    ) -> Option<Vec<FormulaId>> {
        // Every instruction of the group always completes.
        let mut windows = vec![ctx.false_id(); self.width + 1];
        windows[self.width] = ctx.true_id();
        Some(windows)
    }
}

/// The in-order, one-instruction-per-step specification.
#[derive(Clone, Debug, Default)]
pub struct OooSpecification;

impl OooSpecification {
    /// Creates the specification.
    pub fn new() -> Self {
        OooSpecification
    }
}

impl Processor for OooSpecification {
    fn name(&self) -> &str {
        "OOO-spec"
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
        let pc = state.term(PC);
        let rf = state.term(RF);
        let op = ctx.uf("imem_op", &[pc]);
        let src = ctx.uf("imem_src1", &[pc]);
        let dest = ctx.uf("imem_dest", &[pc]);
        let operand = ctx.read(rf, src);
        let result = ctx.uf("alu", &[op, operand]);
        let written = ctx.write(rf, dest, result);
        let next_pc = ctx.uf("pc_plus_4", &[pc]);

        let mut next = SymbolicState::unset(ELEMENTS.len());
        let pc_value = ctx.ite_term(fetch_enabled, next_pc, pc);
        let rf_value = ctx.ite_term(fetch_enabled, written, rf);
        next.set_term(PC, pc_value);
        next.set_term(RF, rf_value);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_state_match_the_specification() {
        for w in 2..=6 {
            let implementation = Ooo::new(w);
            assert_eq!(implementation.width(), w);
            assert_eq!(implementation.fetch_width(), w);
            assert_eq!(
                implementation.arch_state(),
                OooSpecification::new().arch_state()
            );
        }
    }

    #[test]
    fn step_produces_complete_states() {
        let implementation = Ooo::new(3);
        let mut ctx = Context::new();
        let initial = SymbolicState::initial(&mut ctx, implementation.state_elements(), "");
        let enabled = ctx.true_id();
        let next = implementation.step(&mut ctx, &initial, enabled);
        assert!(next.is_complete());
        let windows = implementation
            .completion_windows(&mut ctx, &initial, &next)
            .expect("windows provided");
        assert_eq!(windows.len(), 4);
        assert!(ctx.is_true(windows[3]));
    }
}
