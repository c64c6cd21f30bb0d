//! Build your own processor with the term-level modeling toolkit and verify it.
//!
//! The design is a two-stage accumulator pipeline with a forwarding path; the
//! example verifies the correct version and then a version whose forwarding
//! logic ignores the latch valid bit (a classic "omitted gate input" bug).
//!
//! Run with `cargo run --release --example custom_pipeline`.

use velv::prelude::*;
use velv_eufm::FormulaId;

struct MiniPipe {
    forwarding_checks_valid: bool,
}

/// The pipeline's state layout: the architectural state (the specification's
/// whole layout), then the pipeline latch.  States hold one value per element
/// and are read and written by position.
static ELEMENTS: [StateElement; 5] = [
    StateElement::arch_term("pc"),
    StateElement::arch_memory("rf"),
    StateElement::pipe_flag("latch.valid"),
    StateElement::pipe_term("latch.dest"),
    StateElement::pipe_term("latch.data"),
];

/// Positions in `ELEMENTS`.
const PC: usize = 0;
const RF: usize = 1;
const VALID: usize = 2;
const DEST: usize = 3;
const DATA: usize = 4;

impl Processor for MiniPipe {
    fn name(&self) -> &str {
        "mini-pipe"
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

        // Write-back of the latched instruction.
        let written = ctx.write(rf, dest, data);
        let rf_next = ctx.ite_term(valid, written, rf);

        // Fetch and execute a new instruction, forwarding from the latch.
        let op = ctx.uf("imem_op", &[pc]);
        let src = ctx.uf("imem_src", &[pc]);
        let new_dest = ctx.uf("imem_dest", &[pc]);
        let src_matches = ctx.eq(src, dest);
        let forward = if self.forwarding_checks_valid {
            ctx.and(valid, src_matches)
        } else {
            src_matches
        };
        let rf_read = ctx.read(rf, src);
        let operand = ctx.ite_term(forward, data, rf_read);
        let result = ctx.uf("alu", &[op, operand]);
        let pc_plus = ctx.uf("pc_plus_4", &[pc]);

        let mut next = SymbolicState::unset(ELEMENTS.len());
        next.set_term(PC, ctx.ite_term(fetch_enabled, pc_plus, pc));
        next.set_term(RF, rf_next);
        next.set_formula(VALID, fetch_enabled);
        next.set_term(DEST, ctx.ite_term(fetch_enabled, new_dest, dest));
        next.set_term(DATA, ctx.ite_term(fetch_enabled, result, data));
        next
    }
}

struct MiniSpec;

impl Processor for MiniSpec {
    fn name(&self) -> &str {
        "mini-spec"
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
        next.set_term(PC, ctx.ite_term(fetch_enabled, pc_plus, pc));
        next.set_term(RF, ctx.ite_term(fetch_enabled, written, rf));
        next
    }
}

fn main() {
    let verifier = Verifier::new(TranslationOptions::default());
    for (label, forwarding_checks_valid) in [("correct", true), ("buggy forwarding", false)] {
        let implementation = MiniPipe {
            forwarding_checks_valid,
        };
        let mut solver = CdclSolver::chaff();
        let verdict = verifier.verify(&implementation, &MiniSpec, &mut solver);
        println!(
            "{label:<18} -> {}",
            match &verdict {
                Verdict::Correct => "verified correct".to_owned(),
                Verdict::Buggy(cex) => format!(
                    "bug found ({} primary variables in the counterexample)",
                    cex.len()
                ),
                Verdict::Unknown(reason) => format!("unknown: {reason}"),
            }
        );
    }
}
