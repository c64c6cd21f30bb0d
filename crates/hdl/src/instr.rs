//! Instruction-field bundles: the read-only instruction memory as a family of
//! uninterpreted functions and predicates applied to the program counter.
//!
//! The benchmark designs assume no self-modifying code, which lets the
//! instruction memory be abstracted by UFs/UPs of the fetch PC (Section 2.1 of
//! the paper): one UF per word-level field (opcode, source and destination
//! register identifiers, immediate) and one UP per control classification
//! (register–register ALU, loads, stores, branches, jumps, ...).

use velv_eufm::{Context, FormulaId, TermId};

/// The decoded fields of one fetched instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrFields {
    /// Opcode (selects the ALU operation).
    pub op: TermId,
    /// First source register identifier.
    pub src1: TermId,
    /// Second source register identifier.
    pub src2: TermId,
    /// Destination register identifier.
    pub dest: TermId,
    /// Immediate operand.
    pub imm: TermId,
    /// Register–register ALU instruction.
    pub is_alu_reg: FormulaId,
    /// Register–immediate ALU instruction.
    pub is_alu_imm: FormulaId,
    /// Load instruction.
    pub is_load: FormulaId,
    /// Store instruction.
    pub is_store: FormulaId,
    /// Conditional branch instruction.
    pub is_branch: FormulaId,
    /// Unconditional jump instruction.
    pub is_jump: FormulaId,
    /// Whether the instruction writes the register file.
    pub writes_rf: FormulaId,
    /// Whether the second operand comes from the immediate field.
    pub uses_imm: FormulaId,
}

/// One instruction memory: the names of its field UFs and UPs, formatted
/// once when a design is constructed so that every fetch applies them
/// without building a name.
///
/// All designs (implementation and specification) must use the same prefix
/// for the same instruction memory so that the abstractions agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstrMemory {
    op: String,
    src1: String,
    src2: String,
    dest: String,
    imm: String,
    is_alu_reg: String,
    is_alu_imm: String,
    is_load: String,
    is_store: String,
    is_branch: String,
    is_jump: String,
}

impl InstrMemory {
    /// The instruction memory whose fields are named `{prefix}_{field}`.
    pub fn new(prefix: &str) -> Self {
        let name = |field: &str| format!("{prefix}_{field}");
        InstrMemory {
            op: name("op"),
            src1: name("src1"),
            src2: name("src2"),
            dest: name("dest"),
            imm: name("imm"),
            is_alu_reg: name("is_alu_reg"),
            is_alu_imm: name("is_alu_imm"),
            is_load: name("is_load"),
            is_store: name("is_store"),
            is_branch: name("is_branch"),
            is_jump: name("is_jump"),
        }
    }

    /// Fetches and decodes the instruction at `pc`.
    pub fn fetch(&self, ctx: &mut Context, pc: TermId) -> InstrFields {
        let op = ctx.uf(&self.op, &[pc]);
        let src1 = ctx.uf(&self.src1, &[pc]);
        let src2 = ctx.uf(&self.src2, &[pc]);
        let dest = ctx.uf(&self.dest, &[pc]);
        let imm = ctx.uf(&self.imm, &[pc]);
        let is_alu_reg = ctx.up(&self.is_alu_reg, &[pc]);
        let is_alu_imm = ctx.up(&self.is_alu_imm, &[pc]);
        let is_load = ctx.up(&self.is_load, &[pc]);
        let is_store = ctx.up(&self.is_store, &[pc]);
        let is_branch = ctx.up(&self.is_branch, &[pc]);
        let is_jump = ctx.up(&self.is_jump, &[pc]);
        // Derived controls: loads and ALU instructions write the register file;
        // register-immediate ALU instructions and loads use the immediate.
        let alu_any = ctx.or(is_alu_reg, is_alu_imm);
        let writes_rf = ctx.or(alu_any, is_load);
        let uses_imm = ctx.or(is_alu_imm, is_load);
        InstrFields {
            op,
            src1,
            src2,
            dest,
            imm,
            is_alu_reg,
            is_alu_imm,
            is_load,
            is_store,
            is_branch,
            is_jump,
            writes_rf,
            uses_imm,
        }
    }
}

impl InstrFields {
    /// A "bubble": an instruction that has no architectural effect.  Used when
    /// a pipeline stage must be filled with a no-op (stalls, squashes,
    /// flushing).  Word-level fields keep their previous values (they are
    /// don't-cares once the control bits are off).
    pub fn bubble(ctx: &mut Context, template: &InstrFields) -> Self {
        let f = ctx.false_id();
        InstrFields {
            is_alu_reg: f,
            is_alu_imm: f,
            is_load: f,
            is_store: f,
            is_branch: f,
            is_jump: f,
            writes_rf: f,
            uses_imm: f,
            ..*template
        }
    }

    /// Multiplexes two instruction bundles under `cond` (`cond` true selects
    /// `then_i`).
    pub fn mux(
        ctx: &mut Context,
        cond: FormulaId,
        then_i: &InstrFields,
        else_i: &InstrFields,
    ) -> Self {
        InstrFields {
            op: ctx.ite_term(cond, then_i.op, else_i.op),
            src1: ctx.ite_term(cond, then_i.src1, else_i.src1),
            src2: ctx.ite_term(cond, then_i.src2, else_i.src2),
            dest: ctx.ite_term(cond, then_i.dest, else_i.dest),
            imm: ctx.ite_term(cond, then_i.imm, else_i.imm),
            is_alu_reg: ctx.ite_formula(cond, then_i.is_alu_reg, else_i.is_alu_reg),
            is_alu_imm: ctx.ite_formula(cond, then_i.is_alu_imm, else_i.is_alu_imm),
            is_load: ctx.ite_formula(cond, then_i.is_load, else_i.is_load),
            is_store: ctx.ite_formula(cond, then_i.is_store, else_i.is_store),
            is_branch: ctx.ite_formula(cond, then_i.is_branch, else_i.is_branch),
            is_jump: ctx.ite_formula(cond, then_i.is_jump, else_i.is_jump),
            writes_rf: ctx.ite_formula(cond, then_i.writes_rf, else_i.writes_rf),
            uses_imm: ctx.ite_formula(cond, then_i.uses_imm, else_i.uses_imm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_is_deterministic_in_pc() {
        let mut ctx = Context::new();
        let imem = InstrMemory::new("imem");
        let pc = ctx.term_var("pc0");
        let a = imem.fetch(&mut ctx, pc);
        let b = imem.fetch(&mut ctx, pc);
        assert_eq!(a, b, "same PC gives the same decoded fields");
        assert_eq!(a.op, ctx.uf("imem_op", &[pc]), "fields are named by prefix");
        let other_pc = ctx.term_var("pc1");
        let c = imem.fetch(&mut ctx, other_pc);
        assert_ne!(a.op, c.op);
    }

    #[test]
    fn different_memories_are_distinct() {
        let mut ctx = Context::new();
        let pc = ctx.term_var("pc0");
        let a = InstrMemory::new("imem").fetch(&mut ctx, pc);
        let b = InstrMemory::new("imem2").fetch(&mut ctx, pc);
        assert_ne!(a.op, b.op);
    }

    #[test]
    fn bubble_disables_all_effects() {
        let mut ctx = Context::new();
        let pc = ctx.term_var("pc0");
        let instr = InstrMemory::new("imem").fetch(&mut ctx, pc);
        let bubble = InstrFields::bubble(&mut ctx, &instr);
        assert!(ctx.is_false(bubble.writes_rf));
        assert!(ctx.is_false(bubble.is_store));
        assert!(ctx.is_false(bubble.is_branch));
        assert_eq!(
            bubble.op, instr.op,
            "word-level fields are retained as don't-cares"
        );
    }

    #[test]
    fn mux_selects_between_bundles() {
        let mut ctx = Context::new();
        let pc0 = ctx.term_var("pc0");
        let pc1 = ctx.term_var("pc1");
        let imem = InstrMemory::new("imem");
        let a = imem.fetch(&mut ctx, pc0);
        let b = imem.fetch(&mut ctx, pc1);
        let t = ctx.true_id();
        let f = ctx.false_id();
        assert_eq!(InstrFields::mux(&mut ctx, t, &a, &b), a);
        assert_eq!(InstrFields::mux(&mut ctx, f, &a, &b), b);
        let sel = ctx.prop_var("sel");
        let muxed = InstrFields::mux(&mut ctx, sel, &a, &b);
        assert_ne!(muxed, a);
        assert_ne!(muxed, b);
    }
}
