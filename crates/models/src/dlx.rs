//! The DLX benchmark pipelines: 1×DLX-C, 2×DLX-CC and 2×DLX-CC-EX-BP.
//!
//! The implementation is an in-order pipeline with a combinational
//! fetch/decode stage followed by Execute, Memory and Write-Back latches
//! (the paper's five-stage 1×DLX-C reduced by one latch stage — fetch and
//! decode are merged; every hazard class of the original is still present):
//!
//! * seven instruction classes: register–register ALU, register–immediate ALU,
//!   loads, stores, branches, jumps and nops,
//! * register-file read in the decode stage with *write-before-read* semantics,
//! * forwarding into the Execute stage from the Memory and Write-Back latches,
//! * a load interlock that stalls a dependent instruction behind a load,
//! * branches and jumps resolved in Execute with squashing of the speculatively
//!   fetched instruction (optionally guided by a branch predictor),
//! * optional precise exceptions with an EPC register,
//! * a dual-issue variant that fetches two sequential instructions per cycle
//!   with conservative co-issue rules (the second instruction is stalled on a
//!   data dependency on the first or when the first is a load, branch or jump).
//!
//! Multicycle functional units are absorbed into the uninterpreted-function
//! abstraction (see the substitution list in `DESIGN.md`).

use velv_eufm::{Context, FormulaId, TermId};
use velv_hdl::components::conditional_write;
use velv_hdl::{InstrFields, InstrMemory, Processor, StateElement, StateKind, SymbolicState};

/// Configuration of a DLX benchmark variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DlxConfig {
    /// Number of instructions fetched per cycle (1 or 2).
    pub issue_width: usize,
    /// Model precise ALU exceptions and the EPC register.
    pub exceptions: bool,
    /// Model branch/jump prediction with misprediction recovery.
    pub branch_prediction: bool,
}

impl DlxConfig {
    /// 1×DLX-C: single-issue pipeline.
    pub fn single_issue() -> Self {
        DlxConfig {
            issue_width: 1,
            exceptions: false,
            branch_prediction: false,
        }
    }

    /// 2×DLX-CC: dual-issue superscalar.
    pub fn dual_issue() -> Self {
        DlxConfig {
            issue_width: 2,
            exceptions: false,
            branch_prediction: false,
        }
    }

    /// 2×DLX-CC-MC-EX-BP: dual issue with exceptions and branch prediction
    /// (multicycle units are absorbed into the UF abstraction).
    pub fn dual_issue_full() -> Self {
        DlxConfig {
            issue_width: 2,
            exceptions: true,
            branch_prediction: true,
        }
    }

    /// The design name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match (self.issue_width, self.exceptions, self.branch_prediction) {
            (1, false, false) => "1xDLX-C",
            (1, _, _) => "1xDLX-C-EX-BP",
            (2, false, false) => "2xDLX-CC",
            _ => "2xDLX-CC-MC-EX-BP",
        }
    }
}

/// The error classes injected into the DLX designs (Section 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DlxBug {
    /// Forwarding condition omits the producer's valid bit (omitted gate input).
    ForwardingIgnoresValid {
        /// Forwarding source: 0 = Memory stage, 1 = Write-Back stage.
        from_stage: usize,
        /// Consumer operand: 0 = first, 1 = second.
        operand: usize,
        /// Consumer pipeline slot.
        slot: usize,
    },
    /// Forwarding compares the wrong source register (incorrect input index).
    ForwardingWrongOperand {
        /// Forwarding source stage.
        from_stage: usize,
        /// Consumer pipeline slot.
        slot: usize,
    },
    /// One forwarding path is missing entirely (omitted input).
    ForwardingPathMissing {
        /// Forwarding source stage.
        from_stage: usize,
        /// Consumer operand.
        operand: usize,
    },
    /// The load interlock ignores one of the source operands.
    LoadInterlockIgnoresOperand {
        /// The operand whose dependency is not checked.
        operand: usize,
        /// Consumer slot in decode.
        slot: usize,
    },
    /// The load interlock is missing for one decode slot.
    LoadInterlockMissing {
        /// Consumer slot in decode.
        slot: usize,
    },
    /// Speculatively fetched instructions are not squashed on a taken branch /
    /// misprediction (lack of a speculative-update repair mechanism).
    NoSquashOnTakenBranch {
        /// Offending execute slot.
        slot: usize,
    },
    /// The program counter is not redirected when a branch resolves.
    PcNotRedirected {
        /// Offending execute slot.
        slot: usize,
    },
    /// The branch-taken condition uses AND instead of OR (incorrect gate type).
    TakenUsesAndInsteadOfOr {
        /// Offending execute slot.
        slot: usize,
    },
    /// The register file write-back stores the memory address instead of the
    /// load result (incorrect input to a memory).
    WriteBackWrongData {
        /// Offending slot.
        slot: usize,
    },
    /// The destination register is taken from the wrong instruction field.
    WrongDestinationField {
        /// Offending slot.
        slot: usize,
    },
    /// The store writes the immediate-muxed operand instead of the register value.
    StoreDataWrongInput {
        /// Offending slot.
        slot: usize,
    },
    /// The register file is written even when the instruction raised an exception.
    WriteIgnoresException {
        /// Offending slot.
        slot: usize,
    },
    /// The EPC is not saved when an exception is raised.
    EpcNotSaved {
        /// Offending slot.
        slot: usize,
    },
    /// The second decode slot ignores its read-after-write dependency on the first.
    CoIssueIgnoresRaw {
        /// The operand whose dependency is not checked.
        operand: usize,
    },
    /// The second decode slot is issued even behind a branch or jump.
    CoIssueIgnoresControl,
}

/// Returns the deterministic bug catalog for a configuration.  The catalog has
/// at least 100 entries for the dual-issue configurations (the paper's
/// SSS-SAT.1.0 suite size); the single-issue catalog is proportionally smaller.
pub fn bug_catalog(config: DlxConfig) -> Vec<DlxBug> {
    let mut bugs = Vec::new();
    let slots = config.issue_width;
    for slot in 0..slots {
        for from_stage in 0..2 {
            for operand in 0..2 {
                bugs.push(DlxBug::ForwardingIgnoresValid {
                    from_stage,
                    operand,
                    slot,
                });
            }
            bugs.push(DlxBug::ForwardingWrongOperand { from_stage, slot });
        }
        for operand in 0..2 {
            bugs.push(DlxBug::LoadInterlockIgnoresOperand { operand, slot });
        }
        bugs.push(DlxBug::LoadInterlockMissing { slot });
        bugs.push(DlxBug::NoSquashOnTakenBranch { slot });
        bugs.push(DlxBug::PcNotRedirected { slot });
        bugs.push(DlxBug::TakenUsesAndInsteadOfOr { slot });
        bugs.push(DlxBug::WriteBackWrongData { slot });
        bugs.push(DlxBug::WrongDestinationField { slot });
        bugs.push(DlxBug::StoreDataWrongInput { slot });
        if config.exceptions {
            bugs.push(DlxBug::WriteIgnoresException { slot });
            bugs.push(DlxBug::EpcNotSaved { slot });
        }
    }
    for from_stage in 0..2 {
        for operand in 0..2 {
            bugs.push(DlxBug::ForwardingPathMissing {
                from_stage,
                operand,
            });
        }
    }
    if config.issue_width > 1 {
        bugs.push(DlxBug::CoIssueIgnoresRaw { operand: 0 });
        bugs.push(DlxBug::CoIssueIgnoresRaw { operand: 1 });
        bugs.push(DlxBug::CoIssueIgnoresControl);
    }
    // Pad the catalog to (at least) 100 entries for the dual-issue suites by
    // cycling through the base classes again with different parameters — the
    // paper's suites also contain several variants of the same error class.
    if config.issue_width > 1 {
        let mut extra = 0usize;
        while bugs.len() < 100 {
            let slot = extra % slots;
            let from_stage = (extra / slots) % 2;
            let operand = (extra / (2 * slots)) % 2;
            bugs.push(match extra % 5 {
                0 => DlxBug::ForwardingIgnoresValid {
                    from_stage,
                    operand,
                    slot,
                },
                1 => DlxBug::ForwardingWrongOperand { from_stage, slot },
                2 => DlxBug::LoadInterlockIgnoresOperand { operand, slot },
                3 => DlxBug::NoSquashOnTakenBranch { slot },
                _ => DlxBug::WriteBackWrongData { slot },
            });
            extra += 1;
        }
    }
    bugs
}

/// The DLX pipelined implementation.
#[derive(Clone, Debug)]
pub struct Dlx {
    config: DlxConfig,
    bug: Option<DlxBug>,
    name: String,
    layout: DlxLayout,
    imem: InstrMemory,
}

impl Dlx {
    /// The correct implementation.
    pub fn correct(config: DlxConfig) -> Self {
        Dlx {
            config,
            bug: None,
            name: config.name().to_owned(),
            layout: DlxLayout::new(config),
            imem: InstrMemory::new("imem"),
        }
    }

    /// An implementation with an injected bug.
    pub fn buggy(config: DlxConfig, bug: DlxBug) -> Self {
        Dlx {
            config,
            bug: Some(bug),
            name: format!("{}-buggy", config.name()),
            layout: DlxLayout::new(config),
            imem: InstrMemory::new("imem"),
        }
    }

    /// The configuration of this design.
    pub fn config(&self) -> DlxConfig {
        self.config
    }

    /// The injected bug, if any.
    pub fn bug(&self) -> Option<DlxBug> {
        self.bug
    }

    fn has(&self, bug: DlxBug) -> bool {
        self.bug == Some(bug)
    }
}

/// The architectural state elements; the last one, `epc`, is present only
/// when exceptions are modeled.  They lead the implementation's layout and
/// make up the specification's.
static ARCH_ELEMENTS: [StateElement; 4] = [
    StateElement::arch_term("pc"),
    StateElement::arch_memory("rf"),
    StateElement::arch_memory("dmem"),
    StateElement::arch_term("epc"),
];

/// Positions in [`ARCH_ELEMENTS`].
const PC: usize = 0;
const RF: usize = 1;
const DMEM: usize = 2;
const EPC: usize = 3;

/// The architectural elements of a configuration.
fn arch_elements(config: DlxConfig) -> &'static [StateElement] {
    if config.exceptions {
        &ARCH_ELEMENTS
    } else {
        &ARCH_ELEMENTS[..EPC]
    }
}

/// Appends the fields of one pipeline latch, named `{latch}.{field}`, to a
/// state layout and returns their positions.
struct LatchFields<'a> {
    elements: &'a mut Vec<StateElement>,
    latch: String,
}

impl LatchFields<'_> {
    fn declare(&mut self, field: &str, kind: StateKind) -> usize {
        let name = format!("{}.{field}", self.latch);
        self.elements.push(StateElement::named(name, kind, false));
        self.elements.len() - 1
    }

    fn term(&mut self, field: &str) -> usize {
        self.declare(field, StateKind::Term)
    }

    fn flag(&mut self, field: &str) -> usize {
        self.declare(field, StateKind::Flag)
    }
}

/// The latches of one pipeline slot, as positions in the state layout.
#[derive(Clone, Debug)]
struct SlotPositions {
    ex: ExSlot<usize, usize>,
    mem: MemSlot<usize, usize>,
    wb: WbSlot<usize, usize>,
}

/// The implementation's state layout, built once per design: the
/// architectural elements, then the latches of every pipeline slot, with the
/// positions of the latch fields.
#[derive(Clone, Debug)]
struct DlxLayout {
    elements: Vec<StateElement>,
    slots: Vec<SlotPositions>,
}

impl DlxLayout {
    fn new(config: DlxConfig) -> Self {
        let mut elements = arch_elements(config).to_vec();
        let slots = (0..config.issue_width)
            .map(|slot| {
                let mut ex = LatchFields {
                    elements: &mut elements,
                    latch: format!("ex.{slot}"),
                };
                let ex = ExSlot {
                    valid: ex.flag("valid"),
                    pc: ex.term("pc"),
                    op: ex.term("op"),
                    src1: ex.term("src1"),
                    src2: ex.term("src2"),
                    dest: ex.term("dest"),
                    imm: ex.term("imm"),
                    a: ex.term("a"),
                    b: ex.term("b"),
                    pred_target: ex.term("pred_target"),
                    is_load: ex.flag("is_load"),
                    is_store: ex.flag("is_store"),
                    is_branch: ex.flag("is_branch"),
                    is_jump: ex.flag("is_jump"),
                    writes_rf: ex.flag("writes_rf"),
                    uses_imm: ex.flag("uses_imm"),
                    pred_taken: ex.flag("pred_taken"),
                };
                let mut mem = LatchFields {
                    elements: &mut elements,
                    latch: format!("mem.{slot}"),
                };
                let mem = MemSlot {
                    valid: mem.flag("valid"),
                    dest: mem.term("dest"),
                    alu_out: mem.term("alu_out"),
                    store_data: mem.term("store_data"),
                    is_load: mem.flag("is_load"),
                    is_store: mem.flag("is_store"),
                    writes_rf: mem.flag("writes_rf"),
                };
                let mut wb = LatchFields {
                    elements: &mut elements,
                    latch: format!("wb.{slot}"),
                };
                let wb = WbSlot {
                    valid: wb.flag("valid"),
                    dest: wb.term("dest"),
                    result: wb.term("result"),
                    writes_rf: wb.flag("writes_rf"),
                };
                SlotPositions { ex, mem, wb }
            })
            .collect();
        DlxLayout { elements, slots }
    }
}

/// The fields carried by an Execute-stage slot: their values
/// (`ExSlot<FormulaId, TermId>`, the default) or their positions in the
/// state layout (`ExSlot<usize, usize>`).
#[derive(Clone, Debug)]
struct ExSlot<F = FormulaId, T = TermId> {
    valid: F,
    pc: T,
    op: T,
    src1: T,
    src2: T,
    dest: T,
    imm: T,
    a: T,
    b: T,
    pred_target: T,
    is_load: F,
    is_store: F,
    is_branch: F,
    is_jump: F,
    writes_rf: F,
    uses_imm: F,
    pred_taken: F,
}

/// The fields carried by a Memory-stage slot (values or positions).
#[derive(Clone, Debug)]
struct MemSlot<F = FormulaId, T = TermId> {
    valid: F,
    dest: T,
    alu_out: T,
    store_data: T,
    is_load: F,
    is_store: F,
    writes_rf: F,
}

/// The fields carried by a Write-Back-stage slot (values or positions).
#[derive(Clone, Debug)]
struct WbSlot<F = FormulaId, T = TermId> {
    valid: F,
    dest: T,
    result: T,
    writes_rf: F,
}

impl ExSlot<usize, usize> {
    fn read(&self, state: &SymbolicState) -> ExSlot {
        ExSlot {
            valid: state.formula(self.valid),
            pc: state.term(self.pc),
            op: state.term(self.op),
            src1: state.term(self.src1),
            src2: state.term(self.src2),
            dest: state.term(self.dest),
            imm: state.term(self.imm),
            a: state.term(self.a),
            b: state.term(self.b),
            pred_target: state.term(self.pred_target),
            is_load: state.formula(self.is_load),
            is_store: state.formula(self.is_store),
            is_branch: state.formula(self.is_branch),
            is_jump: state.formula(self.is_jump),
            writes_rf: state.formula(self.writes_rf),
            uses_imm: state.formula(self.uses_imm),
            pred_taken: state.formula(self.pred_taken),
        }
    }

    fn write(&self, state: &mut SymbolicState, values: &ExSlot) {
        state
            .set_formula(self.valid, values.valid)
            .set_term(self.pc, values.pc)
            .set_term(self.op, values.op)
            .set_term(self.src1, values.src1)
            .set_term(self.src2, values.src2)
            .set_term(self.dest, values.dest)
            .set_term(self.imm, values.imm)
            .set_term(self.a, values.a)
            .set_term(self.b, values.b)
            .set_term(self.pred_target, values.pred_target)
            .set_formula(self.is_load, values.is_load)
            .set_formula(self.is_store, values.is_store)
            .set_formula(self.is_branch, values.is_branch)
            .set_formula(self.is_jump, values.is_jump)
            .set_formula(self.writes_rf, values.writes_rf)
            .set_formula(self.uses_imm, values.uses_imm)
            .set_formula(self.pred_taken, values.pred_taken);
    }
}

impl MemSlot<usize, usize> {
    fn read(&self, state: &SymbolicState) -> MemSlot {
        MemSlot {
            valid: state.formula(self.valid),
            dest: state.term(self.dest),
            alu_out: state.term(self.alu_out),
            store_data: state.term(self.store_data),
            is_load: state.formula(self.is_load),
            is_store: state.formula(self.is_store),
            writes_rf: state.formula(self.writes_rf),
        }
    }

    fn write(&self, state: &mut SymbolicState, values: &MemSlot) {
        state
            .set_formula(self.valid, values.valid)
            .set_term(self.dest, values.dest)
            .set_term(self.alu_out, values.alu_out)
            .set_term(self.store_data, values.store_data)
            .set_formula(self.is_load, values.is_load)
            .set_formula(self.is_store, values.is_store)
            .set_formula(self.writes_rf, values.writes_rf);
    }
}

impl WbSlot<usize, usize> {
    fn read(&self, state: &SymbolicState) -> WbSlot {
        WbSlot {
            valid: state.formula(self.valid),
            dest: state.term(self.dest),
            result: state.term(self.result),
            writes_rf: state.formula(self.writes_rf),
        }
    }

    fn write(&self, state: &mut SymbolicState, values: &WbSlot) {
        state
            .set_formula(self.valid, values.valid)
            .set_term(self.dest, values.dest)
            .set_term(self.result, values.result)
            .set_formula(self.writes_rf, values.writes_rf);
    }
}

impl Dlx {
    /// Forwarding sources for an Execute-stage consumer, in priority order
    /// (closest preceding instruction first).
    fn forwarding_sources(
        &self,
        ctx: &mut Context,
        mem_slots: &[MemSlot],
        wb_slots: &[WbSlot],
        consumer_slot: usize,
        operand: usize,
    ) -> Vec<(FormulaId, TermId, TermId)> {
        let mut sources = Vec::new();
        // Memory stage (stage index 0): younger slot first.
        for (s, mem) in mem_slots.iter().enumerate().rev() {
            if self.has(DlxBug::ForwardingPathMissing {
                from_stage: 0,
                operand,
            }) && s == 0
            {
                continue;
            }
            let ignore_valid = self.has(DlxBug::ForwardingIgnoresValid {
                from_stage: 0,
                operand,
                slot: consumer_slot,
            });
            let not_load = ctx.not(mem.is_load);
            let mut active = ctx.and(mem.writes_rf, not_load);
            if !ignore_valid {
                active = ctx.and(active, mem.valid);
            }
            sources.push((active, mem.dest, mem.alu_out));
        }
        // Write-back stage (stage index 1): younger slot first.
        for (s, wb) in wb_slots.iter().enumerate().rev() {
            if self.has(DlxBug::ForwardingPathMissing {
                from_stage: 1,
                operand,
            }) && s == 0
            {
                continue;
            }
            let ignore_valid = self.has(DlxBug::ForwardingIgnoresValid {
                from_stage: 1,
                operand,
                slot: consumer_slot,
            });
            let active = if ignore_valid {
                wb.writes_rf
            } else {
                ctx.and(wb.valid, wb.writes_rf)
            };
            sources.push((active, wb.dest, wb.result));
        }
        sources
    }
}

impl Processor for Dlx {
    fn name(&self) -> &str {
        &self.name
    }

    fn state_elements(&self) -> &[StateElement] {
        &self.layout.elements
    }

    fn fetch_width(&self) -> usize {
        self.config.issue_width
    }

    fn flush_cycles(&self) -> usize {
        3
    }

    fn step(
        &self,
        ctx: &mut Context,
        state: &SymbolicState,
        fetch_enabled: FormulaId,
    ) -> SymbolicState {
        let width = self.config.issue_width;
        let layout = &self.layout;
        let pc = state.term(PC);
        let rf = state.term(RF);
        let dmem = state.term(DMEM);
        let epc = self.config.exceptions.then(|| state.term(EPC));

        let ex_slots: Vec<ExSlot> = layout.slots.iter().map(|s| s.ex.read(state)).collect();
        let mem_slots: Vec<MemSlot> = layout.slots.iter().map(|s| s.mem.read(state)).collect();
        let wb_slots: Vec<WbSlot> = layout.slots.iter().map(|s| s.wb.read(state)).collect();

        let mut next = SymbolicState::unset(layout.elements.len());

        // ------------------------------------------------------------------
        // Write-back stage: retire into the register file (program order).
        // ------------------------------------------------------------------
        let mut rf_after_wb = rf;
        for wb in &wb_slots {
            let enable = ctx.and(wb.valid, wb.writes_rf);
            rf_after_wb = conditional_write(ctx, rf_after_wb, enable, wb.dest, wb.result);
        }

        // ------------------------------------------------------------------
        // Memory stage: data-memory access, select the write-back result.
        // ------------------------------------------------------------------
        let mut dmem_next = dmem;
        for (s, mem) in mem_slots.iter().enumerate() {
            let store_enable = ctx.and(mem.valid, mem.is_store);
            dmem_next =
                conditional_write(ctx, dmem_next, store_enable, mem.alu_out, mem.store_data);
            // Loads observe stores of older slots processed above.
            let load_value = ctx.read(dmem_next, mem.alu_out);
            let result = if self.has(DlxBug::WriteBackWrongData { slot: s }) {
                mem.alu_out
            } else {
                ctx.ite_term(mem.is_load, load_value, mem.alu_out)
            };
            let wb = WbSlot {
                valid: mem.valid,
                dest: mem.dest,
                result,
                writes_rf: mem.writes_rf,
            };
            layout.slots[s].wb.write(&mut next, &wb);
        }
        next.set_term(DMEM, dmem_next);

        // ------------------------------------------------------------------
        // Execute stage: forwarding, ALU, branch resolution, exceptions.
        // ------------------------------------------------------------------
        let exc_vector = ctx.term_var("exc_vector");
        let mut squash_new = ctx.false_id();
        let mut epc_next = epc;
        let mut older_exception = ctx.false_id();
        // Per slot: whether it redirects the PC, and where to.  Only the
        // oldest redirecting slot may win, so the priority chain is built
        // after the loop.
        let mut redirects = Vec::with_capacity(width);

        for (s, ex) in ex_slots.iter().enumerate() {
            // Effective validity: an older slot's exception kills this one.
            let not_older_exc = ctx.not(older_exception);
            let valid_eff = ctx.and(ex.valid, not_older_exc);

            // Operand forwarding.
            let src1_for_fwd = ex.src1;
            let src2_for_fwd = if self.has(DlxBug::ForwardingWrongOperand {
                from_stage: 0,
                slot: s,
            }) || self.has(DlxBug::ForwardingWrongOperand {
                from_stage: 1,
                slot: s,
            }) {
                ex.src1
            } else {
                ex.src2
            };
            let sources_a = self.forwarding_sources(ctx, &mem_slots, &wb_slots, s, 0);
            let sources_b = self.forwarding_sources(ctx, &mem_slots, &wb_slots, s, 1);
            let a_fwd = forward_value(ctx, ex.a, src1_for_fwd, &sources_a);
            let b_fwd = forward_value(ctx, ex.b, src2_for_fwd, &sources_b);
            let b_val = ctx.ite_term(ex.uses_imm, ex.imm, b_fwd);

            let alu_out = ctx.uf("alu", &[ex.op, a_fwd, b_val]);

            // Exceptions.
            let exception = if self.config.exceptions {
                let raised = ctx.up("alu_exc", &[ex.op, a_fwd, b_val]);
                ctx.and(valid_eff, raised)
            } else {
                ctx.false_id()
            };

            // Branch resolution.
            let cond_taken = ctx.up("btaken", &[ex.op, a_fwd, b_val]);
            let branch_taken = if self.has(DlxBug::TakenUsesAndInsteadOfOr { slot: s }) {
                let both = ctx.and(ex.is_branch, cond_taken);
                ctx.and(ex.is_jump, both)
            } else {
                let cond = ctx.and(ex.is_branch, cond_taken);
                ctx.or(ex.is_jump, cond)
            };
            let actual_target = ctx.uf("btarget", &[ex.pc, ex.imm]);
            let fall_through = ctx.uf("pc_plus_4", &[ex.pc]);
            let is_control = ctx.or(ex.is_branch, ex.is_jump);

            // Misprediction / redirect condition.
            let redirect_needed = if self.config.branch_prediction {
                let taken_matches = ctx.iff(branch_taken, ex.pred_taken);
                let target_matches = ctx.eq(actual_target, ex.pred_target);
                let taken_and_target_ok = ctx.and(taken_matches, target_matches);
                let not_taken_ok = {
                    let not_taken = ctx.not(branch_taken);
                    let not_pred = ctx.not(ex.pred_taken);
                    ctx.and(not_taken, not_pred)
                };
                let prediction_correct = ctx.or(taken_and_target_ok, not_taken_ok);
                let mispredicted = ctx.not(prediction_correct);
                ctx.and(is_control, mispredicted)
            } else {
                branch_taken
            };
            let redirect_needed = ctx.and(valid_eff, redirect_needed);
            let correct_next_pc = ctx.ite_term(branch_taken, actual_target, fall_through);

            // Squash and PC redirection caused by this slot (exception first).
            let slot_squash = if self.has(DlxBug::NoSquashOnTakenBranch { slot: s }) {
                exception
            } else {
                ctx.or(exception, redirect_needed)
            };
            squash_new = ctx.or(squash_new, slot_squash);

            let slot_redirect_pc = ctx.ite_term(exception, exc_vector, correct_next_pc);
            let slot_redirects = if self.has(DlxBug::PcNotRedirected { slot: s }) {
                exception
            } else {
                ctx.or(exception, redirect_needed)
            };

            // EPC update.
            if self.config.exceptions {
                let save = if self.has(DlxBug::EpcNotSaved { slot: s }) {
                    ctx.false_id()
                } else {
                    exception
                };
                epc_next = Some(ctx.ite_term(save, ex.pc, epc_next.expect("epc present")));
            }

            // Pass the instruction to the Memory stage (exceptions suppress its
            // architectural effects).
            let no_exc = ctx.not(exception);
            let mem_valid = if self.has(DlxBug::WriteIgnoresException { slot: s }) {
                valid_eff
            } else {
                ctx.and(valid_eff, no_exc)
            };
            let dest = if self.has(DlxBug::WrongDestinationField { slot: s }) {
                ex.src2
            } else {
                ex.dest
            };
            let store_data = if self.has(DlxBug::StoreDataWrongInput { slot: s }) {
                b_val
            } else {
                b_fwd
            };
            let latched = MemSlot {
                valid: mem_valid,
                dest,
                alu_out,
                store_data,
                is_load: ex.is_load,
                is_store: ex.is_store,
                writes_rf: ex.writes_rf,
            };
            layout.slots[s].mem.write(&mut next, &latched);

            older_exception = ctx.or(older_exception, exception);
            redirects.push((slot_redirects, slot_redirect_pc));
        }

        // Priority-encode the PC redirection (oldest slot first).
        let mut pc_redirected = ctx.false_id();
        let mut pc_redirect_value = pc;
        for (slot_redirects, value) in redirects {
            let use_this = {
                let not_already = ctx.not(pc_redirected);
                ctx.and(not_already, slot_redirects)
            };
            pc_redirect_value = ctx.ite_term(use_this, value, pc_redirect_value);
            pc_redirected = ctx.or(pc_redirected, slot_redirects);
        }

        // ------------------------------------------------------------------
        // Fetch/decode stage: fetch `width` sequential instructions, read the
        // register file, detect stalls, and issue into Execute.
        // ------------------------------------------------------------------
        let mut fetch_pcs = vec![pc];
        for s in 1..width {
            let prev = fetch_pcs[s - 1];
            fetch_pcs.push(ctx.uf("pc_plus_4", &[prev]));
        }
        let fields: Vec<InstrFields> = fetch_pcs
            .iter()
            .map(|&fpc| self.imem.fetch(ctx, fpc))
            .collect();

        // Load interlock per decode slot.
        let mut stall = Vec::with_capacity(width);
        for (s, f) in fields.iter().enumerate() {
            let mut interlock = ctx.false_id();
            if !self.has(DlxBug::LoadInterlockMissing { slot: s }) {
                for ex in &ex_slots {
                    let producer = ctx.and(ex.valid, ex.is_load);
                    let producer = ctx.and(producer, ex.writes_rf);
                    let mut dependent = ctx.false_id();
                    if !self.has(DlxBug::LoadInterlockIgnoresOperand {
                        operand: 0,
                        slot: s,
                    }) {
                        let m1 = ctx.eq(ex.dest, f.src1);
                        dependent = ctx.or(dependent, m1);
                    }
                    if !self.has(DlxBug::LoadInterlockIgnoresOperand {
                        operand: 1,
                        slot: s,
                    }) {
                        let m2 = ctx.eq(ex.dest, f.src2);
                        dependent = ctx.or(dependent, m2);
                    }
                    let hazard = ctx.and(producer, dependent);
                    interlock = ctx.or(interlock, hazard);
                }
            }
            stall.push(interlock);
        }
        // Dual issue: the second slot additionally stalls behind the first on a
        // data dependency or when the first is a load, branch or jump.
        if width > 1 {
            let f0 = &fields[0];
            let f1 = &fields[1];
            let mut extra = stall[0];
            if !self.has(DlxBug::CoIssueIgnoresControl) {
                let control = ctx.or(f0.is_branch, f0.is_jump);
                let blocking = ctx.or(control, f0.is_load);
                extra = ctx.or(extra, blocking);
            }
            let mut raw = ctx.false_id();
            if !self.has(DlxBug::CoIssueIgnoresRaw { operand: 0 }) {
                let m = ctx.eq(f0.dest, f1.src1);
                raw = ctx.or(raw, m);
            }
            if !self.has(DlxBug::CoIssueIgnoresRaw { operand: 1 }) {
                let m = ctx.eq(f0.dest, f1.src2);
                raw = ctx.or(raw, m);
            }
            let raw_hazard = ctx.and(f0.writes_rf, raw);
            extra = ctx.or(extra, raw_hazard);
            stall[1] = ctx.or(stall[1], extra);
        }

        let no_squash = ctx.not(squash_new);
        let mut issue = Vec::with_capacity(width);
        for (s, &st) in stall.iter().enumerate() {
            let not_stalled = ctx.not(st);
            let mut ok = ctx.and(fetch_enabled, not_stalled);
            ok = ctx.and(ok, no_squash);
            if s > 0 {
                ok = ctx.and(ok, issue[s - 1]);
            }
            issue.push(ok);
        }

        // Latch the decoded instructions into Execute.
        for (s, f) in fields.iter().enumerate() {
            let rf_a = ctx.read(rf_after_wb, f.src1);
            let rf_b = ctx.read(rf_after_wb, f.src2);
            let pred_taken = if self.config.branch_prediction {
                let predicted = ctx.up("bp_taken", &[fetch_pcs[s]]);
                let branch_pred = ctx.and(f.is_branch, predicted);
                ctx.or(branch_pred, f.is_jump)
            } else {
                ctx.false_id()
            };
            let pred_target = ctx.uf("bp_target", &[fetch_pcs[s]]);

            let latched = ExSlot {
                valid: issue[s],
                pc: fetch_pcs[s],
                op: f.op,
                src1: f.src1,
                src2: f.src2,
                dest: f.dest,
                imm: f.imm,
                a: rf_a,
                b: rf_b,
                pred_target,
                is_load: f.is_load,
                is_store: f.is_store,
                is_branch: f.is_branch,
                is_jump: f.is_jump,
                writes_rf: f.writes_rf,
                uses_imm: f.uses_imm,
                pred_taken,
            };
            layout.slots[s].ex.write(&mut next, &latched);
        }

        // ------------------------------------------------------------------
        // Program counter.
        // ------------------------------------------------------------------
        let pc_after_issue = {
            // How far did the fetch advance?  0, 1 (slot 0 only), or `width`.
            let mut advanced = pc;
            for (s, &issued) in issue.iter().enumerate() {
                let next_pc = if self.config.branch_prediction {
                    let seq = ctx.uf("pc_plus_4", &[fetch_pcs[s]]);
                    let pred_taken = next.formula(layout.slots[s].ex.pred_taken);
                    let pred_target = next.term(layout.slots[s].ex.pred_target);
                    ctx.ite_term(pred_taken, pred_target, seq)
                } else {
                    ctx.uf("pc_plus_4", &[fetch_pcs[s]])
                };
                advanced = ctx.ite_term(issued, next_pc, advanced);
            }
            advanced
        };
        let pc_next = ctx.ite_term(pc_redirected, pc_redirect_value, pc_after_issue);
        next.set_term(PC, pc_next);
        next.set_term(RF, rf_after_wb);
        if let Some(epc_value) = epc_next {
            next.set_term(EPC, epc_value);
        }
        next
    }

    fn completion_windows(
        &self,
        ctx: &mut Context,
        initial: &SymbolicState,
        stepped: &SymbolicState,
    ) -> Option<Vec<FormulaId>> {
        let _ = initial;
        // The number of completing instructions equals the number of issued
        // slots: an issued instruction is never squashed later (branches and
        // exceptions resolve in Execute, and everything older has already
        // passed Execute by the time the new instruction gets there).
        let width = self.config.issue_width;
        let issued: Vec<FormulaId> = self
            .layout
            .slots
            .iter()
            .map(|s| stepped.formula(s.ex.valid))
            .collect();
        let mut windows = Vec::with_capacity(width + 1);
        for l in 0..=width {
            // Exactly l slots issued; with in-order issue slot s is issued only
            // if every younger-numbered slot was, so "exactly l" is
            // "slot l-1 issued and slot l not issued".
            let lower = if l == 0 { ctx.true_id() } else { issued[l - 1] };
            let upper = if l == width {
                ctx.true_id()
            } else {
                ctx.not(issued[l])
            };
            windows.push(ctx.and(lower, upper));
        }
        Some(windows)
    }
}

/// Applies a forwarding mux chain to an operand value: the first active source
/// whose destination matches `src` overrides the base value.
fn forward_value(
    ctx: &mut Context,
    base: TermId,
    src: TermId,
    sources: &[(FormulaId, TermId, TermId)],
) -> TermId {
    let mut value = base;
    for &(active, dest, data) in sources.iter().rev() {
        let matches = ctx.eq(src, dest);
        let take = ctx.and(active, matches);
        value = ctx.ite_term(take, data, value);
    }
    value
}

/// The single-cycle DLX specification (the ISA model).
#[derive(Clone, Debug)]
pub struct DlxSpecification {
    config: DlxConfig,
    imem: InstrMemory,
}

impl DlxSpecification {
    /// Creates the specification for a configuration (the specification only
    /// depends on whether exceptions are architecturally visible).
    pub fn new(config: DlxConfig) -> Self {
        DlxSpecification {
            config,
            imem: InstrMemory::new("imem"),
        }
    }
}

impl Processor for DlxSpecification {
    fn name(&self) -> &str {
        "DLX-spec"
    }

    fn state_elements(&self) -> &[StateElement] {
        arch_elements(self.config)
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
        let dmem = state.term(DMEM);

        let f = self.imem.fetch(ctx, pc);
        let a = ctx.read(rf, f.src1);
        let b_reg = ctx.read(rf, f.src2);
        let b_val = ctx.ite_term(f.uses_imm, f.imm, b_reg);
        let alu_out = ctx.uf("alu", &[f.op, a, b_val]);

        let exception = if self.config.exceptions {
            ctx.up("alu_exc", &[f.op, a, b_val])
        } else {
            ctx.false_id()
        };
        let no_exc = ctx.not(exception);

        // Data memory.
        let do_store = ctx.and(f.is_store, no_exc);
        let do_store = ctx.and(do_store, fetch_enabled);
        let dmem_next = conditional_write(ctx, dmem, do_store, alu_out, b_reg);
        let load_value = ctx.read(dmem_next, alu_out);
        let result = ctx.ite_term(f.is_load, load_value, alu_out);

        // Register file.
        let do_write = ctx.and(f.writes_rf, no_exc);
        let do_write = ctx.and(do_write, fetch_enabled);
        let rf_next = conditional_write(ctx, rf, do_write, f.dest, result);

        // Program counter.
        let cond_taken = ctx.up("btaken", &[f.op, a, b_val]);
        let branch_cond = ctx.and(f.is_branch, cond_taken);
        let taken = ctx.or(f.is_jump, branch_cond);
        let target = ctx.uf("btarget", &[pc, f.imm]);
        let sequential = ctx.uf("pc_plus_4", &[pc]);
        let normal_pc = ctx.ite_term(taken, target, sequential);
        let exc_vector = ctx.term_var("exc_vector");
        let resolved_pc = ctx.ite_term(exception, exc_vector, normal_pc);
        let pc_next = ctx.ite_term(fetch_enabled, resolved_pc, pc);

        let mut next = SymbolicState::unset(state.len());
        next.set_term(PC, pc_next);
        next.set_term(RF, rf_next);
        next.set_term(DMEM, dmem_next);
        if self.config.exceptions {
            let epc = state.term(EPC);
            let save = ctx.and(fetch_enabled, exception);
            let epc_next = ctx.ite_term(save, pc, epc);
            next.set_term(EPC, epc_next);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_elements_are_consistent() {
        for config in [
            DlxConfig::single_issue(),
            DlxConfig::dual_issue(),
            DlxConfig::dual_issue_full(),
        ] {
            let implementation = Dlx::correct(config);
            let spec = DlxSpecification::new(config);
            assert_eq!(
                implementation.arch_state(),
                spec.arch_state(),
                "{}",
                config.name()
            );
            assert_eq!(implementation.fetch_width(), config.issue_width);
            // Every declared element is produced by a step.
            let mut ctx = Context::new();
            let initial = SymbolicState::initial(&mut ctx, implementation.state_elements(), "");
            let enabled = ctx.true_id();
            let next = implementation.step(&mut ctx, &initial, enabled);
            assert!(next.is_complete(), "{}", config.name());
            let spec_initial = SymbolicState::initial(&mut ctx, spec.state_elements(), "s_");
            let spec_next = spec.step(&mut ctx, &spec_initial, enabled);
            assert!(spec_next.is_complete(), "{}", config.name());
        }
    }

    #[test]
    fn completion_windows_cover_all_counts() {
        let config = DlxConfig::dual_issue();
        let implementation = Dlx::correct(config);
        let mut ctx = Context::new();
        let initial = SymbolicState::initial(&mut ctx, implementation.state_elements(), "");
        let enabled = ctx.true_id();
        let stepped = implementation.step(&mut ctx, &initial, enabled);
        let windows = implementation
            .completion_windows(&mut ctx, &initial, &stepped)
            .expect("DLX provides completion windows");
        assert_eq!(windows.len(), config.issue_width + 1);
        // The windows are exhaustive: their disjunction is a tautology because
        // "exactly l issued" for l = 0..=width covers all cases of the in-order
        // issue chain.  We check the weaker structural property that the
        // disjunction does not simplify to false.
        let coverage = ctx.or_many(windows.iter().copied());
        assert!(!ctx.is_false(coverage));
    }

    #[test]
    fn bug_catalog_sizes() {
        assert!(bug_catalog(DlxConfig::single_issue()).len() >= 15);
        assert!(bug_catalog(DlxConfig::dual_issue()).len() >= 100);
        assert!(bug_catalog(DlxConfig::dual_issue_full()).len() >= 100);
    }

    #[test]
    fn buggy_builder_records_the_bug() {
        let bug = DlxBug::LoadInterlockMissing { slot: 0 };
        let design = Dlx::buggy(DlxConfig::single_issue(), bug);
        assert_eq!(design.bug(), Some(bug));
        assert!(design.name().ends_with("buggy"));
    }
}
