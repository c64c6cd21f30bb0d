//! The VLIW benchmark: 9VLIW-MC-BP and its exception-enabled extension
//! 9VLIW-MC-BP-EX.
//!
//! The model imitates the Intel Itanium features the paper lists: a packet of
//! nine instruction slots matched to fixed execution pipelines (four integer —
//! two of which may access memory —, two floating-point, three branch),
//! predicated execution through a predicate register file, speculative
//! register remapping through a current frame marker (CFM), an advanced-load
//! address table (ALAT), branch prediction with misprediction squash, and
//! (optionally) exceptions with an EPC.
//!
//! Architecturally the packet is the unit of execution: the specification
//! executes one whole packet per step, and the implementation holds one packet
//! in flight (fetched at the predicted successor address) while the previous
//! packet executes and commits — a scaled-down pipeline (the original keeps up
//! to 42 instructions in flight; see the substitution list in `DESIGN.md`).

use velv_eufm::{Context, FormulaId, TermId};
use velv_hdl::{Processor, StateElement, SymbolicState};

/// What a slot position is wired to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// Integer ALU slot with memory access capability.
    IntMem,
    /// Integer ALU slot.
    Int,
    /// Floating-point slot.
    Float,
    /// Branch-address slot.
    Branch,
}

/// Configuration of the VLIW design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VliwConfig {
    /// Number of slots per packet (9 in the paper).
    pub slots: usize,
    /// Whether exceptions and the EPC are modeled.
    pub exceptions: bool,
}

impl VliwConfig {
    /// The base 9VLIW-MC-BP configuration.
    pub fn base() -> Self {
        VliwConfig {
            slots: 9,
            exceptions: false,
        }
    }

    /// 9VLIW-MC-BP-EX: adds exceptions.
    pub fn with_exceptions() -> Self {
        VliwConfig {
            slots: 9,
            exceptions: true,
        }
    }

    /// A reduced-width variant (useful for quick experiments and tests).
    pub fn with_slots(slots: usize) -> Self {
        VliwConfig {
            slots,
            exceptions: false,
        }
    }

    /// Design name used in the experiment tables.
    pub fn name(&self) -> &'static str {
        if self.exceptions {
            "9VLIW-MC-BP-EX"
        } else {
            "9VLIW-MC-BP"
        }
    }

    /// The execution-pipeline kind of a slot position.
    pub fn slot_kind(&self, slot: usize) -> SlotKind {
        match slot * 9 / self.slots.max(1) {
            0 | 1 => SlotKind::IntMem,
            2 | 3 => SlotKind::Int,
            4 | 5 => SlotKind::Float,
            _ => SlotKind::Branch,
        }
    }
}

/// Error classes injected into the VLIW design (the VLIW-SAT.1.0 suite).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VliwBug {
    /// The slot commits its result even when its qualifying predicate is off.
    PredicationIgnored {
        /// Offending slot.
        slot: usize,
    },
    /// A source register bypasses the CFM remapping (wrong input).
    RemapMissing {
        /// Offending slot.
        slot: usize,
    },
    /// The destination register is taken from the wrong field.
    WrongDestinationField {
        /// Offending slot.
        slot: usize,
    },
    /// A store ignores its qualifying predicate.
    StoreIgnoresPredicate {
        /// Offending memory slot.
        slot: usize,
    },
    /// The speculatively fetched packet is not squashed on a misprediction.
    NoSquashOnMispredict,
    /// The PC is not corrected on a misprediction.
    PcNotCorrected,
    /// The CFM is updated speculatively at fetch with no repair on squash
    /// (the bug the authors report making while designing 9VLIW-MC-BP).
    CfmUpdatedSpeculatively,
    /// An excepting slot still writes its destination register.
    ExceptionIgnoredByWrite {
        /// Offending slot.
        slot: usize,
    },
    /// The EPC is not saved when an exception is raised.
    EpcNotSaved,
    /// The branch-resolution priority picks the wrong (youngest) taken branch.
    BranchPriorityReversed,
}

/// Deterministic bug catalog for a configuration; at least 100 entries for the
/// full 9-slot designs.
pub fn bug_catalog(config: VliwConfig) -> Vec<VliwBug> {
    let mut bugs = Vec::new();
    for slot in 0..config.slots {
        bugs.push(VliwBug::PredicationIgnored { slot });
        bugs.push(VliwBug::RemapMissing { slot });
        bugs.push(VliwBug::WrongDestinationField { slot });
        if matches!(config.slot_kind(slot), SlotKind::IntMem) {
            bugs.push(VliwBug::StoreIgnoresPredicate { slot });
        }
        if config.exceptions {
            bugs.push(VliwBug::ExceptionIgnoredByWrite { slot });
        }
    }
    bugs.push(VliwBug::NoSquashOnMispredict);
    bugs.push(VliwBug::PcNotCorrected);
    bugs.push(VliwBug::CfmUpdatedSpeculatively);
    bugs.push(VliwBug::BranchPriorityReversed);
    if config.exceptions {
        bugs.push(VliwBug::EpcNotSaved);
    }
    // Pad with further parameterised variants of the same classes, as the
    // paper's suite also contains multiple variants per class.
    let mut extra = 0usize;
    while bugs.len() < 100 && config.slots >= 2 {
        let slot = extra % config.slots;
        bugs.push(match extra % 3 {
            0 => VliwBug::PredicationIgnored { slot },
            1 => VliwBug::RemapMissing { slot },
            _ => VliwBug::WrongDestinationField { slot },
        });
        extra += 1;
    }
    bugs
}

/// The architectural state elements; the last one, `epc`, is present only
/// when exceptions are modeled.  They lead the implementation's layout and
/// make up the specification's.
static ARCH_ELEMENTS: [StateElement; 9] = [
    StateElement::arch_term("pc"),
    StateElement::arch_memory("int_rf"),
    StateElement::arch_memory("fp_rf"),
    StateElement::arch_memory("pred_rf"),
    StateElement::arch_memory("baddr_rf"),
    StateElement::arch_memory("dmem"),
    StateElement::arch_memory("alat"),
    StateElement::arch_term("cfm"),
    StateElement::arch_term("epc"),
];

/// Positions in [`ARCH_ELEMENTS`].
const PC: usize = 0;
const INT_RF: usize = 1;
const FP_RF: usize = 2;
const PRED_RF: usize = 3;
const BADDR_RF: usize = 4;
const DMEM: usize = 5;
const ALAT: usize = 6;
const CFM: usize = 7;
const EPC: usize = 8;

/// The implementation's fetch latch, which follows the architectural
/// elements in its layout.
static FETCH_ELEMENTS: [StateElement; 2] = [
    StateElement::pipe_flag("fetch.valid"),
    StateElement::pipe_term("fetch.pc"),
];

/// The architectural elements of a configuration.
fn arch_elements(config: VliwConfig) -> &'static [StateElement] {
    if config.exceptions {
        &ARCH_ELEMENTS
    } else {
        &ARCH_ELEMENTS[..EPC]
    }
}

/// The instruction-memory names of one slot, `{field}_{slot}`, formatted
/// once per design.  A field the slot's pipeline never decodes is left
/// empty.
#[derive(Clone, Debug)]
struct SlotNames {
    qp: String,
    op: String,
    src1: String,
    src2: String,
    dest: String,
    is_load: String,
    is_store: String,
    is_adv_load: String,
    is_cfm_update: String,
    breg: String,
}

impl SlotNames {
    fn new(config: VliwConfig, slot: usize) -> Self {
        let kind = config.slot_kind(slot);
        let alu = kind != SlotKind::Branch;
        let mem = kind == SlotKind::IntMem;
        let name = |field: &str, decoded: bool| {
            if decoded {
                format!("{field}_{slot}")
            } else {
                String::new()
            }
        };
        SlotNames {
            qp: name("qp", true),
            op: name("op", alu),
            src1: name("src1", alu),
            src2: name("src2", alu),
            dest: name("dest", alu),
            is_load: name("is_load", mem),
            is_store: name("is_store", mem),
            is_adv_load: name("is_adv_load", mem),
            is_cfm_update: name("is_cfm_update", alu && slot == 2),
            breg: name("breg", !alu),
        }
    }

    fn for_packet(config: VliwConfig) -> Vec<SlotNames> {
        (0..config.slots)
            .map(|slot| SlotNames::new(config, slot))
            .collect()
    }
}

/// The VLIW implementation.
#[derive(Clone, Debug)]
pub struct Vliw {
    config: VliwConfig,
    bug: Option<VliwBug>,
    name: String,
    elements: Vec<StateElement>,
    /// Positions of the fetch latch's fields in `elements`.
    fetch_valid: usize,
    fetch_pc: usize,
    slot_names: Vec<SlotNames>,
}

impl Vliw {
    /// The correct implementation.
    pub fn correct(config: VliwConfig) -> Self {
        Vliw::build(config, None, config.name().to_owned())
    }

    /// An implementation with an injected bug.
    pub fn buggy(config: VliwConfig, bug: VliwBug) -> Self {
        Vliw::build(config, Some(bug), format!("{}-buggy", config.name()))
    }

    fn build(config: VliwConfig, bug: Option<VliwBug>, name: String) -> Self {
        let arch = arch_elements(config);
        Vliw {
            config,
            bug,
            name,
            elements: [arch, &FETCH_ELEMENTS].concat(),
            fetch_valid: arch.len(),
            fetch_pc: arch.len() + 1,
            slot_names: SlotNames::for_packet(config),
        }
    }

    /// The configuration.
    pub fn config(&self) -> VliwConfig {
        self.config
    }

    fn has(&self, bug: VliwBug) -> bool {
        self.bug == Some(bug)
    }

    /// Executes one packet fetched at `pc` against the given architectural
    /// values, returning the updated values and the actual next PC.
    ///
    /// `bug` is `None` for the specification semantics.
    #[allow(clippy::too_many_arguments)]
    fn execute_packet(
        config: VliwConfig,
        bug: Option<&Vliw>,
        slot_names: &[SlotNames],
        ctx: &mut Context,
        pc: TermId,
        mut int_rf: TermId,
        mut fp_rf: TermId,
        pred_rf: TermId,
        baddr_rf: TermId,
        mut dmem: TermId,
        mut alat: TermId,
        cfm: TermId,
        epc: Option<TermId>,
    ) -> PacketResult {
        let has = |b: VliwBug| bug.is_some_and(|v| v.has(b));
        let mut cfm_next = cfm;
        let mut epc_next = epc;
        let mut exception_seen = ctx.false_id();
        let mut taken_branch: Option<(FormulaId, TermId)> = None;
        let exc_vector = ctx.term_var("exc_vector");

        for (slot, names) in slot_names.iter().enumerate() {
            let kind = config.slot_kind(slot);
            let field = |ctx: &mut Context, name: &str| ctx.uf(name, &[pc]);
            let up_field = |ctx: &mut Context, name: &str| ctx.up(name, &[pc]);

            // Qualifying predicate.
            let qp_reg = field(ctx, &names.qp);
            let qp_value = ctx.read(pred_rf, qp_reg);
            let pred_on = ctx.up("pred_true", &[qp_value]);
            let active = if has(VliwBug::PredicationIgnored { slot }) {
                ctx.true_id()
            } else {
                pred_on
            };
            let not_excepted = ctx.not(exception_seen);
            let active = ctx.and(active, not_excepted);

            match kind {
                SlotKind::IntMem | SlotKind::Int | SlotKind::Float => {
                    let (rf, alu_name) = if kind == SlotKind::Float {
                        (&mut fp_rf, "alu_fp")
                    } else {
                        (&mut int_rf, "alu_int")
                    };
                    let op = field(ctx, &names.op);
                    let src1 = field(ctx, &names.src1);
                    let src2 = field(ctx, &names.src2);
                    let dest_field = field(ctx, &names.dest);
                    let wrong_dest = field(ctx, &names.src2);
                    let dest_logical = if has(VliwBug::WrongDestinationField { slot }) {
                        wrong_dest
                    } else {
                        dest_field
                    };
                    // CFM-based register remapping.
                    let remap = |ctx: &mut Context, reg: TermId, skip: bool| {
                        if skip {
                            reg
                        } else {
                            ctx.uf("remap", &[cfm, reg])
                        }
                    };
                    let skip_remap = has(VliwBug::RemapMissing { slot });
                    let rsrc1 = remap(ctx, src1, skip_remap);
                    let rsrc2 = remap(ctx, src2, false);
                    let rdest = remap(ctx, dest_logical, false);
                    let a = ctx.read(*rf, rsrc1);
                    let b = ctx.read(*rf, rsrc2);
                    let mut result = ctx.uf(alu_name, &[op, a, b]);

                    // Exceptions.
                    let exception = if config.exceptions {
                        let raised = ctx.up("alu_exc", &[op, a, b]);
                        ctx.and(active, raised)
                    } else {
                        ctx.false_id()
                    };

                    // Memory slots: loads, stores and advanced loads.
                    let mut write_enable = active;
                    if kind == SlotKind::IntMem {
                        let is_load = up_field(ctx, &names.is_load);
                        let is_store = up_field(ctx, &names.is_store);
                        let is_adv = up_field(ctx, &names.is_adv_load);
                        let addr = result;
                        let loaded = ctx.read(dmem, addr);
                        result = ctx.ite_term(is_load, loaded, result);
                        let store_active = if has(VliwBug::StoreIgnoresPredicate { slot }) {
                            is_store
                        } else {
                            ctx.and(active, is_store)
                        };
                        let no_exc = ctx.not(exception);
                        let store_active = ctx.and(store_active, no_exc);
                        let stored = ctx.write(dmem, addr, b);
                        dmem = ctx.ite_term(store_active, stored, dmem);
                        // Advanced loads record their address in the ALAT.
                        let adv_active = ctx.and(active, is_adv);
                        let alat_written = ctx.write(alat, rdest, addr);
                        alat = ctx.ite_term(adv_active, alat_written, alat);
                        let _ = write_enable;
                        write_enable = active;
                    }

                    // Register write-back.
                    let suppressed = if has(VliwBug::ExceptionIgnoredByWrite { slot }) {
                        ctx.false_id()
                    } else {
                        exception
                    };
                    let not_suppressed = ctx.not(suppressed);
                    let do_write = ctx.and(write_enable, not_suppressed);
                    let written = ctx.write(*rf, rdest, result);
                    *rf = ctx.ite_term(do_write, written, *rf);

                    // Exception bookkeeping.
                    if config.exceptions {
                        let save = if has(VliwBug::EpcNotSaved) {
                            ctx.false_id()
                        } else {
                            exception
                        };
                        if let Some(epc_value) = epc_next {
                            epc_next = Some(ctx.ite_term(save, pc, epc_value));
                        }
                        exception_seen = ctx.or(exception_seen, exception);
                    }

                    // A designated integer slot updates the CFM (register
                    // remapping for the next packet).
                    if slot == 2 {
                        let is_cfm = up_field(ctx, &names.is_cfm_update);
                        let cfm_updated = ctx.uf("cfm_next", &[cfm, op]);
                        let update = ctx.and(active, is_cfm);
                        cfm_next = ctx.ite_term(update, cfm_updated, cfm_next);
                    }
                }
                SlotKind::Branch => {
                    // A branch slot is taken when its qualifying predicate holds;
                    // the target comes from the branch-address register file.
                    let breg = field(ctx, &names.breg);
                    let rbreg = ctx.uf("remap", &[cfm, breg]);
                    let target = ctx.read(baddr_rf, rbreg);
                    let taken = active;
                    taken_branch = Some(match taken_branch {
                        None => (taken, target),
                        Some((prev_taken, prev_target)) => {
                            if bug.is_some_and(|v| v.has(VliwBug::BranchPriorityReversed)) {
                                // Buggy priority: the youngest taken branch wins.
                                let t = ctx.or(prev_taken, taken);
                                let tgt = ctx.ite_term(taken, target, prev_target);
                                (t, tgt)
                            } else {
                                // Correct priority: the oldest taken branch wins.
                                let t = ctx.or(prev_taken, taken);
                                let tgt = ctx.ite_term(prev_taken, prev_target, target);
                                (t, tgt)
                            }
                        }
                    });
                }
            }
        }

        // Actual next PC: exception vector, else the oldest taken branch target,
        // else the sequential successor packet.
        let sequential = ctx.uf("pc_next", &[pc]);
        let (any_taken, branch_target) = taken_branch.unwrap_or((ctx.false_id(), sequential));
        let normal_next = ctx.ite_term(any_taken, branch_target, sequential);
        let next_pc = if config.exceptions {
            ctx.ite_term(exception_seen, exc_vector, normal_next)
        } else {
            normal_next
        };

        PacketResult {
            int_rf,
            fp_rf,
            pred_rf,
            baddr_rf,
            dmem,
            alat,
            cfm: cfm_next,
            epc: epc_next,
            next_pc,
        }
    }
}

struct PacketResult {
    int_rf: TermId,
    fp_rf: TermId,
    pred_rf: TermId,
    baddr_rf: TermId,
    dmem: TermId,
    alat: TermId,
    cfm: TermId,
    epc: Option<TermId>,
    next_pc: TermId,
}

impl Processor for Vliw {
    fn name(&self) -> &str {
        &self.name
    }

    fn state_elements(&self) -> &[StateElement] {
        &self.elements
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
        let fetch_valid = state.formula(self.fetch_valid);
        let fetch_pc = state.term(self.fetch_pc);
        let epc = self.config.exceptions.then(|| state.term(EPC));

        // Execute and commit the packet currently in flight.
        let executed = Vliw::execute_packet(
            self.config,
            Some(self),
            &self.slot_names,
            ctx,
            fetch_pc,
            state.term(INT_RF),
            state.term(FP_RF),
            state.term(PRED_RF),
            state.term(BADDR_RF),
            state.term(DMEM),
            state.term(ALAT),
            state.term(CFM),
            epc,
        );
        let commit = fetch_valid;
        let mux = |ctx: &mut Context, new: TermId, old: TermId| ctx.ite_term(commit, new, old);
        let int_rf = mux(ctx, executed.int_rf, state.term(INT_RF));
        let fp_rf = mux(ctx, executed.fp_rf, state.term(FP_RF));
        let pred_rf = mux(ctx, executed.pred_rf, state.term(PRED_RF));
        let baddr_rf = mux(ctx, executed.baddr_rf, state.term(BADDR_RF));
        let dmem = mux(ctx, executed.dmem, state.term(DMEM));
        let alat = mux(ctx, executed.alat, state.term(ALAT));
        let mut cfm = mux(ctx, executed.cfm, state.term(CFM));
        let epc_next = epc.map(|old| {
            let new = executed.epc.expect("exceptions enabled");
            ctx.ite_term(commit, new, old)
        });

        // Misprediction check: the packet speculatively fetched at the current
        // PC is on the wrong path when the executed packet's actual successor
        // differs from the current PC.
        let predicted_correctly = ctx.eq(executed.next_pc, pc);
        let mispredicted = ctx.not(predicted_correctly);
        let mispredict = ctx.and(commit, mispredicted);

        // Fetch the next packet at the predicted successor of the current PC.
        let bp_taken = ctx.up("bp_taken", &[pc]);
        let bp_target = ctx.uf("bp_target", &[pc]);
        let sequential = ctx.uf("pc_next", &[pc]);
        let predicted_next = ctx.ite_term(bp_taken, bp_target, sequential);

        let squash = if self.has(VliwBug::NoSquashOnMispredict) {
            ctx.false_id()
        } else {
            mispredict
        };
        let not_squashed = ctx.not(squash);
        let fetch_valid_next = ctx.and(fetch_enabled, not_squashed);

        // Speculative CFM update at fetch (only present as an injected bug).
        if self.has(VliwBug::CfmUpdatedSpeculatively) {
            let op2 = ctx.uf("op_2", &[pc]);
            let spec_cfm = ctx.uf("cfm_next", &[cfm, op2]);
            cfm = ctx.ite_term(fetch_enabled, spec_cfm, cfm);
        }

        // Program counter.
        let redirect = if self.has(VliwBug::PcNotCorrected) {
            ctx.false_id()
        } else {
            mispredict
        };
        let advanced = ctx.ite_term(fetch_enabled, predicted_next, pc);
        let pc_next = ctx.ite_term(redirect, executed.next_pc, advanced);

        let mut next = SymbolicState::unset(self.elements.len());
        next.set_term(PC, pc_next)
            .set_term(INT_RF, int_rf)
            .set_term(FP_RF, fp_rf)
            .set_term(PRED_RF, pred_rf)
            .set_term(BADDR_RF, baddr_rf)
            .set_term(DMEM, dmem)
            .set_term(ALAT, alat)
            .set_term(CFM, cfm);
        if let Some(epc_value) = epc_next {
            next.set_term(EPC, epc_value);
        }
        next.set_formula(self.fetch_valid, fetch_valid_next);
        next.set_term(self.fetch_pc, pc);
        next
    }

    fn completion_windows(
        &self,
        ctx: &mut Context,
        _initial: &SymbolicState,
        stepped: &SymbolicState,
    ) -> Option<Vec<FormulaId>> {
        // The newly fetched packet completes exactly when it entered the fetch
        // latch as valid (it can only be squashed by the packet ahead of it,
        // which resolves during the verified cycle).
        let completes = stepped.formula(self.fetch_valid);
        let not_completes = ctx.not(completes);
        Some(vec![not_completes, completes])
    }
}

/// The packet-at-a-time VLIW specification.
#[derive(Clone, Debug)]
pub struct VliwSpecification {
    config: VliwConfig,
    slot_names: Vec<SlotNames>,
}

impl VliwSpecification {
    /// Creates the specification for a configuration.
    pub fn new(config: VliwConfig) -> Self {
        VliwSpecification {
            config,
            slot_names: SlotNames::for_packet(config),
        }
    }
}

impl Processor for VliwSpecification {
    fn name(&self) -> &str {
        "VLIW-spec"
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
        let epc = self.config.exceptions.then(|| state.term(EPC));
        let executed = Vliw::execute_packet(
            self.config,
            None,
            &self.slot_names,
            ctx,
            pc,
            state.term(INT_RF),
            state.term(FP_RF),
            state.term(PRED_RF),
            state.term(BADDR_RF),
            state.term(DMEM),
            state.term(ALAT),
            state.term(CFM),
            epc,
        );
        let mux =
            |ctx: &mut Context, new: TermId, old: TermId| ctx.ite_term(fetch_enabled, new, old);
        let mut next = SymbolicState::unset(state.len());
        next.set_term(PC, mux(ctx, executed.next_pc, pc));
        next.set_term(INT_RF, mux(ctx, executed.int_rf, state.term(INT_RF)));
        next.set_term(FP_RF, mux(ctx, executed.fp_rf, state.term(FP_RF)));
        next.set_term(PRED_RF, mux(ctx, executed.pred_rf, state.term(PRED_RF)));
        next.set_term(BADDR_RF, mux(ctx, executed.baddr_rf, state.term(BADDR_RF)));
        next.set_term(DMEM, mux(ctx, executed.dmem, state.term(DMEM)));
        next.set_term(ALAT, mux(ctx, executed.alat, state.term(ALAT)));
        next.set_term(CFM, mux(ctx, executed.cfm, state.term(CFM)));
        if let Some(old_epc) = epc {
            let new = executed.epc.expect("exceptions enabled");
            next.set_term(EPC, mux(ctx, new, old_epc));
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configuration_and_slot_kinds() {
        let config = VliwConfig::base();
        assert_eq!(config.slots, 9);
        assert_eq!(config.slot_kind(0), SlotKind::IntMem);
        assert_eq!(config.slot_kind(3), SlotKind::Int);
        assert_eq!(config.slot_kind(5), SlotKind::Float);
        assert_eq!(config.slot_kind(8), SlotKind::Branch);
        assert_eq!(VliwConfig::with_exceptions().name(), "9VLIW-MC-BP-EX");
    }

    #[test]
    fn state_elements_match_specification() {
        for config in [
            VliwConfig::base(),
            VliwConfig::with_exceptions(),
            VliwConfig::with_slots(3),
        ] {
            let implementation = Vliw::correct(config);
            let spec = VliwSpecification::new(config);
            assert_eq!(implementation.arch_state(), spec.arch_state());
            let mut ctx = Context::new();
            let initial = SymbolicState::initial(&mut ctx, implementation.state_elements(), "");
            let enabled = ctx.true_id();
            let next = implementation.step(&mut ctx, &initial, enabled);
            assert!(next.is_complete(), "{}", config.name());
        }
    }

    #[test]
    fn bug_catalog_has_at_least_100_entries() {
        assert!(bug_catalog(VliwConfig::base()).len() >= 100);
        assert!(bug_catalog(VliwConfig::with_exceptions()).len() >= 100);
    }
}
