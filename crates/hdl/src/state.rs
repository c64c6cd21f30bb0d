//! Symbolic machine states and state-element declarations.
//!
//! A design declares its state elements once, as a slice built in its
//! constructor (or a `static` for a design whose layout never changes); a
//! [`SymbolicState`] holds one value per element *position* of that slice.
//! Every design keeps index tables — the positions of the fields it reads
//! and writes, computed while it builds the slice — so symbolic simulation
//! never builds an element name: the names are used only to name the
//! initial state's variables and to match the architectural elements of an
//! implementation with those of its specification.  Building names per
//! access (a `format!` per latch field, a `String` key per set, every key
//! copied on each clone) used to cost most of a problem's build, which is
//! most of what a verdict-cache hit costs the service.

use std::borrow::Cow;
use velv_eufm::{Context, FormulaId, TermId};

/// What kind of value a state element holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StateKind {
    /// A single word-level value (PC, a pipeline-latch field, ...).
    Term,
    /// A memory array (register file, data memory, ALAT, ...).
    Memory,
    /// A control bit (valid bit, exception flag, ...).
    Flag,
}

/// Declaration of one state element of a processor.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StateElement {
    /// Unique name of the element (e.g. `"pc"`, `"reg_file"`, `"id_ex.valid"`).
    /// Fixed names are borrowed, so a design whose layout never changes can
    /// declare it as a `static`.
    pub name: Cow<'static, str>,
    /// Kind of value held by the element.
    pub kind: StateKind,
    /// Whether the element is architectural (visible to the ISA) or
    /// micro-architectural (pipeline latch contents).
    pub architectural: bool,
}

impl StateElement {
    /// Declares an architectural term-valued element.
    pub const fn arch_term(name: &'static str) -> Self {
        StateElement {
            name: Cow::Borrowed(name),
            kind: StateKind::Term,
            architectural: true,
        }
    }

    /// Declares an architectural memory element.
    pub const fn arch_memory(name: &'static str) -> Self {
        StateElement {
            name: Cow::Borrowed(name),
            kind: StateKind::Memory,
            architectural: true,
        }
    }

    /// Declares an architectural flag element.
    pub const fn arch_flag(name: &'static str) -> Self {
        StateElement {
            name: Cow::Borrowed(name),
            kind: StateKind::Flag,
            architectural: true,
        }
    }

    /// Declares a micro-architectural (pipeline) term-valued element.
    pub const fn pipe_term(name: &'static str) -> Self {
        StateElement {
            name: Cow::Borrowed(name),
            kind: StateKind::Term,
            architectural: false,
        }
    }

    /// Declares a micro-architectural flag element (e.g. a valid bit).
    pub const fn pipe_flag(name: &'static str) -> Self {
        StateElement {
            name: Cow::Borrowed(name),
            kind: StateKind::Flag,
            architectural: false,
        }
    }

    /// Declares an element whose name is built at run time (e.g. one field of
    /// one pipeline slot).
    pub fn named(name: String, kind: StateKind, architectural: bool) -> Self {
        StateElement {
            name: Cow::Owned(name),
            kind,
            architectural,
        }
    }
}

/// A symbolic value: either a term or a formula.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// A word-level (term) value.
    Term(TermId),
    /// A control (formula) value.
    Formula(FormulaId),
}

impl Value {
    /// Extracts the term, panicking on a formula value.
    ///
    /// # Panics
    ///
    /// Panics if the value is a formula.
    pub fn term(self) -> TermId {
        match self {
            Value::Term(t) => t,
            Value::Formula(_) => panic!("expected a term-valued state element"),
        }
    }

    /// Extracts the formula, panicking on a term value.
    ///
    /// # Panics
    ///
    /// Panics if the value is a term.
    pub fn formula(self) -> FormulaId {
        match self {
            Value::Formula(f) => f,
            Value::Term(_) => panic!("expected a formula-valued state element"),
        }
    }
}

/// A symbolic state: one value per element of a design's state layout.
///
/// A design declares its elements once, in its constructor, as the slice
/// [`Processor::state_elements`](crate::Processor::state_elements) returns;
/// an element's *position* in that slice is its index here.  Designs keep
/// the positions of the elements they read and write in index tables built
/// alongside the slice, so a step reaches a latch field by index: reading or
/// setting an element builds no name and allocates nothing, and cloning a
/// state copies one `Vec` of plain ids.  Names matter only where a state
/// meets the expression context — the initial state's variables are named
/// after the elements — and where two layouts are matched up (the
/// architectural projection).
///
/// A state made by [`SymbolicState::unset`] starts with every element
/// unset; a step sets each element of its design's layout, and reading an
/// element that was never set panics, so a step that forgets one fails at
/// its first use instead of carrying a stale value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymbolicState {
    values: Vec<Option<Value>>,
}

impl SymbolicState {
    /// A state of `len` elements, none of them set yet: where a step starts
    /// its successor state.
    pub fn unset(len: usize) -> Self {
        SymbolicState {
            values: vec![None; len],
        }
    }

    /// Creates the fully symbolic initial state for `elements`: every term and
    /// memory element becomes a fresh term variable, every flag becomes a
    /// fresh propositional variable, named `prefix` followed by the element
    /// name.  The prefix keeps implementation and specification initial
    /// states distinct when needed.
    pub fn initial(ctx: &mut Context, elements: &[StateElement], prefix: &str) -> Self {
        let values = elements
            .iter()
            .map(|element| {
                let var_name: Cow<'_, str> = if prefix.is_empty() {
                    Cow::Borrowed(&element.name)
                } else {
                    Cow::Owned(format!("{prefix}{}", element.name))
                };
                Some(match element.kind {
                    StateKind::Term | StateKind::Memory => Value::Term(ctx.term_var(&var_name)),
                    StateKind::Flag => Value::Formula(ctx.prop_var(&var_name)),
                })
            })
            .collect();
        SymbolicState { values }
    }

    /// Sets the term-valued element at position `element`.
    ///
    /// # Panics
    ///
    /// Panics if `element` is outside the layout.
    pub fn set_term(&mut self, element: usize, value: TermId) -> &mut Self {
        self.values[element] = Some(Value::Term(value));
        self
    }

    /// Sets the formula-valued element at position `element`.
    ///
    /// # Panics
    ///
    /// Panics if `element` is outside the layout.
    pub fn set_formula(&mut self, element: usize, value: FormulaId) -> &mut Self {
        self.values[element] = Some(Value::Formula(value));
        self
    }

    /// Reads a term-valued element.
    ///
    /// # Panics
    ///
    /// Panics if the element is unset or formula-valued.
    pub fn term(&self, element: usize) -> TermId {
        self.value(element).term()
    }

    /// Reads a formula-valued element.
    ///
    /// # Panics
    ///
    /// Panics if the element is unset or term-valued.
    pub fn formula(&self, element: usize) -> FormulaId {
        self.value(element).formula()
    }

    /// Reads any element.
    ///
    /// # Panics
    ///
    /// Panics if the element is unset or outside the layout.
    pub fn value(&self, element: usize) -> Value {
        self.values[element]
            .unwrap_or_else(|| panic!("state element #{element} is not set in this state"))
    }

    /// Whether every element of the layout is set.
    pub fn is_complete(&self) -> bool {
        self.values.iter().all(Option::is_some)
    }

    /// Number of elements in the layout.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the layout has no elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The architectural part of a state laid out by `elements`: the values
    /// of the architectural elements in layout order, which is the layout of
    /// [`Processor::arch_state`](crate::Processor::arch_state) (e.g.
    /// projecting a flushed implementation state for the specification).
    ///
    /// # Panics
    ///
    /// Panics if `elements` is not this state's layout.
    pub fn architectural(&self, elements: &[StateElement]) -> SymbolicState {
        assert_eq!(
            elements.len(),
            self.values.len(),
            "the layout does not match the state"
        );
        let values = elements
            .iter()
            .zip(&self.values)
            .filter(|(element, _)| element.architectural)
            .map(|(_, &value)| value)
            .collect();
        SymbolicState { values }
    }

    /// The formula stating that `self` and `other` agree on the element at
    /// position `element` (terms and memories compared with an equation,
    /// flags with `iff`).
    ///
    /// # Panics
    ///
    /// Panics if the element is unset in either state or the two values are
    /// of different kinds.
    pub fn element_equal(
        &self,
        ctx: &mut Context,
        other: &SymbolicState,
        element: usize,
    ) -> FormulaId {
        match (self.value(element), other.value(element)) {
            (Value::Term(a), Value::Term(b)) => ctx.eq(a, b),
            (Value::Formula(a), Value::Formula(b)) => ctx.iff(a, b),
            _ => panic!("state element #{element} differs in kind between the two states"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static ELEMENTS: [StateElement; 4] = [
        StateElement::arch_term("pc"),
        StateElement::arch_memory("reg_file"),
        StateElement::pipe_flag("if_id.valid"),
        StateElement::pipe_term("if_id.pc"),
    ];

    /// Positions in [`ELEMENTS`].
    const PC: usize = 0;
    const REG_FILE: usize = 1;
    const VALID: usize = 2;

    fn agree_on_all(ctx: &mut Context, a: &SymbolicState, b: &SymbolicState) -> FormulaId {
        let mut acc = ctx.true_id();
        for element in 0..a.len() {
            let eq = a.element_equal(ctx, b, element);
            acc = ctx.and(acc, eq);
        }
        acc
    }

    #[test]
    fn initial_state_has_every_element() {
        let mut ctx = Context::new();
        let state = SymbolicState::initial(&mut ctx, &ELEMENTS, "");
        assert_eq!(state.len(), 4);
        assert!(state.is_complete());
        assert!(matches!(state.value(PC), Value::Term(_)));
        assert!(matches!(state.value(VALID), Value::Formula(_)));
        assert_eq!(
            state.term(PC),
            ctx.term_var("pc"),
            "named after the element"
        );
    }

    #[test]
    fn prefix_distinguishes_two_initial_states() {
        let mut ctx = Context::new();
        let a = SymbolicState::initial(&mut ctx, &ELEMENTS, "a_");
        let b = SymbolicState::initial(&mut ctx, &ELEMENTS, "b_");
        assert_ne!(a.term(PC), b.term(PC));
        assert_eq!(a.term(PC), ctx.term_var("a_pc"));
    }

    #[test]
    fn architectural_projection_keeps_the_architectural_prefix() {
        let mut ctx = Context::new();
        let state = SymbolicState::initial(&mut ctx, &ELEMENTS, "");
        let projected = state.architectural(&ELEMENTS);
        assert_eq!(projected.len(), 2);
        assert_eq!(projected.term(PC), state.term(PC));
        assert_eq!(projected.term(REG_FILE), state.term(REG_FILE));
    }

    #[test]
    fn set_overwrites_one_element() {
        let mut ctx = Context::new();
        let state = SymbolicState::initial(&mut ctx, &ELEMENTS, "");
        let mut next = state.clone();
        let pc1 = ctx.term_var("pc1");
        next.set_term(PC, pc1);
        assert_eq!(next.term(PC), pc1);
        assert_eq!(next.formula(VALID), state.formula(VALID));
    }

    #[test]
    fn equality_formula_is_true_for_identical_states() {
        let mut ctx = Context::new();
        let state = SymbolicState::initial(&mut ctx, &ELEMENTS, "");
        let eq = agree_on_all(&mut ctx, &state, &state.clone());
        assert!(ctx.is_true(eq));
    }

    #[test]
    fn equality_formula_is_nontrivial_for_distinct_states() {
        let mut ctx = Context::new();
        let a = SymbolicState::initial(&mut ctx, &ELEMENTS, "a_");
        let b = SymbolicState::initial(&mut ctx, &ELEMENTS, "b_");
        let eq = agree_on_all(&mut ctx, &a, &b);
        assert!(!ctx.is_true(eq));
        assert!(!ctx.is_false(eq));
    }

    #[test]
    #[should_panic(expected = "not set")]
    fn reading_an_unset_element_panics() {
        let state = SymbolicState::unset(ELEMENTS.len());
        assert!(!state.is_complete());
        let _ = state.value(PC);
    }
}
