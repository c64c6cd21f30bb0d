//! String interning for variable, uninterpreted-function and predicate names.

use crate::idhash::{IdHasher, IdTable};
use std::fmt;
use std::hash::Hasher;

/// An interned identifier for a name (term variable, propositional variable,
/// uninterpreted function or predicate).
///
/// Symbols are cheap to copy and compare; the actual string is owned by the
/// [`SymbolTable`] of the [`Context`](crate::Context) that created them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// Raw index of the symbol inside its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only interner mapping names to [`Symbol`]s and back.
///
/// Every name is stored once: the names are concatenated in one buffer in
/// interning order, and the index holds only symbol ids, hashed over the
/// name each one denotes.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    /// All names, concatenated in interning order.
    text: String,
    /// End offset in `text` of each symbol's name.
    ends: Vec<u32>,
    /// Every symbol's id, hashed over its name.
    index: IdTable,
}

/// The hash of a name: its bytes folded eight at a time, then its length.
fn name_hash(name: &str) -> u64 {
    let mut hasher = IdHasher::default();
    for chunk in name.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hasher.write_u64(u64::from_le_bytes(word));
    }
    hasher.write_usize(name.len());
    hasher.finish()
}

/// The name of symbol `id` in a table's concatenated `text`.
fn name_at<'a>(text: &'a str, ends: &[u32], id: u32) -> &'a str {
    let id = id as usize;
    let start = match id {
        0 => 0,
        _ => ends[id - 1] as usize,
    };
    &text[start..ends[id] as usize]
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if it was seen before.
    pub fn intern(&mut self, name: &str) -> Symbol {
        let hash = name_hash(name);
        if let Some(sym) = self.find(hash, name) {
            return sym;
        }
        let sym = Symbol(self.ends.len() as u32);
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("symbol names fit in 4 GiB");
        self.ends.push(end);
        let (text, ends) = (&self.text, &self.ends);
        self.index
            .insert(hash, sym.0, |id| name_hash(name_at(text, ends, id)));
        sym
    }

    /// Looks up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.find(name_hash(name), name)
    }

    fn find(&self, hash: u64, name: &str) -> Option<Symbol> {
        self.index
            .get(hash, |id| self.name(Symbol(id)) == name)
            .map(Symbol)
    }

    /// Returns the name of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` does not belong to this table.
    pub fn name(&self, sym: Symbol) -> &str {
        name_at(&self.text, &self.ends, sym.0)
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over all `(Symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.ends.len() as u32).map(|i| (Symbol(i), self.name(Symbol(i))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut table = SymbolTable::new();
        let a1 = table.intern("a");
        let a2 = table.intern("a");
        let b = table.intern("b");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(table.name(a1), "a");
        assert_eq!(table.name(b), "b");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut table = SymbolTable::new();
        assert!(table.lookup("x").is_none());
        let x = table.intern("x");
        assert_eq!(table.lookup("x"), Some(x));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn iter_preserves_order() {
        let mut table = SymbolTable::new();
        let names = ["pc", "rf", "op", "pc"];
        for n in names {
            table.intern(n);
        }
        let collected: Vec<&str> = table.iter().map(|(_, n)| n).collect();
        assert_eq!(collected, vec!["pc", "rf", "op"]);
    }

    #[test]
    fn symbol_display_is_nonempty() {
        let mut table = SymbolTable::new();
        let s = table.intern("alu");
        assert!(!format!("{s}").is_empty());
    }
}
