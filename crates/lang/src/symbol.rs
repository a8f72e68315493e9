//! String interning.
//!
//! Identifiers are interned into [`Symbol`]s so that the analyses can
//! compare and hash names in O(1) and store them compactly inside
//! bit-sets, matching the paper's concern (§7) that the representation of
//! variable sets has "a large effect on the speed of the debugging phase
//! algorithms".

use std::collections::HashMap;
use std::fmt;

/// An interned identifier.
///
/// Symbols are only meaningful relative to the [`Interner`] that produced
/// them; the parser exposes the interner on the parsed
/// [`Program`](crate::ast::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Raw index of this symbol in its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A de-duplicating string store mapping identifiers to [`Symbol`]s.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    index: HashMap<String, Symbol>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning the existing symbol if already present.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), sym);
        sym
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).copied()
    }

    /// Returns the text of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        let c = i.intern("foo");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.get("alpha"), Some(a));
        assert_eq!(i.get("beta"), None);
    }
}
