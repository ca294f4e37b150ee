//! Term interning.
//!
//! Every term string is mapped to a dense [`TermId`] so the mining
//! algorithms can use vectors and small hash maps keyed by integers instead
//! of strings. The mapping is append-only and stable for the lifetime of the
//! dictionary.

use std::collections::HashMap;

/// Dense identifier of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The term id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only interning dictionary between term strings and [`TermId`]s.
#[derive(Debug, Clone, Default)]
pub struct TermDict {
    terms: Vec<String>,
    index: HashMap<String, TermId>,
}

impl TermDict {
    /// Creates an empty dictionary.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id. Repeated calls with the same string
    /// return the same id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_string());
        self.index.insert(term.to_string(), id);
        id
    }

    /// Looks up an already-interned term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.index.get(term).copied()
    }

    /// The string of an interned term.
    pub fn resolve(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over all `(TermId, term)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, s)| (TermId(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern("earthquake");
        let b = d.intern("earthquake");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = TermDict::new();
        let a = d.intern("a");
        let b = d.intern("b");
        let c = d.intern("c");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut d = TermDict::new();
        let id = d.intern("piracy");
        assert_eq!(d.resolve(id), Some("piracy"));
        assert_eq!(d.get("piracy"), Some(id));
        assert_eq!(d.get("unknown"), None);
        assert_eq!(d.resolve(TermId(99)), None);
    }

    #[test]
    fn is_case_sensitive() {
        let mut d = TermDict::new();
        let a = d.intern("Obama");
        let b = d.intern("obama");
        assert_ne!(a, b);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut d = TermDict::new();
        d.intern("x");
        d.intern("y");
        let items: Vec<_> = d
            .iter()
            .map(|(id, s)| (id.index(), s.to_string()))
            .collect();
        assert_eq!(items, vec![(0, "x".to_string()), (1, "y".to_string())]);
    }

    #[test]
    fn empty_dict() {
        let d = TermDict::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }
}
