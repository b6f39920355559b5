//! Value substitution support shared by the scalar passes.
//!
//! In SSA, many simplifications reduce to "replace every use of `a` with
//! `b`". [`Subst`] collects such replacements (following chains) and applies
//! them to a whole function in one sweep.
//!
//! The replacements live in a dense table indexed by [`ValueId::index`]:
//! slot `i` holds the replacement of value `i`, if any. Value ids are dense
//! per function (below [`Function::value_bound`]), so the table stays small;
//! it grows on insert, and a lookup past its end means "no replacement". An
//! entry count bounds chain walks, which is how a cycle is detected.

use optinline_ir::{Function, ValueId};

/// A set of pending `old → new` value replacements.
#[derive(Clone, Debug, Default)]
pub struct Subst {
    /// `map[old.index()]` — the replacement of `old`.
    map: Vec<Option<ValueId>>,
    /// Occupied slots in `map`.
    len: usize,
}

impl Subst {
    /// Creates an empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `old → new`. Chains are fine (`a → b`, `b → c`).
    ///
    /// # Panics
    ///
    /// Panics on a direct self-mapping, which would loop forever.
    pub fn insert(&mut self, old: ValueId, new: ValueId) {
        assert_ne!(old, new, "self-substitution {old} -> {new}");
        if old.index() >= self.map.len() {
            self.map.resize(old.index() + 1, None);
        }
        let slot = &mut self.map[old.index()];
        if slot.is_none() {
            self.len += 1;
        }
        *slot = Some(new);
    }

    /// Drops every replacement and keeps the table's capacity, so a pass
    /// can reuse one substitution across functions.
    pub fn clear(&mut self) {
        self.map.clear();
        self.len = 0;
    }

    /// Returns `true` if no replacements are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pending replacements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Resolves a value through replacement chains.
    ///
    /// # Panics
    ///
    /// Panics if the substitution contains a cycle (a pass bug).
    pub fn resolve(&self, v: ValueId) -> ValueId {
        let mut cur = v;
        let mut hops = 0;
        while let Some(&Some(next)) = self.map.get(cur.index()) {
            cur = next;
            hops += 1;
            assert!(hops <= self.len, "substitution cycle at {v}");
        }
        cur
    }

    /// Rewrites every use in the function. Definitions are untouched;
    /// callers are expected to have deleted the defining instructions.
    pub fn apply(&self, func: &mut Function) {
        if self.is_empty() {
            return;
        }
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                inst.map_uses(|v| self.resolve(v));
            }
            block.term.map_uses(|v| self.resolve(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{BinOp, FuncBuilder, Linkage, Module, Terminator};

    #[test]
    fn resolve_follows_chains() {
        let mut s = Subst::new();
        s.insert(ValueId::new(1), ValueId::new(2));
        s.insert(ValueId::new(2), ValueId::new(3));
        assert_eq!(s.resolve(ValueId::new(1)), ValueId::new(3));
        assert_eq!(s.resolve(ValueId::new(9)), ValueId::new(9));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn reinserting_a_value_replaces_without_counting_twice() {
        let mut s = Subst::new();
        s.insert(ValueId::new(4), ValueId::new(2));
        s.insert(ValueId::new(4), ValueId::new(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.resolve(ValueId::new(4)), ValueId::new(3));
        assert_eq!(s.resolve(ValueId::new(0)), ValueId::new(0));
    }

    #[test]
    fn clear_forgets_every_replacement() {
        let mut s = Subst::new();
        s.insert(ValueId::new(7), ValueId::new(2));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.resolve(ValueId::new(7)), ValueId::new(7));
        s.insert(ValueId::new(1), ValueId::new(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_are_detected() {
        let mut s = Subst::new();
        s.insert(ValueId::new(1), ValueId::new(2));
        s.insert(ValueId::new(2), ValueId::new(1));
        s.resolve(ValueId::new(1));
    }

    #[test]
    fn apply_rewrites_uses_everywhere() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (x, y) = (b.param(0), b.param(1));
        let sum = b.bin(BinOp::Add, x, y);
        b.ret(Some(sum));
        let mut s = Subst::new();
        s.insert(y, x);
        s.apply(m.func_mut(f));
        match &m.func(f).blocks[0].insts[0] {
            optinline_ir::Inst::Bin { lhs, rhs, .. } => {
                assert_eq!(*lhs, x);
                assert_eq!(*rhs, x);
            }
            other => panic!("unexpected inst {other:?}"),
        }
        assert_eq!(m.func(f).blocks[0].term, Terminator::Return(Some(sum)));
    }
}
