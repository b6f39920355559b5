//! Ergonomic construction of functions.
//!
//! [`FuncBuilder`] wraps a `(&mut Module, FuncId)` pair and offers
//! append-at-cursor instruction emission:
//!
//! ```
//! use optinline_ir::{Module, Linkage, FuncBuilder, BinOp};
//!
//! let mut m = Module::new("demo");
//! let double = m.declare_function("double", 1, Linkage::Internal);
//! let main = m.declare_function("main", 0, Linkage::Public);
//!
//! {
//!     let mut b = FuncBuilder::new(&mut m, double);
//!     let p = b.param(0);
//!     let r = b.bin(BinOp::Add, p, p);
//!     b.ret(Some(r));
//! }
//! {
//!     let mut b = FuncBuilder::new(&mut m, main);
//!     let x = b.iconst(21);
//!     let y = b.call(double, &[x]);
//!     b.ret(y);
//! }
//! assert_eq!(m.inlinable_sites().len(), 1);
//! ```

use crate::ids::{BlockId, CallSiteId, FuncId, GlobalId, ValueId};
use crate::inst::{BinOp, Inst, JumpTarget, Terminator};
use crate::module::Module;

/// Builder positioned at the end of a *current block* of one function.
///
/// The builder borrows the module exclusively so that calls can mint fresh
/// [`CallSiteId`]s.
#[derive(Debug)]
pub struct FuncBuilder<'m> {
    module: &'m mut Module,
    func: FuncId,
    cursor: BlockId,
}

impl<'m> FuncBuilder<'m> {
    /// Creates a builder positioned at the entry block of `func`.
    pub fn new(module: &'m mut Module, func: FuncId) -> Self {
        FuncBuilder { module, func, cursor: BlockId::new(0) }
    }

    /// The block instructions are currently appended to.
    pub fn cursor(&self) -> BlockId {
        self.cursor
    }

    /// Moves the cursor to `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cursor = block;
    }

    /// Returns the `i`-th function parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param(&self, i: usize) -> ValueId {
        self.module.func(self.func).params()[i]
    }

    /// Creates a new block with `n_params` fresh parameters; returns the
    /// block id and its parameter values. Does not move the cursor.
    pub fn new_block(&mut self, n_params: usize) -> (BlockId, Vec<ValueId>) {
        let f = self.module.func_mut(self.func);
        let params: Vec<ValueId> = (0..n_params).map(|_| f.new_value()).collect();
        let id = f.add_block(params.clone());
        (id, params)
    }

    fn push(&mut self, inst: Inst) {
        let cursor = self.cursor;
        self.module.func_mut(self.func).block_mut(cursor).insts.push(inst);
    }

    /// Emits `dst = const value` and returns `dst`.
    pub fn iconst(&mut self, value: i64) -> ValueId {
        let dst = self.module.func_mut(self.func).new_value();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// Emits `dst = op lhs, rhs` and returns `dst`.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let dst = self.module.func_mut(self.func).new_value();
        self.push(Inst::Bin { dst, op, lhs, rhs });
        dst
    }

    /// Emits a call whose result is used; returns the result value.
    ///
    /// A fresh [`CallSiteId`] is minted.
    pub fn call(&mut self, callee: FuncId, args: &[ValueId]) -> Option<ValueId> {
        let dst = self.module.func_mut(self.func).new_value();
        let site = self.module.new_call_site();
        self.push(Inst::Call {
            dst: Some(dst),
            callee,
            args: args.to_vec(),
            site,
            inline_path: vec![],
        });
        Some(dst)
    }

    /// Emits a call discarding the result.
    pub fn call_void(&mut self, callee: FuncId, args: &[ValueId]) -> CallSiteId {
        let site = self.module.new_call_site();
        self.push(Inst::Call { dst: None, callee, args: args.to_vec(), site, inline_path: vec![] });
        site
    }

    /// Emits a call whose result is used and also returns the minted site id.
    pub fn call_with_site(&mut self, callee: FuncId, args: &[ValueId]) -> (ValueId, CallSiteId) {
        let dst = self.module.func_mut(self.func).new_value();
        let site = self.module.new_call_site();
        self.push(Inst::Call {
            dst: Some(dst),
            callee,
            args: args.to_vec(),
            site,
            inline_path: vec![],
        });
        (dst, site)
    }

    /// Emits `dst = load @g`.
    pub fn load(&mut self, global: GlobalId) -> ValueId {
        let dst = self.module.func_mut(self.func).new_value();
        self.push(Inst::Load { dst, global });
        dst
    }

    /// Emits `store @g, src`.
    pub fn store(&mut self, global: GlobalId, src: ValueId) {
        self.push(Inst::Store { global, src });
    }

    fn set_term(&mut self, term: Terminator) {
        let cursor = self.cursor;
        self.module.func_mut(self.func).block_mut(cursor).term = term;
    }

    /// Terminates the current block with `jump target(args)` and moves the
    /// cursor to `target`.
    pub fn jump(&mut self, target: BlockId, args: &[ValueId]) {
        self.set_term(Terminator::Jump(JumpTarget::with_args(target, args.to_vec())));
        self.cursor = target;
    }

    /// Terminates the current block with a conditional branch. The cursor is
    /// left unchanged; use [`switch_to`](Self::switch_to) to continue.
    pub fn branch(
        &mut self,
        cond: ValueId,
        then_to: BlockId,
        then_args: &[ValueId],
        else_to: BlockId,
        else_args: &[ValueId],
    ) {
        self.set_term(Terminator::Branch {
            cond,
            then_to: JumpTarget::with_args(then_to, then_args.to_vec()),
            else_to: JumpTarget::with_args(else_to, else_args.to_vec()),
        });
    }

    /// Terminates the current block with `ret [value]`.
    pub fn ret(&mut self, value: Option<ValueId>) {
        self.set_term(Terminator::Return(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Linkage;

    #[test]
    fn builds_straight_line_function() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let f = m.func(f);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 1);
        assert_eq!(f.blocks[0].term, Terminator::Return(Some(s)));
    }

    #[test]
    fn builds_diamond_cfg() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (then_b, _) = b.new_block(0);
        let (else_b, _) = b.new_block(0);
        let (join, join_params) = b.new_block(1);
        b.branch(p, then_b, &[], else_b, &[]);
        b.switch_to(then_b);
        let one = b.iconst(1);
        b.jump(join, &[one]);
        b.switch_to(else_b);
        let two = b.iconst(2);
        b.jump(join, &[two]);
        b.switch_to(join);
        b.ret(Some(join_params[0]));
        let f = m.func(f);
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.blocks[join.index()].params.len(), 1);
    }

    #[test]
    fn calls_mint_distinct_sites() {
        let mut m = Module::new("m");
        let callee = m.declare_function("callee", 0, Linkage::Internal);
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let s0 = b.call_void(callee, &[]);
        let s1 = b.call_void(callee, &[]);
        b.ret(None);
        assert_ne!(s0, s1);
        assert_eq!(m.func(f).call_sites(), vec![s0, s1]);
    }

    #[test]
    fn loads_and_stores_touch_globals() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let f = m.declare_function("f", 0, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let v = b.load(g);
        b.store(g, v);
        b.ret(None);
        assert_eq!(m.func(f).inst_count(), 2);
    }
}
