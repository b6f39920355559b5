//! Tail merging (cross-jumping): identical basic blocks within a function
//! collapse to one, and every branch is redirected to the survivor.
//!
//! Inlining mass-produces duplicate tails — every cloned callee brings its
//! own copy of the same epilogue — and on a 16-byte-aligned target each
//! deduplicated block is real money. GCC does this as `crossjumping`; LLVM
//! folds it into `simplifycfg`. Per-function and therefore safe for the
//! §3.2 independence the search relies on.
//!
//! Two blocks merge when they are structurally identical *modulo local
//! value renaming*: no block parameters, every defined value is used only
//! inside the block, and all externally defined operands match exactly.
//!
//! # Block keys
//!
//! A block's identity is one flat `Vec<u64>`, compared and hashed (through
//! [`FxHashMap`]) as a whole. Each instruction contributes a tag word and
//! then its fields; the terminator follows with its own tags, which differ
//! from every instruction tag. Operands are single words: an external value
//! is its id (below 2³²), and the *i*-th value defined in the block is
//! `LOCAL | i`, with the `LOCAL` bit above every value id. Calls and jump
//! targets write their argument count before the arguments. So each tag
//! fixes how many words follow it, a key parses back to exactly one block
//! shape, and two keys are equal exactly when the blocks are:
//!
//! | item | words |
//! |------|-------|
//! | `const` | `CONST, value` |
//! | `bin` | `BIN, op, lhs, rhs` |
//! | `call` | `CALL, callee, site, argc, args…` |
//! | `load` | `LOAD, global` |
//! | `store` | `STORE, global, src` |
//! | `jump` | `JUMP, block, argc, args…` |
//! | `br` | `BRANCH, cond, then-block, argc, args…, else-block, argc, args…` |
//! | `ret v` / `ret` / `unreachable` | `RET, v` / `RET_VOID` / `UNREACHABLE` |
//!
//! The key is built in one scratch buffer; only a block whose key is new
//! allocates, to own its map entry. The local-definition and use-count
//! tables are dense, indexed by value id, and reset after each block.

use crate::fx::FxHashMap;
use crate::pass::{Pass, PassResult, PreservedAnalyses};
use optinline_ir::analysis::use_counts;
use optinline_ir::{
    AnalysisManager, Block, BlockId, FuncId, Inst, JumpTarget, Module, Terminator, ValueId,
};

/// The tail-merging pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct TailMerge;

impl Pass for TailMerge {
    fn name(&self) -> &'static str {
        "tail-merge"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        if merge_function(module, fid) {
            // Duplicate blocks (possibly containing memory ops or calls)
            // are deleted and branches re-targeted: preserve nothing.
            PassResult::changed(fid, PreservedAnalyses::none())
        } else {
            PassResult::unchanged()
        }
    }
}

// Key tags: instructions, then terminators.
const CONST: u64 = 0;
const BIN: u64 = 1;
const CALL: u64 = 2;
const LOAD: u64 = 3;
const STORE: u64 = 4;
const JUMP: u64 = 5;
const BRANCH: u64 = 6;
const RET: u64 = 7;
const RET_VOID: u64 = 8;
const UNREACHABLE: u64 = 9;

/// Marks an operand word as the index of a block-local definition.
const LOCAL: u64 = 1 << 32;
/// `local[v]` for a value not defined in the current block.
const NOT_LOCAL: u32 = u32::MAX;

/// Dense per-value scratch tables, all-clear between blocks.
struct Scratch {
    /// `local[v]` — the definition index of `v` within the block.
    local: Vec<u32>,
    /// `internal_uses[v]` — uses of `v` within the block.
    internal_uses: Vec<u32>,
    /// The key under construction.
    key: Vec<u64>,
}

impl Scratch {
    fn operand(&self, v: ValueId) -> u64 {
        match self.local.get(v.index()) {
            Some(&i) if i != NOT_LOCAL => LOCAL | u64::from(i),
            _ => u64::from(v.as_u32()),
        }
    }

    fn target(&mut self, t: &JumpTarget) {
        self.key.push(u64::from(t.block.as_u32()));
        self.key.push(t.args.len() as u64);
        for &a in &t.args {
            let word = self.operand(a);
            self.key.push(word);
        }
    }

    /// Writes the block's key into `self.key`; `false` when the block has
    /// parameters or a definition used outside it (never mergeable).
    fn block_key(&mut self, block: &Block, counts: &[u32]) -> bool {
        self.key.clear();
        if !block.params.is_empty() {
            return false;
        }
        // Local defs, in order; every def must be used only inside this block.
        let mut defs = 0u32;
        for inst in &block.insts {
            inst.for_each_use(|v| bump(&mut self.internal_uses, v));
            if let Some(d) = inst.def() {
                self.local[d.index()] = defs;
                defs += 1;
            }
        }
        block.term.for_each_use(|v| bump(&mut self.internal_uses, v));
        let escapes = block
            .insts
            .iter()
            .filter_map(Inst::def)
            .any(|d| counts[d.index()] != self.internal_uses[d.index()]);
        if escapes {
            return false; // defined value escapes the block
        }
        for inst in &block.insts {
            match inst {
                Inst::Const { value, .. } => self.key.extend([CONST, *value as u64]),
                Inst::Bin { op, lhs, rhs, .. } => {
                    let (l, r) = (self.operand(*lhs), self.operand(*rhs));
                    self.key.extend([BIN, *op as u64, l, r]);
                }
                Inst::Call { callee, args, site, .. } => {
                    // Site ids key the merge: calls with different original
                    // sites never collapse, so no inlining decision changes
                    // which instructions it governs.
                    self.key.extend([
                        CALL,
                        u64::from(callee.as_u32()),
                        u64::from(site.as_u32()),
                        args.len() as u64,
                    ]);
                    for &a in args {
                        let word = self.operand(a);
                        self.key.push(word);
                    }
                }
                Inst::Load { global, .. } => self.key.extend([LOAD, u64::from(global.as_u32())]),
                Inst::Store { global, src } => {
                    let word = self.operand(*src);
                    self.key.extend([STORE, u64::from(global.as_u32()), word]);
                }
            }
        }
        match &block.term {
            Terminator::Jump(t) => {
                self.key.push(JUMP);
                self.target(t);
            }
            Terminator::Branch { cond, then_to, else_to } => {
                let word = self.operand(*cond);
                self.key.extend([BRANCH, word]);
                self.target(then_to);
                self.target(else_to);
            }
            Terminator::Return(Some(v)) => {
                let word = self.operand(*v);
                self.key.extend([RET, word]);
            }
            Terminator::Return(None) => self.key.push(RET_VOID),
            Terminator::Unreachable => self.key.push(UNREACHABLE),
        }
        true
    }

    /// Clears the entries `block` set, leaving both tables all-clear.
    fn reset(&mut self, block: &Block) {
        for inst in &block.insts {
            inst.for_each_use(|v| clear(&mut self.internal_uses, v));
            if let Some(d) = inst.def() {
                self.local[d.index()] = NOT_LOCAL;
            }
        }
        block.term.for_each_use(|v| clear(&mut self.internal_uses, v));
    }
}

/// Counts one use; a use past the table (possible only in unreachable
/// code) cannot be a local definition and is skipped.
fn bump(table: &mut [u32], v: ValueId) {
    if let Some(count) = table.get_mut(v.index()) {
        *count += 1;
    }
}

fn clear(table: &mut [u32], v: ValueId) {
    if let Some(count) = table.get_mut(v.index()) {
        *count = 0;
    }
}

fn merge_function(module: &mut Module, fid: FuncId) -> bool {
    let func = module.func(fid);
    let counts = use_counts(func);
    let bound = func.value_bound() as usize;
    let mut scratch =
        Scratch { local: vec![NOT_LOCAL; bound], internal_uses: vec![0; bound], key: Vec::new() };
    let mut by_key: FxHashMap<Vec<u64>, BlockId> = FxHashMap::default();
    let mut redirect: Vec<Option<BlockId>> = vec![None; func.blocks.len()];
    let mut any = false;
    for (bid, block) in func.iter_blocks() {
        if bid == func.entry() {
            continue; // the entry defines the function's parameters
        }
        let mergeable = scratch.block_key(block, &counts);
        scratch.reset(block);
        if !mergeable {
            continue;
        }
        match by_key.get(scratch.key.as_slice()) {
            Some(&leader) => {
                redirect[bid.index()] = Some(leader);
                any = true;
            }
            None => {
                by_key.insert(scratch.key.clone(), bid);
            }
        }
    }
    if !any {
        return false;
    }
    // A leader's own successors may themselves be redirected; resolving
    // chains is unnecessary because keys embed successor ids — identical
    // blocks jumping to *different* (even if mergeable) successors get
    // different keys this round; the pipeline loop converges the rest.
    let func = module.func_mut(fid);
    for block in &mut func.blocks {
        block.term.for_each_target_mut(|t| {
            if let Some(leader) = redirect[t.block.index()] {
                t.block = leader;
            }
        });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify_cfg::SimplifyCfg;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    /// Branch with two arms that compute-and-return the same constant.
    fn twin_arms() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let c1 = b.iconst(7);
        let r1 = b.bin(BinOp::Add, c1, c1);
        b.ret(Some(r1));
        b.switch_to(e);
        let c2 = b.iconst(7);
        let r2 = b.bin(BinOp::Add, c2, c2);
        b.ret(Some(r2));
        (m, f)
    }

    #[test]
    fn identical_tails_merge_modulo_renaming() {
        let (mut m, f) = twin_arms();
        let before = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap();
        assert!(TailMerge.run(&mut m));
        assert_verified(&m);
        // Both branch arms now target one block; cleanup then collapses the
        // now-trivial branch and merges everything into the entry.
        SimplifyCfg.run(&mut m);
        assert_eq!(m.func(f).blocks.len(), 1, "{m}");
        let after = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap();
        assert_eq!(before.observable(), after.observable());
    }

    #[test]
    fn blocks_with_escaping_defs_do_not_merge() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (j, jp) = b.new_block(1);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let c1 = b.iconst(7);
        b.jump(j, &[c1]);
        b.switch_to(e);
        let c2 = b.iconst(7);
        b.jump(j, &[c2]);
        b.switch_to(j);
        b.ret(Some(jp[0]));
        // The defs escape via jump args... they are used ONLY by the jump
        // inside the block, so these DO merge (both arms pass const 7).
        assert!(TailMerge.run(&mut m));
        assert_verified(&m);
        let out = optinline_ir::interp::Interp::new(&m).run(f, &[0]).unwrap();
        assert_eq!(out.ret, Some(7));
    }

    #[test]
    fn different_constants_do_not_merge() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let c1 = b.iconst(1);
        b.ret(Some(c1));
        b.switch_to(e);
        let c2 = b.iconst(2);
        b.ret(Some(c2));
        assert!(!TailMerge.run(&mut m));
        let r1 = optinline_ir::interp::Interp::new(&m).run(f, &[1]).unwrap().ret;
        let r0 = optinline_ir::interp::Interp::new(&m).run(f, &[0]).unwrap().ret;
        assert_eq!((r1, r0), (Some(1), Some(2)));
    }

    #[test]
    fn external_operands_must_match_exactly() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let (p, q) = (b.param(0), b.param(1));
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        b.ret(Some(p));
        b.switch_to(e);
        b.ret(Some(q));
        assert!(!TailMerge.run(&mut m));
    }

    #[test]
    fn local_and_external_operands_never_collide() {
        // Both arms store through the same shape, but one stores its own
        // (first local) definition and the other the parameter v0: equal
        // operand numbers, different values, so no merge.
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let f = m.declare_function("main", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        let own = b.iconst(7);
        b.store(g, own);
        b.ret(None);
        b.switch_to(e);
        let _unused = b.iconst(7);
        b.store(g, p);
        b.ret(None);
        assert_eq!(p.index(), 0);
        assert!(!TailMerge.run(&mut m), "{m}");
    }

    #[test]
    fn merging_shrinks_the_measured_size() {
        let (mut m, _) = twin_arms();
        let before = optinline_codegen::text_size(&m, &optinline_codegen::X86Like);
        TailMerge.run(&mut m);
        SimplifyCfg.run(&mut m);
        let after = optinline_codegen::text_size(&m, &optinline_codegen::X86Like);
        assert!(after < before, "{after} !< {before}");
    }
}
