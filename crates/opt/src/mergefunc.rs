//! Function merging: structurally identical internal functions collapse to
//! one, and all calls are redirected to the survivor.
//!
//! This is the analogue of LLVM's `mergefunc`, and it is **deliberately not
//! part of the standard size pipeline**: merging couples call-graph
//! components (two identical functions in *different* components become one
//! shared function, so an inlining decision in one component changes
//! whether the other component's copy can merge). That breaks the
//! independence property the recursively partitioned search relies on
//! (§3.2) — exactly the kind of second-order interaction §6 of the paper
//! warns about for performance search. The integration tests demonstrate
//! the violation; the standard pipeline never registers the pass, so the
//! search stays exact.

use crate::fx::FxHashMap;
use crate::pass::{Pass, PassResult, PreservedAnalyses};
use optinline_ir::{
    AnalysisManager, FuncId, Inst, JumpTarget, Linkage, Module, Terminator, ValueId,
};

/// The function-merging pass (opt-in; see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeFunctions;

/// Maps each mergeable function to its surviving twin (the lowest-id
/// structurally equal function): `redirects[f.index()]`, `None` for a
/// function that stays. Groups never share a function, so the order in
/// which they are visited does not matter.
fn compute_redirects(module: &Module) -> Vec<Option<FuncId>> {
    // Group internal, non-stub functions by a structural fingerprint,
    // then verify exact structural equality within groups.
    let mut groups: FxHashMap<u64, Vec<FuncId>> = FxHashMap::default();
    for (id, f) in module.iter_funcs() {
        if f.linkage != Linkage::Internal || module.is_stub(id) {
            continue;
        }
        groups.entry(fingerprint(module, id)).or_default().push(id);
    }
    let mut redirects: Vec<Option<FuncId>> = vec![None; module.func_count()];
    for ids in groups.values() {
        for (i, &a) in ids.iter().enumerate() {
            if redirects[a.index()].is_some() {
                continue;
            }
            for &b in ids.iter().skip(i + 1) {
                if redirects[b.index()].is_none() && structurally_equal(module, a, b) {
                    redirects[b.index()] = Some(a);
                }
            }
        }
    }
    redirects
}

/// Rewrites every call in `caller` per `redirects`; true if any changed.
fn redirect_calls_in(module: &mut Module, caller: FuncId, redirects: &[Option<FuncId>]) -> bool {
    let mut changed = false;
    let func = module.func_mut(caller);
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            if let Inst::Call { callee, .. } = inst {
                if let Some(to) = redirects[callee.index()] {
                    *callee = to;
                    changed = true;
                }
            }
        }
    }
    changed
}

impl Pass for MergeFunctions {
    fn name(&self) -> &'static str {
        "merge-functions"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        _am: &mut AnalysisManager,
    ) -> PassResult {
        // The twin computation is whole-module, but the rewrite is scoped
        // to `fid`'s own call instructions, keeping the per-function
        // contract. Redirected calls change the call graph (and possibly
        // the transitive effect summary's keying).
        let redirects = compute_redirects(module);
        if redirects.iter().any(Option::is_some) && redirect_calls_in(module, fid, &redirects) {
            PassResult::changed(fid, PreservedAnalyses::none())
        } else {
            PassResult::unchanged()
        }
    }

    fn run(&self, module: &mut Module) -> bool {
        let redirects = compute_redirects(module);
        if redirects.iter().all(Option::is_none) {
            return false;
        }
        // Redirect every call; dead-function elimination reclaims the
        // bodies afterwards.
        let mut changed = false;
        for caller in module.func_ids() {
            changed |= redirect_calls_in(module, caller, &redirects);
        }
        changed
    }
}

fn fingerprint(module: &Module, id: FuncId) -> u64 {
    // Cheap structural hash: shape only, no names or call-site ids.
    let f = module.func(id);
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(f.param_count() as u64);
    mix(f.blocks.len() as u64);
    for b in &f.blocks {
        mix(b.params.len() as u64);
        mix(b.insts.len() as u64);
        for inst in &b.insts {
            mix(match inst {
                Inst::Const { value, .. } => 1 ^ (*value as u64).rotate_left(7),
                Inst::Bin { op, .. } => 2 ^ (*op as u64) << 8,
                Inst::Call { callee, .. } => 3 ^ (callee.as_u32() as u64) << 16,
                Inst::Load { global, .. } => 4 ^ (global.as_u32() as u64) << 24,
                Inst::Store { global, .. } => 5 ^ (global.as_u32() as u64) << 32,
            });
        }
        mix(match &b.term {
            Terminator::Jump(_) => 11,
            Terminator::Branch { .. } => 12,
            Terminator::Return(Some(_)) => 13,
            Terminator::Return(None) => 14,
            Terminator::Unreachable => 15,
        });
    }
    h
}

/// Structural equality modulo value numbering and call-site ids: same block
/// shapes, same opcodes/targets/globals/callees, and a consistent bijection
/// between the two functions' value ids.
fn structurally_equal(module: &Module, a: FuncId, b: FuncId) -> bool {
    let (fa, fb) = (module.func(a), module.func(b));
    if fa.param_count() != fb.param_count() || fa.blocks.len() != fb.blocks.len() {
        return false;
    }
    let mut map: FxHashMap<ValueId, ValueId> = FxHashMap::default();
    let mut bind = |va: ValueId, vb: ValueId| -> bool { *map.entry(va).or_insert(vb) == vb };
    for (ba, bb) in fa.blocks.iter().zip(&fb.blocks) {
        if ba.params.len() != bb.params.len() || ba.insts.len() != bb.insts.len() {
            return false;
        }
        for (&pa, &pb) in ba.params.iter().zip(&bb.params) {
            if !bind(pa, pb) {
                return false;
            }
        }
        for (ia, ib) in ba.insts.iter().zip(&bb.insts) {
            let ok = match (ia, ib) {
                (Inst::Const { dst: da, value: va }, Inst::Const { dst: db, value: vb }) => {
                    va == vb && bind(*da, *db)
                }
                (
                    Inst::Bin { dst: da, op: oa, lhs: la, rhs: ra },
                    Inst::Bin { dst: db, op: ob, lhs: lb, rhs: rb },
                ) => oa == ob && bind(*la, *lb) && bind(*ra, *rb) && bind(*da, *db),
                (
                    Inst::Call { dst: da, callee: ca, args: aa, .. },
                    Inst::Call { dst: db, callee: cb, args: ab, .. },
                ) => {
                    ca == cb
                        && aa.len() == ab.len()
                        && aa.iter().zip(ab).all(|(&x, &y)| bind(x, y))
                        && match (da, db) {
                            (Some(x), Some(y)) => bind(*x, *y),
                            (None, None) => true,
                            _ => false,
                        }
                }
                (Inst::Load { dst: da, global: ga }, Inst::Load { dst: db, global: gb }) => {
                    ga == gb && bind(*da, *db)
                }
                (Inst::Store { global: ga, src: sa }, Inst::Store { global: gb, src: sb }) => {
                    ga == gb && bind(*sa, *sb)
                }
                _ => false,
            };
            if !ok {
                return false;
            }
        }
        let t_ok = match (&ba.term, &bb.term) {
            (Terminator::Jump(ta), Terminator::Jump(tb)) => target_eq(ta, tb, &mut bind),
            (
                Terminator::Branch { cond: ca, then_to: ta, else_to: ea },
                Terminator::Branch { cond: cb, then_to: tb, else_to: eb },
            ) => bind(*ca, *cb) && target_eq(ta, tb, &mut bind) && target_eq(ea, eb, &mut bind),
            (Terminator::Return(Some(va)), Terminator::Return(Some(vb))) => bind(*va, *vb),
            (Terminator::Return(None), Terminator::Return(None)) => true,
            (Terminator::Unreachable, Terminator::Unreachable) => true,
            _ => false,
        };
        if !t_ok {
            return false;
        }
    }
    true
}

fn target_eq(
    a: &JumpTarget,
    b: &JumpTarget,
    bind: &mut impl FnMut(ValueId, ValueId) -> bool,
) -> bool {
    a.block == b.block
        && a.args.len() == b.args.len()
        && a.args.iter().zip(&b.args).all(|(&x, &y)| bind(x, y))
}

/// Structural-equality helper exposed for tests and reports.
pub fn functions_structurally_equal(module: &Module, a: FuncId, b: FuncId) -> bool {
    structurally_equal(module, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dce::DeadFunctionElim;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder};

    fn twin_module() -> (Module, FuncId, FuncId, FuncId) {
        let mut m = Module::new("m");
        let twin_a = m.declare_function("twin_a", 1, Linkage::Internal);
        let twin_b = m.declare_function("twin_b", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        for f in [twin_a, twin_b] {
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            let c = b.iconst(17);
            let r = b.bin(BinOp::Xor, p, c);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(1);
            let va = b.call(twin_a, &[x]).unwrap();
            let vb = b.call(twin_b, &[va]).unwrap();
            b.ret(Some(vb));
        }
        (m, twin_a, twin_b, main)
    }

    #[test]
    fn identical_functions_merge_and_die() {
        let (mut m, twin_a, twin_b, _) = twin_module();
        let before = optinline_ir::interp::run_main(&m).unwrap();
        assert!(MergeFunctions.run(&mut m));
        assert_verified(&m);
        // All calls now hit twin_a; DFE reclaims twin_b.
        DeadFunctionElim.run(&mut m);
        assert!(!m.is_stub(twin_a));
        assert!(m.is_stub(twin_b));
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
    }

    #[test]
    fn different_constants_do_not_merge() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 1, Linkage::Internal);
        let b_ = m.declare_function("b", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        for (f, k) in [(a, 1i64), (b_, 2i64)] {
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            let c = b.iconst(k);
            let r = b.bin(BinOp::Add, p, c);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(1);
            let va = b.call(a, &[x]).unwrap();
            let vb = b.call(b_, &[va]).unwrap();
            b.ret(Some(vb));
        }
        assert!(!MergeFunctions.run(&mut m));
    }

    #[test]
    fn public_functions_are_never_merged_away() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 1, Linkage::Public);
        let b_ = m.declare_function("b", 1, Linkage::Public);
        for f in [a, b_] {
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            b.ret(Some(p));
        }
        assert!(!MergeFunctions.run(&mut m));
    }

    #[test]
    fn structural_equality_is_value_renaming_invariant() {
        let mut m = Module::new("m");
        let a = m.declare_function("a", 1, Linkage::Internal);
        let b_ = m.declare_function("b", 1, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, a);
            let p = b.param(0);
            let c = b.iconst(5);
            let r = b.bin(BinOp::Add, p, c);
            b.ret(Some(r));
        }
        {
            // Same shape, but burn a value id first so the numbering
            // differs.
            let f = m.func_mut(b_);
            let _burn = f.new_value();
            let mut b = FuncBuilder::new(&mut m, b_);
            let p = b.param(0);
            let c = b.iconst(5);
            let r = b.bin(BinOp::Add, p, c);
            b.ret(Some(r));
        }
        assert!(functions_structurally_equal(&m, a, b_));
    }
}
