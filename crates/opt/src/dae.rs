//! Dead-argument elimination: internal functions drop parameters nobody
//! reads, and every call site drops the matching argument.
//!
//! This is the module-level mirror of DCE: argument set-up costs bytes at
//! every call site (3 per argument on the x86-like target), so pruning a
//! dead parameter pays once per caller. It also composes with inlining in
//! both directions — inlining exposes dead arguments (a folded body stops
//! reading its input), and eliminating them makes remaining calls cheaper,
//! shifting later inlining trade-offs.

use crate::pass::{Pass, PassResult, PreservedAnalyses};
use optinline_ir::analysis::use_counts_into;
use optinline_ir::{AnalysisManager, FuncId, Inst, Linkage, Module};
use std::cell::RefCell;

/// The dead-argument elimination pass.
///
/// The one cleanup pass with *cross-function* writes: pruning a parameter
/// of `fid` rewrites the argument lists of every caller. Those callers are
/// read from the [`AnalysisManager`]'s cached caller map — safe because no
/// cleanup pass ever adds a call edge, so a cached map can only
/// over-approximate (and rewriting a non-caller is a no-op). The rewritten
/// callers are reported in [`PassResult::changed_functions`] so a
/// change-driven scheduler re-queues them.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeadArgElim;

impl Pass for DeadArgElim {
    fn name(&self) -> &'static str {
        "dead-arg-elim"
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
    ) -> PassResult {
        let callers = &am.callers(module)[fid.index()];
        match SCRATCH.with_borrow_mut(|scratch| prune_function(module, fid, callers, scratch)) {
            // Dropping a parameter and its arguments touches no block
            // structure, no memory operation, and no call edge.
            Some(changed) => PassResult::changed_many(changed, PreservedAnalyses::all()),
            None => PassResult::unchanged(),
        }
    }
}

/// This thread's use counts and dead-parameter list, refilled on every
/// call.
#[derive(Default)]
struct Scratch {
    counts: Vec<u32>,
    dead: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Prunes dead parameters of `fid`, rewriting call sites in `callers`.
/// Returns the functions actually modified (`fid` first), or `None`.
fn prune_function(
    module: &mut Module,
    fid: FuncId,
    callers: &[FuncId],
    scratch: &mut Scratch,
) -> Option<Vec<FuncId>> {
    let Scratch { counts, dead } = scratch;
    {
        let func = module.func(fid);
        // Public functions keep their ABI; stubs have nothing to prune.
        // Non-inlinable functions are also skipped — their callers may sit
        // in *other* inlining components (their call edges are not in the
        // inlining graph), and pruning would leak size effects across the
        // independence boundary §3.2's search relies on. For inlinable
        // callees every caller shares the component, so pruning is safe.
        if func.linkage != Linkage::Internal || module.is_stub(fid) || !func.inlinable {
            return None;
        }
    }
    use_counts_into(module.func(fid), counts);
    dead.clear();
    dead.extend(
        module
            .func(fid)
            .params()
            .iter()
            .enumerate()
            .filter(|(_, p)| counts[p.index()] == 0)
            .map(|(i, _)| i),
    );
    if dead.is_empty() {
        return None;
    }
    let keep = |i: usize| !dead.contains(&i);

    let mut changed = vec![fid];
    // Drop the parameters.
    {
        let func = module.func_mut(fid);
        let mut idx = 0;
        func.blocks[0].params.retain(|_| {
            let k = keep(idx);
            idx += 1;
            k
        });
    }
    // Drop the matching argument at every call site in the callers
    // (including recursive calls inside `fid` itself).
    for &caller in callers {
        let func = module.func_mut(caller);
        let mut rewrote = false;
        for block in &mut func.blocks {
            for inst in &mut block.insts {
                if let Inst::Call { callee, args, .. } = inst {
                    if *callee == fid {
                        let mut idx = 0;
                        args.retain(|_| {
                            let k = keep(idx);
                            idx += 1;
                            k
                        });
                        rewrote = true;
                    }
                }
            }
        }
        if rewrote && caller != fid {
            changed.push(caller);
        }
    }
    Some(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder};

    fn two_param_callee(second_used: bool) -> (Module, FuncId, FuncId) {
        let mut m = Module::new("m");
        let callee = m.declare_function("callee", 2, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, callee);
            let p = b.param(0);
            let q = b.param(1);
            let r = if second_used { b.bin(BinOp::Add, p, q) } else { b.bin(BinOp::Add, p, p) };
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(3);
            let y = b.iconst(4);
            let v = b.call(callee, &[x, y]).unwrap();
            b.ret(Some(v));
        }
        (m, callee, main)
    }

    #[test]
    fn unused_parameter_is_pruned_with_its_arguments() {
        let (mut m, callee, main) = two_param_callee(false);
        let before = optinline_ir::interp::run_main(&m).unwrap();
        assert!(DeadArgElim.run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(callee).param_count(), 1);
        match &m.func(main).blocks[0].insts.last().unwrap() {
            Inst::Call { args, .. } => assert_eq!(args.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.ret, Some(6));
    }

    #[test]
    fn used_parameters_survive() {
        let (mut m, callee, _) = two_param_callee(true);
        assert!(!DeadArgElim.run(&mut m));
        assert_eq!(m.func(callee).param_count(), 2);
    }

    #[test]
    fn public_functions_keep_their_signature() {
        let mut m = Module::new("m");
        let api = m.declare_function("api", 2, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, api);
            let p = b.param(0);
            b.ret(Some(p));
        }
        assert!(!DeadArgElim.run(&mut m));
        assert_eq!(m.func(api).param_count(), 2);
    }

    #[test]
    fn recursive_self_calls_are_rewritten_consistently() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 2, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            // f(n, junk): if n <= 0 { 0 } else { f(n-1, junk+1) } — junk is
            // dead transitively, but syntactically it IS used (passed to the
            // recursive call). A single pass must keep it; this documents
            // the conservative behaviour.
            let mut b = FuncBuilder::new(&mut m, f);
            let n = b.param(0);
            let junk = b.param(1);
            let zero = b.iconst(0);
            let done = b.bin(BinOp::Le, n, zero);
            let (base, _) = b.new_block(0);
            let (rec, _) = b.new_block(0);
            b.branch(done, base, &[], rec, &[]);
            b.switch_to(base);
            b.ret(Some(zero));
            b.switch_to(rec);
            let one = b.iconst(1);
            let n1 = b.bin(BinOp::Sub, n, one);
            let j1 = b.bin(BinOp::Add, junk, one);
            let v = b.call(f, &[n1, j1]).unwrap();
            b.ret(Some(v));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let three = b.iconst(3);
            let nine = b.iconst(9);
            let v = b.call(f, &[three, nine]).unwrap();
            b.ret(Some(v));
        }
        let before = optinline_ir::interp::run_main(&m).unwrap();
        // junk is used by j1 which feeds the call, so nothing is pruned.
        assert!(!DeadArgElim.run(&mut m));
        assert_verified(&m);
        let after = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(before.observable(), after.observable());
    }

    #[test]
    fn dce_then_dae_cascade() {
        // After DCE removes the only use of a parameter, DAE prunes it.
        let mut m = Module::new("m");
        let callee = m.declare_function("callee", 2, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, callee);
            let p = b.param(0);
            let q = b.param(1);
            let _dead = b.bin(BinOp::Mul, q, q); // unused result
            let r = b.bin(BinOp::Add, p, p);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(3);
            let y = b.iconst(4);
            let v = b.call(callee, &[x, y]).unwrap();
            b.ret(Some(v));
        }
        assert!(!DeadArgElim.run(&mut m)); // q still "used" by the dead mul
        assert!(crate::Dce::default().run(&mut m));
        assert!(DeadArgElim.run(&mut m));
        assert_verified(&m);
        assert_eq!(m.func(callee).param_count(), 1);
        let out = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(out.ret, Some(6));
    }
}
