//! The decision-driven function inliner.
//!
//! Unlike LLVM's inliner, which consults a cost model as it goes, this
//! inliner executes an explicit *inlining configuration*: an
//! [`InlineOracle`] mapping each original [`CallSiteId`] to a
//! [`Decision`]. That inversion is what the paper's methodology requires —
//! the search and the autotuner propose configurations, the compiler
//! faithfully executes them, and the size model scores the result.
//!
//! Coupled copies: cloned call instructions keep their original site id, so
//! one decision covers every copy (§2). Recursive inlining is bounded to
//! depth one via the `inline_path` recorded on cloned calls (§3.2).

use optinline_callgraph::Decision;
use optinline_ir::{
    Block, BlockId, CallSiteId, FuncId, Inst, JumpTarget, Module, Terminator, ValueId,
};
use std::collections::BTreeMap;
use std::fmt;

/// Supplies the inlining decision for each call site.
pub trait InlineOracle: Send + Sync + fmt::Debug {
    /// The decision for `site`.
    fn decide(&self, site: CallSiteId) -> Decision;
}

/// An oracle backed by an explicit decision map; unlisted sites are not
/// inlined.
#[derive(Clone, Debug, Default)]
pub struct ForcedDecisions {
    map: BTreeMap<CallSiteId, Decision>,
}

impl ForcedDecisions {
    /// Creates an oracle from a map; unlisted sites are not inlined.
    pub fn new(map: BTreeMap<CallSiteId, Decision>) -> Self {
        ForcedDecisions { map }
    }

    /// The underlying decision map.
    pub fn decisions(&self) -> &BTreeMap<CallSiteId, Decision> {
        &self.map
    }
}

impl InlineOracle for ForcedDecisions {
    fn decide(&self, site: CallSiteId) -> Decision {
        self.map.get(&site).copied().unwrap_or(Decision::NoInline)
    }
}

/// Inlines every candidate (up to the recursion bound). Reference upper
/// bound for studies.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysInline;

impl InlineOracle for AlwaysInline {
    fn decide(&self, _site: CallSiteId) -> Decision {
        Decision::Inline
    }
}

/// Inlines nothing. The paper's "inlining disabled" baseline (Figure 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverInline;

impl InlineOracle for NeverInline {
    fn decide(&self, _site: CallSiteId) -> Decision {
        Decision::NoInline
    }
}

/// What [`run_inliner_tracked`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InlineOutcome {
    /// Number of call sites expanded.
    pub expanded: usize,
}

/// Applies `oracle`'s decisions exhaustively; returns the number of call
/// sites expanded.
///
/// # Panics
///
/// Panics if expansion exceeds an internal safety cap (10⁶ inlines), which
/// would indicate a recursion-bound bug rather than a legal configuration.
pub fn run_inliner(module: &mut Module, oracle: &dyn InlineOracle) -> usize {
    run_inliner_tracked(module, oracle).expanded
}

/// Like [`run_inliner`], but reports the count as an [`InlineOutcome`].
///
/// # Panics
///
/// Panics on the same runaway-expansion cap as [`run_inliner`].
pub fn run_inliner_tracked(module: &mut Module, oracle: &dyn InlineOracle) -> InlineOutcome {
    let mut outcome = InlineOutcome::default();
    for f in module.func_ids() {
        while let Some((bid, idx)) = find_candidate(module, f, oracle) {
            inline_call(module, f, bid, idx);
            outcome.expanded += 1;
            assert!(outcome.expanded < 1_000_000, "inliner expansion runaway");
        }
    }
    outcome
}

fn find_candidate(
    module: &Module,
    f: FuncId,
    oracle: &dyn InlineOracle,
) -> Option<(BlockId, usize)> {
    let func = module.func(f);
    for (bid, block) in func.iter_blocks() {
        for (i, inst) in block.insts.iter().enumerate() {
            let Inst::Call { callee, site, inline_path, .. } = inst else { continue };
            if oracle.decide(*site) != Decision::Inline {
                continue;
            }
            if !module.func(*callee).inlinable || module.is_stub(*callee) {
                continue;
            }
            if inline_path.contains(callee) {
                // Recursive chain: this callee was already expanded on the
                // path that produced this copy (§3.2's depth-1 bound).
                continue;
            }
            return Some((bid, i));
        }
    }
    None
}

/// Expands the call at `(bid, idx)` in function `f`.
///
/// The callee's blocks are cloned once and renumbered in place: values move
/// up by the caller's value bound, blocks up past the caller's blocks and
/// the continuation block, and returns become jumps to the continuation.
fn inline_call(module: &mut Module, f: FuncId, bid: BlockId, idx: usize) {
    let callee = match &module.func(f).block(bid).insts[idx] {
        Inst::Call { callee, .. } => *callee,
        other => panic!("inline_call on non-call instruction {other:?}"),
    };
    // Cloned before the caller changes: a self-recursive call copies the
    // caller's own body as it was.
    let callee_func = module.func(callee);
    let (mut body, callee_bound, callee_entry) =
        (callee_func.blocks.clone(), callee_func.value_bound(), callee_func.entry());

    let caller = module.func_mut(f);
    let vbase = caller.value_bound();
    caller.reserve_values(vbase.checked_add(callee_bound).expect("inlined value ids fit a u32"));
    let remap_v = |v: ValueId| ValueId::new(vbase + v.as_u32());

    let cont_id = BlockId::new(caller.blocks.len() as u32);
    let clone_base = caller.blocks.len() as u32 + 1;
    let remap_b = |b: BlockId| BlockId::new(clone_base + b.as_u32());

    // Split the caller block: everything after the call moves to `cont`.
    // The call's result value becomes `cont`'s block parameter, so existing
    // uses keep their id.
    let call_block = caller.block_mut(bid);
    let tail = call_block.insts.split_off(idx + 1);
    let Some(Inst::Call { dst, args, inline_path, .. }) = call_block.insts.pop() else {
        unreachable!("checked to be a call above")
    };
    let mut cont = Block::new(dst.map(|d| vec![d]).unwrap_or_default());
    cont.insts = tail;
    cont.term = std::mem::replace(&mut call_block.term, Terminator::Unreachable);
    call_block.term = Terminator::Jump(JumpTarget::with_args(remap_b(callee_entry), args));
    caller.blocks.push(cont);
    let mut child_path = inline_path;
    child_path.push(callee);

    for block in &mut body {
        for p in &mut block.params {
            *p = remap_v(*p);
        }
        for inst in &mut block.insts {
            match inst {
                Inst::Const { dst, .. } | Inst::Bin { dst, .. } | Inst::Load { dst, .. } => {
                    *dst = remap_v(*dst)
                }
                Inst::Call { dst, inline_path, .. } => {
                    if let Some(d) = dst {
                        *d = remap_v(*d);
                    }
                    inline_path.splice(0..0, child_path.iter().copied());
                }
                Inst::Store { .. } => {}
            }
            inst.map_uses(remap_v);
        }
        if let Terminator::Return(v) = block.term {
            let ret_args = match (dst, v) {
                (Some(_), Some(rv)) => vec![remap_v(rv)],
                (Some(_), None) => {
                    // Caller expects a value; a valueless return supplies a
                    // defined default.
                    let zero = caller.new_value();
                    block.insts.push(Inst::Const { dst: zero, value: 0 });
                    vec![zero]
                }
                (None, _) => vec![],
            };
            block.term = Terminator::Jump(JumpTarget::with_args(cont_id, ret_args));
        } else {
            block.term.map_uses(remap_v);
            block.term.for_each_target_mut(|jt| jt.block = remap_b(jt.block));
        }
    }
    caller.blocks.append(&mut body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::interp::Interp;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    fn call_pair() -> (Module, FuncId, FuncId, CallSiteId) {
        let mut m = Module::new("m");
        let callee = m.declare_function("double", 1, Linkage::Internal);
        let caller = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, callee);
            let p = b.param(0);
            let r = b.bin(BinOp::Add, p, p);
            b.ret(Some(r));
        }
        let site = {
            let mut b = FuncBuilder::new(&mut m, caller);
            let x = b.iconst(21);
            let (y, site) = b.call_with_site(callee, &[x]);
            b.ret(Some(y));
            site
        };
        (m, caller, callee, site)
    }

    fn forced(site: CallSiteId, d: Decision) -> ForcedDecisions {
        ForcedDecisions::new([(site, d)].into_iter().collect())
    }

    #[test]
    fn inlines_a_simple_call_preserving_semantics() {
        let (mut m, caller, _, site) = call_pair();
        let before = Interp::new(&m).run(caller, &[]).unwrap();
        let n = run_inliner(&mut m, &forced(site, Decision::Inline));
        assert_eq!(n, 1);
        assert_verified(&m);
        assert!(m.func(caller).call_sites().is_empty());
        let after = Interp::new(&m).run(caller, &[]).unwrap();
        assert_eq!(before.observable(), after.observable());
        assert_eq!(after.ret, Some(42));
    }

    #[test]
    fn no_inline_decision_is_respected() {
        let (mut m, caller, _, site) = call_pair();
        assert_eq!(run_inliner(&mut m, &forced(site, Decision::NoInline)), 0);
        assert_eq!(m.func(caller).call_sites(), vec![site]);
    }

    #[test]
    fn default_decision_is_no_inline() {
        let (mut m, _, _, _) = call_pair();
        let oracle = ForcedDecisions::default();
        assert_eq!(run_inliner(&mut m, &oracle), 0);
    }

    #[test]
    fn cloned_calls_keep_their_site_id() {
        // a calls b (s0); b calls c (s1). Inlining only s0 copies the s1
        // call into a.
        let mut m = Module::new("m");
        let c = m.declare_function("c", 0, Linkage::Internal);
        let b_ = m.declare_function("b", 0, Linkage::Internal);
        let a = m.declare_function("a", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, c);
            let one = b.iconst(1);
            b.ret(Some(one));
        }
        let s1 = {
            let mut b = FuncBuilder::new(&mut m, b_);
            let (v, s1) = b.call_with_site(c, &[]);
            b.ret(Some(v));
            s1
        };
        let s0 = {
            let mut b = FuncBuilder::new(&mut m, a);
            let (v, s0) = b.call_with_site(b_, &[]);
            b.ret(Some(v));
            s0
        };
        run_inliner(&mut m, &forced(s0, Decision::Inline));
        assert_verified(&m);
        let sites = m.func(a).call_sites();
        assert_eq!(sites, vec![s1]);
        // And the copy records the inline path through b.
        let copied = m
            .func(a)
            .blocks
            .iter()
            .flat_map(|bl| bl.insts.iter())
            .find_map(|i| match i {
                Inst::Call { inline_path, .. } => Some(inline_path.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(copied, vec![b_]);
    }

    #[test]
    fn coupled_copies_inline_together() {
        // main calls helper twice through distinct sites; helper calls leaf
        // via one site. Inlining helper's both sites duplicates the leaf
        // call; inlining the leaf site then expands *both* copies.
        let mut m = Module::new("m");
        let leaf = m.declare_function("leaf", 0, Linkage::Internal);
        // `main` gets a smaller id than `helper`, so the inliner expands
        // main first, cloning helper's still-present leaf call twice.
        let main = m.declare_function("main", 0, Linkage::Public);
        let helper = m.declare_function("helper", 0, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, leaf);
            let one = b.iconst(1);
            b.ret(Some(one));
        }
        let (s_h1, s_h2) = {
            let mut b = FuncBuilder::new(&mut m, main);
            let (v1, s_h1) = b.call_with_site(helper, &[]);
            let (v2, s_h2) = b.call_with_site(helper, &[]);
            let sum = b.bin(BinOp::Add, v1, v2);
            b.ret(Some(sum));
            (s_h1, s_h2)
        };
        let s_leaf = {
            let mut b = FuncBuilder::new(&mut m, helper);
            let (v, s) = b.call_with_site(leaf, &[]);
            b.ret(Some(v));
            s
        };
        let oracle = ForcedDecisions::new(
            [(s_h1, Decision::Inline), (s_h2, Decision::Inline), (s_leaf, Decision::Inline)]
                .into_iter()
                .collect(),
        );
        let n = run_inliner(&mut m, &oracle);
        // In main: helper twice plus the two cloned leaf-call copies; in
        // helper itself: the original leaf call. Five expansions total.
        assert_eq!(n, 5);
        assert_verified(&m);
        assert!(m.func(main).call_sites().is_empty());
        let out = Interp::new(&m).run(main, &[]).unwrap();
        assert_eq!(out.ret, Some(2));
    }

    #[test]
    fn direct_recursion_is_expanded_exactly_once() {
        // fact-like: f(n) = n <= 0 ? 1 : n * f(n-1)
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let site = {
            let mut b = FuncBuilder::new(&mut m, f);
            let n = b.param(0);
            let zero = b.iconst(0);
            let c = b.bin(BinOp::Le, n, zero);
            let (base, _) = b.new_block(0);
            let (rec, _) = b.new_block(0);
            b.branch(c, base, &[], rec, &[]);
            b.switch_to(base);
            let one = b.iconst(1);
            b.ret(Some(one));
            b.switch_to(rec);
            let one2 = b.iconst(1);
            let n1 = b.bin(BinOp::Sub, n, one2);
            let (r, site) = b.call_with_site(f, &[n1]);
            let prod = b.bin(BinOp::Mul, n, r);
            b.ret(Some(prod));
            site
        };
        let before = Interp::new(&m).run(f, &[5]).unwrap();
        let n = run_inliner(&mut m, &forced(site, Decision::Inline));
        assert_eq!(n, 1);
        assert_verified(&m);
        // The residual recursive call is still there, guarded by its path.
        assert_eq!(m.func(f).call_sites(), vec![site]);
        let after = Interp::new(&m).run(f, &[5]).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(after.ret, Some(120));
    }

    #[test]
    fn mutual_recursion_is_bounded() {
        let mut m = Module::new("m");
        let even = m.declare_function("even", 1, Linkage::Internal);
        let odd = m.declare_function("odd", 1, Linkage::Internal);
        let build = |m: &mut Module, me: FuncId, other: FuncId, base_val: i64| {
            let mut b = FuncBuilder::new(m, me);
            let n = b.param(0);
            let zero = b.iconst(0);
            let c = b.bin(BinOp::Eq, n, zero);
            let (base, _) = b.new_block(0);
            let (rec, _) = b.new_block(0);
            b.branch(c, base, &[], rec, &[]);
            b.switch_to(base);
            let r = b.iconst(base_val);
            b.ret(Some(r));
            b.switch_to(rec);
            let one = b.iconst(1);
            let n1 = b.bin(BinOp::Sub, n, one);
            let v = b.call(other, &[n1]).unwrap();
            b.ret(Some(v));
        };
        build(&mut m, even, odd, 1);
        build(&mut m, odd, even, 0);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let six = b.iconst(6);
            let v = b.call(even, &[six]).unwrap();
            b.ret(Some(v));
        }
        let before = Interp::new(&m).run(main, &[]).unwrap();
        let n = run_inliner(&mut m, &AlwaysInline);
        assert!(n > 0);
        assert_verified(&m);
        let after = Interp::new(&m).run(main, &[]).unwrap();
        assert_eq!(before.ret, after.ret);
        assert_eq!(after.ret, Some(1));
    }

    #[test]
    fn void_calls_and_valueless_returns_are_handled() {
        let mut m = Module::new("m");
        let g = m.add_global("g", 0);
        let side = m.declare_function("side", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, side);
            let p = b.param(0);
            b.store(g, p);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let c = b.iconst(7);
            b.call_void(side, &[c]);
            b.ret(None);
        }
        run_inliner(&mut m, &AlwaysInline);
        assert_verified(&m);
        let out = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(out.globals, vec![7]);
    }

    #[test]
    fn used_result_with_valueless_return_gets_default() {
        let mut m = Module::new("m");
        let weird = m.declare_function("weird", 0, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, weird);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let v = b.call(weird, &[]).unwrap();
            b.ret(Some(v));
        }
        run_inliner(&mut m, &AlwaysInline);
        assert_verified(&m);
        let out = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(out.ret, Some(0));
    }

    #[test]
    fn non_inlinable_callees_are_skipped() {
        let (mut m, _, callee, site) = call_pair();
        m.func_mut(callee).inlinable = false;
        assert_eq!(run_inliner(&mut m, &forced(site, Decision::Inline)), 0);
    }
}
