//! Hand-crafted modules realizing the paper's figures and case studies.
//!
//! Each builder returns a verified module whose inlining landscape has the
//! property the corresponding figure illustrates — e.g. [`dce_star`] only
//! pays off when *all* call sites of the shared callee are inlined at once
//! (Figure 11), which is exactly the case a one-edge-at-a-time autotuner
//! round cannot discover from a clean slate.

use optinline_ir::{assert_verified, BinOp, FuncBuilder, FuncId, Linkage, Module};

/// Listing 1 of the paper: `bar(a) = a + a` called inside `foo`'s loop.
/// Inlining the single call shrinks the binary (the call overhead and
/// `bar`'s body both disappear).
pub fn listing1() -> Module {
    let mut m = Module::new("listing1");
    let bar = m.declare_function("bar", 1, Linkage::Internal);
    let caller = m.declare_function("main", 1, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, bar);
        let a = b.param(0);
        let r = b.bin(BinOp::Add, a, a);
        b.ret(Some(r));
    }
    {
        let mut b = FuncBuilder::new(&mut m, caller);
        let n = b.param(0);
        let zero = b.iconst(0);
        let (hdr, hp) = b.new_block(1);
        let (body, _) = b.new_block(0);
        let (found, _) = b.new_block(0);
        let (next, _) = b.new_block(0);
        let (exit, _) = b.new_block(0);
        b.jump(hdr, &[zero]);
        let i = hp[0];
        let c = b.bin(BinOp::Lt, i, n);
        b.branch(c, body, &[], exit, &[]);
        b.switch_to(body);
        let v = b.call(bar, &[i]).unwrap();
        let eq = b.bin(BinOp::Eq, v, i);
        b.branch(eq, found, &[], next, &[]);
        b.switch_to(found);
        let z = b.iconst(0);
        b.ret(Some(z));
        b.switch_to(next);
        let one = b.iconst(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(hdr, &[i2]);
        b.switch_to(exit);
        let one2 = b.iconst(1);
        b.ret(Some(one2));
    }
    assert_verified(&m);
    m
}

fn medium_body(b: &mut FuncBuilder<'_>, seed: i64, ops: usize) -> optinline_ir::ValueId {
    let p = b.param(0);
    let mut acc = p;
    for k in 0..ops {
        let c = b.iconst(seed + k as i64 * 7 + 1);
        let op = [BinOp::Add, BinOp::Xor, BinOp::Sub][k % 3];
        acc = b.bin(op, acc, c);
    }
    acc
}

/// Figure 2's call graph (A→B, B→C, D→B) with small arithmetic bodies.
/// `B` has two callers, so inlining `A→B` clones it — the coupled-copy
/// mechanics of §2.
pub fn fig2() -> Module {
    let mut m = Module::new("fig2");
    let c = m.declare_function("C", 1, Linkage::Internal);
    let b_ = m.declare_function("B", 1, Linkage::Internal);
    let a = m.declare_function("A", 1, Linkage::Public);
    let d = m.declare_function("D", 1, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, c);
        let r = medium_body(&mut b, 3, 4);
        b.ret(Some(r));
    }
    {
        let mut b = FuncBuilder::new(&mut m, b_);
        let acc = medium_body(&mut b, 5, 3);
        let v = b.call(c, &[acc]).unwrap();
        b.ret(Some(v));
    }
    for (f, seed) in [(a, 11), (d, 13)] {
        let mut b = FuncBuilder::new(&mut m, f);
        let acc = medium_body(&mut b, seed, 2);
        let v = b.call(b_, &[acc]).unwrap();
        b.ret(Some(v));
    }
    assert_verified(&m);
    m
}

/// Figure 4's two-component graph: `F→G→K` and `H→L`.
pub fn fig4() -> Module {
    let mut m = Module::new("fig4");
    let k = m.declare_function("K", 1, Linkage::Internal);
    let g = m.declare_function("G", 1, Linkage::Internal);
    let f = m.declare_function("F", 1, Linkage::Public);
    let l = m.declare_function("L", 1, Linkage::Internal);
    let h = m.declare_function("H", 1, Linkage::Public);
    for (id, seed, callee) in
        [(k, 1, None), (g, 2, Some(k)), (f, 3, Some(g)), (l, 4, None), (h, 5, Some(l))]
    {
        let mut b = FuncBuilder::new(&mut m, id);
        let acc = medium_body(&mut b, seed, 3);
        match callee {
            Some(cal) => {
                let v = b.call(cal, &[acc]).unwrap();
                b.ret(Some(v));
            }
            None => b.ret(Some(acc)),
        }
    }
    assert_verified(&m);
    m
}

/// Figure 5's bridge chain: `F→G→K→L→H→I`.
pub fn fig5() -> Module {
    let mut m = Module::new("fig5");
    let names = ["I", "H", "L", "K", "G", "F"];
    let mut prev: Option<FuncId> = None;
    let mut last = None;
    for (i, name) in names.iter().enumerate() {
        let linkage = if i + 1 == names.len() { Linkage::Public } else { Linkage::Internal };
        let id = m.declare_function(*name, 1, linkage);
        let mut b = FuncBuilder::new(&mut m, id);
        let acc = medium_body(&mut b, i as i64 * 3 + 1, 2 + i % 3);
        match prev {
            Some(p) => {
                let v = b.call(p, &[acc]).unwrap();
                b.ret(Some(v));
            }
            None => b.ret(Some(acc)),
        }
        prev = Some(id);
        last = Some(id);
    }
    let _ = last;
    assert_verified(&m);
    m
}

/// Figure 11 (parest `dof_objects.c`): a shared internal callee whose
/// inlining only pays off *collectively*.
///
/// The callee is big enough that duplicating it at any single call site
/// costs more than the removed call saves — but each caller passes a
/// constant that folds the inlined body to almost nothing, and once every
/// call site is inlined the callee is deleted outright. A local,
/// one-flip-at-a-time clean-slate autotuning round keeps none of the flips;
/// the baseline heuristic (which credits constant arguments and deletion)
/// inlines them all and wins.
pub fn dce_star(callers: usize) -> Module {
    assert!(callers >= 2, "a star needs at least two callers");
    let mut m = Module::new("dce_star");
    let g = m.add_global("table", 17);
    let callee = m.declare_function("shared_helper", 1, Linkage::Internal);
    {
        // if p == 0 { medium, unfoldable (loads a global) } else { huge }.
        // Callers pass 0, so every inlined copy keeps exactly the medium
        // arm — bigger than the call it replaces, far smaller than the
        // whole callee that dies once every site is inlined.
        let mut b = FuncBuilder::new(&mut m, callee);
        let p = b.param(0);
        let zero = b.iconst(0);
        let is_zero = b.bin(BinOp::Eq, p, zero);
        let (cheap, _) = b.new_block(0);
        let (heavy, _) = b.new_block(0);
        b.branch(is_zero, cheap, &[], heavy, &[]);
        b.switch_to(cheap);
        let x = b.load(g);
        let mut acc = x;
        for k in 0..4 {
            let c = b.iconst(k * 7 + 1);
            acc = b.bin([BinOp::Add, BinOp::Xor][k as usize % 2], acc, c);
        }
        b.ret(Some(acc));
        b.switch_to(heavy);
        let mut acc = p;
        for k in 0..50 {
            let c = b.iconst(k * 5 + 3);
            acc = b.bin([BinOp::Add, BinOp::Mul, BinOp::Xor][k as usize % 3], acc, c);
        }
        b.ret(Some(acc));
    }
    for i in 0..callers {
        let f = m.declare_function(format!("caller{i}"), 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let zero = b.iconst(0);
        let v = b.call(callee, &[zero]).unwrap();
        let r = b.bin(BinOp::Add, v, p);
        b.ret(Some(r));
    }
    assert_verified(&m);
    m
}

/// Figure 13 (imagick `decorate.c`): a graph where the *clean slate* wins
/// and heuristic-initialized tuning is stuck in a local minimum.
///
/// Many medium-size callees each look individually attractive to the eager
/// baseline (constant args, call savings), but inlining them all bloats the
/// caller past the spill cliff. From the all-inlined start, un-inlining any
/// single callee doesn't reclaim enough to beat the base; from the clean
/// slate, keeping everything out is already near-optimal.
pub fn outline_trap(callees: usize) -> Module {
    assert!(callees >= 3, "the trap needs several callees");
    let mut m = Module::new("outline_trap");
    let mut ids = Vec::new();
    for i in 0..callees {
        let f = m.declare_function(format!("piece{i}"), 2, Linkage::Internal);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let q = b.param(1);
        let mut acc = b.bin(BinOp::Add, p, q);
        for k in 0..7 {
            let c = b.iconst((i as i64 + 1) * 9 + k);
            acc = b.bin([BinOp::Xor, BinOp::Add, BinOp::Sub][(k as usize + i) % 3], acc, c);
        }
        b.ret(Some(acc));
        ids.push(f);
    }
    let main = m.declare_function("main", 1, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, main);
        let p = b.param(0);
        let mut acc = p;
        // Every piece is called twice so it never gets the deletion bonus
        // path of dying after one inline, and duplication hurts twice.
        for &id in &ids {
            let v1 = b.call(id, &[acc, p]).unwrap();
            let v2 = b.call(id, &[p, v1]).unwrap();
            acc = b.bin(BinOp::Add, v1, v2);
        }
        b.ret(Some(acc));
    }
    assert_verified(&m);
    m
}

/// Figure 14 (leela `FullBoard.cpp`): the opposite case — the
/// heuristic-initialized start wins because the profitable configuration
/// needs a *pair* of inlinings (wrapper + its callee) that single local
/// flips from the clean slate cannot discover together.
pub fn dce_chain() -> Module {
    let mut m = Module::new("dce_chain");
    let inner = m.declare_function("inner", 1, Linkage::Internal);
    let wrapper = m.declare_function("wrapper", 1, Linkage::Internal);
    let main = m.declare_function("main", 0, Linkage::Public);
    // Second callers keep inner and wrapper alive under any single flip,
    // so no individual flip pays from the clean slate — only the pair
    // (which the eager baseline takes) unlocks the fold in `main`.
    let keeper = m.declare_function("keeper", 1, Linkage::Public);
    let keeper2 = m.declare_function("keeper2", 1, Linkage::Public);
    {
        // inner: branch on the argument; with the constant 7 that flows in
        // through wrapper, everything folds.
        let mut b = FuncBuilder::new(&mut m, inner);
        let p = b.param(0);
        let seven = b.iconst(7);
        let is7 = b.bin(BinOp::Eq, p, seven);
        let (fast, _) = b.new_block(0);
        let (slow, _) = b.new_block(0);
        b.branch(is7, fast, &[], slow, &[]);
        b.switch_to(fast);
        let one = b.iconst(1);
        b.ret(Some(one));
        b.switch_to(slow);
        let mut acc = p;
        for k in 0..18 {
            let c = b.iconst(k * 11 + 2);
            acc = b.bin([BinOp::Mul, BinOp::Xor, BinOp::Add][k as usize % 3], acc, c);
        }
        b.ret(Some(acc));
    }
    {
        // wrapper: a few ops, then inner(7).
        let mut b = FuncBuilder::new(&mut m, wrapper);
        let p = b.param(0);
        let c9 = b.iconst(9);
        let t1 = b.bin(BinOp::Xor, p, c9);
        let c4 = b.iconst(4);
        let t2 = b.bin(BinOp::Add, t1, c4);
        let seven = b.iconst(7);
        let v = b.call(inner, &[seven]).unwrap();
        let r = b.bin(BinOp::Add, v, t2);
        b.ret(Some(r));
    }
    {
        let mut b = FuncBuilder::new(&mut m, main);
        let x = b.iconst(3);
        let v = b.call(wrapper, &[x]).unwrap();
        b.ret(Some(v));
    }
    {
        let mut b = FuncBuilder::new(&mut m, keeper);
        let p = b.param(0);
        let v = b.call(inner, &[p]).unwrap();
        b.ret(Some(v));
    }
    {
        let mut b = FuncBuilder::new(&mut m, keeper2);
        let p = b.param(0);
        let v = b.call(wrapper, &[p]).unwrap();
        b.ret(Some(v));
    }
    assert_verified(&m);
    m
}

/// Table 4 (`XalanBitmap.cpp`): a module with enough interacting call
/// sites that successive autotuning rounds keep finding new flips, with
/// non-monotone sizes along the way.
pub fn xalan_bitmap() -> Module {
    let mut m = Module::new("xalan_bitmap");
    let g = m.add_global("state", 0);
    // Three layers engineered so that the profitable flips only surface one
    // round at a time:
    //   round 1 — combo→leaf: each leaf has a single caller passing a
    //     constant, so inlining folds the copy to a constant AND deletes
    //     the leaf;
    //   round 2 — api→combo: now each combo body is just `ret const`, so
    //     inlining it constant-folds the api's whole dependent chain (in
    //     round 1 the un-collapsed combo was too big to move).
    let mut leaves = Vec::new();
    for i in 0..4i64 {
        let f = m.declare_function(format!("leaf{i}"), 1, Linkage::Internal);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let mut acc = p;
        for k in 0..(8 + i) {
            let c = b.iconst(k * 3 + i + 1);
            acc = b.bin([BinOp::Add, BinOp::Xor, BinOp::Sub][(k as usize) % 3], acc, c);
        }
        b.ret(Some(acc));
        leaves.push(f);
    }
    let mut combos = Vec::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        let f = m.declare_function(format!("combo{i}"), 1, Linkage::Internal);
        let mut b = FuncBuilder::new(&mut m, f);
        // The parameter is ignored: once the leaf call folds, the whole
        // combo collapses to `ret const`.
        let zero = b.iconst(0);
        let a = b.call(leaf, &[zero]).unwrap();
        let c7 = b.iconst(7 + i as i64);
        let t = b.bin(BinOp::Xor, a, c7);
        let c3 = b.iconst(3);
        let r = b.bin(BinOp::Add, t, c3);
        b.ret(Some(r));
        combos.push(f);
    }
    for (i, &combo) in combos.iter().enumerate() {
        // Two apis share each combo, so inlining one site never deletes the
        // combo on its own — only the fold matters, and it only pays once
        // the combo has collapsed.
        let f = m.declare_function(format!("api{i}"), 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let v = b.call(combo, &[p]).unwrap();
        let w = b.call(combos[(i + 1) % combos.len()], &[p]).unwrap();
        // A chain that folds entirely once v/w become constants.
        let mut acc = b.bin(BinOp::Add, v, w);
        for k in 0..6 {
            let c = b.iconst(k * 5 + 2);
            acc = b.bin([BinOp::Xor, BinOp::Add][(k as usize) % 2], acc, c);
        }
        b.store(g, acc);
        b.ret(Some(acc));
    }
    let main = m.declare_function("main", 0, Linkage::Public);
    {
        let api0 = m.func_by_name("api0").expect("api0 exists");
        let mut b = FuncBuilder::new(&mut m, main);
        let x = b.iconst(5);
        let v = b.call(api0, &[x]).unwrap();
        b.ret(Some(v));
    }
    assert_verified(&m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::Decision;
    use optinline_codegen::X86Like;
    use optinline_core::{autotune::Autotuner, InliningConfiguration, SizeEvaluator};
    use optinline_heuristics::CostModelInliner;
    use optinline_ir::interp::Interp;

    #[test]
    fn listing1_runs_and_inlining_shrinks_it() {
        let m = listing1();
        let main = m.func_by_name("main").unwrap();
        let out = Interp::new(&m).run(main, &[5]).unwrap();
        assert_eq!(out.ret, Some(0)); // bar(0) == 0 in the first iteration
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let site = *ev.sites().iter().next().unwrap();
        let clean = ev.size_of(&InliningConfiguration::clean_slate());
        let inl = ev.size_of(&InliningConfiguration::clean_slate().with(site, Decision::Inline));
        assert!(inl < clean);
    }

    use optinline_core::Evaluator;

    #[test]
    fn fig_modules_have_the_documented_graph_shapes() {
        assert_eq!(fig2().inlinable_sites().len(), 3);
        assert_eq!(fig4().inlinable_sites().len(), 3);
        assert_eq!(fig5().inlinable_sites().len(), 5);
        let g5 = optinline_callgraph::InlineGraph::from_module(&fig5());
        assert_eq!(optinline_callgraph::bridge_groups(&g5).len(), 5);
        let g4 = optinline_callgraph::InlineGraph::from_module(&fig4());
        assert!(optinline_callgraph::component_count(&g4) >= 2);
    }

    #[test]
    fn dce_star_needs_collective_inlining() {
        let m = dce_star(5);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        let clean = ev.size_of(&InliningConfiguration::clean_slate());
        // Any single inline grows the binary…
        for &s in &sites {
            let one = InliningConfiguration::clean_slate().with(s, Decision::Inline);
            assert!(ev.size_of(&one) > clean, "single inline of {s} should bloat");
        }
        // …but inlining all of them beats the clean slate.
        let all: InliningConfiguration = sites.iter().map(|&s| (s, Decision::Inline)).collect();
        assert!(ev.size_of(&all) < clean, "collective inlining should win");
        // Hence one clean-slate autotuning round keeps nothing.
        let tuner = Autotuner::new(&ev, sites.clone());
        let round = tuner.clean_slate(1);
        assert_eq!(round.rounds[0].flips, 0);
        // While the baseline heuristic finds the collective win.
        let heur = CostModelInliner::default().decide(ev.module(), &X86Like);
        let heur_cfg = InliningConfiguration::from_decisions(heur);
        assert!(ev.size_of(&heur_cfg) < clean);
    }

    #[test]
    fn dce_chain_favors_heuristic_initialization() {
        let m = dce_chain();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        let tuner = Autotuner::new(&ev, sites.clone());
        let clean = tuner.clean_slate(1);
        let heur = CostModelInliner::default().decide(ev.module(), &X86Like);
        let heur_out = tuner.run(InliningConfiguration::from_decisions(heur), 1);
        assert!(
            heur_out.best().size <= clean.best().size,
            "heuristic init {} should beat clean slate {}",
            heur_out.best().size,
            clean.best().size
        );
    }

    #[test]
    fn outline_trap_favors_clean_slate() {
        let m = outline_trap(6);
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        let tuner = Autotuner::new(&ev, sites.clone());
        let clean = tuner.clean_slate(1);
        let heur = CostModelInliner::default().decide(ev.module(), &X86Like);
        let heur_out = tuner.run(InliningConfiguration::from_decisions(heur), 1);
        assert!(
            clean.best().size <= heur_out.best().size,
            "clean slate {} should beat heuristic init {}",
            clean.best().size,
            heur_out.best().size
        );
    }

    #[test]
    fn xalan_bitmap_improves_over_rounds() {
        let m = xalan_bitmap();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        let tuner = Autotuner::new(&ev, sites);
        let out = tuner.clean_slate(4);
        assert!(out.rounds.len() >= 2, "expected multiple productive rounds");
        assert!(out.best().size < out.rounds[0].base_size);
    }

    #[test]
    fn all_samples_verify_and_run() {
        for m in [
            listing1(),
            fig2(),
            fig4(),
            fig5(),
            dce_star(4),
            outline_trap(4),
            dce_chain(),
            xalan_bitmap(),
        ] {
            optinline_ir::verify_module(&m).unwrap();
        }
        let out = optinline_ir::interp::run_main(&dce_chain()).unwrap();
        assert!(out.ret.is_some());
    }
}
