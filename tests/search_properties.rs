//! Property tests for the search and tuning extensions on generated
//! modules: the incremental autotuner's exactness, the strategy ordering
//! against the optimum, and the evaluation budget of tree construction.
//! Each property runs over a fixed spread of generator seeds
//! (deterministic corpus).
//!
//! `heuristic_decisions_match_golden`, `inlining_trees_match_golden` and
//! `strategy_trees_match_golden` pin the baseline heuristic's decisions and
//! every partition strategy's inlining trees on the search corpus and a
//! range of fuzz-sampled modules against `tests/golden/heuristic_decisions.txt`,
//! `tests/golden/inlining_trees.txt` and `tests/golden/strategy_trees.txt`.

mod common;

use optinline::callgraph::{bottom_up_sccs, site_components};
use optinline::core::tree::{build_inlining_tree, space_size, tree_stats, try_build_inlining_tree};
use optinline::ir::{AnalysisManager, CallSiteId, FuncId, Inst};
use optinline::opt::{cleanup_pipeline, run_inliner, DeadFunctionElim, Pass};
use optinline::prelude::*;
use optinline::workloads::{samples, GenParams};
use optinline_heuristics::TrialInliner;
use std::collections::BTreeMap;

fn gen(seed: u64, n_internal: usize, clusters: usize) -> Module {
    optinline::workloads::generate_file(&GenParams {
        n_internal,
        clusters,
        call_window: 1 + (seed % 3) as usize,
        call_density: 1.3,
        ..GenParams::named(format!("prop{seed}"), seed)
    })
}

#[test]
fn incremental_autotuning_is_exact() {
    for case in 0..24u64 {
        let seed = case * 19 + 3;
        let n = 3 + (case % 6) as usize;
        let clusters = 1 + (case % 3) as usize;
        let module = gen(seed, n, clusters);
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        if sites.is_empty() {
            continue;
        }
        let comps = site_components(ev.module());
        let tuner = Autotuner::new(&ev, sites);
        let full = tuner.clean_slate(4);
        let incr = tuner.run_incremental(&comps, InliningConfiguration::clean_slate(), 4);
        assert_eq!(full.rounds.len(), incr.rounds.len(), "seed {seed}");
        for (a, b) in full.rounds.iter().zip(&incr.rounds) {
            assert_eq!(a.size, b.size, "seed {seed}");
            assert_eq!(&a.config, &b.config, "seed {seed}");
            assert!(b.evaluations <= a.evaluations, "seed {seed}");
        }
    }
}

#[test]
fn no_strategy_beats_the_exhaustive_optimum() {
    for case in 0..24u64 {
        let seed = case * 41 + 5;
        let module = gen(seed, 3 + (seed % 3) as usize, 1 + (seed % 2) as usize);
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        if ev.sites().len() > 10 || ev.sites().is_empty() {
            continue;
        }
        let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
        let heuristic = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(ev.module(), &X86Like),
        );
        let trial =
            InliningConfiguration::from_decisions(TrialInliner.decide(ev.module(), &X86Like));
        let tuner = Autotuner::new(&ev, ev.sites().clone());
        let tuned = Autotuner::combine([&tuner.clean_slate(3), &tuner.run(heuristic.clone(), 3)]);
        assert!(ev.size_of(&heuristic) >= optimal.size, "seed {seed}");
        assert!(ev.size_of(&trial) >= optimal.size, "seed {seed}");
        assert!(tuned.size >= optimal.size, "seed {seed}");
        // And trials, which measure, never lose to doing nothing.
        let none = ev.size_of(&InliningConfiguration::clean_slate());
        assert!(ev.size_of(&trial) <= none, "seed {seed}");
    }
}

#[test]
fn tree_budget_admits_exactly_the_trees_own_space() {
    // A budget of exactly the tree's evaluation count builds the unbounded
    // tree; one evaluation less refuses it.
    let generated = (0..6u64).map(|case| {
        let seed = case * 13 + 1;
        gen(seed, 3 + (seed % 4) as usize, 1 + (seed % 3) as usize)
    });
    let modules = [samples::fig4(), samples::fig5()].into_iter().chain(generated);
    for module in modules {
        let graph = InlineGraph::from_module(&module);
        for strategy in
            [PartitionStrategy::Paper, PartitionStrategy::FirstEdge, PartitionStrategy::Random(7)]
        {
            let tree = build_inlining_tree(&graph, strategy);
            let space = space_size(&tree);
            let at = try_build_inlining_tree(&graph, strategy, space);
            assert_eq!(at.as_ref(), Some(&tree), "{} {strategy:?}", module.name);
            let below = try_build_inlining_tree(&graph, strategy, space - 1);
            assert_eq!(below, None, "{} {strategy:?}", module.name);
        }
    }
}

/// `CostModelInliner::default()` on x86 over [`common::golden_corpus`], pinned as
/// `module sites inlined digest` rows: the decided site count, how many of
/// them inline, and the digest of the decision map's `Debug` form.
#[test]
fn heuristic_decisions_match_golden() {
    let mut rows = String::from("# module sites inlined digest\n");
    for module in common::golden_corpus() {
        let decisions = CostModelInliner::default().decide(&module, &X86Like);
        let inlined = decisions.values().filter(|&&d| d == Decision::Inline).count();
        let digest = common::digest(&format!("{decisions:?}"));
        rows.push_str(&format!("{} {} {inlined} {digest}\n", module.name, decisions.len()));
    }
    common::assert_golden("heuristic_decisions.txt", &rows);
}

/// `strategy`'s inlining tree for each module of [`common::golden_corpus`] under a
/// 2^10 evaluation budget, as `module space depth digest` rows (the digest
/// of the tree's `Debug` form), or `module over` when the tree exceeds the
/// budget.
fn inlining_tree_rows(strategy: PartitionStrategy) -> String {
    let mut rows = String::new();
    for module in common::golden_corpus() {
        let graph = InlineGraph::from_module(&module);
        match try_build_inlining_tree(&graph, strategy, 1 << 10) {
            Some(tree) => {
                let digest = common::digest(&format!("{tree:?}"));
                let (space, depth) = (space_size(&tree), tree_stats(&tree).depth);
                rows.push_str(&format!("{} {space} {depth} {digest}\n", module.name));
            }
            None => rows.push_str(&format!("{} over\n", module.name)),
        }
    }
    rows
}

/// The paper strategy's trees, pinned as [`inlining_tree_rows`].
#[test]
fn inlining_trees_match_golden() {
    let rows = inlining_tree_rows(PartitionStrategy::Paper);
    common::assert_golden("inlining_trees.txt", &format!("# module space depth digest\n{rows}"));
}

/// The ablation strategies' trees, pinned as [`inlining_tree_rows`] under
/// one header line per strategy. `Random` hashes the graph's live edge and
/// node counts into its pick, so these rows also pin both counts at every
/// tree node.
#[test]
fn strategy_trees_match_golden() {
    let mut rows = String::new();
    for strategy in [PartitionStrategy::FirstEdge, PartitionStrategy::Random(7)] {
        rows.push_str(&format!("# {strategy:?}: module space depth digest\n"));
        rows.push_str(&inlining_tree_rows(strategy));
    }
    common::assert_golden("strategy_trees.txt", &rows);
}

/// Nothing a tree build allocates outlives it. Trees built on one thread
/// right after the corpus's widest graph, under every strategy, must equal
/// the same trees built each on a fresh thread.
#[test]
fn tree_builds_leave_nothing_for_the_next_build() {
    let graphs: Vec<InlineGraph> =
        common::golden_corpus().iter().map(InlineGraph::from_module).collect();
    let width = |g: &InlineGraph| g.node_count() + g.edge_count();
    let widest = graphs.iter().max_by_key(|g| width(g)).expect("a graph");
    let small: Vec<&InlineGraph> =
        graphs.iter().filter(|g| 2 * width(g) <= width(widest)).collect();
    assert!(small.len() > graphs.len() / 3, "{} of {} graphs are small", small.len(), graphs.len());
    let strategies =
        [PartitionStrategy::Paper, PartitionStrategy::FirstEdge, PartitionStrategy::Random(7)];
    let build = |g: &InlineGraph, s| try_build_inlining_tree(g, s, 1 << 10);

    let mut fresh = Vec::new();
    for &strategy in &strategies {
        for &g in &small {
            fresh.push(std::thread::scope(|t| {
                t.spawn(|| build(g, strategy)).join().expect("fresh thread")
            }));
        }
    }
    let same_thread = std::thread::scope(|t| {
        t.spawn(|| {
            let mut out = Vec::new();
            for &strategy in &strategies {
                // The widest graph comes first, so any state a build left
                // behind would be at its largest.
                build(widest, strategy);
                out.extend(small.iter().map(|g| build(g, strategy)));
            }
            out
        })
        .join()
        .expect("building thread")
    });
    assert_eq!(same_thread.len(), fresh.len());
    for (i, (r, f)) in same_thread.iter().zip(&fresh).enumerate() {
        let (strategy, g) = (strategies[i / small.len()], i % small.len());
        assert_eq!(
            r, f,
            "{strategy:?}, small graph {g}: a tree depends on its thread's last build"
        );
    }
}

#[test]
fn corpus_round_trip_is_lossless() {
    for seed in [0u64, 7, 19, 42, 101, 163] {
        let module = gen(seed, 4, 2);
        let dir =
            std::env::temp_dir().join(format!("optinline_prop_{}_{}", std::process::id(), seed));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("m.ir");
        optinline::workloads::save_module(&module, &path).expect("save");
        let loaded = optinline::workloads::load_module(&path).expect("load");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded, module, "seed {seed}");
    }
}

/// `TrialInliner` on x86 over [`common::golden_corpus`], pinned as
/// `module sites inlined digest` rows like `heuristic_decisions.txt`.
#[test]
fn trial_decisions_match_golden() {
    let mut rows = String::from("# module sites inlined digest\n");
    for module in common::golden_corpus() {
        let decisions = TrialInliner.decide(&module, &X86Like);
        let inlined = decisions.values().filter(|&&d| d == Decision::Inline).count();
        let digest = common::digest(&format!("{decisions:?}"));
        rows.push_str(&format!("{} {} {inlined} {digest}\n", module.name, decisions.len()));
    }
    common::assert_golden("trial_decisions.txt", &rows);
}

/// Four autotuning sessions of four rounds on every 40th module of
/// [`common::golden_corpus`], each on a fresh incremental `SizeEvaluator`:
/// the clean slate, `run` from the baseline heuristic, `run_incremental`
/// over `site_components` and `run_guarded` from the heuristic at a 2%
/// budget, with cycles from a whole-module compile. Every round is a
/// `module session round size base_size flips evaluations digest` row
/// (the digest of the round's configuration's `Debug` form), and each
/// session ends in a `module session compiles N` row.
#[test]
fn autotune_rounds_match_golden() {
    let mut rows = String::from("# module session round size base_size flips evaluations digest\n");
    for module in common::golden_corpus().into_iter().step_by(40) {
        let heuristic = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(&module, &X86Like),
        );
        let components = site_components(&module);
        for session in ["clean", "heuristic", "incremental", "guarded"] {
            let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), true);
            let tuner = Autotuner::new(&ev, ev.sites().clone());
            let cycles_of = |c: &InliningConfiguration| {
                optinline::core::module_cycles(&ev.compile(c), ev.cost_model())
            };
            let outcome = match session {
                "clean" => tuner.clean_slate(4),
                "heuristic" => tuner.run(heuristic.clone(), 4),
                "incremental" => {
                    tuner.run_incremental(&components, InliningConfiguration::clean_slate(), 4)
                }
                _ => tuner.run_guarded(heuristic.clone(), 4, &cycles_of, 1.02),
            };
            for r in &outcome.rounds {
                let digest = common::digest(&format!("{:?}", r.config));
                rows.push_str(&format!(
                    "{} {session} {} {} {} {} {} {digest}\n",
                    module.name, r.round, r.size, r.base_size, r.flips, r.evaluations
                ));
            }
            rows.push_str(&format!("{} {session} compiles {}\n", module.name, ev.compilations()));
        }
    }
    common::assert_golden("autotune_rounds.txt", &rows);
}

/// `TrialInliner::decide` with whole-module drains: every function is
/// drained after the first step and after every trial, and the
/// measurement's scratch copy whenever dead-function elimination stubs
/// something. Returns the decisions and how many accepted trials inlined a
/// call between two functions of one strongly connected component.
fn trials_with_whole_module_drains(module: &Module) -> (BTreeMap<CallSiteId, Decision>, usize) {
    let cleanup = cleanup_pipeline(PipelineOptions { max_iterations: 3, ..Default::default() });
    let drain = |m: &mut Module| {
        let all: Vec<FuncId> = m.func_ids().collect();
        cleanup.run_worklist(m, &mut AnalysisManager::new(), all, &mut cleanup.fresh_stats());
    };
    let measure = |m: &Module| {
        let mut scratch = m.clone();
        if DeadFunctionElim.run(&mut scratch) {
            drain(&mut scratch);
        }
        text_size(&scratch, &X86Like)
    };
    let sccs = bottom_up_sccs(module);
    let scc_of: BTreeMap<FuncId, usize> =
        sccs.iter().enumerate().flat_map(|(i, scc)| scc.iter().map(move |&f| (f, i))).collect();
    let mut work = module.clone();
    drain(&mut work);
    let mut current = measure(&work);
    let mut decisions = BTreeMap::new();
    let mut same_scc = 0;
    for &f in sccs.iter().flatten() {
        let undecided = |m: &Module, d: &BTreeMap<CallSiteId, Decision>| {
            m.func(f).blocks.iter().flat_map(|b| &b.insts).find_map(|inst| match inst {
                Inst::Call { callee, site, .. } if !d.contains_key(site) => Some((*site, *callee)),
                _ => None,
            })
        };
        while let Some((site, callee)) = undecided(&work, &decisions) {
            if !work.func(callee).inlinable || work.is_stub(callee) {
                decisions.insert(site, Decision::NoInline);
                continue;
            }
            let mut trial = work.clone();
            run_inliner(
                &mut trial,
                &ForcedDecisions::new(BTreeMap::from([(site, Decision::Inline)])),
            );
            drain(&mut trial);
            let size = measure(&trial);
            if size < current {
                decisions.insert(site, Decision::Inline);
                same_scc += usize::from(scc_of[&callee] == scc_of[&f]);
                (work, current) = (trial, size);
            } else {
                decisions.insert(site, Decision::NoInline);
            }
        }
    }
    let valid = module.inlinable_sites();
    for &site in &valid {
        decisions.entry(site).or_insert(Decision::NoInline);
    }
    decisions.retain(|s, _| valid.contains(s));
    (decisions, same_scc)
}

/// Two internal functions that call each other and a public `main` that
/// calls both. `f` calls `g(0)`, whose guarded store and call back to `f`
/// fold away once inlined, so the trial of that same-component call
/// shrinks the module and is accepted; `f` then stops writing.
fn mutually_recursive_pair() -> Module {
    let mut m = Module::new("mutual");
    let a = m.add_global("a", 0);
    let f = m.declare_function("f", 1, Linkage::Internal);
    let g = m.declare_function("g", 1, Linkage::Internal);
    let main = m.declare_function("main", 0, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, f);
        let zero = b.iconst(0);
        let v = b.call(g, &[zero]).unwrap();
        b.ret(Some(v));
    }
    {
        let mut b = FuncBuilder::new(&mut m, g);
        let y = b.param(0);
        let zero = b.iconst(0);
        let c = b.bin(BinOp::Ne, y, zero);
        let (rec, _) = b.new_block(0);
        let (done, _) = b.new_block(0);
        b.branch(c, rec, &[], done, &[]);
        b.switch_to(rec);
        b.store(a, y);
        let one = b.iconst(1);
        let next = b.bin(BinOp::Sub, y, one);
        let r = b.call(f, &[next]).unwrap();
        b.ret(Some(r));
        b.switch_to(done);
        b.ret(Some(zero));
    }
    {
        let mut b = FuncBuilder::new(&mut m, main);
        let one = b.iconst(1);
        let two = b.iconst(2);
        let v = b.call(f, &[one]).unwrap();
        let w = b.call(g, &[two]).unwrap();
        let s = b.bin(BinOp::Add, v, w);
        b.ret(Some(s));
    }
    m
}

/// A trial whose drain leaves a caller off its fixpoint, then a marginal
/// trial elsewhere. In `FuncId` order `h g k a m t`: `h(p, q)` stores
/// only when `p != q`, and `g` calls `h(x, x)`, whose branch folds only in
/// the drain's second round once inlined, after the one visit to `m`, so
/// `g`'s trial is accepted and leaves `m` pending. `m` loads eight globals
/// on both sides of its call to `g`, and those loads merge only in the next
/// drain. `a` calls `k` twice: inlining the first call grows the module by
/// less than the merged loads save, so it is accepted only when its trial
/// drains `m` as well. `t` keeps `h` reachable.
fn late_falling_bit() -> Module {
    let mut m = Module::new("late");
    let globals: Vec<_> = (0..8).map(|i| m.add_global(format!("g{i}"), i)).collect();
    let h = m.declare_function("h", 2, Linkage::Internal);
    let g = m.declare_function("g", 0, Linkage::Internal);
    let k = m.declare_function("k", 1, Linkage::Internal);
    let a = m.declare_function("a", 1, Linkage::Public);
    let main = m.declare_function("m", 0, Linkage::Public);
    let t = m.declare_function("t", 0, Linkage::Public);
    {
        let mut b = FuncBuilder::new(&mut m, h);
        let (p, q) = (b.param(0), b.param(1));
        let c = b.bin(BinOp::Ne, p, q);
        let (store, _) = b.new_block(0);
        let (done, _) = b.new_block(0);
        b.branch(c, store, &[], done, &[]);
        b.switch_to(store);
        b.store(globals[0], p);
        b.jump(done, &[]);
        b.switch_to(done);
        b.ret(None);
    }
    {
        let mut b = FuncBuilder::new(&mut m, g);
        let x = b.load(globals[1]);
        let one = b.iconst(1);
        let y = b.bin(BinOp::Add, x, one);
        b.call_void(h, &[y, y]);
        b.ret(Some(x));
    }
    {
        let mut b = FuncBuilder::new(&mut m, k);
        let mut acc = b.param(0);
        for c in [3, 5, 7] {
            let c = b.iconst(c);
            acc = b.bin(BinOp::Xor, acc, c);
        }
        b.ret(Some(acc));
    }
    {
        let mut b = FuncBuilder::new(&mut m, a);
        let p = b.param(0);
        let u = b.call(k, &[p]).unwrap();
        let w = b.call(k, &[u]).unwrap();
        b.ret(Some(w));
    }
    {
        let mut b = FuncBuilder::new(&mut m, main);
        let before: Vec<_> = globals.iter().map(|&gl| b.load(gl)).collect();
        let mut acc = b.call(g, &[]).unwrap();
        for &gl in &globals {
            let after = b.load(gl);
            acc = b.bin(BinOp::Add, acc, after);
        }
        for v in before {
            acc = b.bin(BinOp::Add, acc, v);
        }
        b.ret(Some(acc));
    }
    {
        let mut b = FuncBuilder::new(&mut m, t);
        let (one, two) = (b.iconst(1), b.iconst(2));
        b.call_void(h, &[one, two]);
        b.ret(None);
    }
    m
}

/// `TrialInliner` decides every site as the whole-module recipe does, on
/// generated modules and on a mutually recursive pair whose same-component
/// trial is accepted.
#[test]
fn trials_match_their_whole_module_drains() {
    let generated =
        (0..40u64).map(|seed| optinline::workloads::generate_file(&GenParams::fuzz_sample(seed)));
    let mut same_scc = 0;
    for module in generated.chain([mutually_recursive_pair(), late_falling_bit()]) {
        let (reference, accepted) = trials_with_whole_module_drains(&module);
        assert_eq!(TrialInliner.decide(&module, &X86Like), reference, "{}", module.name);
        same_scc += accepted;
    }
    assert!(same_scc > 0, "no accepted trial inlined a call within one component");
}
