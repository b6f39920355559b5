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

use optinline::core::autotune::site_components;
use optinline::core::tree::{build_inlining_tree, space_size, tree_stats, try_build_inlining_tree};
use optinline::prelude::*;
use optinline::workloads::{samples, GenParams};
use optinline_heuristics::TrialInliner;

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
