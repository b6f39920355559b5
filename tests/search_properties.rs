//! Property tests for the search and tuning extensions on generated
//! modules: the incremental autotuner's exactness, the strategy ordering
//! against the optimum, and the evaluation budget of tree construction.
//! Each property runs over a fixed spread of generator seeds
//! (deterministic corpus).

use optinline::core::autotune::site_components;
use optinline::core::tree::{build_inlining_tree, space_size, try_build_inlining_tree};
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
        let trial = InliningConfiguration::from_decisions(
            TrialInliner::default().decide(ev.module(), &X86Like),
        );
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
