//! End-to-end checks on the paper's own figures: graph structure, search
//! space sizes, and optimal-search soundness on the sample modules.

use optinline::core::tree::{build_inlining_tree, evaluate_inlining_tree, space_size};
use optinline::core::{exhaustive_search, InliningConfiguration, SizeEvaluator};
use optinline::prelude::*;
use optinline::workloads::samples;

fn assert_tree_matches_naive(module: Module) {
    let name = module.name.clone();
    let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
    let sites = ev.sites().clone();
    assert!(sites.len() <= 16, "{name}: too many sites for a naive cross-check");
    let naive = exhaustive_search(&ev, &sites);
    for strategy in
        [PartitionStrategy::Paper, PartitionStrategy::FirstEdge, PartitionStrategy::Random(3)]
    {
        let graph = InlineGraph::from_module(ev.module());
        let tree = build_inlining_tree(&graph, strategy);
        let (_, size) = evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
        assert_eq!(size, naive.size, "{name} under {strategy:?}");
    }
}

#[test]
fn listing1_tree_search_is_sound() {
    assert_tree_matches_naive(samples::listing1());
}

#[test]
fn fig2_tree_search_is_sound() {
    assert_tree_matches_naive(samples::fig2());
}

#[test]
fn fig4_tree_search_is_sound() {
    assert_tree_matches_naive(samples::fig4());
}

#[test]
fn fig5_tree_search_is_sound() {
    assert_tree_matches_naive(samples::fig5());
}

#[test]
fn dce_star_tree_search_is_sound() {
    assert_tree_matches_naive(samples::dce_star(4));
}

#[test]
fn dce_chain_tree_search_is_sound() {
    assert_tree_matches_naive(samples::dce_chain());
}

#[test]
fn xalan_bitmap_tree_search_is_sound() {
    assert_tree_matches_naive(samples::xalan_bitmap());
}

#[test]
fn fig5_partitioned_space_is_25_of_32() {
    // §3.2's worked example: (2^2 + 2^2 + 1) + 2^4 = 25 < 2^5 = 32.
    let graph = InlineGraph::from_module(&samples::fig5());
    let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
    assert_eq!(space_size(&tree), 25);
}

#[test]
fn fig4_components_are_explored_independently() {
    // §3.1's example: components of 2 and 1 edges. Configurations: 2^2 +
    // 2^1 = 6; our evaluation count adds 1 combining compile.
    let graph = InlineGraph::from_module(&samples::fig4());
    let tree = build_inlining_tree(&graph, PartitionStrategy::Paper);
    assert_eq!(space_size(&tree), 7);
    let ev = SizeEvaluator::new(samples::fig4(), Box::new(X86Like), false);
    evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
    assert!(u128::from(ev.compilations()) <= 7);
}

#[test]
fn optimal_beats_or_matches_every_strategy_on_every_sample() {
    for module in optinline::workloads::paper_samples() {
        let name = module.name.clone();
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        if ev.sites().len() > 16 {
            continue;
        }
        let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
        let heuristic = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(ev.module(), &X86Like),
        );
        assert!(ev.size_of(&heuristic) >= optimal.size, "{name}: heuristic beat 'optimal'");
        let tuner = Autotuner::new(&ev, ev.sites().clone());
        let tuned = tuner.clean_slate(4);
        assert!(tuned.best().size >= optimal.size, "{name}: autotuner beat 'optimal'");
        let none = ev.size_of(&InliningConfiguration::clean_slate());
        assert!(none >= optimal.size, "{name}: no-inline beat 'optimal'");
    }
}

#[test]
fn interpreting_samples_is_invariant_under_optimal_inlining() {
    for module in optinline::workloads::paper_samples() {
        let name = module.name.clone();
        let Some(main) = module.func_by_name("main") else { continue };
        let args: Vec<i64> = (0..module.func(main).param_count() as i64).map(|i| i + 3).collect();
        let before = optinline::ir::interp::Interp::new(&module).run(main, &args).unwrap();
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        if ev.sites().len() > 16 {
            continue;
        }
        let optimal = optinline::core::tree::optimal_configuration(&ev, PartitionStrategy::Paper);
        let compiled = ev.compile(&optimal.config);
        let after = optinline::ir::interp::Interp::new(&compiled).run(main, &args).unwrap();
        assert_eq!(before.observable(), after.observable(), "{name}");
    }
}
