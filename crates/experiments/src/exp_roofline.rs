//! Figure 7, Table 2, and Figure 9: the roofline analysis — the baseline
//! heuristic versus the exhaustively computed optimum on every file whose
//! recursively partitioned space fits the budget.

use crate::common::{Ctx, FileCase};
use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_core::analysis::{
    chain_length_histogram, inlined_chain_lengths, Agreement, RooflineStats,
};
use optinline_core::tree::{space_size, try_build_inlining_tree};
use optinline_core::{evaluate_inlining_tree_dag, InliningConfiguration, WorkerPool};
use std::fmt::Write as _;

/// An exhaustively analyzed file: the optimum and the baseline next to it.
#[derive(Debug)]
pub struct OptimalCase<'a> {
    /// The underlying suite file.
    pub case: &'a FileCase,
    /// An optimal configuration.
    pub optimal: InliningConfiguration,
    /// The optimal size.
    pub optimal_size: u64,
    /// Evaluations the recursive space needed.
    pub evaluations: u128,
}

/// Exhaustively searches every file within the `2^exhaustive_bits` budget.
pub fn compute_optima<'a>(ctx: &Ctx, cases: &'a [FileCase]) -> Vec<OptimalCase<'a>> {
    let mut out = Vec::new();
    for case in cases {
        if case.evaluator.sites().is_empty() {
            continue;
        }
        let graph = InlineGraph::from_module(case.evaluator.module());
        let Some(tree) =
            try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1u128 << ctx.exhaustive_bits)
        else {
            continue;
        };
        let space = space_size(&tree);
        let (optimal, optimal_size) = case.with_evaluator(|ev| {
            evaluate_inlining_tree_dag(
                &tree,
                ev,
                InliningConfiguration::clean_slate(),
                WorkerPool::global(),
                Some(crate::common::search_session()),
            )
        });
        out.push(OptimalCase { case, optimal, optimal_size, evaluations: space });
    }
    out
}

/// Runs Figure 7: distribution of the baseline's size overhead vs optimal.
pub fn fig7(ctx: &Ctx, optima: &[OptimalCase<'_>]) {
    let pairs: Vec<(u64, u64)> =
        optima.iter().map(|o| (o.case.heuristic_size, o.optimal_size)).collect();
    let stats = RooflineStats::from_pairs(&pairs);
    let total_evals: u128 = optima.iter().map(|o| o.evaluations).sum();
    let total_naive: u128 =
        optima.iter().map(|o| 1u128 << o.case.evaluator.sites().len().min(100)).sum();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 7 — baseline -Os-like heuristic vs optimal");
    let _ = writeln!(out, "files exhaustively analyzed:   {}", stats.files);
    let _ = writeln!(out, "evaluations (recursive/naive): {total_evals} / {total_naive}");
    let _ = writeln!(
        out,
        "optimal configurations found:  {} ({:.0}%)",
        stats.optimal_found,
        stats.optimal_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "median overhead (non-optimal): {:.2}%",
        stats.median_nonoptimal_overhead_pct
    );
    let _ = writeln!(out, "files with overhead >= 5%:     {}", stats.at_least_5pct);
    let _ = writeln!(out, "files with overhead >= 10%:    {}", stats.at_least_10pct);
    let _ = writeln!(out, "maximum overhead:              {:.1}%", stats.max_overhead_pct);
    let work: f64 = optima.iter().map(|o| o.case.evaluator.stats().full_module_equivalents).sum();
    let compiles: u64 = optima.iter().map(|o| o.case.evaluator.stats().compiles).sum();
    let _ = writeln!(
        out,
        "compile work so far:           {compiles} compiles = {work:.1} full-module equivalents"
    );
    let exec = crate::common::search_session().stats();
    let _ = writeln!(
        out,
        "search executor:               {} tasks, {} steals",
        exec.tasks, exec.steals
    );
    let _ = writeln!(out, "\nshape target (paper): optimal on 46% of files; median non-optimal");
    let _ = writeln!(out, "overhead 2.37%; 16% of files >=5%, 8.5% >=10%; max 281%.");
    ctx.report("fig7_roofline", &out);
}

/// Runs Table 2: per-decision agreement between optimal and the baseline.
pub fn table2(ctx: &Ctx, optima: &[OptimalCase<'_>]) {
    let mut agg = Agreement::default();
    let mut opt_inlined = 0u64;
    let mut heur_inlined = 0u64;
    for o in optima {
        let sites = o.case.evaluator.sites();
        agg.accumulate(sites, &o.optimal, &o.case.heuristic);
        opt_inlined += sites
            .iter()
            .filter(|&&s| o.optimal.decision(s) == optinline_callgraph::Decision::Inline)
            .count() as u64;
        heur_inlined += sites
            .iter()
            .filter(|&&s| o.case.heuristic.decision(s) == optinline_callgraph::Decision::Inline)
            .count() as u64;
    }
    let total = agg.total();
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 — optimal vs baseline inlining choices ({total} decisions)");
    let _ = writeln!(out, "{:<34} {:>8} {:>8}", "", "count", "%");
    let row = |label: &str, v: u64| {
        format!("{label:<34} {v:>8} {:>7.1}%", 100.0 * v as f64 / total.max(1) as f64)
    };
    let _ = writeln!(out, "{}", row("optimal no-inline, base no-inline", agg.both_no_inline));
    let _ = writeln!(
        out,
        "{}",
        row("optimal no-inline, base inline  (too aggressive)", agg.too_aggressive)
    );
    let _ = writeln!(
        out,
        "{}",
        row("optimal inline,    base no-inline (too conservative)", agg.too_conservative)
    );
    let _ = writeln!(out, "{}", row("optimal inline,    base inline", agg.both_inline));
    let _ = writeln!(out, "\nagreement rate:        {:.1}%", agg.agreement_rate() * 100.0);
    let _ = writeln!(
        out,
        "optimal inlines:       {opt_inlined} ({:.1}%)",
        100.0 * opt_inlined as f64 / total.max(1) as f64
    );
    let _ = writeln!(
        out,
        "baseline inlines:      {heur_inlined} ({:.1}%)",
        100.0 * heur_inlined as f64 / total.max(1) as f64
    );
    let _ = writeln!(out, "\nshape target (paper): 72.7% agreement; 23.7% too aggressive vs 3.6%");
    let _ = writeln!(out, "too conservative — the baseline over-inlines for size.");
    ctx.report("table2_agreement", &out);
}

/// Runs Figure 9: histogram of inlined call-chain lengths, optimal vs the
/// baseline heuristic.
pub fn fig9(ctx: &Ctx, optima: &[OptimalCase<'_>]) {
    let mut opt_lengths = Vec::new();
    let mut heur_lengths = Vec::new();
    for o in optima {
        opt_lengths.extend(inlined_chain_lengths(o.case.evaluator.module(), &o.optimal));
        heur_lengths.extend(inlined_chain_lengths(o.case.evaluator.module(), &o.case.heuristic));
    }
    let oh = chain_length_histogram(&opt_lengths);
    let hh = chain_length_histogram(&heur_lengths);
    let maxlen = oh.len().max(hh.len());
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — inlined call-chain lengths");
    let _ = writeln!(out, "{:<8} {:>10} {:>10}", "length", "optimal", "baseline");
    for l in 1..maxlen {
        let a = oh.get(l).copied().unwrap_or(0);
        let b = hh.get(l).copied().unwrap_or(0);
        if a + b > 0 {
            let _ = writeln!(out, "{l:<8} {a:>10} {b:>10}");
        }
    }
    let _ = writeln!(out, "\nshape target (paper): length-1 chains dominate (4,861 of ~6,500");
    let _ = writeln!(out, "optimal chains); long chains are rare — good size decisions are local.");
    ctx.report("fig9_chain_lengths", &out);
}
