//! Figures 8, 11, 13, 14: case-study call graphs, rendered as DOT with
//! inlined edges solid and non-inlined edges dashed (the paper's visual
//! convention), plus the size numbers that make each case interesting.

use crate::common::Ctx;
use optinline_callgraph::{dot, PartitionStrategy};
use optinline_codegen::X86Like;
use optinline_core::autotune::Autotuner;
use optinline_core::{tree, Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_heuristics::CostModelInliner;
use optinline_ir::Module;
use optinline_workloads::samples;
use std::fmt::Write as _;

fn heuristic_cfg(ev: &SizeEvaluator) -> InliningConfiguration {
    InliningConfiguration::from_decisions(CostModelInliner::default().decide(ev.module(), &X86Like))
}

/// Figure 8: two call graphs where the baseline inlines too aggressively —
/// the optimal configuration against the baseline's, as DOT.
pub fn fig8(ctx: &Ctx) {
    let mut out = String::new();
    for (label, module) in
        [("outline_trap (blender-like)", samples::outline_trap(6)), ("fig2", samples::fig2())]
    {
        let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
        let optimal = tree::optimal_configuration(&ev, PartitionStrategy::Paper);
        let heur = heuristic_cfg(&ev);
        let h_size = ev.size_of(&heur);
        let _ = writeln!(
            out,
            "== {label}: baseline is {:.0}% of optimal ==",
            100.0 * h_size as f64 / optimal.size as f64
        );
        let _ = writeln!(out, "--- optimal ({} bytes) ---", optimal.size);
        out.push_str(&dot::to_dot(ev.module(), optimal.config.decisions()));
        let _ = writeln!(out, "--- baseline ({h_size} bytes) ---");
        out.push_str(&dot::to_dot(ev.module(), heur.decisions()));
        out.push('\n');
    }
    let _ = writeln!(out, "shape target (paper, Fig. 8): the baseline inlines more edges than");
    let _ = writeln!(out, "optimal and pays for it (cactuBSSN case: 169% of optimal).");
    ctx.report("fig8_case_graphs", &out);
}

fn autotune_both(module: Module) -> (u64, u64, u64, String, String) {
    let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
    let sites = ev.sites().clone();
    let heur = heuristic_cfg(&ev);
    let base = ev.size_of(&heur);
    let tuner = Autotuner::new(&ev, sites);
    let clean = tuner.clean_slate(1);
    let init = tuner.run(heur, 1);
    let dot_clean = dot::to_dot(ev.module(), clean.best().config.decisions());
    let dot_init = dot::to_dot(ev.module(), init.best().config.decisions());
    (base, clean.best().size, init.best().size, dot_clean, dot_init)
}

/// Figure 11: the shared-callee star where only collective inlining pays.
pub fn fig11(ctx: &Ctx) {
    let module = samples::dce_star(5);
    let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
    let sites = ev.sites().clone();
    let clean_size = ev.size_of(&InliningConfiguration::clean_slate());
    let all: InliningConfiguration =
        sites.iter().map(|&s| (s, optinline_callgraph::Decision::Inline)).collect();
    let all_size = ev.size_of(&all);
    let mut singles = Vec::new();
    for &s in &sites {
        let one =
            InliningConfiguration::clean_slate().with(s, optinline_callgraph::Decision::Inline);
        singles.push(ev.size_of(&one));
    }
    let mut out = String::new();
    let _ = writeln!(out, "Figure 11 — dce_star(5): collective inlining unlocks callee deletion");
    let _ = writeln!(out, "clean slate (nothing inlined):   {clean_size} bytes");
    let _ = writeln!(out, "each single site inlined:        {singles:?} bytes (all worse)");
    let _ = writeln!(out, "all sites inlined:               {all_size} bytes (better)");
    out.push_str(&dot::to_dot(ev.module(), all.decisions()));
    let _ = writeln!(out, "\nshape target (paper): the parest case — the local pair-wise scope");
    let _ = writeln!(out, "misses it (autotuned = 218% of the baseline there); the baseline's");
    let _ = writeln!(out, "deletion bonus finds it.");
    ctx.report("fig11_dce_star", &out);
}

/// Figures 13/14: which initialization wins depends on the graph.
pub fn fig13_14(ctx: &Ctx) {
    let mut out = String::new();
    let (base_a, clean_a, init_a, dot_ca, _) = autotune_both(samples::outline_trap(6));
    let _ = writeln!(out, "Figure 13 — outline_trap (imagick decorate.c-like)");
    let _ = writeln!(out, "baseline: {base_a} B; clean-slate tuned: {clean_a} B ({:.0}%); heuristic-init tuned: {init_a} B ({:.0}%)",
        100.0 * clean_a as f64 / base_a as f64, 100.0 * init_a as f64 / base_a as f64);
    let _ = writeln!(out, "clean slate wins: the eager baseline is a local minimum.");
    out.push_str(&dot_ca);
    let (base_b, clean_b, init_b, _, dot_ib) = autotune_both(samples::dce_chain());
    let _ = writeln!(out, "\nFigure 14 — dce_chain (leela FullBoard.cpp-like)");
    let _ = writeln!(out, "baseline: {base_b} B; clean-slate tuned: {clean_b} B ({:.0}%); heuristic-init tuned: {init_b} B ({:.0}%)",
        100.0 * clean_b as f64 / base_b as f64, 100.0 * init_b as f64 / base_b as f64);
    let _ = writeln!(out, "heuristic init wins: the folding cascade needs both edges at once.");
    out.push_str(&dot_ib);
    let _ = writeln!(out, "\nshape target (paper): Fig13 clean slate 49% vs init 96% of baseline;");
    let _ =
        writeln!(out, "Fig14 clean slate 152% vs init 78% — different graphs, different starts.");
    ctx.report("fig13_14_init_cases", &out);
}
