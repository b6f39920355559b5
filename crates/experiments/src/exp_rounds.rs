//! Figures 17 and 18 plus Table 4: round-based autotuning.

use crate::common::{bench_names, bench_total, relative_table, Ctx, FileCase};
use crate::exp_autotune::TuneResults;
use optinline_codegen::X86Like;
use optinline_core::autotune::Autotuner;
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_heuristics::CostModelInliner;
use std::fmt::Write as _;

/// Figure 17: per-benchmark relative size after each round, for both
/// initializations.
pub fn fig17(ctx: &Ctx, cases: &[FileCase], tunes: &TuneResults, rounds: usize) {
    let mut out = String::new();
    for (label, table) in
        [("heuristic-initialized", &tunes.init_rounds), ("clean slate", &tunes.clean_rounds)]
    {
        let _ = writeln!(out, "Figure 17 — round-based autotuning ({label}), relative to baseline");
        let mut header = format!("{:<12}", "benchmark");
        for r in 1..=rounds {
            header.push_str(&format!(" {:>9}", format!("round {r}")));
        }
        let _ = writeln!(out, "{header}");
        let mut per_round_rels: Vec<Vec<f64>> = vec![Vec::new(); rounds];
        for name in bench_names(cases) {
            let base = bench_total(cases, name, |c| c.heuristic_size);
            let mut row = format!("{name:<12}");
            for r in 0..rounds {
                let tuned = bench_total(cases, name, |c| table[&c.file][r]);
                let rel = 100.0 * tuned as f64 / base as f64;
                per_round_rels[r].push(rel);
                row.push_str(&format!(" {rel:>8.1}%"));
            }
            let _ = writeln!(out, "{row}");
        }
        let mut med = format!("{:<12}", "median");
        for rels in per_round_rels.iter().take(rounds) {
            med.push_str(&format!(" {:>8.2}%", optinline_core::analysis::median(rels)));
        }
        let _ = writeln!(out, "{med}\n");
    }
    let _ = writeln!(out, "shape target (paper): rounds improve monotonically in aggregate;");
    let _ = writeln!(out, "medians 97.63->96.1% (init) and 97.95->96.38% (clean).");
    ctx.report("fig17_rounds", &out);
}

/// Figure 18: best across both initializations and all rounds.
pub fn fig18(ctx: &Ctx, cases: &[FileCase], tunes: &TuneResults) {
    let best = |c: &FileCase| -> u64 {
        let a = *tunes.clean_rounds[&c.file].last().expect("rounds recorded");
        let b = *tunes.init_rounds[&c.file].last().expect("rounds recorded");
        a.min(b)
    };
    let mut out = relative_table(
        "Figure 18 — round-based, clean-slate + heuristic-init combined, vs baseline",
        cases,
        best,
    );
    let _ = writeln!(out, "\nshape target (paper): median 95.65%, total 92.95% (a 7.05% overall");
    let _ = writeln!(out, "size reduction over the production heuristic).");
    ctx.report("fig18_rounds_combined", &out);
}

/// Table 4: the per-round decision/size trace of one interacting module
/// (the paper's `XalanBitmap.cpp`).
pub fn table4(ctx: &Ctx) {
    let module = optinline_workloads::samples::xalan_bitmap();
    let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
    let sites = ev.sites().clone();
    let heuristic = InliningConfiguration::from_decisions(
        CostModelInliner::default().decide(ev.module(), &X86Like),
    );
    let base_size = ev.size_of(&heuristic);
    let tuner = Autotuner::new(&ev, sites.clone());
    let count = |c: &InliningConfiguration| {
        let inl = sites
            .iter()
            .filter(|&&s| c.decision(s) == optinline_callgraph::Decision::Inline)
            .count();
        (inl, sites.len() - inl)
    };
    let mut out = String::new();
    let _ = writeln!(out, "Table 4 — xalan_bitmap: per-round decision/size traces");
    for (label, init) in [
        ("heuristic-initialized", heuristic.clone()),
        ("clean slate", InliningConfiguration::clean_slate()),
    ] {
        let outcome = tuner.run(init.clone(), 4);
        let _ = writeln!(
            out,
            "
== {label} =="
        );
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>13} {:>10}",
            "round", "#inlined", "#non-inlined", "rel. size"
        );
        let (i0, n0) = count(&init);
        let init_size = ev.size_of(&init);
        let _ = writeln!(
            out,
            "{:<10} {i0:>9} {n0:>13} {:>9.1}%",
            "start",
            100.0 * init_size as f64 / base_size as f64
        );
        for r in &outcome.rounds {
            let (i, n) = count(&r.config);
            let _ = writeln!(
                out,
                "{:<10} {i:>9} {n:>13} {:>9.1}%",
                format!("round {}", r.round),
                100.0 * r.size as f64 / base_size as f64
            );
        }
    }
    let _ = writeln!(out, "\nshape target (paper): few flips per round, large cumulative wins,");
    let _ = writeln!(
        out,
        "and occasional temporary regressions (100 -> 71.6 -> 41.2 -> 41.4 -> 35.8%)."
    );
    ctx.report("table4_round_trace", &out);
}
