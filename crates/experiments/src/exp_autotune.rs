//! Figures 10, 12, 15, 16 and Table 3: the local autotuner versus the
//! baseline, under clean-slate and heuristic-initialized starts.

use crate::common::{bench_names, bench_total, relative_table, Ctx, FileCase};
use crate::exp_roofline::OptimalCase;
use optinline_core::analysis::RooflineStats;
use optinline_core::autotune::Autotuner;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-file autotuning results shared by several experiments.
#[derive(Debug, Default)]
pub struct TuneResults {
    /// file name -> best clean-slate size (1 round).
    pub clean1: HashMap<String, u64>,
    /// file name -> best heuristic-initialized size (1 round).
    pub init1: HashMap<String, u64>,
    /// file name -> per-round sizes, clean slate (up to 4 rounds).
    pub clean_rounds: HashMap<String, Vec<u64>>,
    /// file name -> per-round sizes, heuristic-initialized (up to 4).
    pub init_rounds: HashMap<String, Vec<u64>>,
}

/// Runs the autotuner on every file (this is the expensive step; results
/// feed Figures 10/12/15/17/18 and Table 3).
pub fn tune_all(cases: &[FileCase], rounds: usize) -> TuneResults {
    let mut r = TuneResults::default();
    for case in cases {
        let sites = case.evaluator.sites().clone();
        if sites.is_empty() {
            r.clean1.insert(case.file.clone(), case.heuristic_size);
            r.init1.insert(case.file.clone(), case.heuristic_size);
            r.clean_rounds.insert(case.file.clone(), vec![case.heuristic_size; rounds]);
            r.init_rounds.insert(case.file.clone(), vec![case.heuristic_size; rounds]);
            continue;
        }
        let (clean, init) = case.with_evaluator(|ev| {
            let tuner = Autotuner::new(ev, sites);
            (tuner.clean_slate(rounds), tuner.run(case.heuristic.clone(), rounds))
        });
        let fill = |outcome: &optinline_core::autotune::TuneOutcome| -> Vec<u64> {
            let mut sizes: Vec<u64> = Vec::with_capacity(rounds);
            let mut best = u64::MAX;
            for i in 0..rounds {
                let s =
                    outcome.rounds.get(i).map(|r| r.size).unwrap_or_else(|| outcome.last().size);
                best = best.min(s);
                sizes.push(best);
            }
            sizes
        };
        r.clean1.insert(case.file.clone(), clean.rounds[0].size);
        r.init1.insert(case.file.clone(), init.rounds[0].size);
        r.clean_rounds.insert(case.file.clone(), fill(&clean));
        r.init_rounds.insert(case.file.clone(), fill(&init));
    }
    r
}

/// Figure 10: one clean-slate round vs the baseline, per benchmark.
pub fn fig10(ctx: &Ctx, cases: &[FileCase], tunes: &TuneResults) {
    let mut out = relative_table(
        "Figure 10 — clean-slate autotuning (1 round) vs -Os-like baseline",
        cases,
        |c| tunes.clean1[&c.file],
    );
    let _ = writeln!(out, "\nshape target (paper): most benchmarks shrink (median 97.95%), a few");
    let _ =
        writeln!(out, "inflate (leela 112.4%) because pairwise-local flips miss group effects;");
    let _ = writeln!(out, "best case mfc 72.4%.");
    let _ = writeln!(out, "\n{}", crate::common::stats_footer(cases));
    ctx.report("fig10_clean_slate", &out);
}

/// Figure 12: one heuristic-initialized round vs the baseline.
pub fn fig12(ctx: &Ctx, cases: &[FileCase], tunes: &TuneResults) {
    let mut out = relative_table(
        "Figure 12 — heuristic-initialized autotuning (1 round) vs baseline",
        cases,
        |c| tunes.init1[&c.file],
    );
    let _ =
        writeln!(out, "\nshape target (paper): regressions disappear (19 of 20 shrink) because");
    let _ = writeln!(out, "tuning starts from a valid good point; some benchmarks do worse than");
    let _ = writeln!(out, "their clean-slate result (Table 3).");
    ctx.report("fig12_heuristic_init", &out);
}

/// Table 3: benchmarks where heuristic-initialization is worse than clean
/// slate.
pub fn table3(ctx: &Ctx, cases: &[FileCase], tunes: &TuneResults) {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — benchmarks faring worse with heuristic initialization");
    let _ = writeln!(out, "{:<12} {:>14} {:>14}", "benchmark", "clean-slate", "heur-init");
    let mut any = false;
    for name in bench_names(cases) {
        let base = bench_total(cases, name, |c| c.heuristic_size);
        let clean = bench_total(cases, name, |c| tunes.clean1[&c.file]);
        let init = bench_total(cases, name, |c| tunes.init1[&c.file]);
        if init > clean {
            any = true;
            let _ = writeln!(
                out,
                "{name:<12} {:>13.1}% {:>13.1}%",
                100.0 * clean as f64 / base as f64,
                100.0 * init as f64 / base as f64
            );
        }
    }
    if !any {
        let _ = writeln!(out, "(none at this scale)");
    }
    let _ = writeln!(out, "\nshape target (paper): a minority of benchmarks (imagick, mfc, nab,");
    let _ = writeln!(out, "namd, perlbench, x264, xz) prefer the clean slate: the eager baseline");
    let _ = writeln!(out, "is a local minimum their graphs cannot escape one flip at a time.");
    ctx.report("table3_worse_with_init", &out);
}

/// Figure 15: best of clean-slate and heuristic-initialized, per benchmark.
pub fn fig15(ctx: &Ctx, cases: &[FileCase], tunes: &TuneResults) {
    let mut out = relative_table(
        "Figure 15 — min(clean-slate, heuristic-init), 1 round each, vs baseline",
        cases,
        |c| tunes.clean1[&c.file].min(tunes.init1[&c.file]),
    );
    let _ = writeln!(out, "\nshape target (paper): combining removes every regression; median");
    let _ = writeln!(out, "96.4%, total 93.95%.");
    ctx.report("fig15_combined", &out);
}

/// Figure 16: the combined autotuner against the exhaustive optimum.
pub fn fig16(ctx: &Ctx, optima: &[OptimalCase<'_>], tunes: &TuneResults) {
    let mut pairs = Vec::new();
    let mut heur_pairs = Vec::new();
    for o in optima {
        let tuned =
            tunes.clean_rounds[&o.case.file].last().copied().unwrap_or(o.case.heuristic_size).min(
                tunes.init_rounds[&o.case.file].last().copied().unwrap_or(o.case.heuristic_size),
            );
        pairs.push((tuned, o.optimal_size));
        heur_pairs.push((o.case.heuristic_size, o.optimal_size));
    }
    let tuned = RooflineStats::from_pairs(&pairs);
    let heur = RooflineStats::from_pairs(&heur_pairs);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 16 — autotuner optimality (best of both inits, all rounds)");
    let _ = writeln!(out, "{:<28} {:>12} {:>12}", "", "autotuner", "baseline");
    let _ = writeln!(
        out,
        "{:<28} {:>11.0}% {:>11.0}%",
        "optimal found",
        tuned.optimal_rate() * 100.0,
        heur.optimal_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "{:<28} {:>11.2}% {:>11.2}%",
        "median non-opt overhead",
        tuned.median_nonoptimal_overhead_pct,
        heur.median_nonoptimal_overhead_pct
    );
    let _ = writeln!(
        out,
        "{:<28} {:>11.1}% {:>11.1}%",
        "max overhead", tuned.max_overhead_pct, heur.max_overhead_pct
    );
    let _ = writeln!(out, "\nshape target (paper): autotuner optimal on 81% of files vs the");
    let _ = writeln!(out, "baseline's 46%.");
    ctx.report("fig16_autotuner_optimality", &out);
    assert!(
        tuned.optimal_rate() >= heur.optimal_rate(),
        "autotuner must dominate the baseline on optimality"
    );
}
