//! Extension experiments beyond the paper's figures:
//!
//! - `trials` — a third strategy tier: the related-work trial inliner
//!   (Dean & Chambers, §7) between the static baseline and the autotuner,
//!   all anchored against the exhaustive optimum.
//! - `scalability` — the §6 scalability idea implemented: incremental
//!   round-based autotuning that only re-probes components whose
//!   configuration changed, with identical results at a fraction of the
//!   evaluations.

use crate::common::{Ctx, FileCase};
use crate::exp_roofline::OptimalCase;
use optinline_callgraph::site_components;
use optinline_codegen::X86Like;
use optinline_core::analysis::RooflineStats;
use optinline_core::autotune::Autotuner;
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_heuristics::TrialInliner;
use std::fmt::Write as _;

/// The trial-inliner tier, anchored against the optimum (extension of
/// Figure 7 / Figure 16).
pub fn trials(ctx: &Ctx, optima: &[OptimalCase<'_>]) {
    let mut pairs_cost = Vec::new();
    let mut pairs_trial = Vec::new();
    let mut pairs_tuned = Vec::new();
    // Cap the corpus: each trial decision costs a full pipeline run per
    // site, so this experiment uses the first 60 exhaustively-searched
    // files (deterministic order).
    let subset = &optima[..optima.len().min(60)];
    for o in subset {
        let trial_cfg = InliningConfiguration::from_decisions(
            TrialInliner.decide(o.case.evaluator.module(), &X86Like),
        );
        let sites = o.case.evaluator.sites().clone();
        let (trial_size, tuned) = o.case.with_evaluator(|ev| {
            let tuner = Autotuner::new(ev, sites);
            let clean = tuner.clean_slate(4);
            let init = tuner.run(o.case.heuristic.clone(), 4);
            (ev.size_of(&trial_cfg), Autotuner::combine([&clean, &init]).size)
        });
        pairs_cost.push((o.case.heuristic_size, o.optimal_size));
        pairs_trial.push((trial_size, o.optimal_size));
        pairs_tuned.push((tuned, o.optimal_size));
    }
    let cost = RooflineStats::from_pairs(&pairs_cost);
    let trial = RooflineStats::from_pairs(&pairs_trial);
    let tuned = RooflineStats::from_pairs(&pairs_tuned);
    let mut out = String::new();
    let _ = writeln!(out, "Extension — strategy tiers vs the optimum ({} files)", subset.len());
    let _ =
        writeln!(out, "{:<26} {:>12} {:>14} {:>12}", "", "cost model", "trials (§7)", "autotuner");
    let _ = writeln!(
        out,
        "{:<26} {:>11.0}% {:>13.0}% {:>11.0}%",
        "optimal found",
        cost.optimal_rate() * 100.0,
        trial.optimal_rate() * 100.0,
        tuned.optimal_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "{:<26} {:>11.2}% {:>13.2}% {:>11.2}%",
        "median non-opt overhead",
        cost.median_nonoptimal_overhead_pct,
        trial.median_nonoptimal_overhead_pct,
        tuned.median_nonoptimal_overhead_pct
    );
    let _ = writeln!(
        out,
        "{:<26} {:>11.1}% {:>13.1}% {:>11.1}%",
        "max overhead", cost.max_overhead_pct, trial.max_overhead_pct, tuned.max_overhead_pct
    );
    let _ = writeln!(out, "\nreading: trials measure instead of predicting, which tames the");
    let _ = writeln!(out, "typical error (lower median overhead than the cost model) but their");
    let _ = writeln!(out, "greedy bottom-up commitment locks in early choices, so they find");
    let _ = writeln!(out, "fewer exact optima; the autotuner dominates both — probing every");
    let _ = writeln!(out, "site against one base keeps the search honest and parallel.");
    ctx.report("ext_trials_tiers", &out);
}

/// The §6 scalability extension: incremental rounds match full rounds with
/// fewer evaluations.
pub fn scalability(ctx: &Ctx, cases: &[FileCase]) {
    let mut out = String::new();
    let _ = writeln!(out, "Extension — incremental round-based autotuning (§6 scalability)");
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>12} {:>12} {:>9}",
        "module", "sites", "full evals", "incr. evals", "equal?"
    );
    let mut total_full = 0u128;
    let mut total_incr = 0u128;
    // The densest files benefit most; take the 12 largest by site count,
    // plus the amalgamation.
    let mut big: Vec<&FileCase> =
        cases.iter().filter(|c| !c.evaluator.sites().is_empty()).collect();
    big.sort_by_key(|c| std::cmp::Reverse(c.evaluator.sites().len()));
    let amalgamation = optinline_workloads::amalgamation(ctx.scale);
    let amalgamation_ev =
        optinline_core::SizeEvaluator::new(amalgamation, Box::new(X86Like), ctx.incremental);
    // Suite rows, then the amalgamation (`None`).
    for row in big.into_iter().take(12).map(Some).chain([None]) {
        let (name, sized) = match row {
            Some(c) => (c.file.as_str(), &c.evaluator),
            None => ("sqlite_amalgamation.ir", &amalgamation_ev),
        };
        let sites = sized.sites().clone();
        let comps = site_components(sized.module());
        let tune = |ev: &dyn Evaluator| {
            let tuner = Autotuner::new(ev, sites.clone());
            let full = tuner.clean_slate(4);
            (full, tuner.run_incremental(&comps, InliningConfiguration::clean_slate(), 4))
        };
        let (full, incr) = match row {
            Some(c) => c.with_evaluator(tune),
            None => tune(&amalgamation_ev),
        };
        let equal = full.rounds.len() == incr.rounds.len()
            && full.rounds.iter().zip(&incr.rounds).all(|(a, b)| a.size == b.size);
        let fe = full.total_evaluations();
        let ie = incr.total_evaluations();
        total_full += fe;
        total_incr += ie;
        let _ = writeln!(
            out,
            "{:<26} {:>7} {:>12} {:>12} {:>9}",
            name,
            sites.len(),
            fe,
            ie,
            if equal { "yes" } else { "NO" }
        );
        assert!(equal, "incremental tuning diverged from full tuning on {name}");
    }
    let _ = writeln!(out, "{:-<70}", "");
    let _ = writeln!(
        out,
        "total evaluations: full {total_full} -> incremental {total_incr} ({:.1}% saved)",
        100.0 * (1.0 - total_incr as f64 / total_full as f64)
    );
    let _ = writeln!(out, "\nresults are identical by construction: under §3.2 independence a");
    let _ = writeln!(out, "probe's delta only depends on its own component, so untouched");
    let _ = writeln!(out, "components cannot yield new flips.");
    ctx.report("ext_incremental_scalability", &out);
}

/// Cross-TU headroom (extension of the paper's footnote 5): generate
/// multi-file programs whose later files call earlier files through
/// `extern` prototypes, then compare per-file autotuning (cross-TU calls
/// untouchable) against linked whole-program autotuning (they resolve and
/// become candidates).
pub fn lto(ctx: &Ctx, _cases: &[FileCase]) {
    use optinline_ir::link_modules;
    use optinline_workloads::{generate_program, GenParams};
    let mut out = String::new();
    let _ = writeln!(out, "Extension — per-file vs linked (LTO-style) autotuning");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>7} {:>13} {:>12} {:>12} {:>10}",
        "program", "files", "xsites", "baseline(B)", "per-file(B)", "linked(B)", "linked rel"
    );
    let tune = |ev: &SizeEvaluator, heuristic: &InliningConfiguration| -> u64 {
        let sites = ev.sites().clone();
        if sites.is_empty() {
            return ev.size_of(heuristic);
        }
        let tuner = Autotuner::new(ev, sites);
        let clean = tuner.clean_slate(3);
        let init = tuner.run(heuristic.clone(), 3);
        Autotuner::combine([&clean, &init]).size
    };
    let heuristic_for = |ev: &SizeEvaluator| {
        InliningConfiguration::from_decisions(
            optinline_heuristics::CostModelInliner::default().decide(ev.module(), &X86Like),
        )
    };
    for seed in [11u64, 22, 33, 44] {
        let n_files = 3 + (seed % 2) as usize;
        let files = generate_program(
            n_files,
            &GenParams {
                n_internal: 6,
                clusters: 1,
                ..GenParams::named(format!("prog{seed}"), seed)
            },
        );
        let per_file_sites: usize = files.iter().map(|m| m.inlinable_sites().len()).sum();
        let mut per_file_total = 0u64;
        let mut baseline_total = 0u64;
        for m in &files {
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
            let heuristic = heuristic_for(&ev);
            baseline_total += ev.size_of(&heuristic);
            per_file_total += tune(&ev, &heuristic);
        }
        let mut linked = link_modules(format!("prog{seed}"), &files);
        // LTO internalization: the program's surface is `main` plus the
        // cross-TU users; everything else becomes internal and deletable.
        optinline_ir::internalize_except(&mut linked, |name| {
            name == "main" || name.contains("xuse")
        });
        let cross_sites = linked.inlinable_sites().len() - per_file_sites;
        let ev = SizeEvaluator::new(linked, Box::new(X86Like), false);
        let heuristic = heuristic_for(&ev);
        let linked_tuned = tune(&ev, &heuristic);
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>7} {:>13} {:>12} {:>12} {:>9.1}%",
            format!("prog{seed}"),
            n_files,
            cross_sites,
            baseline_total,
            per_file_total,
            linked_tuned,
            100.0 * linked_tuned as f64 / per_file_total as f64
        );
    }
    let _ = writeln!(out, "\nreading: `xsites` counts the cross-TU calls that only become");
    let _ = writeln!(out, "inlining candidates after linking (the paper's footnote-5 boundary);");
    let _ = writeln!(out, "linked whole-program tuning spends them — plus whole-program deletion");
    let _ = writeln!(out, "of once-exported entry points — to beat the per-file optimum.");
    ctx.report("ext_lto_headroom", &out);
}

/// Compile-farm capacity planning (§1/§6's "compilation farms"): measure a
/// real per-compile cost, then model the wall-clock of the full study at
/// several farm sizes.
pub fn farm(ctx: &Ctx, cases: &[FileCase]) {
    use optinline_core::farm::{autotune_work, tree_work, PhasedWork};
    // Measure the compile-and-measure cost on the file with the most sites.
    let probe = cases
        .iter()
        .filter(|c| !c.evaluator.sites().is_empty())
        .max_by_key(|c| c.evaluator.sites().len())
        .expect("suite has non-trivial files");
    // One batch's per-compile cost. A single cold batch reads whatever the
    // host was doing, so time one warm-up batch and take the median of
    // `BATCHES` more.
    const REPS: u32 = 25;
    const BATCHES: usize = 15;
    let batch = || {
        let t0 = std::time::Instant::now();
        for i in 0..REPS {
            let mut cfg = InliningConfiguration::clean_slate();
            // Vary one decision per rep so the memo cache cannot short-circuit.
            if let Some(&s) =
                probe.evaluator.sites().iter().nth(i as usize % probe.evaluator.sites().len())
            {
                cfg.flip(s);
            }
            let _ = probe.evaluator.compile(&cfg);
        }
        t0.elapsed().as_micros() as u64 / REPS as u64
    };
    batch();
    let mut batches: Vec<u64> = (0..BATCHES).map(|_| batch()).collect();
    batches.sort_unstable();
    let cost_us = batches[BATCHES / 2].max(1);

    // Workload A: exhaustive search over every file within the 2^bits
    // budget (leaves ~= evaluations; combines are a small minority).
    let mut leaves: u128 = 0;
    for c in cases {
        let n = c.evaluator.sites().len();
        if n == 0 {
            continue;
        }
        let graph = optinline_callgraph::InlineGraph::from_module(c.evaluator.module());
        if let Some(tree) = optinline_core::tree::try_build_inlining_tree(
            &graph,
            optinline_callgraph::PartitionStrategy::Paper,
            1u128 << ctx.exhaustive_bits,
        ) {
            leaves += optinline_core::tree::space_size(&tree);
        }
    }
    let exhaustive = tree_work(leaves, leaves / 20 + 1, cost_us);

    // Workload B: a 4-round autotuning session over the whole suite. Files
    // tune independently, so each round is one big parallel phase.
    let per_round: usize = cases.iter().map(|c| c.evaluator.sites().len() + 2).sum();
    let autotune = autotune_work(per_round.saturating_sub(2), 4, cost_us);

    let fmt = |us: u64| -> String {
        if us > 10_000_000 {
            format!("{:.1}s", us as f64 / 1e6)
        } else {
            format!("{:.0}ms", us as f64 / 1e3)
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "Extension — compile-farm capacity model");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        out,
        "measured compile cost: {cost_us} us per evaluation (median of {BATCHES} batches of \
         {REPS} after a warm-up batch, compiled one at a time; host has {cores} cores)\n"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>10} {:>10}",
        "workload \\ workers", "1", "8", "64", "256"
    );
    let row = |label: &str, w: &PhasedWork| {
        format!(
            "{label:<28} {:>10} {:>10} {:>10} {:>10}",
            fmt(w.makespan(1)),
            fmt(w.makespan(8)),
            fmt(w.makespan(64)),
            fmt(w.makespan(256))
        )
    };
    let _ = writeln!(out, "{}", row("exhaustive search (fig7)", &exhaustive));
    let _ = writeln!(out, "{}", row("autotune suite, 4 rounds", &autotune));
    let _ = writeln!(
        out,
        "\nsaturation (within 5% of infinite workers): exhaustive at {} workers,",
        exhaustive.saturation_point(1.05)
    );
    let _ = writeln!(
        out,
        "autotuning at {} workers — rounds serialize, probes within a round",
        autotune.saturation_point(1.05)
    );
    let _ = writeln!(out, "do not (Algorithm 3's n+2 structure).");
    let _ = writeln!(out, "\npaper reference points: exhaustive search 'required a few hours' and");
    let _ = writeln!(out, "one suite autotuning session 4.4 hours, both on a 64-core machine —");
    let _ =
        writeln!(out, "with real compilers costing ~1s per compile instead of our ~{cost_us}us.",);
    ctx.report("ext_farm_model", &out);
}

/// Runtime-guarded size tuning (the §6 size/performance balance): cap the
/// allowed slowdown per flip and see how much of the size win survives.
pub fn guarded(ctx: &Ctx, cases: &[FileCase]) {
    use optinline_ir::interp::Interp;
    use optinline_opt::{optimize_os, ForcedDecisions, PipelineOptions};
    let cycles_of = |case: &FileCase, cfg: &InliningConfiguration| -> Option<u64> {
        let mut m = case.evaluator.module().clone();
        optimize_os(
            &mut m,
            &ForcedDecisions::new(cfg.decisions().clone()),
            PipelineOptions::default(),
        );
        let main = m.func_by_name("main")?;
        Interp::new(&m).run(main, &[]).ok().map(|o| o.cycles)
    };
    let mut out = String::new();
    let _ = writeln!(out, "Extension — runtime-guarded size autotuning (2% budget vs unguarded)");
    let _ = writeln!(
        out,
        "{:<12} {:>11} {:>11} {:>12} {:>12}",
        "benchmark", "size plain", "size guard", "time plain", "time guard"
    );
    let mut sp = Vec::new();
    let mut sg = Vec::new();
    let mut tp = Vec::new();
    let mut tg = Vec::new();
    // A representative slice keeps the runtime sensible: guarded probes
    // interpret the program once per site per round.
    let picks = ["deepsjeng", "leela", "mfc", "x264", "xz", "lbm", "imagick", "nab"];
    for name in picks {
        let mut tot = [0u64; 6]; // base_size, plain_size, guard_size, base_cyc, plain_cyc, guard_cyc
        for case in cases.iter().filter(|c| c.bench == name) {
            let sites = case.evaluator.sites().clone();
            let (plain_cfg, guard_cfg, plain_size, guard_size) = case.with_evaluator(|ev| {
                let (plain_cfg, guard_cfg) = if sites.is_empty() {
                    (case.heuristic.clone(), case.heuristic.clone())
                } else {
                    let tuner = Autotuner::new(ev, sites);
                    let plain = tuner.run(case.heuristic.clone(), 2);
                    let cycles = |cfg: &InliningConfiguration| cycles_of(case, cfg);
                    let guard = tuner.run_guarded(case.heuristic.clone(), 2, &cycles, 1.02);
                    (plain.best().config.clone(), guard.best().config.clone())
                };
                let (plain_size, guard_size) = (ev.size_of(&plain_cfg), ev.size_of(&guard_cfg));
                (plain_cfg, guard_cfg, plain_size, guard_size)
            });
            tot[0] += case.heuristic_size;
            tot[1] += plain_size;
            tot[2] += guard_size;
            tot[3] += cycles_of(case, &case.heuristic).unwrap_or(0);
            tot[4] += cycles_of(case, &plain_cfg).unwrap_or(0);
            tot[5] += cycles_of(case, &guard_cfg).unwrap_or(0);
        }
        if tot[0] == 0 || tot[3] == 0 {
            continue;
        }
        let pct = |x: u64, b: u64| 100.0 * x as f64 / b as f64;
        sp.push(pct(tot[1], tot[0]));
        sg.push(pct(tot[2], tot[0]));
        tp.push(pct(tot[4], tot[3]));
        tg.push(pct(tot[5], tot[3]));
        let _ = writeln!(
            out,
            "{name:<12} {:>10.1}% {:>10.1}% {:>11.1}% {:>11.1}%",
            pct(tot[1], tot[0]),
            pct(tot[2], tot[0]),
            pct(tot[4], tot[3]),
            pct(tot[5], tot[3])
        );
    }
    let med = |v: &[f64]| optinline_core::analysis::median(v);
    let _ = writeln!(out, "{:-<62}", "");
    let _ = writeln!(
        out,
        "{:<12} {:>10.1}% {:>10.1}% {:>11.1}% {:>11.1}%",
        "median",
        med(&sp),
        med(&sg),
        med(&tp),
        med(&tg)
    );
    let _ = writeln!(out, "\nreading: the guard trades a slice of the size win for a hard cap on");
    let _ = writeln!(out, "per-flip slowdowns — the §6 balance, as a one-parameter knob. (The");
    let _ = writeln!(out, "guard is per-probe; aggregate runtime can still drift within budget.)");
    ctx.report("ext_guarded_tuning", &out);
}
