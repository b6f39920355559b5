//! Pareto-frontier experiment: multi-objective `(size, cycles)` tuning
//! across the suite, against the size-only view of the same files.
//!
//! For every file the front-driven autotuner (`Autotuner::run_pareto`,
//! seeded with the clean slate and the `-Os`-like heuristic) produces a
//! set of non-dominated `(size, cycles)` points. The size end of each
//! frontier is what size-only tuning optimizes for; the cycles end is
//! what a speed objective would pick; the width between them is the
//! tradeoff a scalar objective cannot see.

use crate::common::{bench_names, Ctx, FileCase};
use optinline_core::autotune::Autotuner;
use optinline_core::{InliningConfiguration, Objective};
use std::fmt::Write as _;

/// The frontier experiment: per-benchmark size/cycles frontiers vs the
/// heuristic baseline (Figures 12–15 style), plus frontier-shape stats.
pub fn pareto(ctx: &Ctx, cases: &[FileCase], rounds: usize) {
    struct FileFront {
        bench: &'static str,
        baseline_size: u64,
        baseline_cycles: Option<u64>,
        min_size: u64,
        cycles_at_min_size: Option<u64>,
        min_cycles: Option<u64>,
        size_at_min_cycles: u64,
        points: usize,
    }

    let mut fronts = Vec::new();
    for case in cases {
        let baseline = case.with_evaluator(|ev| ev.measure(&case.heuristic, Objective::Pareto));
        let sites = case.evaluator.sites().clone();
        if sites.is_empty() {
            fronts.push(FileFront {
                bench: case.bench,
                baseline_size: baseline.size,
                baseline_cycles: baseline.cycles,
                min_size: baseline.size,
                cycles_at_min_size: baseline.cycles,
                min_cycles: baseline.cycles,
                size_at_min_cycles: baseline.size,
                points: 1,
            });
            continue;
        }
        let outcome = case.with_evaluator(|ev| {
            Autotuner::new(ev, sites)
                .run_pareto([InliningConfiguration::clean_slate(), case.heuristic.clone()], rounds)
        });
        let small = outcome.front.min_size().expect("front is never empty");
        assert!(
            small.measurement.size <= baseline.size,
            "{}: the size end of the frontier must not regress the baseline",
            case.file
        );
        let fast = outcome.front.min_cycles();
        fronts.push(FileFront {
            bench: case.bench,
            baseline_size: baseline.size,
            baseline_cycles: baseline.cycles,
            min_size: small.measurement.size,
            cycles_at_min_size: small.measurement.cycles,
            min_cycles: fast.and_then(|p| p.measurement.cycles),
            size_at_min_cycles: fast.map(|p| p.measurement.size).unwrap_or(small.measurement.size),
            points: outcome.front.len(),
        });
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pareto frontiers — run_pareto({rounds} round(s), clean+heuristic inits) vs baseline"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>7} {:>11} {:>11} {:>7} {:>5}",
        "benchmark", "base(B)", "minB", "relB", "base(cy)", "min(cy)", "relCy", "pts"
    );
    let mut rel_sizes = Vec::new();
    let mut rel_cycles = Vec::new();
    for name in bench_names(cases) {
        let of_bench: Vec<&FileFront> = fronts.iter().filter(|f| f.bench == name).collect();
        let base_b: u64 = of_bench.iter().map(|f| f.baseline_size).sum();
        let min_b: u64 = of_bench.iter().map(|f| f.min_size).sum();
        // Cycle totals only over files that are executable at all, on
        // both sides, so the ratio compares like with like.
        let base_cy: u64 = of_bench
            .iter()
            .filter(|f| f.min_cycles.is_some())
            .filter_map(|f| f.baseline_cycles)
            .sum();
        let min_cy: u64 = of_bench.iter().filter_map(|f| f.min_cycles).sum();
        let pts: usize = of_bench.iter().map(|f| f.points).sum();
        let rel_b = 100.0 * min_b as f64 / base_b as f64;
        rel_sizes.push(rel_b);
        if base_cy > 0 {
            rel_cycles.push(100.0 * min_cy as f64 / base_cy as f64);
        }
        let (cy_s, rel_s) = if base_cy > 0 {
            (format!("{min_cy}"), format!("{:.1}%", 100.0 * min_cy as f64 / base_cy as f64))
        } else {
            ("n/a".to_string(), "-".to_string())
        };
        let _ = writeln!(
            out,
            "{name:<12} {base_b:>9} {min_b:>9} {rel_b:>6.1}% {base_cy:>11} {cy_s:>11} {rel_s:>7} {pts:>5}"
        );
    }
    let _ = writeln!(out, "{:-<78}", "");
    let _ = writeln!(
        out,
        "median relative size at the frontier's size end:   {:>6.2}%",
        optinline_core::analysis::median(&rel_sizes)
    );
    if !rel_cycles.is_empty() {
        let _ = writeln!(
            out,
            "median relative cycles at the frontier's speed end: {:>6.2}%",
            optinline_core::analysis::median(&rel_cycles)
        );
    }

    // Frontier shape: how often the two objectives actually disagree.
    let with_tradeoff = fronts.iter().filter(|f| f.points >= 2).count();
    let _ = writeln!(
        out,
        "\nfiles with a real size/speed tradeoff (front >= 2 points): {with_tradeoff} of {}",
        fronts.len()
    );
    let (mut cy_at_size, mut cy_at_speed) = (0u64, 0u64);
    for f in &fronts {
        if let (Some(a), Some(b)) = (f.cycles_at_min_size, f.min_cycles) {
            cy_at_size += a;
            cy_at_speed += b;
        }
    }
    if cy_at_speed > 0 {
        let _ = writeln!(
            out,
            "cycles if size-only tuning picked the config:  {cy_at_size} \
             ({:.1}% of the speed end's {cy_at_speed})",
            100.0 * cy_at_size as f64 / cy_at_speed as f64
        );
        let _ = writeln!(
            out,
            "size paid for the speed end vs the size end:   {} B vs {} B",
            fronts.iter().map(|f| f.size_at_min_cycles).sum::<u64>(),
            fronts.iter().map(|f| f.min_size).sum::<u64>()
        );
    }
    let _ = writeln!(
        out,
        "\nshape target: size-only tuning sits at one end of every frontier; the\n\
         frontier exposes the configs a scalar objective silently discards —\n\
         the gap between the two cycle totals is the headroom speed tuning\n\
         buys, and the size gap is its price."
    );
    let _ = writeln!(out, "\n{}", crate::common::stats_footer(cases));
    ctx.report("pareto_frontier", &out);
}
