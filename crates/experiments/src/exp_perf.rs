//! Figure 19: the runtime cost of size-tuned inlining, measured on the
//! interpreter's deterministic cycle model (call overhead + I-cache).

use crate::common::{bench_names, Ctx, FileCase};
use optinline_core::autotune::Autotuner;
use optinline_core::InliningConfiguration;
use optinline_ir::interp::Interp;
use optinline_opt::{optimize_os, ForcedDecisions, PipelineOptions};
use std::fmt::Write as _;

fn cycles_under(case: &FileCase, config: &InliningConfiguration) -> Option<u64> {
    let mut m = case.evaluator.module().clone();
    optimize_os(
        &mut m,
        &ForcedDecisions::new(config.decisions().clone()),
        PipelineOptions::default(),
    );
    let main = m.func_by_name("main")?;
    Interp::new(&m).run(main, &[]).ok().map(|o| o.cycles)
}

/// Derives each file's best size-tuned configuration (one clean-slate and
/// one heuristic-initialized session) and compares simulated runtime
/// against the baseline build.
pub fn fig19(ctx: &Ctx, cases: &[FileCase]) {
    let mut out = String::new();
    let _ =
        writeln!(out, "Figure 19 — runtime of size-tuned builds vs baseline (simulated cycles)");
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>10}",
        "benchmark", "baseline(cyc)", "tuned(cyc)", "relative"
    );
    let mut rels = Vec::new();
    for name in bench_names(cases) {
        let mut base_total = 0u64;
        let mut tuned_total = 0u64;
        for case in cases.iter().filter(|c| c.bench == name) {
            let Some(base_cycles) = cycles_under(case, &case.heuristic) else { continue };
            let sites = case.evaluator.sites().clone();
            let tuned_cfg = if sites.is_empty() {
                case.heuristic.clone()
            } else {
                case.with_evaluator(|ev| {
                    let tuner = Autotuner::new(ev, sites);
                    let clean = tuner.clean_slate(2);
                    let init = tuner.run(case.heuristic.clone(), 2);
                    Autotuner::combine([&clean, &init]).config
                })
            };
            let Some(tuned_cycles) = cycles_under(case, &tuned_cfg) else { continue };
            base_total += base_cycles;
            tuned_total += tuned_cycles;
        }
        if base_total == 0 {
            continue;
        }
        let rel = 100.0 * tuned_total as f64 / base_total as f64;
        rels.push(rel);
        let _ = writeln!(out, "{name:<12} {base_total:>14} {tuned_total:>14} {rel:>9.1}%");
    }
    let geo = optinline_core::analysis::geometric_mean(&rels);
    let med = optinline_core::analysis::median(&rels);
    let _ = writeln!(out, "{:-<54}", "");
    let _ = writeln!(out, "geometric mean: {geo:.1}%   median: {med:.1}%");
    let _ = writeln!(out, "\nshape target (paper): small overhead overall (geomean 103.6%, median");
    let _ = writeln!(out, "102%), with occasional speedups (mfc 89.5%) where smaller code helps");
    let _ = writeln!(out, "the instruction cache.");
    ctx.report("fig19_performance", &out);
}
