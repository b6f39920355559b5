//! §5.2.3 case studies: the SQLite-style amalgamation (x86 and wasm
//! targets) and the LLVM-style library.

use crate::common::Ctx;
use optinline_codegen::{Target, WasmLike, X86Like};
use optinline_core::autotune::Autotuner;
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_heuristics::CostModelInliner;
use optinline_ir::Module;
use optinline_workloads::{amalgamation, large_library};
use std::fmt::Write as _;

fn tune_module(
    module: Module,
    target: Box<dyn Target>,
    rounds: usize,
) -> (u64, u64, u64, u64, usize) {
    let ev = SizeEvaluator::new(module, target, false);
    let sites = ev.sites().clone();
    let n_sites = sites.len();
    let heuristic = InliningConfiguration::from_decisions(
        CostModelInliner::default().decide(ev.module(), ev.target()),
    );
    let base = ev.size_of(&heuristic);
    let none = ev.size_of(&InliningConfiguration::clean_slate());
    let tuner = Autotuner::new(&ev, sites);
    let clean = tuner.clean_slate(rounds);
    let init = tuner.run(heuristic, rounds);
    let best = Autotuner::combine([&clean, &init]).size;
    (base, none, best, clean.best().size.min(init.best().size), n_sites)
}

/// The SQLite case study: x86-like vs wasm-like.
pub fn case_sqlite(ctx: &Ctx) {
    let module = amalgamation(ctx.scale);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "SQLite-style amalgamation: {} functions, {} instructions",
        module.func_count(),
        module.inst_count()
    );
    for (label, target) in
        [("x86-like", Box::new(X86Like) as Box<dyn Target>), ("wasm-like", Box::new(WasmLike))]
    {
        let (base, none, best, _, n) = tune_module(module.clone(), target, 4);
        let _ = writeln!(out, "\n== {label} ({n} inlinable calls) ==");
        let _ = writeln!(out, "  baseline heuristic:  {base} B (100.0%)");
        let _ = writeln!(
            out,
            "  inlining disabled:   {none} B ({:.1}%)",
            100.0 * none as f64 / base as f64
        );
        let _ = writeln!(
            out,
            "  autotuned best:      {best} B ({:.1}%)",
            100.0 * best as f64 / base as f64
        );
    }
    let _ = writeln!(out, "\nshape target (paper): x86 autotuning reaches ~90% of the baseline;");
    let _ = writeln!(out, "on WASM the baseline's inlining is near-useless (it *grew* code 18.3%");
    let _ = writeln!(out, "over no inlining) and tuning only trims ~1% — cheap calls change the");
    let _ = writeln!(out, "trade-off entirely.");
    ctx.report("case_sqlite", &out);
}

/// The LLVM-library case study: several large modules, heuristic-
/// initialized rounds.
pub fn case_llvm(ctx: &Ctx) {
    let lib = large_library(ctx.scale);
    let mut out = String::new();
    let _ = writeln!(out, "LLVM-style library: {} modules", lib.len());
    let mut base_total = 0u64;
    let mut tuned_total = 0u64;
    for module in lib {
        let name = module.name.clone();
        let (base, _none, best, _, n) = tune_module(module, Box::new(X86Like), 3);
        let _ = writeln!(
            out,
            "  {name:<18} {n:>5} calls  {base:>8} B -> {best:>8} B ({:.1}%)",
            100.0 * best as f64 / base as f64
        );
        base_total += base;
        tuned_total += best;
    }
    let _ = writeln!(out, "{:-<60}", "");
    let _ = writeln!(
        out,
        "total: {base_total} B -> {tuned_total} B ({:.2}% of baseline, {:.2}% reduction)",
        100.0 * tuned_total as f64 / base_total as f64,
        100.0 - 100.0 * tuned_total as f64 / base_total as f64
    );
    let _ = writeln!(out, "\nshape target (paper): 15.21% total reduction on llvm/lib — larger,");
    let _ = writeln!(out, "denser call graphs leave the heuristic more room to be wrong.");
    ctx.report("case_llvm", &out);
}
