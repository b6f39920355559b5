//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation on the synthetic corpus.
//!
//! ```text
//! cargo run -p optinline-experiments --release -- all
//! cargo run -p optinline-experiments --release -- fig7 table2 fig9
//! cargo run -p optinline-experiments --release -- --small --bits 12 fig10
//! ```
//!
//! Output goes to stdout and `results/<experiment>.txt`.

mod common;
mod exp_autotune;
mod exp_cases;
mod exp_casestudies;
mod exp_extensions;
mod exp_pareto;
mod exp_perf;
mod exp_roofline;
mod exp_rounds;
mod exp_size_change;
mod exp_space;

use common::Ctx;
use optinline_workloads::Scale;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "size change due to inlining, per benchmark"),
    ("fig3", "naive search-space sizes per benchmark"),
    ("table1", "naive vs recursively partitioned space"),
    ("fig7", "baseline vs optimal roofline"),
    ("table2", "decision agreement vs optimal"),
    ("fig8", "case-study graphs (DOT)"),
    ("fig9", "inlined call-chain lengths"),
    ("fig10", "clean-slate autotuning"),
    ("fig11", "collective-DCE star case"),
    ("fig12", "heuristic-initialized autotuning"),
    ("table3", "benchmarks worse with heuristic init"),
    ("fig13_14", "initialization case studies"),
    ("fig15", "combined autotuning"),
    ("fig16", "autotuner optimality vs optimal"),
    ("fig17", "round-based autotuning"),
    ("fig18", "round-based, combined"),
    ("table4", "per-round trace of one module"),
    ("fig19", "runtime impact of size tuning"),
    ("pareto", "size/cycles Pareto frontiers vs size-only tuning"),
    ("case_sqlite", "SQLite-style amalgamation (x86 + wasm)"),
    ("case_llvm", "LLVM-style library"),
    ("trials", "extension: trial-inliner strategy tier"),
    ("scalability", "extension: incremental autotuning (§6)"),
    ("lto", "extension: per-file vs linked autotuning"),
    ("farm", "extension: compile-farm capacity model"),
    ("guarded", "extension: runtime-guarded size tuning (§6)"),
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--small] [--bits N] [--out DIR] [--cache-dir DIR] \
         <experiment|all>...\n"
    );
    eprintln!("  --cache-dir  persistent evaluation store (also: OPTINLINE_CACHE_DIR env var)\n");
    eprintln!("experiments:");
    for (name, desc) in EXPERIMENTS {
        eprintln!("  {name:<12} {desc}");
    }
    std::process::exit(2);
}

fn main() {
    let mut ctx = Ctx::new();
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => ctx.scale = Scale::Small,
            "--bits" => {
                let v = args.next().unwrap_or_else(|| usage());
                ctx.exhaustive_bits = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => {
                ctx.out_dir = args.next().unwrap_or_else(|| usage()).into();
            }
            "--cache-dir" => {
                ctx.cache_dir = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "all" => selected.extend(EXPERIMENTS.iter().map(|(n, _)| n.to_string())),
            name if EXPERIMENTS.iter().any(|(n, _)| *n == name) => selected.push(name.to_string()),
            _ => usage(),
        }
    }
    if selected.is_empty() {
        usage();
    }
    selected.dedup();

    let t0 = std::time::Instant::now();
    eprintln!("[generating suite + baselines ({:?} scale)...]", ctx.scale);
    let cases = common::load_cases(ctx.scale, ctx.cache_dir.as_deref());
    eprintln!(
        "[{} files, {} inlinable sites, {:.1}s]",
        cases.len(),
        cases.iter().map(|c| c.evaluator.sites().len()).sum::<usize>(),
        t0.elapsed().as_secs_f64()
    );

    let needs_optima = selected
        .iter()
        .any(|s| ["fig7", "table2", "fig9", "fig16", "trials"].contains(&s.as_str()));
    let optima = if needs_optima {
        eprintln!("[exhaustive search on files with space <= 2^{}...]", ctx.exhaustive_bits);
        let t = std::time::Instant::now();
        let o = exp_roofline::compute_optima(&ctx, &cases);
        eprintln!("[{} files searched, {:.1}s]", o.len(), t.elapsed().as_secs_f64());
        o
    } else {
        Vec::new()
    };

    let rounds = 4;
    let needs_tunes = selected.iter().any(|s| {
        ["fig10", "fig12", "table3", "fig15", "fig16", "fig17", "fig18"].contains(&s.as_str())
    });
    let tunes = if needs_tunes {
        eprintln!("[autotuning every file ({rounds} rounds x 2 inits)...]");
        let t = std::time::Instant::now();
        let r = exp_autotune::tune_all(&cases, rounds);
        eprintln!("[done, {:.1}s]", t.elapsed().as_secs_f64());
        r
    } else {
        exp_autotune::TuneResults::default()
    };

    for name in &selected {
        eprintln!("\n=== {name} ===");
        match name.as_str() {
            "fig1" => exp_size_change::fig1(&ctx, &cases),
            "fig3" => exp_space::fig3(&ctx, &cases),
            "table1" => exp_space::table1(&ctx, &cases),
            "fig7" => exp_roofline::fig7(&ctx, &optima),
            "table2" => exp_roofline::table2(&ctx, &optima),
            "fig8" => exp_cases::fig8(&ctx),
            "fig9" => exp_roofline::fig9(&ctx, &optima),
            "fig10" => exp_autotune::fig10(&ctx, &cases, &tunes),
            "fig11" => exp_cases::fig11(&ctx),
            "fig12" => exp_autotune::fig12(&ctx, &cases, &tunes),
            "table3" => exp_autotune::table3(&ctx, &cases, &tunes),
            "fig13_14" => exp_cases::fig13_14(&ctx),
            "fig15" => exp_autotune::fig15(&ctx, &cases, &tunes),
            "fig16" => exp_autotune::fig16(&ctx, &optima, &tunes),
            "fig17" => exp_rounds::fig17(&ctx, &cases, &tunes, rounds),
            "fig18" => exp_rounds::fig18(&ctx, &cases, &tunes),
            "table4" => exp_rounds::table4(&ctx),
            "fig19" => exp_perf::fig19(&ctx, &cases),
            "pareto" => exp_pareto::pareto(&ctx, &cases, 2),
            "case_sqlite" => exp_casestudies::case_sqlite(&ctx),
            "case_llvm" => exp_casestudies::case_llvm(&ctx),
            "trials" => exp_extensions::trials(&ctx, &optima),
            "scalability" => exp_extensions::scalability(&ctx, &cases),
            "lto" => exp_extensions::lto(&ctx, &cases),
            "farm" => exp_extensions::farm(&ctx, &cases),
            "guarded" => exp_extensions::guarded(&ctx, &cases),
            other => unreachable!("unknown experiment {other}"),
        }
    }
    eprintln!("\n[{}]", common::stats_footer(&cases));
    eprintln!("[total {:.1}s]", t0.elapsed().as_secs_f64());
}
