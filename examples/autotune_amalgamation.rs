//! The SQLite-amalgamation case study (§5.2.3): autotune a single large
//! module for size, starting both from a clean slate and from the baseline
//! heuristic's decisions, on the x86-like and wasm-like targets.
//!
//! Run with: `cargo run --release --example autotune_amalgamation`

use optinline::prelude::*;
use optinline::workloads::{amalgamation, Scale};

fn study(target_name: &str, target: Box<dyn Target>, module: Module) {
    let ev = SizeEvaluator::new(module, target, false);
    let sites = ev.sites().clone();
    let clean_size = ev.size_of(&InliningConfiguration::clean_slate());
    let heuristic = InliningConfiguration::from_decisions(
        CostModelInliner::default().decide(ev.module(), ev.target()),
    );
    let heuristic_size = ev.size_of(&heuristic);

    let tuner = Autotuner::new(&ev, sites.clone());
    let clean_run = tuner.clean_slate(4);
    let init_run = tuner.run(heuristic.clone(), 4);
    let best = Autotuner::combine([&clean_run, &init_run]);

    let pct = |x: u64| 100.0 * x as f64 / heuristic_size as f64;
    println!("== {target_name} ==");
    println!("  inlinable calls:        {}", sites.len());
    println!("  -Os-like heuristic:     {heuristic_size} bytes (100.0%)");
    println!("  inlining disabled:      {clean_size} bytes ({:.1}%)", pct(clean_size));
    println!(
        "  autotuned (clean):      {} bytes ({:.1}%), {} rounds",
        clean_run.best().size,
        pct(clean_run.best().size),
        clean_run.rounds.len()
    );
    println!(
        "  autotuned (heur-init):  {} bytes ({:.1}%), {} rounds",
        init_run.best().size,
        pct(init_run.best().size),
        init_run.rounds.len()
    );
    println!("  combined best:          {} bytes ({:.1}%)", best.size, pct(best.size));
    println!("  total compilations:     {}\n", ev.compilations());
}

fn main() {
    let module = amalgamation(Scale::Small);
    println!(
        "amalgamation: {} functions, {} instructions\n",
        module.func_count(),
        module.inst_count()
    );
    study("x86-like target", Box::new(X86Like), module.clone());
    // On the wasm-like target calls are so cheap that inlining is marginal,
    // mirroring the paper's Emscripten finding.
    study("wasm-like target", Box::new(WasmLike), module);
}
