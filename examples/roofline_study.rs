//! A miniature §4 study: generate a corpus of files, compute each file's
//! optimal size exhaustively (recursively partitioned), and measure how far
//! the LLVM-like baseline heuristic and the autotuner are from optimal —
//! the roofline analysis of Figures 7/16 and the agreement of Table 2.
//!
//! Run with: `cargo run --release --example roofline_study`

use optinline::core::analysis::{Agreement, RooflineStats};
use optinline::core::tree;
use optinline::prelude::*;
use optinline::workloads::GenParams;

fn main() {
    let mut pairs_heuristic = Vec::new();
    let mut pairs_tuned = Vec::new();
    let mut agreement = Agreement::default();

    let files = 40;
    for seed in 0..files {
        let m = optinline::workloads::generate_file(&GenParams {
            n_internal: 4 + (seed as usize % 6),
            call_density: 1.4,
            ..GenParams::named(format!("file{seed:02}"), seed * 77 + 5)
        });
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        if sites.is_empty() || sites.len() > 14 {
            continue;
        }

        let optimal = tree::optimal_configuration(&ev, PartitionStrategy::Paper);

        let heuristic = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(ev.module(), &X86Like),
        );
        let h_size = ev.size_of(&heuristic);

        let tuner = Autotuner::new(&ev, sites.clone());
        let clean = tuner.clean_slate(4);
        let init = tuner.run(heuristic.clone(), 4);
        let tuned = Autotuner::combine([&clean, &init]);

        pairs_heuristic.push((h_size, optimal.size));
        pairs_tuned.push((tuned.size, optimal.size));
        agreement.accumulate(&sites, &optimal.config, &heuristic);
    }

    let heur = RooflineStats::from_pairs(&pairs_heuristic);
    let tuned = RooflineStats::from_pairs(&pairs_tuned);

    println!("files analyzed: {}", heur.files);
    println!("\n-- baseline -Os-like heuristic vs optimal (Figure 7) --");
    println!(
        "  optimal found:      {}/{} ({:.0}%)",
        heur.optimal_found,
        heur.files,
        heur.optimal_rate() * 100.0
    );
    println!(
        "  median overhead:    {:.2}% (non-optimal files)",
        heur.median_nonoptimal_overhead_pct
    );
    println!("  >=5% / >=10%:       {} / {}", heur.at_least_5pct, heur.at_least_10pct);
    println!("  max overhead:       {:.1}%", heur.max_overhead_pct);

    println!(
        "\n-- autotuner (best of clean-slate/heuristic-init, 4 rounds) vs optimal (Figure 16) --"
    );
    println!(
        "  optimal found:      {}/{} ({:.0}%)",
        tuned.optimal_found,
        tuned.files,
        tuned.optimal_rate() * 100.0
    );
    println!("  median overhead:    {:.2}%", tuned.median_nonoptimal_overhead_pct);
    println!("  max overhead:       {:.1}%", tuned.max_overhead_pct);

    println!("\n-- decision agreement, heuristic vs optimal (Table 2) --");
    println!("  both no-inline:     {}", agreement.both_no_inline);
    println!("  too aggressive:     {}", agreement.too_aggressive);
    println!("  too conservative:   {}", agreement.too_conservative);
    println!("  both inline:        {}", agreement.both_inline);
    println!("  agreement rate:     {:.1}%", agreement.agreement_rate() * 100.0);

    assert!(
        tuned.optimal_rate() >= heur.optimal_rate(),
        "the autotuner should dominate the heuristic"
    );
}
