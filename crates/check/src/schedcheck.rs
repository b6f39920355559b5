//! The **scheduling oracle**: the change-driven dirty-function worklist
//! ([`PassManager::run_worklist`]) must be a pure scheduling optimization
//! of the whole-module sweep — every pass over every function, repeated
//! until a sweep changes nothing. The sweep lives only here, as this
//! oracle's private reference, built from the unchanged [`Pass::run`] over
//! the production pipeline's own passes ([`PassManager::passes`]).
//!
//! Two drains are compared on every module × configuration, and each must
//! produce a *byte-identical* module (textual IR and measured size):
//!
//! - the full `-Os` compile ([`optimize_os`] against [`optimize_os_sweep`]):
//!   frozen pristine effect summary, 10-round cap, dead-function
//!   elimination and a second drain;
//! - the heuristics' drain ([`PassManager::run_to_fixpoint`] against
//!   [`sweep_to_fixpoint`]) on the module after inlining the
//!   configuration: the 3-round-capped [`cleanup_pipeline`] with a live
//!   effect summary, where the cap cuts dead-argument cascades short.
//!
//! This is the strongest check the pass manager admits: not "semantically
//! equivalent", not "same size", but the same bytes — any divergence in
//! visit order, analysis staleness, dirty-set propagation or mid-round
//! joins shows up here before it can bias the paper's size measurements.

use optinline_codegen::{text_size, X86Like};
use optinline_core::InliningConfiguration;
use optinline_ir::analysis::EffectSummary;
use optinline_ir::Module;
use optinline_opt::{
    cleanup_pipeline, cleanup_pipeline_with, optimize_os, run_inliner, DeadFunctionElim,
    ForcedDecisions, InlineOracle, Pass, PassManager, PipelineOptions,
};
use std::fmt;

/// The cap the inlining heuristics drain their cleanup pipeline under.
const HEURISTIC_ROUNDS: usize = 3;

/// One configuration on which the two schedulers disagreed.
#[derive(Clone, Debug)]
pub struct SchedMismatch {
    /// The offending configuration.
    pub config: InliningConfiguration,
    /// Which drain diverged and how (first differing IR line, or the size
    /// pair).
    pub detail: String,
}

impl fmt::Display for SchedMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scheduling oracle: {} under config {}", self.detail, self.config)
    }
}

/// Outcome of [`check_scheduling`] on one module.
#[derive(Clone, Debug, Default)]
pub struct SchedReport {
    /// Drains compared (two per configuration).
    pub comparisons: usize,
    /// Disagreements found (empty = the schedulers are byte-identical).
    pub mismatches: Vec<SchedMismatch>,
}

/// The whole-module sweep: run every pass of `pm` over the whole module
/// with [`Pass::run`], repeating until a sweep changes nothing or
/// `max_iterations` sweeps have changed something.
pub fn sweep_to_fixpoint(pm: &PassManager, module: &mut Module, max_iterations: usize) {
    for _ in 0..max_iterations {
        let mut changed = false;
        for pass in pm.passes() {
            changed |= pass.run(module);
        }
        if !changed {
            break;
        }
    }
}

/// [`optimize_os`] with its cleanup drains replaced by
/// [`sweep_to_fixpoint`]: inline per `oracle`, sweep the cleanup pipeline
/// (with the frozen pristine effect summary) to a fixpoint, drop dead
/// functions, sweep again. Returns the number of call sites expanded.
pub fn optimize_os_sweep(
    module: &mut Module,
    oracle: &dyn InlineOracle,
    options: PipelineOptions,
) -> usize {
    let summary = EffectSummary::compute(module);
    let inlined = run_inliner(module, oracle);
    let pm = cleanup_pipeline_with(options, Some(summary));
    sweep_to_fixpoint(&pm, module, options.max_iterations);
    if DeadFunctionElim.run(module) {
        sweep_to_fixpoint(&pm, module, options.max_iterations);
    }
    inlined
}

/// Compiles `module` under every configuration with both schedulers, for
/// both drains in the [module docs](self), and compares the results
/// byte-for-byte (textual IR) and size-for-size.
pub fn check_scheduling(module: &Module, configs: &[InliningConfiguration]) -> SchedReport {
    let heuristic = cleanup_pipeline(PipelineOptions {
        max_iterations: HEURISTIC_ROUNDS,
        ..Default::default()
    });
    let mut report = SchedReport::default();
    for config in configs {
        let oracle = ForcedDecisions::new(config.decisions().clone());

        let mut worklist = module.clone();
        optimize_os(&mut worklist, &oracle, PipelineOptions::default());
        let mut sweep = module.clone();
        optimize_os_sweep(&mut sweep, &oracle, PipelineOptions::default());
        report.compare("optimize_os", config, &sweep, &worklist);

        let mut inlined = module.clone();
        run_inliner(&mut inlined, &oracle);
        let mut worklist = inlined.clone();
        heuristic.run_to_fixpoint(&mut worklist);
        let mut sweep = inlined;
        sweep_to_fixpoint(&heuristic, &mut sweep, HEURISTIC_ROUNDS);
        report.compare("heuristic drain", config, &sweep, &worklist);
    }
    report
}

impl SchedReport {
    /// Records one comparison of the `drain` named, and a mismatch if the
    /// worklist's module differs from the sweep's.
    fn compare(
        &mut self,
        drain: &str,
        config: &InliningConfiguration,
        sweep: &Module,
        worklist: &Module,
    ) {
        self.comparisons += 1;
        let sw_text = sweep.to_string();
        let wl_text = worklist.to_string();
        let detail = if wl_text != sw_text {
            first_diff(&sw_text, &wl_text)
        } else {
            let sw_size = text_size(sweep, &X86Like);
            let wl_size = text_size(worklist, &X86Like);
            if sw_size == wl_size {
                return;
            }
            format!("identical IR but different sizes: sweep {sw_size} vs worklist {wl_size}")
        };
        self.mismatches
            .push(SchedMismatch { config: config.clone(), detail: format!("{drain}: {detail}") });
    }
}

/// Locates the first line where the two schedulers' outputs diverge.
fn first_diff(sweep: &str, worklist: &str) -> String {
    for (n, (a, b)) in sweep.lines().zip(worklist.lines()).enumerate() {
        if a != b {
            return format!("modules diverge at line {}: sweep `{}` vs worklist `{}`", n + 1, a, b);
        }
    }
    format!(
        "modules diverge in length: sweep {} lines vs worklist {}",
        sweep.lines().count(),
        worklist.lines().count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::Decision;
    use optinline_workloads::{generate_file, GenParams};

    #[test]
    fn schedulers_agree_on_generated_modules() {
        for seed in 0..6u64 {
            let m = generate_file(&GenParams::named("sched", seed));
            let sites = m.inlinable_sites();
            let all_in = InliningConfiguration::from_decisions(
                sites.iter().map(|&s| (s, Decision::Inline)).collect(),
            );
            let configs = vec![InliningConfiguration::clean_slate(), all_in];
            let report = check_scheduling(&m, &configs);
            assert_eq!(report.comparisons, 4);
            assert!(report.mismatches.is_empty(), "seed {seed}: {}", report.mismatches[0]);
        }
    }

    #[test]
    fn a_divergent_pair_is_reported_with_the_first_differing_line() {
        let d = first_diff("a\nb\nc", "a\nX\nc");
        assert!(d.contains("line 2"), "{d}");
        let d = first_diff("a\nb", "a\nb\nc");
        assert!(d.contains("length"), "{d}");
    }
}
