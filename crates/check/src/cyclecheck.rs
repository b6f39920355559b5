//! The **cycles oracle**: optimization may move the cycle count, never
//! the observable behaviour — and the cycle measurement itself must be
//! exactly reproducible.
//!
//! Two properties per module × configuration:
//!
//! 1. **Behaviour preservation with cycles free to move.** `-Os` under
//!    the configuration must leave every public entry point's observable
//!    behaviour ([`observe`]: return value, final globals, ordered store
//!    trace, trap kind) intact, while the simulated cycle count is
//!    explicitly allowed — expected, even — to change. The former is
//!    asserted, the latter only *recorded* ([`CycleReport::cycles_changed`]):
//!    a speed objective that could never move cycles would be pointless,
//!    and one that moved behaviour would be a miscompile.
//! 2. **Measurement determinism.** The same configuration must measure
//!    the same `(size, cycles)` [`Measurement`] through every evaluator
//!    shape — whole-module memoized, incremental, cached repeat, and
//!    concurrently through the [`WorkerPool`] at whatever worker count.
//!    The multi-objective search's determinism guarantee rests on this.

use crate::oracle::{observe, Behaviour, Limits};
use optinline_codegen::X86Like;
use optinline_core::{
    module_cycles, Evaluator, InliningConfiguration, Objective, SizeEvaluator, WorkerPool,
};
use optinline_ir::interp::CostModel;
use optinline_ir::{Linkage, Measurement, Module};
use std::fmt;

/// One configuration where the cycles oracle found a violation.
#[derive(Clone, Debug)]
pub struct CycleMismatch {
    /// The configuration that exposed it.
    pub config: InliningConfiguration,
    /// What went wrong.
    pub detail: String,
}

impl fmt::Display for CycleMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycles oracle: {} under {}", self.detail, self.config)
    }
}

/// Outcome of one module × configuration-set cycles check.
#[derive(Clone, Debug, Default)]
pub struct CycleReport {
    /// Violations found (empty = pass).
    pub mismatches: Vec<CycleMismatch>,
    /// Behaviour and measurement comparisons performed.
    pub comparisons: usize,
    /// Configurations whose optimized module measures a different cycle
    /// count than the pristine module — recorded, never a failure
    /// (cycles moving under optimization is the speed objective working).
    pub cycles_changed: usize,
}

/// Checks behaviour preservation and cycle-measurement determinism for
/// every configuration; see the module docs. `pool` additionally probes
/// the measurements concurrently — pass `None` for a purely sequential
/// check.
pub fn check_cycles(
    module: &Module,
    configs: &[InliningConfiguration],
    pool: Option<&WorkerPool>,
) -> CycleReport {
    let cost = CostModel::default();
    let limits = Limits::default();
    let full = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
    let incr = SizeEvaluator::new(module.clone(), Box::new(X86Like), true);
    let mut report = CycleReport::default();
    let pristine_cycles = module_cycles(module, &cost);
    let mut references = Vec::with_capacity(configs.len());

    for config in configs {
        let optimized = incr.compile(config);

        // Property 1: observable behaviour is intact on every public
        // entry, probed on the two canonical input corners.
        for (fid, func) in module.iter_funcs() {
            if func.linkage != Linkage::Public || module.is_extern_decl(fid) {
                continue;
            }
            let Some(ofid) = optimized.func_by_name(&func.name) else {
                report.mismatches.push(CycleMismatch {
                    config: config.clone(),
                    detail: format!(
                        "public entry `{}` vanished from the optimized module",
                        func.name
                    ),
                });
                continue;
            };
            let arity = func.params().len();
            for args in [vec![0i64; arity], vec![1i64; arity]] {
                let expected = observe(module, fid, &args, &limits);
                let actual = observe(&optimized, ofid, &args, &limits);
                if matches!(expected, Behaviour::Inconclusive)
                    || matches!(actual, Behaviour::Inconclusive)
                {
                    continue;
                }
                report.comparisons += 1;
                if expected != actual {
                    report.mismatches.push(CycleMismatch {
                        config: config.clone(),
                        detail: format!(
                            "`{}`({args:?}) changed behaviour: expected {expected:?}, got {actual:?}",
                            func.name
                        ),
                    });
                }
            }
        }

        // Cycles moving is recorded, not judged.
        if module_cycles(&optimized, &cost) != pristine_cycles {
            report.cycles_changed += 1;
        }

        // Property 2: one measurement, every path. The incremental
        // evaluator's first answer is the reference the rest must match.
        let reference = incr.measure(config, Objective::Speed);
        references.push(reference);
        let mut probe = |path: &'static str, got: Measurement| {
            report.comparisons += 1;
            if got != reference {
                report.mismatches.push(CycleMismatch {
                    config: config.clone(),
                    detail: format!(
                        "`{path}` path measured {got:?} but the reference is {reference:?}"
                    ),
                });
            }
        };
        probe("full", full.measure(config, Objective::Speed));
        probe("full-cached", full.measure(config, Objective::Speed));
        probe("incremental-cached", incr.measure(config, Objective::Speed));
    }

    if let Some(pool) = pool {
        // Warm caches above, now hammer them concurrently: the same
        // configuration must measure the same cycles at any worker count.
        for (path, measured) in [
            ("full-concurrent", pool.map(configs, |c| full.measure(c, Objective::Speed))),
            ("incremental-concurrent", pool.map(configs, |c| incr.measure(c, Objective::Speed))),
        ] {
            for (i, (got, &reference)) in measured.into_iter().zip(&references).enumerate() {
                report.comparisons += 1;
                if got != reference {
                    report.mismatches.push(CycleMismatch {
                        config: configs[i].clone(),
                        detail: format!(
                            "`{path}` path measured {got:?} but the reference is {reference:?}"
                        ),
                    });
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::Decision;
    use optinline_workloads::{generate_file, GenParams};

    fn some_configs(module: &Module) -> Vec<InliningConfiguration> {
        let sites = module.inlinable_sites();
        let all_in = InliningConfiguration::from_decisions(
            sites.iter().map(|&s| (s, Decision::Inline)).collect(),
        );
        vec![InliningConfiguration::clean_slate(), all_in]
    }

    #[test]
    fn generated_modules_pass_the_cycles_oracle() {
        let mut moved = 0;
        for seed in [0, 11, 23] {
            let m = generate_file(&GenParams::named(format!("cy{seed}"), seed));
            let report = check_cycles(&m, &some_configs(&m), Some(WorkerPool::global()));
            assert!(report.mismatches.is_empty(), "seed {seed}: {}", report.mismatches[0]);
            assert!(report.comparisons > 0);
            moved += report.cycles_changed;
        }
        // Across a handful of modules, at least one aggressive
        // configuration must actually move the cycle count — otherwise
        // "cycles may change" is vacuous and the oracle tests nothing.
        assert!(moved > 0, "no configuration moved cycles on any module");
    }

    #[test]
    fn sequential_only_mode_skips_the_pool() {
        let m = generate_file(&GenParams::named("cy-seq", 4));
        let report = check_cycles(&m, &some_configs(&m), None);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }

    #[test]
    fn mismatches_render_their_detail() {
        let m = CycleMismatch {
            config: InliningConfiguration::clean_slate(),
            detail: "`full` path measured something else".to_string(),
        };
        assert!(m.to_string().contains("cycles oracle"));
        assert!(m.to_string().contains("`full` path"));
    }
}
