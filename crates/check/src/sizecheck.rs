//! The size oracle: every fast `configuration → size` path must agree with
//! one uncached whole-module compile.
//!
//! Three fast paths have historically hidden divergence bugs, so all three
//! are cross-checked against [`SizeEvaluator::full_size_of`] (clone the
//! module, run the pipeline, measure — no caches, no decomposition):
//!
//! 1. [`SizeEvaluator`]'s memoized whole-module mode (cache keying),
//! 2. [`SizeEvaluator`]'s component mode (the §3.2 exactness argument,
//!    mechanically enforced),
//! 3. both modes probed *concurrently* through the [`WorkerPool`]
//!    (memo races, single-flight once-cell fills, stats accounting).
//!
//! Each configuration is queried twice sequentially (miss path, then hit
//! path) and once concurrently, so a cache returning a stale or misfiled
//! entry shows up as a mismatch even when the underlying compile is right.

use optinline_codegen::X86Like;
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator, WorkerPool};
use optinline_ir::Module;
use std::fmt;

/// One configuration where a fast path disagreed with the reference.
#[derive(Clone, Debug)]
pub struct SizeMismatch {
    /// The configuration that exposed it.
    pub config: InliningConfiguration,
    /// Which path disagreed (e.g. `"incremental"`, `"full-cached"`).
    pub path: &'static str,
    /// What the fast path reported.
    pub got: u64,
    /// What the uncached whole-module reference reports.
    pub reference: u64,
}

impl fmt::Display for SizeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "size oracle: `{}` path reported {} but the whole-module reference is {} under {}",
            self.path, self.got, self.reference, self.config
        )
    }
}

/// Outcome of one module × configuration-set size check.
#[derive(Clone, Debug, Default)]
pub struct SizeReport {
    /// Mismatches found (empty = pass).
    pub mismatches: Vec<SizeMismatch>,
    /// Path × configuration comparisons performed.
    pub comparisons: usize,
}

/// Cross-checks every fast size path against the uncached reference for
/// each configuration. `pool` additionally exercises the concurrent cache
/// paths; pass `None` for a purely sequential check (e.g. inside the
/// reducer, where determinism per predicate call matters more than
/// coverage).
pub fn check_sizes(
    module: &Module,
    configs: &[InliningConfiguration],
    pool: Option<&WorkerPool>,
) -> SizeReport {
    let full = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
    let incr = SizeEvaluator::new(module.clone(), Box::new(X86Like), true);
    let mut report = SizeReport::default();
    let mut references = Vec::with_capacity(configs.len());

    for config in configs {
        let reference = incr.full_size_of(config);
        references.push(reference);
        let mut probe = |path: &'static str, got: u64| {
            report.comparisons += 1;
            if got != reference {
                report.mismatches.push(SizeMismatch {
                    config: config.clone(),
                    path,
                    got,
                    reference,
                });
            }
        };
        probe("full", full.size_of(config));
        probe("full-cached", full.size_of(config));
        probe("incremental", incr.size_of(config));
        probe("incremental-cached", incr.size_of(config));
        // The two evaluators share no state; their references must agree
        // too (a bug in `compile` itself would shift both identically, but
        // a decomposition bug in either full path cannot hide).
        probe("full-reference", full.full_size_of(config));
    }

    if let Some(pool) = pool {
        // Warm caches above, now hammer them concurrently: every thread
        // must see exactly the committed entries, never a torn or misfiled
        // one. `map` preserves input order, so results line up with
        // `references` by index.
        for (path, sizes) in [
            ("full-concurrent", pool.map(configs, |c| full.size_of(c))),
            ("incremental-concurrent", pool.map(configs, |c| incr.size_of(c))),
        ] {
            for (i, (got, &reference)) in sizes.into_iter().zip(&references).enumerate() {
                report.comparisons += 1;
                if got != reference {
                    report.mismatches.push(SizeMismatch {
                        config: configs[i].clone(),
                        path,
                        got,
                        reference,
                    });
                }
            }
        }
    }

    // Exact-accounting invariant: whole-module mode issues exactly one
    // cache probe per query.
    let stats = full.stats();
    debug_assert_eq!(
        stats.cache_hits + stats.cache_misses,
        stats.queries,
        "cache accounting drifted from query count"
    );

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
        let half: InliningConfiguration = InliningConfiguration::from_decisions(
            sites
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, if i % 2 == 0 { Decision::Inline } else { Decision::NoInline }))
                .collect(),
        );
        vec![InliningConfiguration::clean_slate(), half, all_in]
    }

    #[test]
    fn generated_modules_pass_the_size_oracle() {
        for seed in [0, 11, 23] {
            let m = generate_file(&GenParams::named(format!("sz{seed}"), seed));
            let report = check_sizes(&m, &some_configs(&m), Some(WorkerPool::global()));
            assert!(report.mismatches.is_empty(), "seed {seed}: {:?}", report.mismatches);
            assert!(report.comparisons > 0);
        }
    }

    #[test]
    fn sequential_only_mode_skips_the_pool() {
        let m = generate_file(&GenParams::named("sz-seq", 4));
        let report = check_sizes(&m, &some_configs(&m), None);
        assert!(report.mismatches.is_empty(), "{:?}", report.mismatches);
    }
}
