//! The **store oracle**: the persistent evaluation store must be a pure
//! I/O optimization — a search answering its queries through the store
//! must return the exact configuration *and* size a no-persist run
//! returns, on a cold directory, on a warm reopen, and through the scope
//! the store then keeps open. And the warm runs must actually be warm: a
//! single compile on the second or third run means the store dropped or
//! corrupted a committed entry.
//!
//! Each case runs in its own throwaway store directory, which also gives
//! the structural verifier fuzz-scale coverage: after the warm run the
//! on-disk logs must scan clean (no malformed lines, no unreadable logs).

use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_codegen::X86Like;
use optinline_core::tree::{evaluate_inlining_tree, try_build_inlining_tree};
use optinline_core::{
    cache_meta, domain_fingerprint, Evaluator, InliningConfiguration, PersistentCache,
    PersistentEvaluator, SizeEvaluator,
};
use optinline_ir::Module;
use optinline_opt::PipelineOptions;
use std::fmt;

/// Evaluation budget per fuzzed module: trees costing more than this many
/// evaluations are skipped (the oracle is about persistence, not scale).
const TREE_BUDGET: u128 = 1 << 9;

/// One store-backed run that disagreed with the no-persist reference.
#[derive(Clone, Debug)]
pub struct StoreMismatch {
    /// Whether the divergence came from a warm run (`true`) or the cold
    /// first run (`false`).
    pub warm: bool,
    /// Whether the warm run was the one served by a held scope.
    pub held: bool,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for StoreMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = if self.held {
            "held"
        } else if self.warm {
            "warm"
        } else {
            "cold"
        };
        write!(f, "store oracle: {} ({store} store)", self.detail)
    }
}

/// Outcome of [`check_store_equivalence`] on one module.
#[derive(Clone, Debug, Default)]
pub struct StoreReport {
    /// Store-backed runs compared against the no-persist reference.
    pub comparisons: usize,
    /// Disagreements found (empty = the store is invisible to the search
    /// and the warm run never compiled).
    pub mismatches: Vec<StoreMismatch>,
}

/// Runs the sequential search four times on `module` — no persistence,
/// against a cold store directory, again after reopening the same
/// directory with a fresh evaluator, and once more through the scope the
/// store kept open after that reopen — and demands byte-identical optima
/// throughout, zero compilations on the warm runs, and a structurally
/// clean directory afterwards. Returns `None` when the module's search
/// tree exceeds the per-case budget (or has no tree at all) — a skip,
/// not a pass.
pub fn check_store_equivalence(module: &Module, seed: u64) -> Option<StoreReport> {
    let graph = InlineGraph::from_module(module);
    let tree = try_build_inlining_tree(&graph, PartitionStrategy::Paper, TREE_BUDGET)?;
    let reference = {
        let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
        evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate())
    };

    // The module name joins the pid and seed so concurrent tests fuzzing
    // overlapping seed ranges never share (and mutually delete) a dir.
    let dir = std::env::temp_dir().join(format!(
        "optinline-storecheck-{}-{}-{seed:x}",
        std::process::id(),
        module.name
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let fp = domain_fingerprint(module, &X86Like, PipelineOptions::default());
    let meta = cache_meta(module, "x86-like");
    let mut report = StoreReport::default();
    // Rounds: cold; warm, opening the log afresh (the store that ran the
    // cold round closed with it); held, served by the scope the warm
    // round's store keeps open, which `keep` keeps alive.
    let mut keep = None;
    for (warm, held) in [(false, false), (true, false), (true, true)] {
        if warm && !held {
            keep = optinline_store::LocalStore::shared(&dir).ok();
        }
        if held && keep.as_ref().is_none_or(|store| store.held().0 != 1) {
            report.mismatches.push(StoreMismatch {
                warm,
                held,
                detail: "the warm reopen's scope was not held".to_string(),
            });
        }
        // A fresh in-memory evaluator each round: the warm runs may answer
        // only from the store.
        let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
        let run = (|| -> std::io::Result<(InliningConfiguration, u64)> {
            let cache = PersistentCache::open(&dir, fp, &meta)?;
            let persisted = PersistentEvaluator::new(&ev, &cache, ev.sites().clone());
            let got =
                evaluate_inlining_tree(&tree, &persisted, InliningConfiguration::clean_slate());
            cache.flush()?;
            Ok(got)
        })();
        report.comparisons += 1;
        match run {
            Ok(got) => {
                if got != reference {
                    report
                        .mismatches
                        .push(StoreMismatch { held, ..mismatch(warm, &reference, &got) });
                }
                if warm && ev.compilations() > 0 {
                    report.mismatches.push(StoreMismatch {
                        warm,
                        held,
                        detail: format!(
                            "warm run compiled {} time(s); the store lost committed entries",
                            ev.compilations()
                        ),
                    });
                }
            }
            Err(e) => report.mismatches.push(StoreMismatch {
                warm,
                held,
                detail: format!("store I/O failed: {e}"),
            }),
        }
    }

    // The directory the three runs left behind must scan clean.
    match optinline_store::LocalStore::shared(&dir).and_then(|s| s.verify()) {
        Ok(v) if !v.clean() => report.mismatches.push(StoreMismatch {
            warm: true,
            held: false,
            detail: format!(
                "store left structural damage: {} malformed line(s), {} unreadable log(s)",
                v.malformed_lines, v.unreadable_logs
            ),
        }),
        Ok(_) => {}
        Err(e) => report.mismatches.push(StoreMismatch {
            warm: true,
            held: false,
            detail: format!("store verify failed: {e}"),
        }),
    }

    drop(keep);
    let _ = std::fs::remove_dir_all(&dir);
    Some(report)
}

fn mismatch(
    warm: bool,
    expected: &(InliningConfiguration, u64),
    got: &(InliningConfiguration, u64),
) -> StoreMismatch {
    let detail = if expected.1 != got.1 {
        format!("sizes diverge: no-persist {} vs store {}", expected.1, got.1)
    } else {
        format!("equal sizes but different optima: no-persist {} vs store {}", expected.0, got.0)
    };
    StoreMismatch { warm, held: false, detail }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_workloads::{generate_file, GenParams};

    #[test]
    fn store_backed_search_agrees_on_generated_modules() {
        let mut checked = 0;
        for seed in 0..8u64 {
            let m = generate_file(&GenParams {
                n_internal: 4,
                clusters: 2,
                ..GenParams::named("store", seed)
            });
            if let Some(report) = check_store_equivalence(&m, seed) {
                checked += 1;
                assert_eq!(report.comparisons, 3);
                assert!(report.mismatches.is_empty(), "seed {seed}: {}", report.mismatches[0]);
            }
        }
        assert!(checked > 0, "every generated module was skipped");
    }

    #[test]
    fn oversized_trees_are_skipped_not_failed() {
        let m = generate_file(&GenParams {
            n_internal: 40,
            clusters: 1,
            ..GenParams::named("storebig", 3)
        });
        let graph = InlineGraph::from_module(&m);
        if try_build_inlining_tree(&graph, PartitionStrategy::Paper, TREE_BUDGET).is_none() {
            assert!(check_store_equivalence(&m, 3).is_none());
        }
    }

    #[test]
    fn mismatches_render_both_dimensions() {
        let a = (InliningConfiguration::clean_slate(), 10);
        let b = (InliningConfiguration::clean_slate(), 12);
        assert!(mismatch(false, &a, &b).to_string().contains("sizes diverge"));
        assert!(mismatch(true, &a, &a.clone()).to_string().contains("different optima"));
        assert!(mismatch(true, &a, &b).to_string().contains("warm store"));
    }
}
