//! Evaluating configurations: the traits every evaluator implements, the
//! observability snapshot they share, and the identity fingerprints that
//! address memo tables and store scopes.
//!
//! The one module-backed implementation is
//! [`SizeEvaluator`](crate::SizeEvaluator), the paper's
//! `CompileAndMeasureSize`; adapters such as
//! [`PersistentEvaluator`](crate::PersistentEvaluator) and
//! [`SpeedEvaluator`](crate::SpeedEvaluator) layer over it through the
//! [`Evaluator`] trait.

use crate::config::InliningConfiguration;
use crate::measure::Objective;
use optinline_callgraph::Fnv128;
use optinline_codegen::Target;
use optinline_ir::{Measurement, Module};
use optinline_opt::{PipelineOptions, PipelineStats};
use std::time::Duration;

/// Anything that can score an inlining configuration.
///
/// Implementations must be thread-safe: the tree search and the autotuner
/// evaluate concurrently.
pub trait Evaluator: Sync {
    /// The `.text` size of the module under `config`.
    fn size_of(&self, config: &InliningConfiguration) -> u64;

    /// Measures `config` under `objective`. The default covers size-only
    /// evaluators: it wraps [`size_of`](Evaluator::size_of) whatever the
    /// objective, reporting `cycles: None` — a correct (if cycle-blind)
    /// answer. Module-backed evaluators override this to measure
    /// simulated cycles when the objective wants them; the `Size`
    /// objective must always reduce to exactly `size_of`, so size-driven
    /// callers stay byte-identical to the scalar era.
    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        let _ = objective;
        Measurement::size_only(self.size_of(config))
    }

    /// Number of *distinct* compilations performed so far (cache misses).
    fn compilations(&self) -> u64;

    /// Number of size queries served (including cache hits).
    fn queries(&self) -> u64;

    /// A stable identity for the evaluation domain this evaluator scores —
    /// the (module, target, pipeline options) triple behind `size_of`. The
    /// CLI, the experiments harness and the benchmark address evaluation
    /// store scopes by it, so two evaluators share stored answers exactly
    /// when they score the same domain.
    ///
    /// `None` — the default — means the evaluator cannot name its domain;
    /// those callers then fall back to a module fingerprint. The
    /// module-backed evaluators all return a domain fingerprint.
    fn memo_scope(&self) -> Option<u128> {
        None
    }
}

/// 128-bit fingerprint of an evaluation domain: the module's printed form,
/// the target name, and the pipeline options. Any input that can move a
/// `size_of` answer moves the fingerprint, which is exactly what
/// [`Evaluator::memo_scope`] needs to keep store scopes from serving
/// another domain's answers. [`SizeEvaluator`](crate::SizeEvaluator)'s
/// `memo_scope` is this value under the default pipeline options, so a
/// caller holding only the module can name the same domain.
pub fn domain_fingerprint(module: &Module, target: &dyn Target, options: PipelineOptions) -> u128 {
    let mut h = Fnv128::new();
    h.write(module.to_string().as_bytes());
    h.write_u8(0);
    h.write(target.name().as_bytes());
    h.write_u8(0);
    h.write(format!("{options:?}").as_bytes());
    h.finish()
}

/// 128-bit identity of a *request* against an evaluation service: a
/// length-prefixed FNV-128 over every part that determines the reply
/// bytes (request kind, module text, target, parameters). The serving
/// daemon deduplicates in-flight requests by this value, so it lives in
/// core next to `domain_fingerprint` — the two members of the identity
/// family must never drift apart in hashing discipline.
pub fn evaluation_identity<'a>(parts: impl IntoIterator<Item = &'a str>) -> u128 {
    let mut h = Fnv128::new();
    for part in parts {
        // Length-prefix each part so ("ab", "c") and ("a", "bc") differ.
        h.write_u64(part.len() as u64);
        h.write(part.as_bytes());
    }
    h.finish()
}

/// Observability snapshot of an evaluator: how many queries were served,
/// what they cost, and how well the memoization worked.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvaluatorStats {
    /// Size queries served (including cache hits).
    pub queries: u64,
    /// Distinct compilations performed (cache misses).
    pub compiles: u64,
    /// Memo-cache hits.
    pub cache_hits: u64,
    /// Memo-cache misses.
    pub cache_misses: u64,
    /// Entries resident per cache shard.
    pub shard_loads: Vec<usize>,
    /// Compilations per call-graph component (empty in whole-module mode,
    /// which has no component structure).
    pub per_component_compiles: Vec<u64>,
    /// Total wall-clock time spent inside compile-and-measure.
    pub compile_time: Duration,
    /// Compile work in units of one full-module compilation: each compile
    /// weighted by its share of the pristine module's instructions. In
    /// whole-module mode this equals `compiles`; in component mode it is
    /// the headline savings metric.
    pub full_module_equivalents: f64,
    /// Cleanup fixpoint loops that exhausted their iteration cap with
    /// changes still happening, summed over every compile (mirror of
    /// `pipeline.cap_hits`). Non-zero values mean some module needed more
    /// than `PipelineOptions::max_iterations` rounds to converge.
    pub fixpoint_cap_hits: u64,
    /// Per-pass, analysis-cache, and scheduling counters aggregated over
    /// every compile this evaluator performed (rendered by `--pass-stats`).
    pub pipeline: PipelineStats,
    /// Cycle measurements served (including memo hits); 0 for size-only
    /// runs.
    pub cycle_measures: u64,
    /// Component-slice compiles that ran the interpreter: a cycles query's
    /// memo miss, or the one recompile of an entry a size query made.
    pub cycle_compiles: u64,
    /// Tree nodes the parallel tree search visited (0 when the sequential
    /// walk ran).
    pub executor_tasks: u64,
    /// Subtrees the parallel tree search ran on a thread other than the
    /// one that forked them.
    pub executor_steals: u64,
    /// Size queries answered by the persistent on-disk cache.
    pub persist_hits: u64,
    /// Size queries the persistent cache had to forward to the evaluator.
    pub persist_misses: u64,
    /// Entries recovered from disk when the persistent cache was opened.
    pub persist_loaded: u64,
    /// Batched append writes the evaluation store performed (one syscall
    /// each; compare against `persist_misses` to see the batching win).
    pub store_appends: u64,
    /// Entry lines carried by those appends.
    pub store_flushed_lines: u64,
    /// Entries imported from legacy per-module cache files.
    pub store_imported: u64,
    /// Bytes the store reclaimed by compacting its logs.
    pub store_compacted_bytes: u64,
    /// Scope logs evicted by size-budgeted store GC.
    pub store_gc_evicted_scopes: u64,
    /// Bytes reclaimed by size-budgeted store GC.
    pub store_gc_evicted_bytes: u64,
}

impl EvaluatorStats {
    /// One-line human-readable rendering for CLI/experiment footers.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} queries, {} compiles ({:.2} full-module equivalents), \
             {} cache hits / {} misses, {:.1?} compiling, {} fixpoint cap hits",
            self.queries,
            self.compiles,
            self.full_module_equivalents,
            self.cache_hits,
            self.cache_misses,
            self.compile_time,
            self.fixpoint_cap_hits,
        );
        if self.cycle_measures > 0 {
            line.push_str(&format!(
                ", cycles: {} measures / {} compiles",
                self.cycle_measures, self.cycle_compiles,
            ));
        }
        if self.executor_tasks > 0 {
            line.push_str(&format!(
                ", executor: {} tasks / {} steals",
                self.executor_tasks, self.executor_steals,
            ));
        }
        if self.persist_hits + self.persist_misses + self.persist_loaded > 0 {
            line.push_str(&format!(
                ", persist: {} hits / {} misses / {} loaded",
                self.persist_hits, self.persist_misses, self.persist_loaded,
            ));
        }
        if self.store_appends + self.store_imported + self.store_compacted_bytes > 0 {
            line.push_str(&format!(
                ", store: {} appends ({} lines) / {} imported / {} bytes compacted",
                self.store_appends,
                self.store_flushed_lines,
                self.store_imported,
                self.store_compacted_bytes,
            ));
        }
        if self.store_gc_evicted_scopes + self.store_gc_evicted_bytes > 0 {
            line.push_str(&format!(
                ", store gc: {} scopes / {} bytes evicted",
                self.store_gc_evicted_scopes, self.store_gc_evicted_bytes,
            ));
        }
        line
    }

    /// Adds every counter of `other` into this snapshot — the suite-wide
    /// aggregate of many evaluators. Shard loads add per shard; per-component
    /// compile counts are concatenated, since different evaluators'
    /// components are different components.
    pub fn merge(&mut self, other: &EvaluatorStats) {
        self.queries += other.queries;
        self.compiles += other.compiles;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        if self.shard_loads.len() < other.shard_loads.len() {
            self.shard_loads.resize(other.shard_loads.len(), 0);
        }
        for (mine, theirs) in self.shard_loads.iter_mut().zip(&other.shard_loads) {
            *mine += theirs;
        }
        self.per_component_compiles.extend_from_slice(&other.per_component_compiles);
        self.compile_time += other.compile_time;
        self.full_module_equivalents += other.full_module_equivalents;
        self.fixpoint_cap_hits += other.fixpoint_cap_hits;
        self.pipeline.absorb(&other.pipeline);
        self.cycle_measures += other.cycle_measures;
        self.cycle_compiles += other.cycle_compiles;
        self.executor_tasks += other.executor_tasks;
        self.executor_steals += other.executor_steals;
        self.persist_hits += other.persist_hits;
        self.persist_misses += other.persist_misses;
        self.persist_loaded += other.persist_loaded;
        self.store_appends += other.store_appends;
        self.store_flushed_lines += other.store_flushed_lines;
        self.store_imported += other.store_imported;
        self.store_compacted_bytes += other.store_compacted_bytes;
        self.store_gc_evicted_scopes += other.store_gc_evicted_scopes;
        self.store_gc_evicted_bytes += other.store_gc_evicted_bytes;
    }

    /// Folds the parallel tree search's counters into this snapshot.
    pub fn absorb_executor(&mut self, exec: crate::dag::ExecutorStats) {
        self.executor_tasks += exec.tasks;
        self.executor_steals += exec.steals;
    }

    /// Folds a persistent cache's counters into this snapshot.
    pub fn absorb_persist(&mut self, persist: crate::persist::PersistStats) {
        self.persist_hits += persist.hits;
        self.persist_misses += persist.misses;
        self.persist_loaded += persist.loaded;
    }

    /// Folds the evaluation store's *store-level* counters into this
    /// snapshot. Per-scope hit/miss/loaded counts are already covered by
    /// [`EvaluatorStats::absorb_persist`], so only the I/O-shape counters
    /// (appends, imports, compaction, GC) are taken here — absorbing both
    /// never double-counts.
    pub fn absorb_store(&mut self, store: optinline_store::StoreStats) {
        self.store_appends += store.appends;
        self.store_flushed_lines += store.flushed_lines;
        self.store_imported += store.imported;
        self.store_compacted_bytes += store.compacted_bytes;
        self.store_gc_evicted_scopes += store.gc_evicted_scopes;
        self.store_gc_evicted_bytes += store.gc_evicted_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizeEvaluator;
    use optinline_callgraph::Decision;
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, CallSiteId, FuncBuilder, Linkage};

    fn demo_module() -> (Module, CallSiteId) {
        let mut m = Module::new("m");
        let inc = m.declare_function("inc", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, inc);
            let p = b.param(0);
            let one = b.iconst(1);
            let r = b.bin(BinOp::Add, p, one);
            b.ret(Some(r));
        }
        let site = {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(41);
            let (v, site) = b.call_with_site(inc, &[x]);
            b.ret(Some(v));
            site
        };
        (m, site)
    }

    #[test]
    fn sizes_differ_between_configurations() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let clean = InliningConfiguration::clean_slate();
        let inlined = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        let s_clean = ev.size_of(&clean);
        let s_inlined = ev.size_of(&inlined);
        assert_ne!(s_clean, s_inlined);
        // inc folds away entirely and dies: inlined must win here.
        assert!(s_inlined < s_clean);
    }

    #[test]
    fn cache_hits_do_not_recompile() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let cfg = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        let a = ev.size_of(&cfg);
        let b = ev.size_of(&cfg);
        assert_eq!(a, b);
        assert_eq!(ev.compilations(), 1);
        assert_eq!(ev.queries(), 2);
    }

    #[test]
    fn partial_and_total_configs_share_cache_entries() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let partial = InliningConfiguration::clean_slate();
        let total = InliningConfiguration::clean_slate().with(site, Decision::NoInline);
        ev.size_of(&partial);
        ev.size_of(&total);
        assert_eq!(ev.compilations(), 1);
    }

    #[test]
    fn compile_returns_the_optimized_module() {
        let (m, site) = demo_module();
        let inc = m.func_by_name("inc").unwrap();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let cfg = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        let out = ev.compile(&cfg);
        assert!(out.is_stub(inc));
    }

    #[test]
    fn evaluator_is_shareable_across_threads() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let cfg = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        ev.size_of(&cfg); // prewarm so concurrent queries all hit the cache
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let cfg = InliningConfiguration::clean_slate().with(site, Decision::Inline);
                    ev.size_of(&cfg);
                });
            }
        });
        assert_eq!(ev.compilations(), 1);
        assert_eq!(ev.queries(), 5);
    }

    #[test]
    fn measure_under_size_objective_is_exactly_size_of() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let cfg = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        let size = ev.size_of(&cfg);
        let measured = ev.measure(&cfg, Objective::Size);
        assert_eq!(measured, Measurement::size_only(size));
        assert_eq!(ev.stats().cycle_measures, 0, "size queries never touch the cycles path");
        assert_eq!(ev.stats().cycle_compiles, 0);
    }

    #[test]
    fn measure_under_speed_objective_carries_memoized_cycles() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let clean = InliningConfiguration::clean_slate();
        let inlined = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        let a = ev.measure(&clean, Objective::Speed);
        let b = ev.measure(&inlined, Objective::Pareto);
        assert!(a.cycles.is_some() && b.cycles.is_some(), "main is executable");
        // Inlining removes the call overhead on this module: fewer cycles.
        assert!(b.cycles.unwrap() < a.cycles.unwrap(), "{a:?} vs {b:?}");
        // Re-measuring hits the cycles memo: no extra compile.
        let again = ev.measure(&clean, Objective::Speed);
        assert_eq!(a, again);
        let s = ev.stats();
        assert_eq!(s.cycle_measures, 3);
        assert_eq!(s.cycle_compiles, 2, "two distinct configs, one memo hit");
        assert!(s.render().contains("cycles: 3 measures"));
    }

    #[test]
    fn stats_track_queries_compiles_and_cache_behaviour() {
        let (m, site) = demo_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let cfg = InliningConfiguration::clean_slate().with(site, Decision::Inline);
        ev.size_of(&cfg);
        ev.size_of(&cfg);
        ev.size_of(&InliningConfiguration::clean_slate());
        let s = ev.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.compiles, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.full_module_equivalents, 2.0);
        assert!(s.compile_time > Duration::ZERO);
        assert!(!s.render().is_empty());
    }
}
