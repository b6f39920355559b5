//! The size evaluator: the paper's `CompileAndMeasureSize`, whole-module
//! or component-scoped.
//!
//! [`SizeEvaluator`] clones the module, runs the decision-driven inliner
//! plus the `-Os`-like cleanup pipeline, and measures the `.text` size
//! under a [`Target`]. It evaluates a configuration as
//!
//! ```text
//! size(config) = constant_part + Σ_c size_c(config ∩ sites(c))
//! ```
//!
//! where each `size_c` is memoized on the *relevant subset* of decisions
//! (the configuration's inlined sites inside component `c`), so the tree
//! search and the autotuner never pay twice for the same point.
//!
//! - In **component mode** (`incremental = true`, the default everywhere)
//!   the components are the connected components of the full call graph
//!   ([`coarse_components`]), each extracted once as a standalone slice
//!   ([`extract_slice`]); zero-site components form the constant part.
//!   Two configurations that differ only inside component A reuse every
//!   other component's result verbatim; the tree search's `Components`
//!   recursion and the autotuner's one-flip probes hit exactly that
//!   pattern, so most compiles shrink from whole-module to one-component
//!   work.
//! - In **whole-module mode** (`incremental = false`, `--full-eval`) there
//!   is one always-active component holding the whole, unsliced module and
//!   no constant part: every miss compiles the whole module, one memo probe
//!   per query.
//!
//! The memo lives in a [`ShardedCache`], so concurrent hits from the
//! parallel search do not serialize on one lock, and a miss is
//! single-flight: the first caller of a key compiles while concurrent
//! callers of the same key wait for its value, so compiles equal distinct
//! keys whatever the thread timing.
//!
//! # Why the decomposition is exact
//!
//! Components are *coarse*: every call edge counts, inlinable or not, plus
//! `inline_path` provenance references. Every pass in the `-Os` pipeline
//! is then componentwise — the inliner only rewrites along call edges,
//! the cleanup passes are per-function, dead-function elimination's
//! reachability and the effect summary's fixpoint both propagate only
//! along call edges, and function merging is not part of the pipeline. A
//! slice therefore optimizes to byte-for-byte the same functions as the
//! same component inside a whole-module compile, and since
//! [`function_size`](optinline_codegen::function_size) aligns functions
//! independently, the per-component sizes sum to exactly
//! [`text_size`](optinline_codegen::text_size). The cross-validation suite
//! asserts this identity on randomized modules and configurations, and the
//! size oracle checks both modes against the uncached whole-module
//! reference [`SizeEvaluator::full_size_of`].

use crate::cache::ShardedCache;
use crate::config::InliningConfiguration;
use crate::evaluator::{domain_fingerprint, Evaluator, EvaluatorStats};
use crate::measure::{module_cycles, Objective};
use optinline_callgraph::{coarse_components, Decision};
use optinline_codegen::{text_size, Target};
use optinline_ir::analysis::EffectSummary;
use optinline_ir::interp::CostModel;
use optinline_ir::{extract_slice, CallSiteId, Measurement, Module};
use optinline_opt::{
    optimize_os_report, optimize_os_report_with_summary, ForcedDecisions, PipelineOptions,
    PipelineStats,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One call-graph component, ready to compile in isolation.
struct Component {
    /// Pristine slice of the component's functions (the whole module in
    /// whole-module mode).
    slice: Module,
    /// Effect summary of the pristine slice (equals the restriction of the
    /// whole-module summary, since no call edge leaves a coarse component);
    /// computed once here instead of per compile.
    summary: EffectSummary,
    /// Inlinable call sites inside this component.
    sites: BTreeSet<CallSiteId>,
    /// Pristine instruction count — the component's share of compile work.
    insts: u64,
}

impl Component {
    fn new(slice: Module, sites: BTreeSet<CallSiteId>, insts: u64) -> Self {
        let summary = EffectSummary::compute(&slice);
        Component { slice, summary, sites, insts }
    }
}

/// The module-backed evaluator: compile the module under a configuration
/// and measure `.text` bytes, memoized per component; see the module docs
/// for the two modes and the exactness argument.
pub struct SizeEvaluator {
    module: Module,
    target: Box<dyn Target>,
    sites: BTreeSet<CallSiteId>,
    incremental: bool,
    /// Components that contain at least one inlinable site (in
    /// whole-module mode: the whole module, sites or not).
    active: Vec<Component>,
    /// Pristine slices of zero-site components: their size is the same
    /// under every configuration, so they compile once, lazily.
    constant_slices: Vec<Module>,
    constant_part: OnceLock<u64>,
    cache: ShardedCache<(usize, BTreeSet<CallSiteId>), u64>,
    /// Cycles memo over *whole-module* canonical keys: the size
    /// decomposition is exact because every `-Os` pass is componentwise,
    /// but the cost model's i-cache is global, so cycles are measured on
    /// whole-module compiles and memoized separately. Most runs never
    /// measure cycles and do not pay for the wider value. `None` is a
    /// cached answer too ("nothing executable"), not a miss.
    cycles_cache: ShardedCache<BTreeSet<CallSiteId>, Option<u64>>,
    cost: CostModel,
    queries: AtomicU64,
    compiles: AtomicU64,
    cycle_measures: AtomicU64,
    cycle_compiles: AtomicU64,
    /// Compiles per active component; empty in whole-module mode, which
    /// has no component structure to report.
    per_component_compiles: Vec<AtomicU64>,
    /// Σ pristine instruction counts over all compiles, for the
    /// full-module-equivalents metric.
    compiled_insts: AtomicU64,
    compile_nanos: AtomicU64,
    module_insts: u64,
    pipeline_stats: Mutex<PipelineStats>,
    scope: OnceLock<u128>,
}

impl std::fmt::Debug for SizeEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SizeEvaluator")
            .field("module", &self.module.name)
            .field("target", &self.target.name())
            .field("sites", &self.sites.len())
            .field("incremental", &self.incremental)
            .field("active_components", &self.active.len())
            .field("constant_components", &self.constant_slices.len())
            .finish()
    }
}

impl SizeEvaluator {
    /// Creates an evaluator for `module` under `target`: component-scoped
    /// when `incremental` (slicing the module into coarse call-graph
    /// components up front), whole-module otherwise.
    pub fn new(module: Module, target: Box<dyn Target>, incremental: bool) -> Self {
        let sites = module.inlinable_sites();
        let module_insts = (module.inst_count() as u64).max(1);
        let mut active = Vec::new();
        let mut constant_slices = Vec::new();
        if incremental {
            for comp in coarse_components(&module) {
                let slice = extract_slice(&module, &comp);
                let comp_sites = slice.inlinable_sites();
                if comp_sites.is_empty() {
                    constant_slices.push(slice);
                } else {
                    let insts = slice.inst_count() as u64;
                    active.push(Component::new(slice, comp_sites, insts));
                }
            }
        } else {
            active.push(Component::new(module.clone(), sites.clone(), module_insts));
        }
        let tracked = if incremental { active.len() } else { 0 };
        SizeEvaluator {
            module,
            target,
            sites,
            incremental,
            active,
            constant_slices,
            constant_part: OnceLock::new(),
            cache: ShardedCache::new(),
            cycles_cache: ShardedCache::new(),
            cost: CostModel::default(),
            queries: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            cycle_measures: AtomicU64::new(0),
            cycle_compiles: AtomicU64::new(0),
            per_component_compiles: (0..tracked).map(|_| AtomicU64::new(0)).collect(),
            compiled_insts: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
            module_insts,
            pipeline_stats: Mutex::new(PipelineStats::default()),
            scope: OnceLock::new(),
        }
    }

    /// The module's inlinable call sites — the configuration domain.
    pub fn sites(&self) -> &BTreeSet<CallSiteId> {
        &self.sites
    }

    /// The pristine input module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The size-model target in use.
    pub fn target(&self) -> &dyn Target {
        self.target.as_ref()
    }

    /// Number of components compiled separately: the coarse components
    /// (with and without inlinable sites) in component mode, 1 otherwise.
    pub fn component_count(&self) -> usize {
        self.active.len() + self.constant_slices.len()
    }

    /// The cost model cycle measurements run under (part of the
    /// cycles-scope identity).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Snapshot of the observability counters.
    pub fn stats(&self) -> EvaluatorStats {
        let cache = self.cache.stats();
        let pipeline = self.pipeline_stats.lock().unwrap().clone();
        EvaluatorStats {
            queries: self.queries.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            shard_loads: cache.shard_loads,
            per_component_compiles: self
                .per_component_compiles
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            compile_time: Duration::from_nanos(self.compile_nanos.load(Ordering::Relaxed)),
            full_module_equivalents: self.compiled_insts.load(Ordering::Relaxed) as f64
                / self.module_insts as f64,
            fixpoint_cap_hits: pipeline.cap_hits,
            pipeline,
            cycle_measures: self.cycle_measures.load(Ordering::Relaxed),
            cycle_compiles: self.cycle_compiles.load(Ordering::Relaxed),
            ..EvaluatorStats::default()
        }
    }

    /// Compiles the *whole* module under `config` and returns it
    /// (uncached; for case-study inspection, not for search loops).
    pub fn compile(&self, config: &InliningConfiguration) -> Module {
        let mut m = self.module.clone();
        let oracle = ForcedDecisions::new(config.decisions().clone());
        let report = optimize_os_report(&mut m, &oracle, PipelineOptions::default());
        self.pipeline_stats.lock().unwrap().absorb(&report.stats);
        m
    }

    /// Reference-path size: compile the *whole* module under `config`,
    /// bypassing the component decomposition, the memo, and the constant
    /// part, and measure it. Differential oracles cross-check
    /// [`Evaluator::size_of`] (the fast path) against this; it shares no
    /// state with the fast path beyond the pristine module itself.
    pub fn full_size_of(&self, config: &InliningConfiguration) -> u64 {
        text_size(&self.compile(config), self.target.as_ref())
    }

    /// The simulated cycles of the module under `config`, memoized on the
    /// whole-module canonical inlined-site set. `None` means nothing
    /// executable.
    fn cycles_of(&self, config: &InliningConfiguration) -> Option<u64> {
        let key: BTreeSet<CallSiteId> =
            config.inlined_sites().intersection(&self.sites).copied().collect();
        self.cycles_cache.get_or_compute(key, |_| {
            let optimized = self.compile(config);
            self.cycle_compiles.fetch_add(1, Ordering::Relaxed);
            module_cycles(&optimized, &self.cost)
        })
    }

    /// Compiles one pristine slice under `inlined` (a canonical subset of
    /// the slice's own sites) and measures it.
    fn compile_slice(
        &self,
        slice: &Module,
        summary: &EffectSummary,
        inlined: &BTreeSet<CallSiteId>,
    ) -> u64 {
        let mut m = slice.clone();
        let oracle = ForcedDecisions::new(inlined.iter().map(|&s| (s, Decision::Inline)).collect());
        let report = optimize_os_report_with_summary(
            &mut m,
            &oracle,
            PipelineOptions::default(),
            summary.clone(),
        );
        self.pipeline_stats.lock().unwrap().absorb(&report.stats);
        text_size(&m, self.target.as_ref())
    }

    /// The size contribution of component `idx` under the decision subset
    /// relevant to it, memoized (single-flight).
    fn component_size(&self, idx: usize, inlined: BTreeSet<CallSiteId>) -> u64 {
        self.cache.get_or_compute((idx, inlined), |(idx, inlined)| {
            let comp = &self.active[*idx];
            let start = Instant::now();
            let size = self.compile_slice(&comp.slice, &comp.summary, inlined);
            self.record_compile(start, comp.insts);
            if let Some(count) = self.per_component_compiles.get(*idx) {
                count.fetch_add(1, Ordering::Relaxed);
            }
            size
        })
    }

    /// The configuration-independent contribution of zero-site components,
    /// compiled once on first use (0 in whole-module mode).
    fn constant_part(&self) -> u64 {
        *self.constant_part.get_or_init(|| {
            self.constant_slices
                .iter()
                .map(|slice| {
                    let summary = EffectSummary::compute(slice);
                    let start = Instant::now();
                    let size = self.compile_slice(slice, &summary, &BTreeSet::new());
                    self.record_compile(start, slice.inst_count() as u64);
                    size
                })
                .sum()
        })
    }

    fn record_compile(&self, start: Instant, insts: u64) {
        self.compile_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.compiled_insts.fetch_add(insts, Ordering::Relaxed);
    }
}

impl Evaluator for SizeEvaluator {
    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        if !objective.wants_cycles() {
            return Measurement::size_only(self.size_of(config));
        }
        self.cycle_measures.fetch_add(1, Ordering::Relaxed);
        let size = self.size_of(config);
        match self.cycles_of(config) {
            Some(cycles) => Measurement::with_cycles(size, cycles),
            None => Measurement::size_only(size),
        }
    }

    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let inlined = config.inlined_sites();
        let mut total = self.constant_part();
        for (idx, comp) in self.active.iter().enumerate() {
            let subset: BTreeSet<CallSiteId> = inlined.intersection(&comp.sites).copied().collect();
            total += self.component_size(idx, subset);
        }
        total
    }

    fn compilations(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    fn memo_scope(&self) -> Option<u128> {
        // One domain for both modes: the decomposition is proven
        // size-identical to whole-module compiles.
        Some(*self.scope.get_or_init(|| {
            domain_fingerprint(&self.module, self.target.as_ref(), PipelineOptions::default())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{cache_meta, PersistentCache, PersistentEvaluator};
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, FuncBuilder, Linkage};

    /// Two independent caller→callee pairs plus an isolated leaf: three
    /// coarse components, two of them carrying one site each.
    fn two_component_module() -> (Module, Vec<CallSiteId>) {
        let mut m = Module::new("m");
        let mut sites = Vec::new();
        for i in 0..2 {
            let callee = m.declare_function(format!("callee{i}"), 1, Linkage::Internal);
            let caller = m.declare_function(format!("main{i}"), 0, Linkage::Public);
            {
                let mut b = FuncBuilder::new(&mut m, callee);
                let p = b.param(0);
                let one = b.iconst(1);
                let r = b.bin(BinOp::Add, p, one);
                b.ret(Some(r));
            }
            let mut b = FuncBuilder::new(&mut m, caller);
            let x = b.iconst(41 + i);
            let (v, site) = b.call_with_site(callee, &[x]);
            b.ret(Some(v));
            sites.push(site);
        }
        let lone = m.declare_function("lone", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, lone);
            let x = b.iconst(5);
            b.ret(Some(x));
        }
        (m, sites)
    }

    #[test]
    fn matches_full_evaluator_on_every_configuration() {
        let (m, sites) = two_component_module();
        let full = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
        let incr = SizeEvaluator::new(m, Box::new(X86Like), true);
        assert_eq!(incr.component_count(), 3);
        assert_eq!(full.component_count(), 1);
        for mask in 0..4u32 {
            let cfg: InliningConfiguration = sites
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let d =
                        if mask & (1 << i) != 0 { Decision::Inline } else { Decision::NoInline };
                    (s, d)
                })
                .collect();
            assert_eq!(full.size_of(&cfg), incr.size_of(&cfg), "mask {mask}");
        }
    }

    #[test]
    fn flipping_one_component_reuses_the_other() {
        let (m, sites) = two_component_module();
        let incr = SizeEvaluator::new(m, Box::new(X86Like), true);
        let base = InliningConfiguration::clean_slate();
        incr.size_of(&base);
        // First query: one compile per active component + constant part.
        let after_base = incr.compilations();
        assert_eq!(after_base, 3);
        // Flip only component 0's site: exactly one new slice compile.
        incr.size_of(&base.with(sites[0], Decision::Inline));
        assert_eq!(incr.compilations(), after_base + 1);
        let s = incr.stats();
        assert_eq!(s.per_component_compiles, vec![2, 1]);
        // Both queries did full-coverage lookups; only 4 of 5 missed... the
        // headline: compile work stayed well under 2 full-module compiles.
        assert!(s.full_module_equivalents < 2.0, "{}", s.full_module_equivalents);
    }

    #[test]
    fn whole_module_mode_compiles_the_whole_module_once_per_key() {
        let (m, sites) = two_component_module();
        let full = SizeEvaluator::new(m, Box::new(X86Like), false);
        let base = InliningConfiguration::clean_slate();
        full.size_of(&base);
        full.size_of(&base.clone().with(sites[0], Decision::Inline));
        full.size_of(&base);
        let s = full.stats();
        assert_eq!((s.queries, s.compiles, s.cache_hits, s.cache_misses), (3, 2, 1, 2));
        assert_eq!(s.full_module_equivalents, 2.0, "each miss is one whole-module compile");
        assert!(s.per_component_compiles.is_empty(), "no component structure to report");
    }

    #[test]
    fn concurrent_misses_on_one_key_compile_once() {
        let (m, sites) = two_component_module();
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        for incremental in [false, true] {
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), incremental);
            let barrier = std::sync::Barrier::new(8);
            let answers: Vec<Measurement> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            ev.measure(&cfg, Objective::Speed)
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            assert!(answers.windows(2).all(|w| w[0] == w[1]), "{answers:?}");
            let expected = if incremental { ev.component_count() as u64 } else { 1 };
            assert_eq!(ev.compilations(), expected, "incremental={incremental}");
            let s = ev.stats();
            assert_eq!(s.cycle_compiles, 1, "incremental={incremental}");
            assert_eq!(s.cache_misses, s.compiles - ev.constant_slices.len() as u64);
            assert_eq!(s.queries, 8);
        }
    }

    /// Two components whose wrappers become dead (and DFE-removed) once
    /// their call site is inlined, so dead-function elimination fires in
    /// one component while the other's memoized size must stay valid.
    fn dfe_prone_two_component_module() -> (Module, Vec<CallSiteId>) {
        let mut m = Module::new("dfe");
        let mut sites = Vec::new();
        for i in 0..2 {
            let leaf = m.declare_function(format!("leaf{i}"), 1, Linkage::Internal);
            let wrapper = m.declare_function(format!("wrap{i}"), 1, Linkage::Internal);
            let root = m.declare_function(format!("root{i}"), 0, Linkage::Public);
            {
                let mut b = FuncBuilder::new(&mut m, leaf);
                let p = b.param(0);
                let c = b.iconst(3 + i as i64);
                let r = b.bin(BinOp::Mul, p, c);
                b.ret(Some(r));
            }
            {
                let mut b = FuncBuilder::new(&mut m, wrapper);
                let p = b.param(0);
                let v = b.call(leaf, &[p]).unwrap();
                b.ret(Some(v));
            }
            let mut b = FuncBuilder::new(&mut m, root);
            let x = b.iconst(10 + i as i64);
            let (v, site) = b.call_with_site(wrapper, &[x]);
            b.ret(Some(v));
            sites.push(site);
        }
        (m, sites)
    }

    #[test]
    fn dead_function_elimination_in_one_component_does_not_stale_the_other() {
        let (m, sites) = dfe_prone_two_component_module();
        let incr = SizeEvaluator::new(m.clone(), Box::new(X86Like), true);
        assert_eq!(incr.component_count(), 2);
        // Inlining wrap0's site makes wrap0 dead: the whole-module pipeline
        // runs DeadFunctionElim while component 1 is untouched. Query in an
        // order that forces component 1's memoized entry to be *reused*
        // across component 0's DFE-triggering recompiles, and cross-check
        // every answer against the uncached whole-module reference path.
        let base = InliningConfiguration::clean_slate();
        let order = [
            base.clone(),
            base.clone().with(sites[0], Decision::Inline),
            base.clone(), // reuse both components' memoized sizes
            base.clone().with(sites[0], Decision::Inline).with(sites[1], Decision::Inline),
            base.clone().with(sites[1], Decision::Inline),
        ];
        for (step, cfg) in order.iter().enumerate() {
            assert_eq!(
                incr.size_of(cfg),
                incr.full_size_of(cfg),
                "step {step}: incremental diverged from the whole-module reference"
            );
        }
        // The wrapper really was deleted in the inlined compile — the
        // scenario exercises DFE, not just inlining.
        let inlined = incr.compile(&base.clone().with(sites[0], Decision::Inline));
        let wrap0 = inlined.func_by_name("wrap0").unwrap();
        assert!(inlined.is_stub(wrap0), "wrap0 should be DFE'd once its only call is inlined");
    }

    #[test]
    fn full_size_of_matches_cached_fast_path() {
        let (m, sites) = two_component_module();
        let full = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
        let incr = SizeEvaluator::new(m, Box::new(X86Like), true);
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        for _ in 0..2 {
            // Second round hits the memo caches; reference stays uncached.
            assert_eq!(full.size_of(&cfg), full.full_size_of(&cfg));
            assert_eq!(incr.size_of(&cfg), incr.full_size_of(&cfg));
        }
    }

    #[test]
    fn size_evaluator_variants_agree() {
        let (m, sites) = two_component_module();
        let full = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
        let incr = SizeEvaluator::new(m, Box::new(X86Like), true);
        let cfg = InliningConfiguration::clean_slate().with(sites[1], Decision::Inline);
        assert_eq!(full.size_of(&cfg), incr.size_of(&cfg));
        assert_eq!(full.sites(), incr.sites());
        assert_eq!(full.memo_scope(), incr.memo_scope(), "both modes share one domain");
        assert!(incr.stats().compiles > 0);
    }

    #[test]
    fn size_and_speed_scopes_never_alias_and_survive_compact_and_gc() {
        use crate::measure::objective_scope;
        let dir = std::env::temp_dir().join(format!("optinline-objscope-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (m, sites) = two_component_module();
        let meta = cache_meta(&m, "x86-like");
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        let domain = SizeEvaluator::new(m.clone(), Box::new(X86Like), false)
            .memo_scope()
            .expect("module-backed evaluators name their domain");
        let cost = CostModel::default();
        let speed_fp = objective_scope(domain, Objective::Speed, &cost);
        assert_ne!(speed_fp, domain);
        // A fresh whole-module evaluator behind the store scope `fp`.
        let measure = |fp: u128, objective: Objective| {
            let cache = PersistentCache::open_scoped(&dir, fp, None, &meta).unwrap();
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
            let measured =
                PersistentEvaluator::new(&ev, &cache, ev.sites().clone()).measure(&cfg, objective);
            (measured, ev.compilations(), cache)
        };

        // Cold runs: one per objective, each against its own scope.
        let (size_cold, _, _) = measure(domain, Objective::Size);
        assert!(size_cold.cycles.is_none());
        let (speed_cold, _, _) = measure(speed_fp, Objective::Speed);
        assert_eq!(speed_cold.size, size_cold.size, "same domain, same sizes");
        assert!(speed_cold.cycles.is_some(), "public mains are executable");

        // Compact and GC (budget generous enough to keep both logs): the
        // two scopes must both survive, still separated.
        {
            let store = optinline_store::LocalStore::shared(&dir).unwrap();
            store.compact_all().unwrap();
            let gc = store.gc(1 << 30).unwrap();
            assert_eq!(gc.evicted_scopes, 0, "both scopes fit the budget");
        }

        // Warm runs: every answer comes from the right scope, with zero
        // compiles and no cycles leaking into the size scope.
        let key: Vec<CallSiteId> =
            cfg.inlined_sites().intersection(&sites.iter().copied().collect()).copied().collect();
        let (size_warm, compiles, cache) = measure(domain, Objective::Size);
        assert_eq!(size_warm, size_cold);
        assert_eq!(compiles, 0, "warm size measure must not compile");
        let raw = cache.get(&key).expect("the size scope holds the entry");
        assert!(raw.cycles.is_none(), "cycles must never alias into the size scope");
        drop(cache);
        let (speed_warm, compiles, _) = measure(speed_fp, Objective::Speed);
        assert_eq!(speed_warm, speed_cold);
        assert_eq!(compiles, 0, "warm speed measure must not compile either");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_evaluator_warm_starts_without_compiling() {
        use crate::persist::module_fingerprint;
        let dir =
            std::env::temp_dir().join(format!("optinline-sizeev-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (m, sites) = two_component_module();
        let fp = module_fingerprint(&m, "x86-like");
        let meta = cache_meta(&m, "x86-like");
        let cfg = InliningConfiguration::clean_slate().with(sites[0], Decision::Inline);
        let cold_size;
        {
            let cache = PersistentCache::open(&dir, fp, &meta).unwrap();
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), false);
            cold_size = PersistentEvaluator::new(&ev, &cache, ev.sites().clone()).size_of(&cfg);
            assert!(ev.compilations() > 0);
            // The reference path must not be served by the store.
            assert_eq!(ev.full_size_of(&cfg), cold_size);
        }
        // Fresh evaluator, same store: the answer comes from disk.
        let cache = PersistentCache::open(&dir, fp, &meta).unwrap();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let persisted = PersistentEvaluator::new(&ev, &cache, ev.sites().clone());
        assert_eq!(persisted.size_of(&cfg), cold_size);
        assert_eq!(ev.compilations(), 0, "warm start must not compile");
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert!(s.loaded >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
