//! The size evaluator: the paper's `CompileAndMeasureSize`, whole-module
//! or component-scoped.
//!
//! [`SizeEvaluator`] clones the module, runs the decision-driven inliner
//! plus the `-Os`-like cleanup pipeline, and measures the `.text` size
//! under a [`Target`] — and, when a query asks for cycles, the simulated
//! cycles of [`module_cycles`]. It evaluates a configuration as
//!
//! ```text
//! size(config)   = constant_part + Σ_c size_c(config ∩ sites(c))
//! cycles(config) = constant_part + Σ_c cycles_c(config ∩ sites(c))
//! ```
//!
//! where each component's answer is memoized on the *relevant subset* of
//! decisions (the configuration's inlined sites inside component `c`), so
//! the tree search and the autotuner never pay twice for the same point.
//! One memo entry holds both metrics: a query that wants cycles and misses
//! compiles the slice once and measures both; one that finds an entry a
//! size query made recompiles that slice once to interpret it. A size
//! query never interprets.
//!
//! - In **component mode** (`incremental = true`, what every search and
//!   autotune runs) the components are the connected components of the
//!   full call graph ([`coarse_components`]), each extracted once as a
//!   standalone slice ([`extract_slice`]); zero-site components form the
//!   constant part.
//!   Two configurations that differ only inside component A reuse every
//!   other component's result verbatim; the tree search's `Components`
//!   recursion and the autotuner's one-flip probes hit exactly that
//!   pattern, so most compiles shrink from whole-module to one-component
//!   work.
//! - In **whole-module mode** (`incremental = false`) there is one
//!   always-active component holding the whole, unsliced module and no
//!   constant part: every miss compiles the whole module, one memo probe
//!   per query. The size oracle, the tests and the case-study experiments
//!   build it as a reference.
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
//! [`text_size`](optinline_codegen::text_size).
//!
//! Cycles decompose the same way:
//!
//! - [`module_cycles`] runs every public entry in a fresh
//!   [`Interp`](optinline_ir::interp::Interp), with its own i-cache,
//!   globals and fuel, so entries never observe each other;
//! - every call has a static callee and coarse components hold every call
//!   edge, so a run never leaves its entry's component;
//! - the i-cache keys on function identity and charges the callee's
//!   instruction count, both invariant under [`extract_slice`]'s monotone
//!   renumbering, and the slice keeps every global with its initializer;
//! - saturating addition of non-negative terms can be regrouped, and the
//!   sum is `None` only when every part is `None` — exactly when the module
//!   has no public non-stub function.
//!
//! The cross-validation suite asserts both identities on randomized
//! modules and configurations, and the size and cycles oracles check both
//! modes against the uncached whole-module reference
//! ([`SizeEvaluator::full_size_of`], [`SizeEvaluator::compile`]).

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
use std::sync::{Arc, Mutex, OnceLock};
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

/// One memoized answer for a slice (or for the whole constant part): its
/// size, and its cycles once a query has asked for them.
struct SliceAnswer {
    size: u64,
    /// Filled by the compile that made the answer when that query wanted
    /// cycles, else lazily by the first cycles query, which recompiles
    /// the slice; single-flight either way. `None` inside is an answer too
    /// ("nothing executable").
    cycles: OnceLock<Option<u64>>,
}

impl SliceAnswer {
    fn new(size: u64, cycles: Option<Option<u64>>) -> Self {
        SliceAnswer { size, cycles: cycles.map_or_else(OnceLock::new, OnceLock::from) }
    }
}

/// Adds one part's cycles to a running total under [`module_cycles`]'s
/// rule: saturating, and `None` only while every part so far is `None`.
fn add_cycles(total: Option<u64>, part: Option<u64>) -> Option<u64> {
    match (total, part) {
        (Some(a), Some(b)) => Some(a.saturating_add(b)),
        (a, b) => a.or(b),
    }
}

/// The module-backed evaluator: compile the module under a configuration
/// and measure `.text` bytes, plus cycles when asked, memoized per
/// component; see the module docs for the two modes and the exactness
/// argument.
pub struct SizeEvaluator {
    module: Module,
    target: Box<dyn Target>,
    sites: BTreeSet<CallSiteId>,
    incremental: bool,
    /// Components that contain at least one inlinable site (in
    /// whole-module mode: the whole module, sites or not).
    active: Vec<Component>,
    /// Pristine slices of zero-site components: their size and cycles are
    /// the same under every configuration, so they compile once, lazily,
    /// and are interpreted at most once, when a query first wants cycles.
    constant_slices: Vec<Module>,
    constant_part: OnceLock<SliceAnswer>,
    /// The per-component memo; each entry carries both metrics (see
    /// [`SliceAnswer`]), so cycles reuse the size memo's keys and hits.
    cache: ShardedCache<(usize, BTreeSet<CallSiteId>), Arc<SliceAnswer>>,
    cost: CostModel,
    queries: AtomicU64,
    compiles: AtomicU64,
    cycle_measures: AtomicU64,
    cycle_compiles: AtomicU64,
    /// Σ pristine instruction counts over all compiles, for the
    /// full-module-equivalents metric.
    compiled_insts: AtomicU64,
    compile_nanos: AtomicU64,
    module_insts: u64,
    pipeline_stats: Mutex<PipelineStats>,
    /// The domain fingerprint, from the first printing of the module that
    /// asks for it.
    domain: OnceLock<u128>,
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
        SizeEvaluator {
            module,
            target,
            sites,
            incremental,
            active,
            constant_slices,
            constant_part: OnceLock::new(),
            cache: ShardedCache::new(),
            cost: CostModel::default(),
            queries: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            cycle_measures: AtomicU64::new(0),
            cycle_compiles: AtomicU64::new(0),
            compiled_insts: AtomicU64::new(0),
            compile_nanos: AtomicU64::new(0),
            module_insts,
            pipeline_stats: Mutex::new(PipelineStats::default()),
            domain: OnceLock::new(),
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
    /// (uncached; the reference the oracles measure cycles on, and for
    /// case-study inspection, not for search loops).
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

    /// Compiles one pristine slice under `inlined` (a canonical subset of
    /// the slice's own sites) and returns the optimized slice.
    fn compile_slice(
        &self,
        slice: &Module,
        summary: &EffectSummary,
        inlined: &BTreeSet<CallSiteId>,
    ) -> Module {
        let mut m = slice.clone();
        let oracle = ForcedDecisions::new(inlined.iter().map(|&s| (s, Decision::Inline)).collect());
        let report = optimize_os_report_with_summary(
            &mut m,
            &oracle,
            PipelineOptions::default(),
            summary.clone(),
        );
        self.pipeline_stats.lock().unwrap().absorb(&report.stats);
        m
    }

    /// Compiles one pristine slice under `inlined`, counted as compile work
    /// of `insts` instructions, and measures its size — plus its cycles
    /// when `cycles`.
    fn measure_slice(
        &self,
        slice: &Module,
        summary: &EffectSummary,
        inlined: &BTreeSet<CallSiteId>,
        insts: u64,
        cycles: bool,
    ) -> (u64, Option<Option<u64>>) {
        let start = Instant::now();
        let optimized = self.compile_slice(slice, summary, inlined);
        let size = text_size(&optimized, self.target.as_ref());
        self.record_compile(start, insts);
        (size, cycles.then(|| self.interpret(&optimized)))
    }

    /// The cycles of an optimized slice, counted as one cycle compile.
    fn interpret(&self, optimized: &Module) -> Option<u64> {
        self.cycle_compiles.fetch_add(1, Ordering::Relaxed);
        module_cycles(optimized, &self.cost)
    }

    /// The answer of component `idx` under the decision subset relevant to
    /// it, memoized (single-flight). A miss measures cycles too when
    /// `cycles`.
    fn component(
        &self,
        idx: usize,
        inlined: BTreeSet<CallSiteId>,
        cycles: bool,
    ) -> Arc<SliceAnswer> {
        self.cache.get_or_compute((idx, inlined), |(idx, inlined)| {
            let comp = &self.active[*idx];
            let (size, measured) =
                self.measure_slice(&comp.slice, &comp.summary, inlined, comp.insts, cycles);
            Arc::new(SliceAnswer::new(size, measured))
        })
    }

    /// The configuration-independent contribution of zero-site components,
    /// compiled once on first use (size 0 and cycles `None` in whole-module
    /// mode). The first use measures cycles too when `cycles`.
    fn constant_part(&self, cycles: bool) -> &SliceAnswer {
        self.constant_part.get_or_init(|| {
            let mut size = 0;
            let mut total = None;
            for slice in &self.constant_slices {
                let summary = EffectSummary::compute(slice);
                let insts = slice.inst_count() as u64;
                let (part, measured) =
                    self.measure_slice(slice, &summary, &BTreeSet::new(), insts, cycles);
                size += part;
                total = add_cycles(total, measured.flatten());
            }
            SliceAnswer::new(size, cycles.then_some(total))
        })
    }

    /// The constant part's cycles when its first use was a size query:
    /// each zero-site slice recompiled once and interpreted.
    fn constant_cycles(&self) -> Option<u64> {
        self.constant_slices.iter().fold(None, |total, slice| {
            let summary = EffectSummary::compute(slice);
            let optimized = self.compile_slice(slice, &summary, &BTreeSet::new());
            add_cycles(total, self.interpret(&optimized))
        })
    }

    /// Sums the constant part and every active component's answer under
    /// `config`: the size, and the cycles when `cycles` (else `None`).
    fn evaluate(&self, config: &InliningConfiguration, cycles: bool) -> (u64, Option<u64>) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let inlined = config.inlined_sites();
        let constant = self.constant_part(cycles);
        let mut size = constant.size;
        let mut total = None;
        if cycles {
            total = *constant.cycles.get_or_init(|| self.constant_cycles());
        }
        for (idx, comp) in self.active.iter().enumerate() {
            let subset: BTreeSet<CallSiteId> = inlined.intersection(&comp.sites).copied().collect();
            let answer = self.component(idx, subset, cycles);
            size += answer.size;
            if cycles {
                // An entry a size query made: recompile its slice once.
                let part = *answer.cycles.get_or_init(|| {
                    let subset = inlined.intersection(&comp.sites).copied().collect();
                    self.interpret(&self.compile_slice(&comp.slice, &comp.summary, &subset))
                });
                total = add_cycles(total, part);
            }
        }
        (size, total)
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
        let (size, cycles) = self.evaluate(config, true);
        Measurement { size, cycles }
    }

    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        self.evaluate(config, false).0
    }

    fn compilations(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    fn memo_scope(&self) -> Option<u128> {
        // One domain for both modes: the decomposition is proven size- and
        // cycles-identical to whole-module compiles.
        Some(*self.domain.get_or_init(|| {
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
        for cfg in every_configuration(&sites) {
            assert_eq!(full.size_of(&cfg), incr.size_of(&cfg), "{cfg}");
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
        // The headline: compile work stayed well under 2 full-module
        // compiles.
        let s = incr.stats();
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
            assert_eq!(s.cycle_compiles, expected, "each slice compile interpreted once");
            assert_eq!(s.cache_misses, s.compiles - ev.constant_slices.len() as u64);
            assert_eq!(s.queries, 8);
        }
    }

    /// Every configuration over `sites`, clean slate first.
    fn every_configuration(sites: &[CallSiteId]) -> Vec<InliningConfiguration> {
        (0..1u32 << sites.len())
            .map(|mask| {
                sites
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        let inline = mask & (1 << i) != 0;
                        (s, if inline { Decision::Inline } else { Decision::NoInline })
                    })
                    .collect()
            })
            .collect()
    }

    /// The uncached whole-module reference: `(size, cycles)` of one
    /// whole-module compile.
    fn reference(ev: &SizeEvaluator, cfg: &InliningConfiguration) -> Measurement {
        let optimized = ev.compile(cfg);
        let size = text_size(&optimized, ev.target());
        Measurement { size, cycles: module_cycles(&optimized, ev.cost_model()) }
    }

    #[test]
    fn a_speed_flip_costs_what_a_size_flip_costs() {
        let (m, sites) = two_component_module();
        let base = InliningConfiguration::clean_slate();
        let flipped = base.clone().with(sites[0], Decision::Inline);
        let work = |objective: Objective| {
            let ev = SizeEvaluator::new(m.clone(), Box::new(X86Like), true);
            ev.measure(&base, objective);
            let before = ev.stats();
            ev.measure(&flipped, objective);
            let after = ev.stats();
            (
                after.compiles - before.compiles,
                after.pipeline.function_visits - before.pipeline.function_visits,
            )
        };
        let size = work(Objective::Size);
        assert_eq!(size.0, 1, "a one-site flip recompiles one slice");
        assert_eq!(work(Objective::Speed), size, "cycles ride on the same slice compile");
    }

    #[test]
    fn speed_answers_equal_the_whole_module_reference() {
        // Two active components whose public mains execute, plus the
        // zero-site public `lone`.
        let (m, sites) = two_component_module();
        for incremental in [false, true] {
            let cold = SizeEvaluator::new(m.clone(), Box::new(X86Like), incremental);
            // Size first, so every cycles answer fills an entry a size
            // query made (the constant part included).
            let size_first = SizeEvaluator::new(m.clone(), Box::new(X86Like), incremental);
            for cfg in every_configuration(&sites) {
                size_first.size_of(&cfg);
            }
            for cfg in every_configuration(&sites) {
                let expected = reference(&cold, &cfg);
                assert!(expected.cycles.is_some(), "public mains are executable");
                assert_eq!(cold.measure(&cfg, Objective::Speed), expected, "{incremental} {cfg}");
                assert_eq!(cold.measure(&cfg, Objective::Speed), expected, "cached {cfg}");
                assert_eq!(size_first.measure(&cfg, Objective::Speed), expected, "{cfg}");
            }
            let (cold, size_first) = (cold.stats(), size_first.stats());
            assert_eq!(cold.cycle_compiles, cold.compiles, "a miss interprets its own compile");
            assert_eq!(size_first.cycle_compiles, size_first.compiles, "one recompile per entry");
        }
    }

    #[test]
    fn components_without_public_entries_add_no_cycles() {
        // `main → callee`, then the same plus an internal-only component
        // `helper → leaf` that no public function reaches.
        let mut with_public = Module::new("p");
        let callee = with_public.declare_function("callee", 1, Linkage::Internal);
        let main = with_public.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut with_public, callee);
            let p = b.param(0);
            let r = b.bin(BinOp::Mul, p, p);
            b.ret(Some(r));
        }
        let main_site = {
            let mut b = FuncBuilder::new(&mut with_public, main);
            let x = b.iconst(6);
            let (v, site) = b.call_with_site(callee, &[x]);
            b.ret(Some(v));
            site
        };
        let mut with_internal = with_public.clone();
        let leaf = with_internal.declare_function("leaf", 1, Linkage::Internal);
        let helper = with_internal.declare_function("helper", 0, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut with_internal, leaf);
            let p = b.param(0);
            let one = b.iconst(1);
            let r = b.bin(BinOp::Sub, p, one);
            b.ret(Some(r));
        }
        let helper_site = {
            let mut b = FuncBuilder::new(&mut with_internal, helper);
            let x = b.iconst(9);
            let (v, site) = b.call_with_site(leaf, &[x]);
            b.ret(Some(v));
            site
        };
        for incremental in [false, true] {
            let plain = SizeEvaluator::new(with_public.clone(), Box::new(X86Like), incremental);
            let ev = SizeEvaluator::new(with_internal.clone(), Box::new(X86Like), incremental);
            for cfg in every_configuration(&[main_site, helper_site]) {
                let measured = ev.measure(&cfg, Objective::Speed);
                assert_eq!(measured, reference(&ev, &cfg), "{incremental} {cfg}");
                let expected = plain.measure(&cfg, Objective::Speed).cycles;
                assert_eq!(measured.cycles, expected, "the internal component adds no cycles");
            }
        }

        // Only internal functions: nothing executable in any component.
        let mut silent = with_internal.clone();
        silent.func_mut(main).linkage = Linkage::Internal;
        for incremental in [false, true] {
            let ev = SizeEvaluator::new(silent.clone(), Box::new(X86Like), incremental);
            for cfg in every_configuration(&[main_site, helper_site]) {
                let measured = ev.measure(&cfg, Objective::Speed);
                assert_eq!(measured.cycles, None, "{incremental} {cfg}");
                assert_eq!(measured, reference(&ev, &cfg));
            }
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
            let cache = PersistentCache::open(&dir, fp, &meta).unwrap();
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
        let dir =
            std::env::temp_dir().join(format!("optinline-sizeev-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (m, sites) = two_component_module();
        let fp = domain_fingerprint(&m, &X86Like, PipelineOptions::default());
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
