//! Lazy, cached, explicitly-invalidated analyses — the data side of the
//! change-driven pass manager.
//!
//! A pass reads what it knows about its own function from that function;
//! what it knows about *other* functions comes from the
//! [`AnalysisManager`]: analyses are computed on first request, cached, and
//! dropped only when a pass that does *not* preserve them reports a change
//! — the [`PreservedAnalyses`] contract.
//!
//! Two analyses are managed, both module-keyed:
//!
//! - **Effect summary**: [`EffectSummary`] — which functions may write
//!   globals. Can be *frozen* so a sweep keeps using the snapshot taken at
//!   its start (the historical whole-module semantics, and the pipeline's
//!   decision-independence requirement from §3.2 of the paper).
//! - **Call graph**: the caller map, consumed by dead-argument elimination
//!   to rewrite only the functions that actually call a pruned callee.
//!   Cleanup passes only ever *remove* call edges, so a cached caller map
//!   is a safe over-approximation until a pass that redirects or adds
//!   calls invalidates it.
//!
//! Per-function CFG facts are not cached here: GVN, their one reader among
//! the passes, computes dominators into tables of its own
//! ([`Dominators`](crate::analysis::Dominators)).
//!
//! Cache traffic is counted in [`AnalysisCacheStats`] and surfaced through
//! `optinline optimize --pass-stats`.

use crate::analysis::EffectSummary;
use crate::{FuncId, Module};

/// The analyses a pass promises are still valid after it changed some
/// functions. The scheduler invalidates whatever is *not* preserved.
///
/// Built with [`none`](PreservedAnalyses::none) /
/// [`all`](PreservedAnalyses::all) plus the `plus_*` builders:
///
/// ```
/// use optinline_ir::PreservedAnalyses;
/// let p = PreservedAnalyses::none().plus_call_graph();
/// assert!(p.call_graph() && !p.effects());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreservedAnalyses {
    effects: bool,
    call_graph: bool,
}

impl PreservedAnalyses {
    /// Nothing survives: every cached analysis is invalidated. The safe
    /// default.
    pub const fn none() -> Self {
        PreservedAnalyses { effects: false, call_graph: false }
    }

    /// Everything survives (the implicit contract of a pass application
    /// that changed nothing).
    pub const fn all() -> Self {
        PreservedAnalyses { effects: true, call_graph: true }
    }

    /// Also preserve the effect summary (the pass does not add or remove
    /// loads, stores, or calls).
    pub const fn plus_effects(mut self) -> Self {
        self.effects = true;
        self
    }

    /// Also preserve the call graph (the pass does not add, remove, or
    /// redirect call instructions — dropping *arguments* is fine).
    pub const fn plus_call_graph(mut self) -> Self {
        self.call_graph = true;
        self
    }

    /// Is the effect summary still valid?
    pub const fn effects(&self) -> bool {
        self.effects
    }

    /// Is the call graph still valid?
    pub const fn call_graph(&self) -> bool {
        self.call_graph
    }
}

/// Cache-traffic counters for one [`AnalysisManager`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that had to (re)compute the analysis.
    pub computes: u64,
    /// Cached analyses dropped by invalidation.
    pub invalidations: u64,
}

/// Lazily computes, caches, and invalidates the analyses the pass pipeline
/// consumes. See the [module docs](self) for the analysis inventory and
/// the preservation contract.
#[derive(Debug, Default)]
pub struct AnalysisManager {
    effects: Option<EffectSummary>,
    effects_frozen: bool,
    callers: Option<Vec<Vec<FuncId>>>,
    stats: AnalysisCacheStats,
}

impl AnalysisManager {
    /// An empty manager: every first request computes.
    pub fn new() -> Self {
        Self::default()
    }

    /// A manager pre-seeded with a *frozen* effect summary: invalidations
    /// never drop it. The standard pipeline computes the summary on the
    /// pristine module so that a callee's inferred purity cannot change
    /// with inlining decisions made elsewhere (§3.2 exactness).
    pub fn with_frozen_effects(summary: EffectSummary) -> Self {
        AnalysisManager { effects: Some(summary), effects_frozen: true, ..Default::default() }
    }

    /// Freezes whatever effect summary is (or next gets) cached: later
    /// invalidations keep it. This reproduces the historical whole-module
    /// sweep semantics, where a pass computed its summary once at the start
    /// of a sweep and kept using it while mutating.
    pub fn freeze_effects(&mut self) {
        self.effects_frozen = true;
    }

    /// The module's effect summary, computing it on first use.
    pub fn effects(&mut self, module: &Module) -> &EffectSummary {
        if self.effects.is_none() {
            self.stats.computes += 1;
            self.effects = Some(EffectSummary::compute(module));
        } else {
            self.stats.hits += 1;
        }
        self.effects.as_ref().expect("just filled")
    }

    /// The caller map: `callers(m)[callee.index()]` lists every function
    /// with at least one call to `callee` (including `callee` itself when
    /// recursive), sorted and deduplicated. Computed on first use.
    ///
    /// While only edge-*removing* passes run, a cached map is a safe
    /// over-approximation; passes that add or redirect calls must not
    /// declare the call graph preserved.
    pub fn callers(&mut self, module: &Module) -> &[Vec<FuncId>] {
        if self.callers.is_none() {
            self.stats.computes += 1;
            let mut map: Vec<Vec<FuncId>> = vec![Vec::new(); module.func_count()];
            for (caller, func) in module.iter_funcs() {
                for (_, callee) in func.call_edges() {
                    map[callee.index()].push(caller);
                }
            }
            for callers in &mut map {
                callers.sort_unstable();
                callers.dedup();
            }
            self.callers = Some(map);
        } else {
            self.stats.hits += 1;
        }
        self.callers.as_ref().expect("just filled")
    }

    /// Drops whatever `preserved` does not cover after a pass changed the
    /// module (a frozen effect summary survives).
    pub fn invalidate(&mut self, preserved: PreservedAnalyses) {
        if !preserved.effects() && !self.effects_frozen && self.effects.take().is_some() {
            self.stats.invalidations += 1;
        }
        if !preserved.call_graph() && self.callers.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Drops every cached analysis (frozen effect summaries survive).
    pub fn invalidate_all(&mut self) {
        self.invalidate(PreservedAnalyses::none());
    }

    /// Cache-traffic counters so far.
    pub fn stats(&self) -> AnalysisCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuncBuilder, Linkage};

    fn module_with_call() -> Module {
        let mut m = Module::new("m");
        let callee = m.declare_function("callee", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, callee);
            let p = b.param(0);
            b.ret(Some(p));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(1);
            let v = b.call(callee, &[x]);
            b.ret(v);
        }
        m
    }

    #[test]
    fn analyses_are_computed_once_and_hit_after() {
        let m = module_with_call();
        let mut am = AnalysisManager::new();
        am.effects(&m);
        am.effects(&m);
        am.callers(&m);
        am.callers(&m);
        let s = am.stats();
        assert_eq!(s.computes, 2);
        assert_eq!(s.hits, 2);
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn invalidation_honours_the_preservation_contract() {
        let m = module_with_call();
        let mut am = AnalysisManager::new();
        am.effects(&m);
        am.callers(&m);
        // A change that keeps the calls keeps the caller map only.
        am.invalidate(PreservedAnalyses::none().plus_call_graph());
        am.callers(&m);
        assert_eq!(am.stats(), AnalysisCacheStats { hits: 1, computes: 2, invalidations: 1 });
        am.effects(&m);
        assert_eq!(am.stats().computes, 3, "the effect summary was recomputed");
        // Nothing to drop when everything is preserved.
        am.invalidate(PreservedAnalyses::all());
        am.invalidate(PreservedAnalyses::none());
        am.invalidate(PreservedAnalyses::none());
        assert_eq!(am.stats().invalidations, 3, "each cached analysis is dropped once");
    }

    #[test]
    fn frozen_effects_survive_invalidation() {
        let m = module_with_call();
        let summary = EffectSummary::compute(&m);
        let mut am = AnalysisManager::with_frozen_effects(summary);
        am.effects(&m);
        am.callers(&m);
        am.invalidate(PreservedAnalyses::none());
        am.invalidate_all();
        am.effects(&m);
        let s = am.stats();
        assert_eq!(s.computes, 1, "frozen summary is never recomputed; the caller map is");
        assert_eq!(s.invalidations, 1, "only the caller map was dropped");
    }

    #[test]
    fn caller_map_covers_recursion_and_dedups() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let p = b.param(0);
            let a = b.call(f, &[p]).unwrap();
            let bb = b.call(f, &[a]).unwrap();
            b.ret(Some(bb));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(0);
            let v = b.call(f, &[x]);
            b.ret(v);
        }
        let mut am = AnalysisManager::new();
        let callers = am.callers(&m);
        assert_eq!(callers[f.index()], vec![f, main]);
        assert!(callers[main.index()].is_empty());
    }
}
