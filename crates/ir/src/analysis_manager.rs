//! Lazy, cached, explicitly-invalidated analyses — the data side of the
//! change-driven pass manager.
//!
//! The optimization pipeline in `optinline-opt` historically recomputed
//! every analysis (effect summaries, CFG reachability, dominators, the
//! call graph) from scratch on every pass application, even when the pass
//! before it changed nothing the analysis depends on. The
//! [`AnalysisManager`] fixes that: analyses are computed on first request,
//! cached, and dropped only when a pass that does *not* preserve them
//! reports a change — the [`PreservedAnalyses`] contract.
//!
//! Three analyses are managed:
//!
//! - **Effect summary** (module-keyed): [`EffectSummary`] — which functions
//!   may read/write globals. Can be *frozen* so a sweep keeps using the
//!   snapshot taken at its start (the historical whole-module semantics,
//!   and the pipeline's decision-independence requirement from §3.2 of the
//!   paper).
//! - **CFG facts** (function-keyed): [`CfgFacts`] — immediate dominators
//!   and block reachability, consumed by GVN. One CFG walk computes both: a
//!   block is reachable exactly when it has an immediate dominator.
//! - **Call graph** (module-keyed): the caller map, consumed by
//!   dead-argument elimination to rewrite only the functions that actually
//!   call a pruned callee. Cleanup passes only ever *remove* call edges,
//!   so a cached caller map is a safe over-approximation until a pass that
//!   redirects or adds calls invalidates it.
//!
//! Cache traffic is counted in [`AnalysisCacheStats`] and surfaced through
//! `optinline optimize --pass-stats`.

use crate::analysis::{immediate_dominators, EffectSummary};
use crate::{BlockId, FuncId, Module};

/// The analyses a pass promises are still valid for every function it
/// changed. The scheduler invalidates whatever is *not* preserved.
///
/// Built with [`none`](PreservedAnalyses::none) /
/// [`all`](PreservedAnalyses::all) plus the `plus_*` builders:
///
/// ```
/// use optinline_ir::PreservedAnalyses;
/// let p = PreservedAnalyses::none().plus_cfg().plus_call_graph();
/// assert!(p.cfg() && p.call_graph() && !p.effects());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreservedAnalyses {
    cfg: bool,
    effects: bool,
    call_graph: bool,
}

impl PreservedAnalyses {
    /// Nothing survives: every analysis for the changed functions is
    /// invalidated. The safe default for structural passes.
    pub const fn none() -> Self {
        PreservedAnalyses { cfg: false, effects: false, call_graph: false }
    }

    /// Everything survives (the implicit contract of a pass application
    /// that changed nothing).
    pub const fn all() -> Self {
        PreservedAnalyses { cfg: true, effects: true, call_graph: true }
    }

    /// Also preserve per-function CFG facts (the pass does not add, remove,
    /// or re-target blocks).
    pub const fn plus_cfg(mut self) -> Self {
        self.cfg = true;
        self
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

    /// Are per-function CFG facts still valid?
    pub const fn cfg(&self) -> bool {
        self.cfg
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

/// Per-function CFG/dominance facts, computed together because their
/// consumer (GVN's dominator-scoped value table) wants both.
#[derive(Clone, Debug)]
pub struct CfgFacts {
    /// `reachable[b]` — is block `b` reachable from the entry?
    pub reachable: Vec<bool>,
    /// `idom[b]` — immediate dominator of block `b` (the entry is its own;
    /// unreachable blocks have none).
    pub idom: Vec<Option<BlockId>>,
}

impl CfgFacts {
    /// Computes all facts for one function in one dominator computation:
    /// reachability is read off the dominators, since every reachable
    /// block, and only a reachable block, has one.
    pub fn compute(func: &crate::Function) -> Self {
        let idom = immediate_dominators(func);
        CfgFacts { reachable: idom.iter().map(Option::is_some).collect(), idom }
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
    cfg: Vec<Option<CfgFacts>>,
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

    /// CFG/dominance facts for `fid`, computing them on first use.
    pub fn cfg_facts(&mut self, module: &Module, fid: FuncId) -> &CfgFacts {
        if self.cfg.len() < module.func_count() {
            self.cfg.resize_with(module.func_count(), || None);
        }
        let slot = &mut self.cfg[fid.index()];
        if slot.is_none() {
            self.stats.computes += 1;
            *slot = Some(CfgFacts::compute(module.func(fid)));
        } else {
            self.stats.hits += 1;
        }
        slot.as_ref().expect("just filled")
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

    /// Drops whatever `preserved` does not cover for a function a pass just
    /// changed. CFG facts are per-function; the effect summary and call
    /// graph are module-keyed and dropped wholesale.
    pub fn invalidate_function(&mut self, fid: FuncId, preserved: PreservedAnalyses) {
        if !preserved.cfg() {
            if let Some(slot) = self.cfg.get_mut(fid.index()) {
                if slot.take().is_some() {
                    self.stats.invalidations += 1;
                }
            }
        }
        if !preserved.effects() && !self.effects_frozen && self.effects.take().is_some() {
            self.stats.invalidations += 1;
        }
        if !preserved.call_graph() && self.callers.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Drops every cached analysis (frozen effect summaries survive).
    pub fn invalidate_all(&mut self) {
        for slot in &mut self.cfg {
            if slot.take().is_some() {
                self.stats.invalidations += 1;
            }
        }
        if !self.effects_frozen && self.effects.take().is_some() {
            self.stats.invalidations += 1;
        }
        if self.callers.take().is_some() {
            self.stats.invalidations += 1;
        }
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

    fn module_with_call() -> (Module, FuncId, FuncId) {
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
        (m, callee, main)
    }

    #[test]
    fn analyses_are_computed_once_and_hit_after() {
        let (m, _, main) = module_with_call();
        let mut am = AnalysisManager::new();
        am.cfg_facts(&m, main);
        am.cfg_facts(&m, main);
        am.effects(&m);
        am.effects(&m);
        am.callers(&m);
        am.callers(&m);
        let s = am.stats();
        assert_eq!(s.computes, 3);
        assert_eq!(s.hits, 3);
        assert_eq!(s.invalidations, 0);
    }

    #[test]
    fn invalidation_honours_the_preservation_contract() {
        let (m, _, main) = module_with_call();
        let mut am = AnalysisManager::new();
        am.cfg_facts(&m, main);
        am.effects(&m);
        am.callers(&m);
        // A CFG-preserving change keeps the facts but drops the rest.
        am.invalidate_function(main, PreservedAnalyses::none().plus_cfg());
        am.cfg_facts(&m, main);
        let s = am.stats();
        assert_eq!(s.invalidations, 2, "effects + call graph dropped");
        assert_eq!(s.hits, 1, "cfg facts survived");
    }

    #[test]
    fn cfg_invalidation_is_per_function() {
        let (m, callee, main) = module_with_call();
        let mut am = AnalysisManager::new();
        am.cfg_facts(&m, callee);
        am.cfg_facts(&m, main);
        am.invalidate_function(main, PreservedAnalyses::none());
        am.cfg_facts(&m, callee); // hit
        am.cfg_facts(&m, main); // recompute
        let s = am.stats();
        assert_eq!(s.computes, 3);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn frozen_effects_survive_invalidation() {
        let (m, callee, main) = module_with_call();
        let summary = EffectSummary::compute(&m);
        let mut am = AnalysisManager::with_frozen_effects(summary);
        am.effects(&m);
        am.invalidate_function(main, PreservedAnalyses::none());
        am.invalidate_all();
        am.effects(&m);
        assert_eq!(am.stats().computes, 0, "frozen summary is never recomputed");
        let _ = callee;
    }

    #[test]
    fn cfg_reachability_is_read_off_the_dominators() {
        let mut m = Module::new("m");
        let f = m.declare_function("f", 1, Linkage::Public);
        let mut b = FuncBuilder::new(&mut m, f);
        let p = b.param(0);
        let (t, _) = b.new_block(0);
        let (e, _) = b.new_block(0);
        let (dead, _) = b.new_block(0);
        b.branch(p, t, &[], e, &[]);
        b.switch_to(t);
        b.ret(Some(p));
        b.switch_to(e);
        b.ret(None);
        b.switch_to(dead);
        b.jump(e, &[]);
        let facts = CfgFacts::compute(m.func(f));
        assert_eq!(facts.reachable, crate::analysis::reachable_blocks(m.func(f)));
        assert_eq!(facts.reachable, vec![true, true, true, false]);
        assert_eq!(facts.idom[0], Some(m.func(f).entry()));
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
