//! The pass framework: the per-function [`Pass`] contract, the
//! [`PassManager`] that drains a pipeline on a change-driven
//! dirty-function worklist, and the counters ([`PipelineStats`]) it
//! reports.
//!
//! ## The contract
//!
//! A pass's primary entry point is
//! [`run_on_function`](Pass::run_on_function): transform *one* function and
//! return a [`PassResult`] naming every function that changed (almost
//! always just the one it was pointed at; dead-argument elimination also
//! rewrites callers) and which analyses remain valid for them. The
//! whole-module [`run`](Pass::run) is a derived convenience — a sweep over
//! `run_on_function` — that module-scope passes (dead-function elimination,
//! function merging) override.
//!
//! ## The scheduler
//!
//! [`PassManager::run_worklist`] is the one scheduling loop: rounds of the
//! pipeline in pass-major order, each round visiting only *dirty*
//! functions — the seed set on round one, then exactly the functions
//! something changed in the previous round.
//!
//! The reference it must match byte for byte is the whole-module sweep:
//! every pass over every function, repeated until a sweep changes nothing.
//! A clean function is by construction at a local fixpoint of every pass
//! in the pipeline, so skipping it is byte-identical to the sweep's no-op
//! visit. The **mid-round rule** covers the other half: when a pass
//! reports a function changed while visiting another (dead-argument
//! elimination rewriting a caller), that function joins the current round
//! — the rest of the current pass visits it if it comes later in
//! [`FuncId`] order, and every later pass of the round visits it. Those are
//! exactly the visits the sweep makes to it after the change, so a
//! cross-function cascade finishes in the same round as under the sweep,
//! and the two stop at the same module under an iteration cap too. The
//! worklist does `Σ(per-function rounds-to-converge)` work instead of
//! `functions × max(rounds-to-converge)`.
//!
//! `optinline-check`'s scheduling oracle keeps the sweep as its private
//! reference and compares the two on every fuzz case.

use optinline_ir::{verify_module, AnalysisCacheStats, AnalysisManager, FuncId, Module};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound::{Excluded, Unbounded};

/// What one per-function pass application did: which functions changed
/// (empty = nothing) and which analyses are still valid for them.
#[derive(Clone, Debug)]
pub struct PassResult {
    /// Every function whose body, parameters, or call sites this
    /// application modified. Usually empty or the single function the pass
    /// ran on; dead-argument elimination also lists rewritten callers.
    pub changed_functions: Vec<FuncId>,
    /// The analyses still valid for each changed function. Irrelevant (and
    /// conventionally [`PreservedAnalyses::all`]) when nothing changed.
    pub preserved: PreservedAnalyses,
}

pub use optinline_ir::PreservedAnalyses;

impl PassResult {
    /// The application changed nothing.
    pub fn unchanged() -> Self {
        PassResult { changed_functions: Vec::new(), preserved: PreservedAnalyses::all() }
    }

    /// The application changed exactly the function it ran on.
    pub fn changed(fid: FuncId, preserved: PreservedAnalyses) -> Self {
        PassResult { changed_functions: vec![fid], preserved }
    }

    /// The application changed several functions.
    pub fn changed_many(funcs: Vec<FuncId>, preserved: PreservedAnalyses) -> Self {
        PassResult { changed_functions: funcs, preserved }
    }

    /// Did anything change?
    pub fn any_changed(&self) -> bool {
        !self.changed_functions.is_empty()
    }
}

/// A module transformation, expressed per function.
///
/// Passes must be deterministic and semantics-preserving (observable
/// behaviour under the interpreter: return value, final global state, and
/// the ordered store trace).
pub trait Pass: fmt::Debug + Send + Sync {
    /// Stable pass name, used in reports and debugging.
    fn name(&self) -> &'static str;

    /// Transforms one function, reading analyses through `am`. Must report
    /// *every* function it modified; the scheduler uses the report to
    /// re-queue work and invalidate cached analyses.
    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
    ) -> PassResult;

    /// Runs the pass over the whole module; returns `true` if anything
    /// changed. The default sweeps [`run_on_function`](Pass::run_on_function)
    /// over every function with a sweep-local [`AnalysisManager`] whose
    /// effect summary is frozen at first use — the historical semantics
    /// where a sweep snapshots its summary up front and keeps using it
    /// while mutating. Module-scope passes override this.
    fn run(&self, module: &mut Module) -> bool {
        let mut am = AnalysisManager::new();
        am.freeze_effects();
        let mut any = false;
        for fid in module.func_ids() {
            let res = self.run_on_function(module, fid, &mut am);
            if res.any_changed() {
                am.invalidate(res.preserved);
                any = true;
            }
        }
        any
    }
}

/// The outcome of a fixpoint (or worklist) run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fixpoint {
    /// Rounds that made progress.
    pub iterations: usize,
    /// `true` iff the run *proved* it converged (a round changed nothing,
    /// or the dirty set drained). `false` means the iteration cap cut the
    /// run short with changes still happening.
    pub hit_fixpoint: bool,
}

/// Per-pass work counters, collected by the worklist scheduler.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name.
    pub name: &'static str,
    /// `run_on_function` applications.
    pub invocations: u64,
    /// Functions reported changed (counting dead-argument elimination's
    /// rewritten callers).
    pub changed: u64,
}

/// What a pipeline run did: per-pass work, analysis-cache traffic, and
/// fixpoint/cap accounting. Rendered by `optinline optimize --pass-stats`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// One entry per pass, in pipeline order.
    pub per_pass: Vec<PassStat>,
    /// Analysis-cache hit/compute/invalidation counters.
    pub analysis: AnalysisCacheStats,
    /// Cleanup rounds that made progress, summed over drains.
    pub iterations: usize,
    /// Fixpoint loops that exhausted their iteration cap with changes
    /// still happening (each compile runs one or two loops).
    pub cap_hits: u64,
    /// Did every fixpoint loop in the run converge?
    pub hit_fixpoint: bool,
    /// Function visits: one per function per round it takes part in,
    /// whether it was dirty at the round's start or joined mid-round.
    pub function_visits: u64,
}

impl PipelineStats {
    /// Folds one fixpoint-loop outcome into the scheduling counters.
    pub fn record(&mut self, fp: Fixpoint) {
        self.iterations += fp.iterations;
        if !fp.hit_fixpoint {
            self.cap_hits += 1;
            self.hit_fixpoint = false;
        }
    }

    /// Merges another run's counters into this one (used by evaluators
    /// aggregating over many compiles).
    pub fn absorb(&mut self, other: &PipelineStats) {
        if self.per_pass.is_empty() {
            // Fresh (default-constructed) accumulator: adopt the first
            // run's shape and convergence flag wholesale.
            self.per_pass = other.per_pass.clone();
            self.hit_fixpoint = other.hit_fixpoint;
        } else {
            for (mine, theirs) in self.per_pass.iter_mut().zip(&other.per_pass) {
                mine.invocations += theirs.invocations;
                mine.changed += theirs.changed;
            }
        }
        self.analysis.hits += other.analysis.hits;
        self.analysis.computes += other.analysis.computes;
        self.analysis.invalidations += other.analysis.invalidations;
        self.iterations += other.iterations;
        self.cap_hits += other.cap_hits;
        self.hit_fixpoint &= other.hit_fixpoint;
        self.function_visits += other.function_visits;
    }

    /// A small human-readable table: one line per pass plus the analysis
    /// cache and scheduling summary lines.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "pass stats:");
        let width = self.per_pass.iter().map(|p| p.name.len()).max().unwrap_or(4).max(4);
        for p in &self.per_pass {
            let _ = writeln!(
                out,
                "  {:width$}  {:>8} invocations  {:>6} changed",
                p.name,
                p.invocations,
                p.changed,
                width = width
            );
        }
        let a = self.analysis;
        let _ = writeln!(
            out,
            "  analysis cache: {} hits, {} computes, {} invalidations",
            a.hits, a.computes, a.invalidations
        );
        let _ = writeln!(
            out,
            "  scheduling: {} rounds, {} function visits, fixpoint {}{}",
            self.iterations,
            self.function_visits,
            if self.hit_fixpoint { "reached" } else { "NOT reached" },
            if self.cap_hits > 0 {
                format!(" ({} cap hits)", self.cap_hits)
            } else {
                String::new()
            }
        );
        out
    }
}

/// Holds a pass pipeline and drains it on the change-driven
/// dirty-function worklist ([`run_worklist`](Self::run_worklist)).
#[derive(Debug)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    verify_each: bool,
    max_iterations: usize,
}

impl PassManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        PassManager { passes: Vec::new(), verify_each: false, max_iterations: 10 }
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Enables verification after every pass (used in tests; panics on
    /// verifier failures with the offending pass name).
    pub fn verify_each(&mut self, on: bool) -> &mut Self {
        self.verify_each = on;
        self
    }

    /// Caps fixpoint iterations (default 10).
    pub fn max_iterations(&mut self, n: usize) -> &mut Self {
        self.max_iterations = n;
        self
    }

    /// Fresh per-pass counters matching this pipeline, for accumulating
    /// across [`run_worklist`](Self::run_worklist) drains.
    pub fn fresh_stats(&self) -> PipelineStats {
        PipelineStats {
            per_pass: self
                .passes
                .iter()
                .map(|p| PassStat { name: p.name(), ..Default::default() })
                .collect(),
            hit_fixpoint: true,
            ..Default::default()
        }
    }

    /// The registered passes, in order (read-only: a reference scheduler
    /// can replay the exact pipeline without copying its construction).
    pub fn passes(&self) -> impl Iterator<Item = &dyn Pass> {
        self.passes.iter().map(|p| p.as_ref())
    }

    /// The change-driven scheduler: rounds of the pass sequence over only
    /// the *dirty* functions. Round one visits `seed`; each later round
    /// visits exactly the functions something changed (including callers
    /// rewritten by dead-argument elimination) in the previous round.
    ///
    /// The mid-round rule: a function a pass changes while visiting another
    /// joins the current round — the rest of that pass visits it if it
    /// comes later in [`FuncId`] order, and every later pass of the round
    /// visits it, exactly as the whole-module sweep would.
    ///
    /// Analyses are read through `am` and invalidated per each pass's
    /// [`PassResult::preserved`] declaration. Work and cache counters are
    /// accumulated into `stats` (obtain one from
    /// [`fresh_stats`](Self::fresh_stats); reuse it across drains to sum).
    ///
    /// Callers that want the whole-module sweep's result byte-for-byte
    /// must seed every function whose state is not already a pipeline
    /// fixpoint — the standard pipeline seeds all of them, because a
    /// pristine (or freshly inlined-into) module has cleanup opportunities
    /// everywhere, and lets the dirty set collapse from there.
    pub fn run_worklist(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        seed: impl IntoIterator<Item = FuncId>,
        stats: &mut PipelineStats,
    ) -> Fixpoint {
        self.run_worklist_observed(module, am, seed, &mut |_, _| {}, stats)
    }

    /// [`run_worklist`](Self::run_worklist) that also invokes
    /// `observer(pass_name, module)` once per pass per round when that pass
    /// changed anything — the hook differential oracles use to attribute a
    /// semantic divergence to the specific pass that introduced it.
    /// Unchanged applications are skipped so observers only pay for (and
    /// only report) real transformations.
    pub fn run_worklist_observed(
        &self,
        module: &mut Module,
        am: &mut AnalysisManager,
        seed: impl IntoIterator<Item = FuncId>,
        observer: &mut dyn FnMut(&'static str, &Module),
        stats: &mut PipelineStats,
    ) -> Fixpoint {
        debug_assert_eq!(stats.per_pass.len(), self.passes.len(), "stats/pipeline mismatch");
        let mut fp = Fixpoint::default();
        // BTreeSet: functions are visited in id order, like the sweep —
        // required for byte-identity (SCCP materializes fresh value ids,
        // so visit order is observable in the output).
        let mut round: BTreeSet<FuncId> = seed.into_iter().collect();
        for _ in 0..self.max_iterations {
            // A round boundary is a module-consistent point, so it is the
            // cancellation checkpoint for served pipeline work.
            optinline_ir::cancel::checkpoint();
            if round.is_empty() {
                fp.hit_fixpoint = true;
                break;
            }
            stats.function_visits += round.len() as u64;
            let mut next: BTreeSet<FuncId> = BTreeSet::new();
            let mut round_changed = false;
            for (pi, pass) in self.passes.iter().enumerate() {
                let mut pass_changed = false;
                // A cursor rather than an iterator: `round` grows while
                // this pass runs, and a function joining after the cursor
                // is visited by the rest of this pass.
                let mut cursor = round.first().copied();
                while let Some(fid) = cursor {
                    stats.per_pass[pi].invocations += 1;
                    let res = pass.run_on_function(module, fid, am);
                    if res.any_changed() {
                        pass_changed = true;
                        stats.per_pass[pi].changed += res.changed_functions.len() as u64;
                        am.invalidate(res.preserved);
                        for &f in &res.changed_functions {
                            next.insert(f);
                            if round.insert(f) {
                                stats.function_visits += 1;
                            }
                        }
                    }
                    cursor = round.range((Excluded(fid), Unbounded)).next().copied();
                }
                if self.verify_each {
                    if let Err(e) = verify_module(module) {
                        panic!("pass `{}` broke the IR: {e}\n{module}", pass.name());
                    }
                }
                if pass_changed {
                    observer(pass.name(), module);
                    round_changed = true;
                }
            }
            if !round_changed {
                fp.hit_fixpoint = true;
                break;
            }
            fp.iterations += 1;
            round = next;
        }
        if round.is_empty() {
            fp.hit_fixpoint = true;
        }
        stats.record(fp);
        stats.analysis = am.stats();
        fp
    }
}

impl Default for PassManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::Linkage;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    #[derive(Debug)]
    struct CountingPass {
        fires: std::sync::atomic::AtomicUsize,
        budget: usize,
    }

    impl Pass for CountingPass {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn run_on_function(
            &self,
            _m: &mut Module,
            fid: FuncId,
            _am: &mut AnalysisManager,
        ) -> PassResult {
            let n = self.fires.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n + 1 < self.budget {
                PassResult::changed(fid, PreservedAnalyses::all())
            } else {
                PassResult::unchanged()
            }
        }
    }

    #[test]
    fn fixpoint_stops_when_no_pass_changes() {
        let mut pm = PassManager::new();
        pm.add(CountingPass { fires: Default::default(), budget: 3 });
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let fp = pm.run_worklist(&mut m, &mut AnalysisManager::new(), [f], &mut pm.fresh_stats());
        // Changes on iterations 1 and 2, not on 3.
        assert_eq!(fp.iterations, 2);
        assert!(fp.hit_fixpoint);
    }

    #[test]
    fn iteration_cap_is_respected_and_reported() {
        let mut pm = PassManager::new();
        pm.max_iterations(2);
        pm.add(CountingPass { fires: Default::default(), budget: usize::MAX });
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let fp = pm.run_worklist(&mut m, &mut AnalysisManager::new(), [f], &mut pm.fresh_stats());
        assert_eq!(fp.iterations, 2);
        assert!(!fp.hit_fixpoint, "cap exhaustion must be surfaced");
    }

    #[test]
    fn observer_sees_each_changing_pass_application() {
        let mut pm = PassManager::new();
        pm.add(CountingPass { fires: Default::default(), budget: 3 });
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut seen = Vec::new();
        let mut stats = pm.fresh_stats();
        let mut am = AnalysisManager::new();
        let mut observer =
            |name: &'static str, module: &Module| seen.push((name, module.name.clone()));
        pm.run_worklist_observed(&mut m, &mut am, [f], &mut observer, &mut stats);
        // The pass reports "changed" on its first two fires only; the third
        // (no-change) application must not be observed.
        assert_eq!(seen, vec![("counting", "m".to_string()), ("counting", "m".to_string())]);
    }

    /// A synthetic cross-function pass over a chain of functions in id
    /// order: visiting an armed function disarms it and arms (rewrites) the
    /// next one, the way dead-argument elimination rewrites callers. The
    /// head's first visit changes it and arms it, so the cascade starts in
    /// round two, when only the head is dirty.
    #[derive(Debug)]
    struct Cascade {
        chain: Vec<FuncId>,
        armed: Mutex<BTreeSet<FuncId>>,
        started: AtomicBool,
    }

    impl Cascade {
        fn new(chain: Vec<FuncId>) -> Self {
            Cascade { chain, armed: Mutex::default(), started: AtomicBool::new(false) }
        }
    }

    impl Pass for Cascade {
        fn name(&self) -> &'static str {
            "cascade"
        }

        fn run_on_function(
            &self,
            _m: &mut Module,
            fid: FuncId,
            _am: &mut AnalysisManager,
        ) -> PassResult {
            let mut armed = self.armed.lock().unwrap();
            if fid == self.chain[0] && !self.started.swap(true, Ordering::SeqCst) {
                armed.insert(fid);
                return PassResult::changed(fid, PreservedAnalyses::all());
            }
            if !armed.remove(&fid) {
                return PassResult::unchanged();
            }
            let pos = self.chain.iter().position(|&f| f == fid).unwrap();
            let mut changed = vec![fid];
            if let Some(&next) = self.chain.get(pos + 1) {
                armed.insert(next);
                changed.push(next);
            }
            PassResult::changed_many(changed, PreservedAnalyses::all())
        }
    }

    /// Records every function it visits and never changes anything.
    #[derive(Debug, Default)]
    struct Recorder(Mutex<Vec<FuncId>>);

    impl Pass for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn run_on_function(
            &self,
            _m: &mut Module,
            fid: FuncId,
            _am: &mut AnalysisManager,
        ) -> PassResult {
            self.0.lock().unwrap().push(fid);
            PassResult::unchanged()
        }
    }

    fn chain_module(n: usize) -> (Module, Vec<FuncId>) {
        let mut m = Module::new("chain");
        let ids = (0..n).map(|i| m.declare_function(format!("f{i}"), 0, Linkage::Public)).collect();
        (m, ids)
    }

    #[test]
    fn a_cascade_finishes_inside_the_pass_that_starts_it() {
        // Chain f0 → f1 → … → f4 in id order, the heuristics' 3-round cap.
        // The whole-module sweep finishes the cascade in round two (each
        // newly armed function comes later in the same sweep) and proves
        // the fixpoint in round three; one round per link would need six.
        let (mut m, ids) = chain_module(5);
        let mut pm = PassManager::new();
        pm.max_iterations(3);
        pm.add(Cascade::new(ids.clone())).add(Recorder::default());
        let mut stats = pm.fresh_stats();
        let fp = pm.run_worklist(&mut m, &mut AnalysisManager::new(), ids.clone(), &mut stats);
        assert_eq!(fp, Fixpoint { iterations: 2, hit_fixpoint: true });
        // Round two: f0 dirty, f1..f4 join as the cascade reaches them;
        // round three: all five were changed in round two.
        assert_eq!(stats.per_pass[0].invocations, 15);
        assert_eq!(stats.per_pass[0].changed, 1 + 9);
        assert_eq!(stats.per_pass[1].invocations, 15, "later passes visit every joiner");
        assert_eq!(stats.function_visits, 15, "mid-round joins count as visits");
    }

    #[test]
    fn a_joiner_behind_the_cursor_waits_for_the_next_pass() {
        // Chain f4 → f3 → … → f0: each armed function comes *earlier* in
        // id order, so, as under the sweep, the cascade moves one link per
        // round, while the rest of each round still sees the joiner.
        let (mut m, mut ids) = chain_module(5);
        ids.reverse();
        let mut pm = PassManager::new();
        let cascade = Cascade::new(ids.clone());
        pm.add(cascade).add(Recorder::default());
        let mut stats = pm.fresh_stats();
        let seed = ids.iter().copied();
        let fp = pm.run_worklist(&mut m, &mut AnalysisManager::new(), seed, &mut stats);
        // Round 1 arms f4; rounds 2..=6 move the cascade from f4 to f0.
        assert_eq!(fp, Fixpoint { iterations: 6, hit_fixpoint: true });
        // Cascade visits: 5 (round 1), then each round its start-of-round
        // set; the recorder additionally sees the round's joiner.
        let rounds: [u64; 7] = [5, 1, 2, 2, 2, 2, 1];
        assert_eq!(stats.per_pass[0].invocations, rounds.iter().sum::<u64>());
        assert_eq!(stats.per_pass[1].invocations, rounds.iter().sum::<u64>() + 4);
        assert_eq!(stats.function_visits, stats.per_pass[1].invocations);
    }

    #[test]
    fn passes_are_reported_in_order() {
        let mut pm = PassManager::new();
        pm.add(CountingPass { fires: Default::default(), budget: 0 }).add(Recorder::default());
        let names: Vec<_> = pm.passes().map(|p| p.name()).collect();
        assert_eq!(names, ["counting", "recorder"]);
    }

    #[test]
    fn worklist_converges_and_counts_work() {
        let mut pm = PassManager::new();
        pm.add(CountingPass { fires: Default::default(), budget: 2 });
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut am = AnalysisManager::new();
        let mut stats = pm.fresh_stats();
        let fp = pm.run_worklist(&mut m, &mut am, [f], &mut stats);
        assert!(fp.hit_fixpoint);
        assert_eq!(fp.iterations, 1, "one changing round, then convergence");
        assert_eq!(stats.per_pass[0].name, "counting");
        assert_eq!(stats.per_pass[0].invocations, 2);
        assert_eq!(stats.per_pass[0].changed, 1);
        assert_eq!(stats.function_visits, 2);
        assert!(stats.hit_fixpoint);
        assert_eq!(stats.cap_hits, 0);
    }

    #[test]
    fn worklist_cap_exhaustion_is_counted() {
        let mut pm = PassManager::new();
        pm.max_iterations(3);
        pm.add(CountingPass { fires: Default::default(), budget: usize::MAX });
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut am = AnalysisManager::new();
        let mut stats = pm.fresh_stats();
        let fp = pm.run_worklist(&mut m, &mut am, [f], &mut stats);
        assert!(!fp.hit_fixpoint);
        assert_eq!(fp.iterations, 3);
        assert_eq!(stats.cap_hits, 1);
        assert!(!stats.hit_fixpoint);
    }

    #[test]
    fn worklist_with_empty_seed_is_a_noop_fixpoint() {
        let mut pm = PassManager::new();
        pm.add(CountingPass { fires: Default::default(), budget: usize::MAX });
        let mut m = Module::new("m");
        let mut am = AnalysisManager::new();
        let mut stats = pm.fresh_stats();
        let fp = pm.run_worklist(&mut m, &mut am, [], &mut stats);
        assert!(fp.hit_fixpoint);
        assert_eq!(fp.iterations, 0);
        assert_eq!(stats.per_pass[0].invocations, 0);
    }

    #[test]
    fn stats_render_mentions_passes_and_cache() {
        let mut pm = PassManager::new();
        pm.add(CountingPass { fires: Default::default(), budget: 2 });
        let mut m = Module::new("m");
        let f = m.declare_function("main", 0, Linkage::Public);
        let mut am = AnalysisManager::new();
        let mut stats = pm.fresh_stats();
        pm.run_worklist(&mut m, &mut am, [f], &mut stats);
        let text = stats.render();
        assert!(text.contains("counting"));
        assert!(text.contains("analysis cache"));
        assert!(text.contains("fixpoint reached"));
    }
}
