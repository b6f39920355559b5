//! The standard `-Os`-like pipeline: inline per the oracle, stub the
//! functions inlining left unreachable, iterate the scalar/CFG cleanup
//! passes to a fixpoint over the rest, then stub the functions cleanup left
//! dead, cleaning up again only if the first cleanup stopped at its round
//! cap.
//!
//! This is the `CompileAndMeasureSize` building block of the paper's
//! Algorithms 1 and 3: given a module and an inlining configuration, produce
//! the final module whose `.text` size the evaluator measures.
//!
//! # Cleaning only what survives inlining
//!
//! Dead-function elimination runs before the cleanup drain as well as after
//! it, so the drain never visits a callee whose last call site the inliner
//! just expanded. Cleaning every function first and stubbing afterwards
//! would give the same code, for three reasons:
//!
//! - no cleanup pass adds a call edge, so a function that is unreachable
//!   after inlining is still unreachable at the end, where the late run
//!   would stub it anyway;
//! - each pass decides from the function's own body, its linkage, stub and
//!   inlinable flags, and the frozen pristine effect summary;
//! - the one cross-function write is dead-argument elimination rewriting a
//!   callee's callers, and it never connects a reachable function with an
//!   unreachable one: every caller of an unreachable function is
//!   unreachable, and rewriting an unreachable caller of a reachable callee
//!   changes only that caller.
//!
//! So every reachable function is changed by the same passes in the same
//! rounds and ends byte-identical. The one visible difference is a stub's
//! parameter list: [`Module::stub_out`] keeps the current parameter count,
//! so an early stub keeps its declared parameters where dead-argument
//! elimination could first have pruned a dead body's parameters. Stubs emit
//! 0 bytes and are never called or run.

use crate::cse::Cse;
use crate::dae::DeadArgElim;
use crate::dce::{Dce, DeadFunctionElim};
use crate::gvn::Gvn;
use crate::inline::{run_inliner_tracked, InlineOracle, NeverInline};
use crate::pass::{Pass, PassManager, PipelineStats};
use crate::sccp::Sccp;
use crate::simplify::Simplify;
use crate::simplify_cfg::SimplifyCfg;
use optinline_ir::{AnalysisManager, FuncId, Module};

/// Options for [`optimize_os`] and the cleanup pipelines. The cleanup
/// always drains on the change-driven worklist
/// ([`PassManager::run_worklist`]).
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Cap on cleanup rounds per drain (default 10).
    pub max_iterations: usize,
    /// Verify the IR after every pass (slow; meant for tests).
    pub verify_each: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions { max_iterations: 10, verify_each: false }
    }
}

/// What a full `-Os` compile did: the inliner's expansion count plus the
/// worklist's work/cache counters.
#[derive(Clone, Debug, Default)]
pub struct OsReport {
    /// Call sites the inliner expanded.
    pub inlined: usize,
    /// Per-pass, analysis-cache, and fixpoint accounting of the cleanup
    /// drain over the functions that survive inlining, plus the drain
    /// after the second dead-function elimination when the first one hit
    /// its round cap.
    pub stats: PipelineStats,
}

/// Builds the standard cleanup pipeline (everything except inlining and
/// dead-function elimination). When `summary` is given, CSE and DCE use it
/// as a frozen effect oracle — the pipeline computes it on the pristine
/// module so that purity never depends on inlining decisions made in other
/// call-graph components (the exactness condition behind §3.2's
/// independence argument).
pub fn cleanup_pipeline_with(
    options: PipelineOptions,
    summary: Option<optinline_ir::analysis::EffectSummary>,
) -> PassManager {
    let mut pm = PassManager::new();
    pm.max_iterations(options.max_iterations);
    pm.verify_each(options.verify_each);
    let (cse, dce) = match summary {
        Some(s) => (Cse::with_summary(s.clone()), Dce::with_summary(s)),
        None => (Cse::default(), Dce::default()),
    };
    pm.add(Simplify).add(Sccp).add(cse).add(Gvn).add(SimplifyCfg).add(dce).add(DeadArgElim);
    pm
}

/// [`cleanup_pipeline_with`] without a frozen summary.
pub fn cleanup_pipeline(options: PipelineOptions) -> PassManager {
    cleanup_pipeline_with(options, None)
}

/// Runs the full size pipeline: inline per `oracle`, stub the functions
/// inlining left unreachable, clean up the rest to a fixpoint, stub the
/// functions cleanup left dead, and clean up once more if the first
/// cleanup hit its round cap before converging.
///
/// Returns the number of call sites the inliner expanded.
pub fn optimize_os(
    module: &mut Module,
    oracle: &dyn InlineOracle,
    options: PipelineOptions,
) -> usize {
    optimize_os_report(module, oracle, options).inlined
}

/// [`optimize_os`] returning the full [`OsReport`] (inline count plus
/// scheduler/cache statistics) instead of just the inline count.
pub fn optimize_os_report(
    module: &mut Module,
    oracle: &dyn InlineOracle,
    options: PipelineOptions,
) -> OsReport {
    let summary = optinline_ir::analysis::EffectSummary::compute(module);
    optimize_os_report_with_summary(module, oracle, options, summary)
}

/// [`optimize_os_report`] with a precomputed pre-inlining [`EffectSummary`].
///
/// The summary must have been computed on `module` in its current (pristine,
/// pre-inlining) state — callers that compile the same module repeatedly
/// under different oracles can hoist `EffectSummary::compute` out of the
/// loop, which is what the incremental evaluator in `optinline-core` does
/// per component slice.
///
/// [`EffectSummary`]: optinline_ir::analysis::EffectSummary
pub fn optimize_os_report_with_summary(
    module: &mut Module,
    oracle: &dyn InlineOracle,
    options: PipelineOptions,
    summary: optinline_ir::analysis::EffectSummary,
) -> OsReport {
    optimize_os_observed(module, oracle, options, summary, &mut |_, _| {})
}

/// The fully instrumented pipeline: like [`optimize_os`], but invokes
/// `observer(pass_name, module)` after every stage that changed the module
/// — the inliner (as `"inline"`), each changing cleanup-pass application,
/// and each of the two dead-function eliminations (as
/// `"dead-function-elim"`).
///
/// This is the hook the `optinline-check` semantic oracle uses to attribute
/// an observable-behaviour divergence to the specific pass that introduced
/// it, instead of only knowing the end-to-end pipeline misbehaved.
pub fn optimize_os_instrumented(
    module: &mut Module,
    oracle: &dyn InlineOracle,
    options: PipelineOptions,
    observer: &mut dyn FnMut(&'static str, &Module),
) -> usize {
    let summary = optinline_ir::analysis::EffectSummary::compute(module);
    optimize_os_observed(module, oracle, options, summary, observer).inlined
}

fn optimize_os_observed(
    module: &mut Module,
    oracle: &dyn InlineOracle,
    options: PipelineOptions,
    summary: optinline_ir::analysis::EffectSummary,
    observer: &mut dyn FnMut(&'static str, &Module),
) -> OsReport {
    let outcome = run_inliner_tracked(module, oracle);
    if outcome.expanded > 0 {
        observer("inline", module);
    }
    if options.verify_each {
        optinline_ir::assert_verified(module);
    }
    // Callees whose last call site was just expanded are already dead:
    // stub them now rather than clean bodies the late run would throw
    // away (the module docs say why the result is the same).
    let stubbed_early = DeadFunctionElim.run(module);
    if stubbed_early {
        observer("dead-function-elim", module);
    }
    let pm = cleanup_pipeline_with(options, Some(summary.clone()));
    let mut stats = pm.fresh_stats();
    // A freshly inlined-into module has cleanup opportunities everywhere,
    // so the first drain seeds every function that is not a stub —
    // byte-identity with the sweep demands it, and a stub is a fixpoint of
    // every pass — and the dirty set collapses to the inliner-touched
    // neighbourhood after round one.
    let mut am = AnalysisManager::with_frozen_effects(summary);
    let live: Vec<FuncId> = module.func_ids().filter(|&f| !module.is_stub(f)).collect();
    let first =
        pm.run_worklist_observed(module, &mut am, live.iter().copied(), observer, &mut stats);
    let stubbed_late = DeadFunctionElim.run(module);
    if stubbed_late {
        observer("dead-function-elim", module);
    }
    // A converged drain leaves every function at a fixpoint of every pass.
    // Each pass decides from the function's own body, its linkage, stub
    // and inlinable flags, and the frozen summary (dead-argument
    // elimination from the callee's own parameter uses; it only rewrites
    // callers), and dead-function elimination changes only the functions
    // it stubs, each a fixpoint of every pass. So only a drain its round
    // cap cut short leaves work for another. It runs only if either
    // elimination stubbed something — the condition one elimination after
    // the drain gives — so a capped compile ends as it would had every
    // function been cleaned first.
    if !first.hit_fixpoint && (stubbed_early || stubbed_late) {
        // Stubbed bodies invalidate whatever was cached about them; the
        // frozen effect summary survives by design.
        am.invalidate_all();
        pm.run_worklist_observed(module, &mut am, live, observer, &mut stats);
    }
    OsReport { inlined: outcome.expanded, stats }
}

/// The paper's "inlining disabled" baseline: full cleanup, no inlining.
pub fn optimize_os_no_inline(module: &mut Module, options: PipelineOptions) {
    optimize_os(module, &NeverInline, options);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inline::{AlwaysInline, ForcedDecisions};
    use optinline_callgraph::Decision;
    use optinline_codegen::{text_size, X86Like};
    use optinline_ir::analysis::EffectSummary;
    use optinline_ir::{assert_verified, BinOp, FuncBuilder, Linkage};

    /// Listing 1 of the paper, adapted: `bar(a) = a + a`;
    /// `foo(n) = for i in 0..n { if bar(i) == i { return 0 } } return 1`.
    /// Inlining `bar` lets the optimizer prove `bar(i) == i` is `i == 0`…
    /// our simpler pipeline at least folds the call overhead away and
    /// shrinks the loop body.
    fn listing1() -> (Module, optinline_ir::CallSiteId) {
        let mut m = Module::new("listing1");
        let bar = m.declare_function("bar", 1, Linkage::Internal);
        let foo = m.declare_function("main", 1, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, bar);
            let a = b.param(0);
            let r = b.bin(BinOp::Add, a, a);
            b.ret(Some(r));
        }
        let site = {
            let mut b = FuncBuilder::new(&mut m, foo);
            let n = b.param(0);
            let zero = b.iconst(0);
            let (hdr, hp) = b.new_block(1);
            let (body, _) = b.new_block(0);
            let (found, _) = b.new_block(0);
            let (next, _) = b.new_block(0);
            let (exit, _) = b.new_block(0);
            b.jump(hdr, &[zero]);
            let i = hp[0];
            let c = b.bin(BinOp::Lt, i, n);
            b.branch(c, body, &[], exit, &[]);
            b.switch_to(body);
            let (v, site) = b.call_with_site(bar, &[i]);
            let eq = b.bin(BinOp::Eq, v, i);
            b.branch(eq, found, &[], next, &[]);
            b.switch_to(found);
            let z = b.iconst(0);
            b.ret(Some(z));
            b.switch_to(next);
            let one = b.iconst(1);
            let i2 = b.bin(BinOp::Add, i, one);
            b.jump(hdr, &[i2]);
            b.switch_to(exit);
            let one2 = b.iconst(1);
            b.ret(Some(one2));
            site
        };
        (m, site)
    }

    #[test]
    fn pipeline_preserves_semantics_under_full_inlining() {
        let (m, _) = listing1();
        let f = m.func_by_name("main").unwrap();
        let before = optinline_ir::interp::Interp::new(&m).run(f, &[7]).unwrap();
        let mut opt = m.clone();
        optimize_os(
            &mut opt,
            &AlwaysInline,
            PipelineOptions { verify_each: true, ..Default::default() },
        );
        assert_verified(&opt);
        let after = optinline_ir::interp::Interp::new(&opt).run(f, &[7]).unwrap();
        assert_eq!(before.observable(), after.observable());
    }

    #[test]
    fn instrumented_pipeline_reports_inline_and_matches_uninstrumented() {
        let (m, _) = listing1();
        let mut observed = m.clone();
        let mut stages = Vec::new();
        optimize_os_instrumented(&mut observed, &AlwaysInline, PipelineOptions::default(), &mut {
            |name: &'static str, module: &Module| {
                assert_verified(module);
                stages.push(name);
            }
        });
        assert_eq!(stages.first(), Some(&"inline"));
        assert!(stages.len() > 1, "cleanup after inlining must change something");
        // Observation must not perturb the result.
        let mut plain = m.clone();
        optimize_os(&mut plain, &AlwaysInline, PipelineOptions::default());
        assert_eq!(
            text_size(&observed, &X86Like),
            text_size(&plain, &X86Like),
            "instrumented and plain pipelines diverged"
        );
    }

    #[test]
    fn inlining_the_single_call_shrinks_listing1() {
        let (m, site) = listing1();
        let mut no_inline = m.clone();
        optimize_os_no_inline(&mut no_inline, PipelineOptions::default());
        let mut inlined = m.clone();
        let oracle = ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
        optimize_os(&mut inlined, &oracle, PipelineOptions::default());
        let s_no = text_size(&no_inline, &X86Like);
        let s_in = text_size(&inlined, &X86Like);
        // bar's body is tiny and it becomes dead after its only call is
        // inlined: the inlined version must win.
        assert!(s_in < s_no, "inlined {s_in} !< no-inline {s_no}");
    }

    #[test]
    fn dead_callee_is_removed_after_inlining() {
        let (mut m, site) = listing1();
        let bar = m.func_by_name("bar").unwrap();
        let oracle = ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
        optimize_os(&mut m, &oracle, PipelineOptions::default());
        assert!(m.is_stub(bar));
    }

    #[test]
    fn baseline_keeps_callee_alive() {
        let (mut m, _) = listing1();
        let bar = m.func_by_name("bar").unwrap();
        optimize_os_no_inline(&mut m, PipelineOptions::default());
        assert!(!m.is_stub(bar));
    }

    #[test]
    fn constant_argument_cascade_folds_to_a_return() {
        // check(flag): if flag { big computation } else { 1 }
        // main: check(0) — inlining + folding should reduce main to `ret 1`
        // and delete `check`.
        let mut m = Module::new("m");
        let check = m.declare_function("check", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, check);
            let flag = b.param(0);
            let (heavy, _) = b.new_block(0);
            let (cheap, _) = b.new_block(0);
            b.branch(flag, heavy, &[], cheap, &[]);
            b.switch_to(heavy);
            let mut acc = b.iconst(3);
            for _ in 0..12 {
                acc = b.bin(BinOp::Mul, acc, acc);
            }
            b.ret(Some(acc));
            b.switch_to(cheap);
            let one = b.iconst(1);
            b.ret(Some(one));
        }
        let site = {
            let mut b = FuncBuilder::new(&mut m, main);
            let zero = b.iconst(0);
            let (v, site) = b.call_with_site(check, &[zero]);
            b.ret(Some(v));
            site
        };
        let oracle = ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
        optimize_os(&mut m, &oracle, PipelineOptions { verify_each: true, ..Default::default() });
        let main_f = m.func(main);
        // Everything folded: one block, at most one const, ret.
        assert_eq!(main_f.blocks.len(), 1, "main did not fold:\n{m}");
        assert!(main_f.blocks[0].insts.len() <= 1);
        assert!(m.is_stub(check));
        let out = optinline_ir::interp::run_main(&m).unwrap();
        assert_eq!(out.ret, Some(1));
    }

    #[test]
    fn every_cleanup_pass_leaves_a_stub_unchanged() {
        let (mut m, _) = listing1();
        let bar = m.func_by_name("bar").unwrap();
        let summary = EffectSummary::compute(&m);
        m.stub_out([bar]);
        let stub = m.to_string();
        for frozen in [None, Some(summary)] {
            let mut am = match &frozen {
                Some(s) => AnalysisManager::with_frozen_effects(s.clone()),
                None => AnalysisManager::new(),
            };
            let pm = cleanup_pipeline_with(PipelineOptions::default(), frozen);
            for pass in pm.passes() {
                let res = pass.run_on_function(&mut m, bar, &mut am);
                assert!(!res.any_changed(), "{} changed a stub", pass.name());
            }
        }
        assert!(m.is_stub(bar));
        assert_eq!(m.to_string(), stub);
    }

    #[test]
    fn a_converged_first_drain_is_the_whole_cleanup() {
        let (m, site) = listing1();
        let bar = m.func_by_name("bar").unwrap();
        let oracle = ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
        let mut compiled = m.clone();
        let report = optimize_os_report(&mut compiled, &oracle, PipelineOptions::default());
        assert!(compiled.is_stub(bar), "dead-function elimination must stub the callee");
        // Inline, stub, and the first drain alone, from public pieces.
        let mut first = m.clone();
        let summary = EffectSummary::compute(&first);
        run_inliner_tracked(&mut first, &oracle);
        assert!(DeadFunctionElim.run(&mut first), "inlining leaves the callee dead");
        let pm = cleanup_pipeline_with(PipelineOptions::default(), Some(summary.clone()));
        let mut stats = pm.fresh_stats();
        let mut am = AnalysisManager::with_frozen_effects(summary);
        let live: Vec<FuncId> = first.func_ids().filter(|&f| !first.is_stub(f)).collect();
        let fp = pm.run_worklist(&mut first, &mut am, live, &mut stats);
        assert!(fp.hit_fixpoint);
        assert!(!DeadFunctionElim.run(&mut first), "nothing died during the drain");
        assert_eq!(report.stats.function_visits, stats.function_visits);
        assert_eq!(report.stats, stats);
        assert_eq!(compiled.to_string(), first.to_string());
    }

    #[test]
    fn a_capped_first_drain_keeps_the_drain_after_dead_function_elim() {
        let (m, site) = listing1();
        let oracle = ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
        let options = PipelineOptions { max_iterations: 1, ..Default::default() };
        let mut compiled = m.clone();
        let report = optimize_os_report(&mut compiled, &oracle, options);
        // Inline, stub, drain, and drain again although the elimination
        // after the capped drain finds nothing: the callee it would have
        // stubbed was stubbed before the drain.
        let mut rebuilt = m.clone();
        let summary = EffectSummary::compute(&rebuilt);
        run_inliner_tracked(&mut rebuilt, &oracle);
        assert!(DeadFunctionElim.run(&mut rebuilt));
        let pm = cleanup_pipeline_with(options, Some(summary.clone()));
        let mut stats = pm.fresh_stats();
        let mut am = AnalysisManager::with_frozen_effects(summary);
        let live: Vec<FuncId> = rebuilt.func_ids().filter(|&f| !rebuilt.is_stub(f)).collect();
        let first = pm.run_worklist(&mut rebuilt, &mut am, live.iter().copied(), &mut stats);
        assert!(!first.hit_fixpoint, "one round must not be enough");
        assert!(!DeadFunctionElim.run(&mut rebuilt));
        am.invalidate_all();
        pm.run_worklist(&mut rebuilt, &mut am, live, &mut stats);
        assert_eq!(report.stats, stats);
        assert_eq!(compiled.to_string(), rebuilt.to_string());
    }

    /// `main(x) = bar(x, 7) + 1` with `bar(a, unused) = a * a`.
    fn one_call_with_an_unused_argument() -> (Module, optinline_ir::CallSiteId) {
        let mut m = Module::new("m");
        let bar = m.declare_function("bar", 2, Linkage::Internal);
        let main = m.declare_function("main", 1, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, bar);
            let a = b.param(0);
            let r = b.bin(BinOp::Mul, a, a);
            b.ret(Some(r));
        }
        let mut b = FuncBuilder::new(&mut m, main);
        let x = b.param(0);
        let seven = b.iconst(7);
        let (v, site) = b.call_with_site(bar, &[x, seven]);
        let one = b.iconst(1);
        let r = b.bin(BinOp::Add, v, one);
        b.ret(Some(r));
        (m, site)
    }

    #[test]
    fn a_callee_dead_after_inlining_is_stubbed_before_the_drain() {
        let (m, site) = one_call_with_an_unused_argument();
        let bar = m.func_by_name("bar").unwrap();
        let main = m.func_by_name("main").unwrap();
        let oracle = ForcedDecisions::new([(site, Decision::Inline)].into_iter().collect());
        let mut compiled = m.clone();
        let report = optimize_os_report(&mut compiled, &oracle, PipelineOptions::default());
        assert_eq!(report.inlined, 1);
        let summary = EffectSummary::compute(&m);
        let pm = cleanup_pipeline_with(PipelineOptions::default(), Some(summary.clone()));
        let drain = |seed: Vec<FuncId>| {
            let mut inlined = m.clone();
            run_inliner_tracked(&mut inlined, &oracle);
            let mut stats = pm.fresh_stats();
            let mut am = AnalysisManager::with_frozen_effects(summary.clone());
            assert!(pm.run_worklist(&mut inlined, &mut am, seed, &mut stats).hit_fixpoint);
            (inlined, stats)
        };
        // The cleanup never visits `bar`: it makes the visits of a drain
        // seeded with `main` alone.
        let (_, main_only) = drain(vec![main]);
        assert_eq!(report.stats.function_visits, main_only.function_visits);
        // `bar`'s stub keeps both declared parameters, where cleaning
        // everything first lets dead-argument elimination prune one.
        let (mut reference, _) = drain(m.func_ids().collect());
        assert!(DeadFunctionElim.run(&mut reference));
        assert!(compiled.is_stub(bar) && reference.is_stub(bar));
        assert_eq!(compiled.func(bar).param_count(), 2);
        assert_eq!(reference.func(bar).param_count(), 1);
        // `main` is what cleaning everything first makes of it.
        assert_eq!(
            compiled.display_func(main).to_string(),
            reference.display_func(main).to_string()
        );
    }

    #[test]
    fn inlining_can_also_bloat() {
        // A large pure callee with many distinct callers: inlining all of
        // them duplicates the body and must grow the binary.
        let mut m = Module::new("m");
        let big = m.declare_function("big", 1, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, big);
            let p = b.param(0);
            let mut acc = p;
            for k in 1..40 {
                let c = b.iconst(k);
                let t = b.bin(BinOp::Mul, acc, c);
                acc = b.bin(BinOp::Xor, t, p);
            }
            b.ret(Some(acc));
        }
        let mut sites = Vec::new();
        for i in 0..6 {
            let caller = m.declare_function(format!("caller{i}"), 1, Linkage::Public);
            let mut b = FuncBuilder::new(&mut m, caller);
            let p = b.param(0);
            let (v, s) = b.call_with_site(big, &[p]);
            b.ret(Some(v));
            sites.push(s);
        }
        let mut none = m.clone();
        optimize_os_no_inline(&mut none, PipelineOptions::default());
        let mut all = m.clone();
        let oracle = ForcedDecisions::new(sites.iter().map(|&s| (s, Decision::Inline)).collect());
        optimize_os(&mut all, &oracle, PipelineOptions::default());
        assert!(
            text_size(&all, &X86Like) > text_size(&none, &X86Like),
            "duplicating a big callee six times should bloat"
        );
    }
}
