//! The fuzz driver: random modules × random configurations through both
//! oracles, with reduction and reproducer files for anything that fails.
//!
//! Everything derives from one seed: case *i* samples its generator
//! parameters from `seed + i` ([`GenParams::fuzz_sample`]), and the
//! configurations probed on that module come from the same stream. A
//! failure record therefore names the one number needed to replay it.

use crate::chaoscheck::check_chaos;
use crate::cyclecheck::check_cycles;
use crate::inject::BuggyEvaluator;
use crate::oracle::{check_semantics, Limits};
use crate::parcheck::check_parallel_search;
use crate::reduce::{reduce, Reduction};
use crate::schedcheck::check_scheduling;
use crate::servecheck::check_serve_equivalence;
use crate::sizecheck::check_sizes;
use crate::storecheck::check_store_equivalence;
use optinline_callgraph::Decision;
use optinline_codegen::X86Like;
use optinline_core::{InliningConfiguration, SizeEvaluator, WorkerPool};
use optinline_ir::{FuncId, Inst, Module};
use optinline_workloads::rng::StdRng;
use optinline_workloads::{generate_file, GenParams};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Knobs for one fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Module × configuration-set cases to run.
    pub cases: usize,
    /// Base seed; case *i* uses `seed + i`.
    pub seed: u64,
    /// Random configurations probed per module (plus the clean slate and
    /// the everything-inlined corners, always included).
    pub configs_per_module: usize,
    /// Shrink failing pairs with the delta-debugging reducer.
    pub reduce: bool,
    /// Where to write reproducer files (created on first failure); `None`
    /// disables writing.
    pub repro_dir: Option<PathBuf>,
    /// Interpreter budgets for the semantic oracle.
    pub limits: Limits,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cases: 100,
            seed: 0xC0FFEE,
            configs_per_module: 4,
            reduce: false,
            repro_dir: None,
            limits: Limits::default(),
        }
    }
}

/// One failing case, as recorded in the report (and on disk).
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// The case seed — rerun with this to replay.
    pub case_seed: u64,
    /// Human-readable description of the failure.
    pub detail: String,
    /// Function count of the reduced module, when reduction ran.
    pub reduced_functions: Option<usize>,
    /// Reproducer file, when one was written.
    pub repro_path: Option<PathBuf>,
}

/// Aggregate outcome of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: usize,
    /// Entry × input semantic comparisons performed.
    pub semantic_comparisons: usize,
    /// Path × configuration size comparisons performed.
    pub size_comparisons: usize,
    /// Drain × configuration byte-identity comparisons performed (the
    /// `-Os` compile and the heuristics' drain, worklist vs sweep).
    pub scheduling_comparisons: usize,
    /// Parallel DAG executor vs sequential Algorithm 1 comparisons
    /// performed (worker counts × cold/warm sessions).
    pub parallel_comparisons: usize,
    /// Store-backed search vs no-persist reference comparisons performed
    /// (cold directory + warm reopen).
    pub store_comparisons: usize,
    /// Daemon-transported vs direct-handler comparisons performed
    /// (request kinds × cold/warm, dedup fan-out, drain).
    pub serve_comparisons: usize,
    /// Cycles-oracle comparisons performed (behaviour preservation plus
    /// measurement determinism across evaluator shapes and the pool).
    pub cycle_comparisons: usize,
    /// Chaos-oracle assertions performed (no-hang, survivor byte-identity,
    /// terminal accounting, crash-recovery verification).
    pub chaos_comparisons: usize,
    /// Configurations observed to move the cycle count under `-Os` —
    /// recorded evidence that "cycles may change" is exercised, never a
    /// failure.
    pub cycles_changed: usize,
    /// Comparisons skipped as inconclusive (fuel/stack).
    pub inconclusive: usize,
    /// Configurations skipped because their estimated inlining expansion
    /// exceeded the work budget (dense module × aggressive config).
    pub skipped_oversized: usize,
    /// Semantic-oracle failures.
    pub semantic_failures: Vec<FailureRecord>,
    /// Size-oracle failures.
    pub size_failures: Vec<FailureRecord>,
    /// Scheduling-oracle failures (worklist vs whole-module sweep
    /// divergence).
    pub scheduling_failures: Vec<FailureRecord>,
    /// Parallel-search-oracle failures (DAG executor vs sequential walk).
    pub parallel_failures: Vec<FailureRecord>,
    /// Store-oracle failures (persistent store vs no-persist run).
    pub store_failures: Vec<FailureRecord>,
    /// Serve-oracle failures (daemon transport visible in the results).
    pub serve_failures: Vec<FailureRecord>,
    /// Cycles-oracle failures (behaviour change or a non-deterministic
    /// measurement).
    pub cycle_failures: Vec<FailureRecord>,
    /// Chaos-oracle failures (a hang, a divergent survivor, leaked
    /// accounting, or unclean crash recovery).
    pub chaos_failures: Vec<FailureRecord>,
}

impl FuzzReport {
    /// `true` iff no oracle reported anything.
    pub fn clean(&self) -> bool {
        self.semantic_failures.is_empty()
            && self.size_failures.is_empty()
            && self.scheduling_failures.is_empty()
            && self.parallel_failures.is_empty()
            && self.store_failures.is_empty()
            && self.serve_failures.is_empty()
            && self.cycle_failures.is_empty()
            && self.chaos_failures.is_empty()
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz: {} cases, {} semantic comparisons ({} inconclusive), {} size comparisons, \
             {} scheduling comparisons, {} parallel-search comparisons, {} store comparisons, \
             {} serve comparisons, {} cycle comparisons ({} configs moved cycles), \
             {} chaos assertions",
            self.cases,
            self.semantic_comparisons,
            self.inconclusive,
            self.size_comparisons,
            self.scheduling_comparisons,
            self.parallel_comparisons,
            self.store_comparisons,
            self.serve_comparisons,
            self.cycle_comparisons,
            self.cycles_changed,
            self.chaos_comparisons
        );
        let _ = writeln!(
            out,
            "semantic divergences: {}   size mismatches: {}   scheduling divergences: {}   \
             parallel divergences: {}   store divergences: {}   serve divergences: {}   \
             cycle divergences: {}   chaos failures: {}",
            self.semantic_failures.len(),
            self.size_failures.len(),
            self.scheduling_failures.len(),
            self.parallel_failures.len(),
            self.store_failures.len(),
            self.serve_failures.len(),
            self.cycle_failures.len(),
            self.chaos_failures.len()
        );
        if self.skipped_oversized > 0 {
            let _ = writeln!(
                out,
                "skipped {} oversized configuration(s) (estimated inlining expansion over budget)",
                self.skipped_oversized
            );
        }
        for f in self
            .semantic_failures
            .iter()
            .chain(&self.size_failures)
            .chain(&self.scheduling_failures)
            .chain(&self.parallel_failures)
            .chain(&self.store_failures)
            .chain(&self.serve_failures)
            .chain(&self.cycle_failures)
            .chain(&self.chaos_failures)
        {
            let _ = writeln!(out, "  [seed {}] {}", f.case_seed, f.detail);
            if let Some(n) = f.reduced_functions {
                let _ = writeln!(out, "    reduced to {n} function(s)");
            }
            if let Some(p) = &f.repro_path {
                let _ = writeln!(out, "    repro: {}", p.display());
            }
        }
        out
    }
}

/// The configurations probed on one module: both corners plus seeded
/// random subsets.
fn sample_configs(module: &Module, count: usize, rng: &mut StdRng) -> Vec<InliningConfiguration> {
    let sites = module.inlinable_sites();
    let all_in = InliningConfiguration::from_decisions(
        sites.iter().map(|&s| (s, Decision::Inline)).collect(),
    );
    let mut configs = vec![InliningConfiguration::clean_slate(), all_in];
    for _ in 0..count {
        configs.push(InliningConfiguration::from_decisions(
            sites
                .iter()
                .map(|&s| {
                    let d = if rng.gen_bool(0.5) { Decision::Inline } else { Decision::NoInline };
                    (s, d)
                })
                .collect(),
        ));
    }
    configs.dedup();
    configs
}

/// Instruction-count budget above which a configuration is skipped; the
/// pipeline over a module this large is no longer a smoke-test-sized unit
/// of work, and nested inlining on dense random modules can expand
/// exponentially.
const EXPANSION_BUDGET: u64 = 20_000;

/// Upper-bounds the module's instruction count after inlining under
/// `config`, without running the inliner: an inlined call contributes its
/// callee's *expanded* size (nesting multiplies, exactly like the real
/// expansion), and cycles are cut by charging an on-stack callee its flat
/// size once (the inliner's depth-1 recursion bound does the same).
fn expansion_estimate(module: &Module, config: &InliningConfiguration) -> u64 {
    fn expanded(
        module: &Module,
        config: &InliningConfiguration,
        fid: FuncId,
        memo: &mut HashMap<FuncId, u64>,
        stack: &mut BTreeSet<FuncId>,
    ) -> u64 {
        if let Some(&v) = memo.get(&fid) {
            return v;
        }
        let flat = module.func(fid).inst_count() as u64;
        if !stack.insert(fid) {
            return flat;
        }
        let mut total = flat;
        for block in &module.func(fid).blocks {
            for inst in &block.insts {
                if let Inst::Call { callee, site, .. } = inst {
                    if config.decisions().get(site) == Some(&Decision::Inline) {
                        total =
                            total.saturating_add(expanded(module, config, *callee, memo, stack));
                    }
                }
            }
        }
        stack.remove(&fid);
        memo.insert(fid, total);
        total
    }
    let mut memo = HashMap::new();
    let mut total = 0u64;
    for fid in module.func_ids() {
        total =
            total.saturating_add(expanded(module, config, fid, &mut memo, &mut BTreeSet::new()));
    }
    total
}

/// Writes a reproducer: the (possibly reduced) module in textual IR with a
/// commented header naming the failure and configuration.
fn write_repro(
    dir: &Path,
    label: &str,
    case_seed: u64,
    detail: &str,
    module: &Module,
    config: &InliningConfiguration,
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}-seed{case_seed}.ir"));
    let mut text = String::new();
    let _ = writeln!(text, "# {detail}");
    let _ = writeln!(text, "# case seed: {case_seed}");
    let _ = writeln!(text, "# configuration: {config}");
    let _ = writeln!(text, "{module}");
    fs::write(&path, text)?;
    Ok(path)
}

fn record_failure(
    options: &FuzzOptions,
    label: &str,
    case_seed: u64,
    detail: String,
    module: &Module,
    config: &InliningConfiguration,
    is_failing: &mut dyn FnMut(&Module, &InliningConfiguration) -> bool,
) -> std::io::Result<FailureRecord> {
    let (module, config, reduced_functions) = if options.reduce && is_failing(module, config) {
        let red = reduce(module, config, is_failing);
        let n = red.functions_after;
        (red.module, red.config, Some(n))
    } else {
        (module.clone(), config.clone(), None)
    };
    let repro_path = match &options.repro_dir {
        Some(dir) => Some(write_repro(dir, label, case_seed, &detail, &module, &config)?),
        None => None,
    };
    Ok(FailureRecord { case_seed, detail, reduced_functions, repro_path })
}

/// Runs the full differential fuzz loop; see the module docs.
pub fn run_fuzz(options: &FuzzOptions) -> std::io::Result<FuzzReport> {
    let mut report = FuzzReport::default();
    let pool = WorkerPool::global();
    for i in 0..options.cases {
        let case_seed = options.seed.wrapping_add(i as u64);
        let module = generate_file(&GenParams::fuzz_sample(case_seed));
        let mut rng = StdRng::seed_from_u64(case_seed ^ 0xfacade);
        let sampled = sample_configs(&module, options.configs_per_module, &mut rng);
        let n_sampled = sampled.len();
        let configs: Vec<InliningConfiguration> = sampled
            .into_iter()
            .filter(|c| expansion_estimate(&module, c) <= EXPANSION_BUDGET)
            .collect();
        report.skipped_oversized += n_sampled - configs.len();
        report.cases += 1;

        for config in &configs {
            let sem = check_semantics(&module, config, &options.limits, case_seed);
            report.semantic_comparisons += sem.comparisons;
            report.inconclusive += sem.inconclusive;
            if let Some(first) = sem.divergences.first() {
                let limits = options.limits;
                report.semantic_failures.push(record_failure(
                    options,
                    "semantic",
                    case_seed,
                    format!("semantic oracle: {first}"),
                    &module,
                    config,
                    &mut |m, c| !check_semantics(m, c, &limits, case_seed).divergences.is_empty(),
                )?);
            }
        }

        let sched = check_scheduling(&module, &configs);
        report.scheduling_comparisons += sched.comparisons;
        if let Some(first) = sched.mismatches.first() {
            let bad_config = first.config.clone();
            let detail = first.to_string();
            report.scheduling_failures.push(record_failure(
                options,
                "scheduling",
                case_seed,
                detail,
                &module,
                &bad_config,
                &mut |m, c| {
                    !check_scheduling(m, std::slice::from_ref(&c.clone())).mismatches.is_empty()
                },
            )?);
        }

        if let Some(par) = check_parallel_search(&module, case_seed) {
            report.parallel_comparisons += par.comparisons;
            if let Some(first) = par.mismatches.first() {
                let detail = first.to_string();
                report.parallel_failures.push(record_failure(
                    options,
                    "parallel",
                    case_seed,
                    detail,
                    &module,
                    &InliningConfiguration::clean_slate(),
                    &mut |m, _| {
                        check_parallel_search(m, case_seed)
                            .map(|r| !r.mismatches.is_empty())
                            .unwrap_or(false)
                    },
                )?);
            }
        }

        if let Some(st) = check_store_equivalence(&module, case_seed) {
            report.store_comparisons += st.comparisons;
            if let Some(first) = st.mismatches.first() {
                let detail = first.to_string();
                report.store_failures.push(record_failure(
                    options,
                    "store",
                    case_seed,
                    detail,
                    &module,
                    &InliningConfiguration::clean_slate(),
                    &mut |m, _| {
                        check_store_equivalence(m, case_seed)
                            .map(|r| !r.mismatches.is_empty())
                            .unwrap_or(false)
                    },
                )?);
            }
        }

        // The serve oracle boots a real daemon (socket + threads) per
        // run, so it samples every fourth case — still dozens of boots
        // per default fuzz run, deterministic in the seed.
        if case_seed.is_multiple_of(4) {
            if let Some(sv) = check_serve_equivalence(&module, case_seed) {
                report.serve_comparisons += sv.comparisons;
                if let Some(first) = sv.mismatches.first() {
                    let detail = first.to_string();
                    report.serve_failures.push(record_failure(
                        options,
                        "serve",
                        case_seed,
                        detail,
                        &module,
                        &InliningConfiguration::clean_slate(),
                        &mut |m, _| {
                            check_serve_equivalence(m, case_seed)
                                .map(|r| !r.mismatches.is_empty())
                                .unwrap_or(false)
                        },
                    )?);
                }
            }
        }

        // The chaos oracle boots a fault-injected daemon and inflicts
        // crash artifacts on a store per run, so it samples a quarter of
        // the corpus (offset from the serve oracle's quarter). It needs
        // no module: its workload derives entirely from the case seed.
        if case_seed % 4 == 1 {
            let ch = check_chaos(case_seed);
            report.chaos_comparisons += ch.comparisons;
            if let Some(first) = ch.mismatches.first() {
                report.chaos_failures.push(FailureRecord {
                    case_seed,
                    detail: first.to_string(),
                    reduced_functions: None,
                    repro_path: None,
                });
            }
        }

        // The cycles oracle interprets every public entry per
        // configuration on top of the compiles, so it samples every
        // other case — still half the corpus, deterministic in the seed.
        if case_seed.is_multiple_of(2) {
            let cy = check_cycles(&module, &configs, Some(pool));
            report.cycle_comparisons += cy.comparisons;
            report.cycles_changed += cy.cycles_changed;
            if let Some(first) = cy.mismatches.first() {
                let bad_config = first.config.clone();
                let detail = first.to_string();
                report.cycle_failures.push(record_failure(
                    options,
                    "cycles",
                    case_seed,
                    detail,
                    &module,
                    &bad_config,
                    &mut |m, c| {
                        !check_cycles(m, std::slice::from_ref(&c.clone()), None)
                            .mismatches
                            .is_empty()
                    },
                )?);
            }
        }

        let sizes = check_sizes(&module, &configs, Some(pool));
        report.size_comparisons += sizes.comparisons;
        if let Some(first) = sizes.mismatches.first() {
            let bad_config = first.config.clone();
            let detail = first.to_string();
            report.size_failures.push(record_failure(
                options,
                "size",
                case_seed,
                detail,
                &module,
                &bad_config,
                &mut |m, c| {
                    !check_sizes(m, std::slice::from_ref(&c.clone()), None).mismatches.is_empty()
                },
            )?);
        }
    }
    Ok(report)
}

/// Outcome of the seeded-bug reducer demonstration.
#[derive(Clone, Debug)]
pub struct DemoReport {
    /// Function count of the generated module.
    pub functions_before: usize,
    /// Function count of the minimized reproducer.
    pub functions_after: usize,
    /// Decisions left in the minimized configuration.
    pub config_decisions: usize,
    /// Predicate evaluations the reduction spent.
    pub predicate_runs: usize,
    /// The minimized reproducer.
    pub reduction: Reduction,
    /// Reproducer file, when a directory was given.
    pub repro_path: Option<PathBuf>,
}

/// End-to-end proof that the harness catches and shrinks a real bug: seed
/// a fast-path size lie ([`BuggyEvaluator`], marker `f3`, +17 bytes), let
/// the size oracle flag it, and reduce the trigger. The result should be a
/// handful of functions — the marker plus one inlinable call — down from a
/// whole generated module.
pub fn run_reducer_demo(seed: u64, repro_dir: Option<&Path>) -> std::io::Result<DemoReport> {
    const MARKER: &str = "f3";
    const BIAS: u64 = 17;
    let module = generate_file(&GenParams::named("demo", seed));
    assert!(module.func_by_name(MARKER).is_some(), "demo module must contain {MARKER}");
    let sites = module.inlinable_sites();
    let config = InliningConfiguration::from_decisions(
        sites.iter().map(|&s| (s, Decision::Inline)).collect(),
    );

    // The failure predicate is the *size oracle itself*, pointed at the
    // buggy evaluator: fast path disagrees with the honest reference.
    let mut is_failing = |m: &Module, c: &InliningConfiguration| {
        let ev = BuggyEvaluator::new(
            SizeEvaluator::new(m.clone(), Box::new(X86Like), true),
            MARKER,
            BIAS,
        );
        optinline_core::Evaluator::size_of(&ev, c) != ev.full_size_of(c)
    };
    let reduction = reduce(&module, &config, &mut is_failing);

    let repro_path = match repro_dir {
        Some(dir) => Some(write_repro(
            dir,
            "demo",
            seed,
            &format!("seeded bug: size_of inflated by {BIAS} when `{MARKER}` present and ≥1 site inlined"),
            &reduction.module,
            &reduction.config,
        )?),
        None => None,
    };
    Ok(DemoReport {
        functions_before: reduction.functions_before,
        functions_after: reduction.functions_after,
        config_decisions: reduction.config.decisions().len(),
        predicate_runs: reduction.predicate_runs,
        reduction,
        repro_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_fuzz_run_is_clean() {
        let report = run_fuzz(&FuzzOptions {
            cases: 8,
            seed: 1,
            configs_per_module: 3,
            ..Default::default()
        })
        .unwrap();
        assert!(report.clean(), "{}", report.render());
        assert!(report.semantic_comparisons > 0);
        assert!(report.size_comparisons > 0);
        assert!(report.cycle_comparisons > 0, "sampled cycles oracle never ran");
    }

    #[test]
    fn the_demo_bug_reduces_to_a_tiny_module() {
        let demo = run_reducer_demo(42, None).unwrap();
        assert!(
            demo.functions_after <= 3,
            "expected ≤ 3 functions, got {} (from {})",
            demo.functions_after,
            demo.functions_before
        );
        assert!(demo.functions_after < demo.functions_before);
        assert_eq!(demo.reduction.config.inlined_count(), 1, "one inlined site should remain");
        assert!(demo.reduction.module.func_by_name("f3").is_some());
    }

    #[test]
    fn expansion_estimate_grows_with_inlining_and_matches_flat_baseline() {
        let m = generate_file(&GenParams::named("est", 3));
        let flat: u64 = m.func_ids().map(|f| m.func(f).inst_count() as u64).sum();
        assert_eq!(
            expansion_estimate(&m, &InliningConfiguration::clean_slate()),
            flat,
            "no inlining → flat instruction count"
        );
        let sites = m.inlinable_sites();
        let all_in = InliningConfiguration::from_decisions(
            sites.iter().map(|&s| (s, Decision::Inline)).collect(),
        );
        assert!(expansion_estimate(&m, &all_in) > flat, "inlining must add copies");
    }

    #[test]
    fn repro_files_round_trip_through_the_parser() {
        let dir = std::env::temp_dir().join(format!("optinline-check-test-{}", std::process::id()));
        let demo = run_reducer_demo(7, Some(&dir)).unwrap();
        let path = demo.repro_path.expect("repro written");
        let text = fs::read_to_string(&path).unwrap();
        // Comment lines carry the metadata; the module body must parse.
        let body: String =
            text.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>().join("\n");
        let parsed = optinline_ir::parse_module(&body).expect("repro parses");
        assert!(parsed.func_by_name("f3").is_some());
        let _ = fs::remove_dir_all(&dir);
    }
}
