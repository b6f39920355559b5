//! # optinline-cli
//!
//! The command-line driver a downstream user actually touches: it reads
//! modules in the textual IR format (see `optinline-ir`'s printer/parser),
//! runs the size pipeline under a chosen inlining strategy, searches for
//! the optimal configuration, autotunes, interprets, and generates
//! corpora.
//!
//! ```text
//! optinline gen --seed 7 --internal 8 -o demo.ir
//! optinline stats demo.ir
//! optinline optimize demo.ir --strategy heuristic --target x86
//! optinline search demo.ir --bits 16
//! optinline autotune demo.ir --rounds 4 --init both
//! optinline run demo.ir
//! ```
//!
//! The library half exposes each subcommand as a function returning its
//! report as a `String`, so the whole surface is unit-testable without
//! spawning processes; `main.rs` is a thin argv shim.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod serve;

use optinline_callgraph::{component_count, InlineGraph, PartitionStrategy};
use optinline_codegen::{text_size, Target, WasmLike, X86Like};
use optinline_core::autotune::Autotuner;
use optinline_core::tree::{evaluate_inlining_tree, space_size, try_build_inlining_tree};
use optinline_core::{
    cache_meta, domain_fingerprint, evaluate_inlining_tree_dag, module_cycles, objective_scope,
    Evaluator, InliningConfiguration, InliningTree, ParetoFront, PersistentCache,
    PersistentEvaluator, SearchSession, SizeEvaluator, SpeedEvaluator, WorkerPool,
};
use optinline_heuristics::{baselines, CostModelInliner, TrialInliner};
use optinline_ir::{parse_module, Measurement, Module};

pub use optinline_core::Objective;
use optinline_opt::{optimize_os_report, ForcedDecisions, PipelineOptions};
use optinline_serve::{Reply, RequestKind};
use optinline_store::LocalStore;
use serve::HeuristicMap;
use std::error::Error;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A boxed error with message context, the CLI's uniform failure type.
pub type CliError = Box<dyn Error>;

/// A request refused before any work. The budget checks sit in the
/// command bodies, which the CLI and the daemon's handler both reach
/// through [`Evaluation`] and library callers through
/// [`cmd_search_measured`] and [`cmd_autotune_measured`], so one check
/// covers them all; the retired wire flags are refused by
/// [`Evaluation::decode`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// `--bits` of 128 or more: the evaluation budget `2^bits` does not
    /// fit the `u128` the tree builder counts in.
    BitsOutOfRange(u32),
    /// `--rounds 0` or above 256: the autotuner needs at least one round,
    /// and its hill climb can keep flipping sites in every round, so an
    /// unbounded count could pin an evaluation slot indefinitely. 256 is
    /// 64 times the paper's 4-round runs.
    RoundsOutOfRange(usize),
    /// `--jobs 0` or above 256: a search runs one thread per job, needs at
    /// least the caller's, and 256 is the largest compile farm the
    /// experiments model.
    JobsOutOfRange(usize),
    /// `full_sweep: true` on an `optimize`: the whole-module sweep
    /// scheduler was removed.
    FullSweepRemoved,
    /// `full_eval: true` on a `search` or `autotune`: whole-module
    /// evaluation was removed, and both always evaluate per component.
    FullEvalRemoved,
}

/// The most `--jobs` a search accepts (see [`RequestError::JobsOutOfRange`]).
const MAX_JOBS: usize = 256;

/// The most `--rounds` an autotune accepts (see
/// [`RequestError::RoundsOutOfRange`]).
const MAX_ROUNDS: usize = 256;

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::BitsOutOfRange(bits) => write!(
                f,
                "--bits {bits} is out of range: the evaluation budget 2^bits needs bits below {}",
                u128::BITS
            ),
            RequestError::RoundsOutOfRange(rounds) => write!(
                f,
                "--rounds {rounds} is out of range: autotuning runs at least 1, \
                 at most {MAX_ROUNDS}"
            ),
            RequestError::JobsOutOfRange(jobs) => write!(
                f,
                "--jobs {jobs} is out of range: a search runs one thread per job, \
                 at least 1, at most {MAX_JOBS}"
            ),
            RequestError::FullSweepRemoved => f.write_str(
                "the full-sweep scheduler was removed: optimize always drains the change-driven \
                 worklist",
            ),
            RequestError::FullEvalRemoved => f.write_str(
                "whole-module evaluation was removed: search and autotune always evaluate per \
                 component",
            ),
        }
    }
}

impl Error for RequestError {}

/// Which size target to measure against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TargetChoice {
    /// The x86-64-flavoured model (default).
    #[default]
    X86,
    /// The WebAssembly-flavoured model.
    Wasm,
}

impl TargetChoice {
    /// Parses `x86` / `wasm`.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "x86" => Ok(TargetChoice::X86),
            "wasm" => Ok(TargetChoice::Wasm),
            other => Err(format!("unknown target `{other}` (expected x86|wasm)").into()),
        }
    }

    fn boxed(self) -> Box<dyn Target> {
        match self {
            TargetChoice::X86 => Box::new(X86Like),
            TargetChoice::Wasm => Box::new(WasmLike),
        }
    }

    fn as_dyn(&self) -> &'static dyn Target {
        match self {
            TargetChoice::X86 => &X86Like,
            TargetChoice::Wasm => &WasmLike,
        }
    }
}

/// Which inlining strategy `optimize` should execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StrategyChoice {
    /// Inline nothing.
    Never,
    /// Inline everything (recursion-bounded).
    Always,
    /// The LLVM-`-Os`-like cost model (default).
    #[default]
    Heuristic,
    /// Greedy measured trials.
    Trial,
}

impl StrategyChoice {
    /// Parses `never` / `always` / `heuristic` / `trial`.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "never" => Ok(StrategyChoice::Never),
            "always" => Ok(StrategyChoice::Always),
            "heuristic" => Ok(StrategyChoice::Heuristic),
            "trial" => Ok(StrategyChoice::Trial),
            other => {
                Err(format!("unknown strategy `{other}` (expected never|always|heuristic|trial)")
                    .into())
            }
        }
    }

    /// Computes this strategy's configuration for a module.
    pub fn configuration(self, module: &Module, target: &dyn Target) -> InliningConfiguration {
        let map = match self {
            StrategyChoice::Never => baselines::never_inline(module),
            StrategyChoice::Always => baselines::always_inline(module),
            StrategyChoice::Heuristic => CostModelInliner::default().decide(module, target),
            StrategyChoice::Trial => TrialInliner.decide(module, target),
        };
        InliningConfiguration::from_decisions(map)
    }
}

/// Reporting, execution and store options for `search` / `autotune`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvalOptions {
    /// Append the evaluator's counter line to the report (`--stats`).
    pub show_stats: bool,
    /// Append the aggregated per-pass / analysis-cache table
    /// (`--pass-stats`).
    pub show_pass_stats: bool,
    /// Thread count for the parallel tree search (`--jobs`). `None` uses
    /// the process-wide pool; `Some(1)` takes the sequential
    /// `evaluate_inlining_tree` path exactly; `Some(n)` forks the search
    /// over the caller plus a private pool of `n - 1` workers. A search
    /// refuses more than 256 ([`RequestError::JobsOutOfRange`]).
    pub jobs: Option<usize>,
    /// Directory for the persistent cross-run evaluation cache
    /// (`--cache-dir`). `None` disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Disable the persistent cache even when `cache_dir` is set
    /// (`--no-persist`).
    pub no_persist: bool,
    /// Byte budget for the evaluation store (`--cache-budget-bytes`):
    /// after the run, least-recently-used scope logs are evicted until the
    /// cache directory fits. `None` leaves the store unbounded.
    pub cache_budget_bytes: Option<u64>,
    /// What to optimize (`--objective`): size (default, byte-identical to
    /// the historical output), speed, or the Pareto front over both.
    pub objective: Objective,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            show_stats: false,
            show_pass_stats: false,
            jobs: None,
            cache_dir: None,
            no_persist: false,
            cache_budget_bytes: None,
            objective: Objective::Size,
        }
    }
}

/// Reporting options for `optimize`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct OptimizeOptions {
    /// Append the per-pass invocation/changed table plus analysis-cache
    /// and scheduling counters to the report (`--pass-stats`).
    pub pass_stats: bool,
    /// What to measure (`--objective`): `Size` keeps the historical report
    /// byte-identical; cycles-aware objectives append interpreted-cycle
    /// lines for the strategy's one configuration.
    pub objective: Objective,
}

/// The running process's own settings for `search` and `autotune`. They
/// never travel on the wire: a daemon applies its own.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalSettings {
    /// `--jobs` ([`EvalOptions::jobs`]).
    pub jobs: Option<usize>,
    /// `--cache-dir` ([`EvalOptions::cache_dir`]).
    pub cache_dir: Option<PathBuf>,
    /// `--no-persist` ([`EvalOptions::no_persist`]).
    pub no_persist: bool,
    /// `--cache-budget-bytes` ([`EvalOptions::cache_budget_bytes`]).
    pub cache_budget_bytes: Option<u64>,
}

/// Parses a module from textual IR, verifying it.
pub fn load_module(source: &str) -> Result<Module, CliError> {
    let module = parse_module(source)?;
    optinline_ir::verify_module(&module)?;
    Ok(module)
}

/// `optinline print` — parse, verify, pretty-print (round-trip check).
pub fn cmd_print(source: &str) -> Result<String, CliError> {
    let module = load_module(source)?;
    Ok(module.to_string())
}

/// `optinline stats` — structural summary of a module.
pub fn cmd_stats(source: &str) -> Result<String, CliError> {
    let module = load_module(source)?;
    let graph = InlineGraph::from_module(&module);
    let sites = module.inlinable_sites().len();
    let mut out = String::new();
    let _ = writeln!(out, "module:              {}", module.name);
    let _ = writeln!(out, "functions:           {}", module.func_count());
    let _ = writeln!(out, "instructions:        {}", module.inst_count());
    let _ = writeln!(out, "globals:             {}", module.globals().len());
    let _ = writeln!(out, "inlinable sites:     {sites}");
    let _ = writeln!(out, "graph components:    {}", component_count(&graph));
    let _ =
        writeln!(out, "bridge groups:       {}", optinline_callgraph::bridge_groups(&graph).len());
    let _ = writeln!(out, "naive space:         2^{sites}");
    match try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1 << 22) {
        Some(tree) => {
            let _ = writeln!(out, "recursive space:     {} evaluations", space_size(&tree));
        }
        None => {
            let _ = writeln!(out, "recursive space:     > 2^22 (not exhaustively explorable)");
        }
    }
    let _ = writeln!(out, "x86-like text size:  {} B (unoptimized)", text_size(&module, &X86Like));
    let _ = writeln!(out, "wasm-like text size: {} B (unoptimized)", text_size(&module, &WasmLike));
    Ok(out)
}

/// `optinline optimize` — run the pipeline under a strategy; returns the
/// report and the optimized module's text.
pub fn cmd_optimize(
    source: &str,
    strategy: StrategyChoice,
    target: TargetChoice,
    opts: OptimizeOptions,
) -> Result<(String, String), CliError> {
    let (report, module, _) = cmd_optimize_measured(source, strategy, target, opts)?;
    Ok((report, module))
}

/// [`cmd_optimize`], additionally returning the optimized module's
/// [`Measurement`] (what the serve protocol reports on `done` events).
pub fn cmd_optimize_measured(
    source: &str,
    strategy: StrategyChoice,
    target: TargetChoice,
    opts: OptimizeOptions,
) -> Result<(String, String, Measurement), CliError> {
    optimize_with(source, strategy, target, opts, None)
}

/// The heuristic baseline's configuration for `module`: read through the
/// daemon's warm map when there is one, under the key `domain` returns
/// (the module's evaluation-domain fingerprint); computed afresh
/// in-process.
fn heuristic_configuration(
    module: &Module,
    target: &dyn Target,
    warm: Option<&HeuristicMap>,
    domain: impl FnOnce() -> u128,
) -> InliningConfiguration {
    match warm {
        Some(map) => map.configuration(domain(), module, target),
        None => StrategyChoice::Heuristic.configuration(module, target),
    }
}

/// The one body of `optimize`, in-process (`warm` is `None`) and served.
fn optimize_with(
    source: &str,
    strategy: StrategyChoice,
    target: TargetChoice,
    opts: OptimizeOptions,
    warm: Option<&HeuristicMap>,
) -> Result<(String, String, Measurement), CliError> {
    let module = load_module(source)?;
    let t = target.as_dyn();
    let config = match strategy {
        StrategyChoice::Heuristic => heuristic_configuration(&module, t, warm, || {
            domain_fingerprint(&module, t, PipelineOptions::default())
        }),
        other => other.configuration(&module, t),
    };
    let mut optimized = module.clone();
    let report = optimize_os_report(
        &mut optimized,
        &ForcedDecisions::new(config.decisions().clone()),
        PipelineOptions::default(),
    );
    let before = text_size(&module, t);
    let after = text_size(&optimized, t);
    let mut out = String::new();
    let _ = writeln!(out, "strategy:        {strategy:?}");
    let _ = writeln!(out, "target:          {}", t.name());
    let _ = writeln!(
        out,
        "sites inlined:   {} of {}",
        config.inlined_count(),
        config.decisions().len()
    );
    let _ = writeln!(out, "call expansions: {}", report.inlined);
    let _ = writeln!(
        out,
        "size:            {before} B -> {after} B ({:.1}%)",
        100.0 * after as f64 / before as f64
    );
    let measurement = if opts.objective.wants_cycles() {
        let cost = optinline_ir::interp::CostModel::default();
        let cycles_before = module_cycles(&module, &cost);
        let cycles_after = module_cycles(&optimized, &cost);
        let fmt = |c: Option<u64>| match c {
            Some(c) => c.to_string(),
            None => "n/a".to_string(),
        };
        let _ = writeln!(out, "objective:       {}", opts.objective);
        let _ = writeln!(out, "cycles:          {} -> {}", fmt(cycles_before), fmt(cycles_after));
        match cycles_after {
            Some(c) => Measurement::with_cycles(after, c),
            None => Measurement::size_only(after),
        }
    } else {
        Measurement::size_only(after)
    };
    if opts.pass_stats {
        out.push_str(&report.stats.render());
    }
    Ok((out, optimized.to_string(), measurement))
}

/// One search or autotune request: the module's evaluator, the request's
/// options, the column the report aligns its values at, and the daemon's
/// warm heuristic map (`None` in-process).
struct Request<'w> {
    ev: SizeEvaluator,
    eval: EvalOptions,
    column: usize,
    warm: Option<&'w HeuristicMap>,
}

impl<'w> Request<'w> {
    fn new(
        module: Module,
        target: TargetChoice,
        eval: EvalOptions,
        column: usize,
        warm: Option<&'w HeuristicMap>,
    ) -> Self {
        let ev = SizeEvaluator::new(module, target.boxed(), true);
        Request { ev, eval, column, warm }
    }

    /// The evaluator's domain fingerprint (module text + target + pipeline
    /// options): the key of the request's store scopes and of the warm
    /// heuristic map.
    fn domain(&self) -> u128 {
        self.ev.memo_scope().expect("a SizeEvaluator always names its domain")
    }

    /// The heuristic baseline's configuration.
    fn heuristic(&self) -> InliningConfiguration {
        heuristic_configuration(self.ev.module(), self.ev.target(), self.warm, || self.domain())
    }

    /// Runs `body` as one objective leg of the request: the one path by
    /// which `search` and `autotune` reach the evaluation store.
    ///
    /// With persistence on, the leg opens the objective's store scope,
    /// addressed by the evaluator's `memo_scope` fingerprint (module text +
    /// target + pipeline options): size keeps that historical scope, while
    /// cycles-carrying objectives get a scope derived from it plus the
    /// cost model, so size-only and speed entries never alias. `body`
    /// gets the evaluator answering from that scope first, with simulated
    /// cycles as the minimized scalar for cycles-carrying objectives
    /// ([`SpeedEvaluator`]; `measure` passes through it unchanged), and a
    /// fresh search session. The scope is flushed once `body` returns.
    ///
    /// The request's `last` leg also runs the post-run budget GC and
    /// returns the report's `--stats` / `--pass-stats` tail.
    fn leg<R>(
        &self,
        objective: Objective,
        last: bool,
        body: impl FnOnce(&dyn Evaluator, &SearchSession) -> R,
    ) -> Result<(R, String), CliError> {
        let cache = match (&self.eval.cache_dir, self.eval.no_persist) {
            (Some(dir), false) => {
                let fp = objective_scope(self.domain(), objective, self.ev.cost_model());
                // Recorded in the log and verified on reopen, so a
                // fingerprint collision or stale file restarts the scope
                // instead of serving another module's sizes.
                let meta = cache_meta(self.ev.module(), self.ev.target().name());
                Some(PersistentCache::open(dir, fp, &meta)?)
            }
            _ => None,
        };
        let persisted =
            cache.as_ref().map(|c| PersistentEvaluator::new(&self.ev, c, self.ev.sites().clone()));
        let base: &dyn Evaluator = match &persisted {
            Some(p) => p,
            None => &self.ev,
        };
        let speed =
            objective.wants_cycles().then(|| SpeedEvaluator::new(base, self.ev.cost_model()));
        let scalar: &dyn Evaluator = match &speed {
            Some(s) => s,
            None => base,
        };
        let session = SearchSession::new();
        let result = body(scalar, &session);
        // Commit buffered puts before the budget GC measures the directory.
        if let Some(c) = &cache {
            c.flush()?;
        }
        let mut tail = String::new();
        if !last {
            return Ok((result, tail));
        }
        if let (Some(c), Some(budget)) = (&cache, self.eval.cache_budget_bytes) {
            c.store().gc(budget)?;
        }
        if self.eval.show_stats {
            let mut stats = self.ev.stats();
            stats.executor = session.stats();
            if let Some(c) = &cache {
                stats.persist = c.stats();
                stats.store = c.store_stats();
            }
            let _ = writeln!(tail, "{:<w$}{}", "evaluator:", stats.render(), w = self.column);
        }
        if self.eval.show_pass_stats {
            tail.push_str(&self.ev.stats().pipeline.render());
        }
        Ok((result, tail))
    }
}

/// `size B, cycles cycles` — the two-metric report form.
fn fmt_measurement(m: Measurement) -> String {
    match m.cycles {
        Some(c) => format!("{} B, {c} cycles", m.size),
        None => format!("{} B, no cycles (nothing executable)", m.size),
    }
}

/// A measurement's minimized scalar: cycles, or size for a size-only
/// measurement and for a module with nothing executable (the fallback
/// [`SpeedEvaluator`] applies during searches and tuning).
fn scalar(m: Measurement) -> u64 {
    m.cycles.unwrap_or(m.size)
}

/// The unit a scalar objective's reports use.
fn unit(objective: Objective) -> &'static str {
    if objective.wants_cycles() {
        "cycles"
    } else {
        "B"
    }
}

/// A report body with its `--stats` tail and the request's measurement.
type Report = (String, String, Option<Measurement>);

/// `optinline search` — exhaustive optimum through the recursively
/// partitioned space, compared against the baseline strategies.
pub fn cmd_search(
    source: &str,
    bits: u32,
    target: TargetChoice,
    eval: EvalOptions,
) -> Result<String, CliError> {
    Ok(cmd_search_measured(source, bits, target, eval)?.0)
}

/// [`cmd_search`], additionally returning the winning measurement (what
/// the serve protocol reports on `done` events). Under `--objective
/// pareto` the measurement is the front's smallest-size point.
pub fn cmd_search_measured(
    source: &str,
    bits: u32,
    target: TargetChoice,
    eval: EvalOptions,
) -> Result<(String, Option<Measurement>), CliError> {
    search_with(source, bits, target, eval, None)
}

/// The one body of `search`, in-process (`warm` is `None`) and served.
fn search_with(
    source: &str,
    bits: u32,
    target: TargetChoice,
    eval: EvalOptions,
    warm: Option<&HeuristicMap>,
) -> Result<(String, Option<Measurement>), CliError> {
    let budget = 1u128.checked_shl(bits).ok_or(RequestError::BitsOutOfRange(bits))?;
    if let Some(jobs) = eval.jobs.filter(|&jobs| jobs == 0 || jobs > MAX_JOBS) {
        return Err(RequestError::JobsOutOfRange(jobs).into());
    }
    let module = load_module(source)?;
    let n = module.inlinable_sites().len();
    let graph = InlineGraph::from_module(&module);
    let tree =
        try_build_inlining_tree(&graph, PartitionStrategy::Paper, budget).ok_or_else(|| {
            format!(
                "recursively partitioned space exceeds 2^{bits} evaluations; \
                 raise --bits or use `autotune`"
            )
        })?;
    let req = Request::new(module, target, eval, 20, warm);
    let (body, tail, best) = match req.eval.objective {
        Objective::Pareto => search_front(&req, &tree)?,
        objective => search_scalar(&req, &tree, objective)?,
    };
    let per_leg = if req.eval.objective == Objective::Pareto { " per leg" } else { "" };
    let mut out = String::new();
    let _ = writeln!(out, "sites:              {n} (naive space 2^{n})");
    let _ = writeln!(out, "evaluations needed: {}{per_leg}", space_size(&tree));
    let _ = writeln!(out, "compilations done:  {} (memoized)", req.ev.stats().compiles);
    out.push_str(&body);
    out.push_str(&tail);
    Ok((out, best))
}

/// The size or speed search: the tree walk minimizing the objective's
/// scalar, compared against no inlining and the heuristic. The size
/// report is byte-identical to every release before measurements existed.
fn search_scalar(
    req: &Request,
    tree: &InliningTree,
    objective: Objective,
) -> Result<Report, CliError> {
    let ((config, best, none, heuristic), tail) = req.leg(objective, true, |ev, session| {
        let (config, best) = run_search(tree, ev, req.eval.jobs, session);
        // A speed search measures the winner's size beside its cycles.
        let best = if objective.wants_cycles() {
            ev.measure(&config, objective)
        } else {
            Measurement::size_only(best)
        };
        let heuristic = ev.measure(&req.heuristic(), objective);
        let none = ev.measure(&InliningConfiguration::clean_slate(), objective);
        (config, best, none, heuristic)
    })?;
    let unit = unit(objective);
    let mut out = String::new();
    if objective.wants_cycles() {
        let cycles =
            best.cycles.map_or("n/a (nothing executable; size used)".into(), |c| c.to_string());
        let _ = writeln!(out, "objective:          speed (simulated cycles)");
        let _ = writeln!(out, "optimal cycles:     {cycles}");
    }
    let _ = writeln!(out, "optimal size:       {} B", best.size);
    let _ = writeln!(out, "optimal config:     {config}");
    for (label, m) in [("no inlining:        ", none), ("heuristic:          ", heuristic)] {
        let pct = 100.0 * scalar(m) as f64 / scalar(best) as f64;
        let _ = writeln!(out, "{label}{} {unit} ({pct:.1}%)", scalar(m));
    }
    Ok((out, tail, Some(best)))
}

/// The pareto search: the exhaustive search once per scalar objective —
/// size in its own store scope, cycles in the shared cycles scope — then
/// both winners and both baselines folded into a dominance front. The
/// returned measurement is the front's smallest-size point.
fn search_front(req: &Request, tree: &InliningTree) -> Result<Report, CliError> {
    let (size_cfg, _) = req.leg(Objective::Size, false, |ev, session| {
        run_search(tree, ev, req.eval.jobs, session).0
    })?;
    let (front, tail) = req.leg(Objective::Pareto, true, |ev, session| {
        let (speed_cfg, _) = run_search(tree, ev, req.eval.jobs, session);
        let mut front = ParetoFront::new();
        let clean = InliningConfiguration::clean_slate();
        for config in [clean, req.heuristic(), size_cfg, speed_cfg] {
            let measured = ev.measure(&config, Objective::Pareto);
            front.insert(config, measured);
        }
        front
    })?;
    let mut out = String::new();
    let _ = writeln!(out, "objective:          pareto (size, cycles)");
    if let Some(p) = front.min_size() {
        let _ =
            writeln!(out, "size-optimal:       {} :: {}", fmt_measurement(p.measurement), p.config);
    }
    if let Some(p) = front.min_cycles() {
        let _ =
            writeln!(out, "speed-optimal:      {} :: {}", fmt_measurement(p.measurement), p.config);
    }
    let _ = writeln!(out, "pareto front:       {} point(s)", front.len());
    for p in front.points() {
        let _ = writeln!(out, "  - {} :: {}", fmt_measurement(p.measurement), p.config);
    }
    Ok((out, tail, front.min_size().map(|p| p.measurement)))
}

/// Dispatches a tree evaluation according to `--jobs`: `Some(1)` is the
/// sequential Algorithm 1 walk, anything else the parallel tree search — on
/// a private pool of `n - 1` workers for `Some(n)`, on the process-wide
/// pool for `None`. Either way the result is byte-identical.
fn run_search(
    tree: &InliningTree,
    evaluator: &dyn Evaluator,
    jobs: Option<usize>,
    session: &SearchSession,
) -> (InliningConfiguration, u64) {
    let base = InliningConfiguration::clean_slate();
    match jobs {
        Some(1) => evaluate_inlining_tree(tree, evaluator, base),
        Some(n) => {
            let pool = WorkerPool::new(n.saturating_sub(1));
            evaluate_inlining_tree_dag(tree, evaluator, base, &pool, Some(session))
        }
        None => {
            evaluate_inlining_tree_dag(tree, evaluator, base, WorkerPool::global(), Some(session))
        }
    }
}

/// Initialization mode for `autotune`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InitChoice {
    /// Start from all-no-inline.
    Clean,
    /// Start from the heuristic's decisions.
    Heuristic,
    /// Run both and keep the better (default; the paper's combined mode).
    #[default]
    Both,
}

impl InitChoice {
    /// Parses `clean` / `heuristic` / `both`.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "clean" => Ok(InitChoice::Clean),
            "heuristic" => Ok(InitChoice::Heuristic),
            "both" => Ok(InitChoice::Both),
            other => Err(format!("unknown init `{other}` (expected clean|heuristic|both)").into()),
        }
    }
}

/// `optinline autotune` — the paper's Algorithm 3 with round-based and
/// combined variants.
pub fn cmd_autotune(
    source: &str,
    rounds: usize,
    init: InitChoice,
    target: TargetChoice,
    eval: EvalOptions,
) -> Result<String, CliError> {
    Ok(cmd_autotune_measured(source, rounds, init, target, eval)?.0)
}

/// [`cmd_autotune`], additionally returning the tuned best's measurement
/// (what the serve protocol reports on `done` events). Under `--objective
/// pareto` the measurement is the front's smallest-size point; `None`
/// when the module has nothing to tune.
pub fn cmd_autotune_measured(
    source: &str,
    rounds: usize,
    init: InitChoice,
    target: TargetChoice,
    eval: EvalOptions,
) -> Result<(String, Option<Measurement>), CliError> {
    autotune_with(source, rounds, init, target, eval, None)
}

/// The one body of `autotune`, in-process (`warm` is `None`) and served.
fn autotune_with(
    source: &str,
    rounds: usize,
    init: InitChoice,
    target: TargetChoice,
    eval: EvalOptions,
    warm: Option<&HeuristicMap>,
) -> Result<(String, Option<Measurement>), CliError> {
    if !(1..=MAX_ROUNDS).contains(&rounds) {
        return Err(RequestError::RoundsOutOfRange(rounds).into());
    }
    let req = Request::new(load_module(source)?, target, eval, 17, warm);
    if req.ev.sites().is_empty() {
        return Ok((NOTHING_TO_TUNE.into(), None));
    }
    let (mut out, tail, best) = match req.eval.objective {
        Objective::Pareto => tune_front(&req, rounds, init)?,
        objective => tune_scalar(&req, rounds, init, objective)?,
    };
    let _ = writeln!(out, "compilations:    {}", req.ev.stats().compiles);
    out.push_str(&tail);
    Ok((out, best))
}

/// Report line for a module with nothing to tune, shared by every
/// objective.
const NOTHING_TO_TUNE: &str = "module has no inlinable call sites; nothing to tune\n";

/// The size or speed autotuner: the hill climb minimizing the objective's
/// scalar from the clean slate, the heuristic, or both. The size report is
/// byte-identical to every release before measurements existed.
fn tune_scalar(
    req: &Request,
    rounds: usize,
    init: InitChoice,
    objective: Objective,
) -> Result<Report, CliError> {
    let heuristic = req.heuristic();
    let ((baseline, outcomes, best, measured), tail) = req.leg(objective, true, |ev, _| {
        let baseline = ev.size_of(&heuristic);
        let tuner = Autotuner::new(ev, req.ev.sites().clone());
        let mut outcomes = Vec::new();
        if init != InitChoice::Heuristic {
            outcomes.push(("clean slate:     ", tuner.clean_slate(rounds)));
        }
        if init != InitChoice::Clean {
            outcomes.push(("heuristic init:  ", tuner.run(heuristic.clone(), rounds)));
        }
        let best = Autotuner::combine(outcomes.iter().map(|(_, o)| o));
        // A speed run measures the tuned best's size beside its cycles.
        let measured = if objective.wants_cycles() {
            ev.measure(&best.config, objective)
        } else {
            Measurement::size_only(best.size)
        };
        (baseline, outcomes, best, measured)
    })?;
    let unit = unit(objective);
    let mut out = String::new();
    if objective.wants_cycles() {
        let _ = writeln!(out, "objective:       speed (simulated cycles)");
    }
    for (label, o) in &outcomes {
        let _ = writeln!(out, "{label}{} {unit} after {} round(s)", o.best().size, o.rounds.len());
    }
    let _ = writeln!(out, "baseline:        {baseline} {unit} (100.0%)");
    let pct = 100.0 * best.size as f64 / baseline as f64;
    let _ = writeln!(out, "tuned best:      {} {unit} ({pct:.1}%)", best.size);
    let _ = writeln!(out, "configuration:   {}", best.config);
    Ok((out, tail, Some(measured)))
}

/// The pareto autotuner: frontier-seeded hill climb over both metrics at
/// once ([`Autotuner::run_pareto`]); dominated configurations are pruned
/// as they are measured.
fn tune_front(req: &Request, rounds: usize, init: InitChoice) -> Result<Report, CliError> {
    let heuristic = req.heuristic();
    let inits: Vec<InliningConfiguration> = match init {
        InitChoice::Clean => vec![InliningConfiguration::clean_slate()],
        InitChoice::Heuristic => vec![heuristic.clone()],
        InitChoice::Both => vec![InliningConfiguration::clean_slate(), heuristic.clone()],
    };
    let ((outcome, baseline), tail) = req.leg(Objective::Pareto, true, |ev, _| {
        let outcome = Autotuner::new(ev, req.ev.sites().clone()).run_pareto(inits, rounds);
        (outcome, ev.measure(&heuristic, Objective::Pareto))
    })?;
    let mut out = String::new();
    let _ = writeln!(out, "objective:       pareto (size, cycles)");
    let _ = writeln!(out, "rounds:          {} of {rounds}", outcome.rounds);
    let _ = writeln!(out, "evaluations:     {}", outcome.evaluations);
    let _ = writeln!(out, "baseline:        {} (heuristic)", fmt_measurement(baseline));
    let _ = writeln!(out, "pareto front:    {} point(s)", outcome.front.len());
    for p in outcome.front.points() {
        let _ = writeln!(out, "  - {} :: {}", fmt_measurement(p.measurement), p.config);
    }
    Ok((out, tail, outcome.front.min_size().map(|p| p.measurement)))
}

/// An `optimize`, `search` or `autotune` request decoded into the typed
/// arguments of its command body: the one way from a [`RequestKind`] to
/// the bodies, for the CLI and for the daemon's handler alike.
#[derive(Debug)]
pub struct Evaluation<'a> {
    source: &'a str,
    target: TargetChoice,
    /// The request's options; `optimize` reads its pass-stats flag and
    /// objective.
    eval: EvalOptions,
    command: Command,
}

/// What each command takes besides the module, target and options.
#[derive(Debug)]
enum Command {
    Optimize(StrategyChoice),
    Search(u32),
    Autotune(usize, InitChoice),
}

impl<'a> Evaluation<'a> {
    /// Decodes `kind`'s spellings, with `local`'s settings for `search` and
    /// `autotune`. A spelling no command accepts, a retired flag set
    /// (`full_sweep` on an `optimize`, `full_eval` on a `search` or
    /// `autotune`), and an admin kind are refused here, before any work,
    /// with one message whether the request runs in-process or served.
    pub fn decode(kind: &'a RequestKind, local: &LocalSettings) -> Result<Self, CliError> {
        let (source, target, objective, stats, pass_stats, command) = match kind {
            RequestKind::Optimize { full_sweep: true, .. } => {
                return Err(RequestError::FullSweepRemoved.into());
            }
            RequestKind::Search { full_eval: true, .. }
            | RequestKind::Autotune { full_eval: true, .. } => {
                return Err(RequestError::FullEvalRemoved.into());
            }
            RequestKind::Optimize { source, target, strategy, pass_stats, objective, .. } => {
                let command = Command::Optimize(StrategyChoice::parse(strategy)?);
                (source, target, objective, false, *pass_stats, command)
            }
            RequestKind::Search { source, target, bits, stats, pass_stats, objective, .. } => {
                (source, target, objective, *stats, *pass_stats, Command::Search(*bits))
            }
            RequestKind::Autotune {
                source,
                target,
                rounds,
                init,
                stats,
                pass_stats,
                objective,
                ..
            } => {
                let command = Command::Autotune(*rounds as usize, InitChoice::parse(init)?);
                (source, target, objective, *stats, *pass_stats, command)
            }
            other => return Err(format!("request kind {:?} is not evaluable", other.name()).into()),
        };
        let target = TargetChoice::parse(target)?;
        let objective = Objective::parse(objective).ok_or_else(|| {
            format!("unknown objective `{objective}` (expected size|speed|pareto)")
        })?;
        let eval = EvalOptions {
            show_stats: stats,
            show_pass_stats: pass_stats,
            jobs: local.jobs,
            cache_dir: local.cache_dir.clone(),
            no_persist: local.no_persist,
            cache_budget_bytes: local.cache_budget_bytes,
            objective,
        };
        Ok(Evaluation { source, target, eval, command })
    }

    /// Runs the command body. `warm` is the daemon's heuristic map;
    /// in-process runs pass `None`.
    pub fn run(self, warm: Option<&HeuristicMap>) -> Result<Reply, CliError> {
        let Evaluation { source, target, eval, command } = self;
        Ok(match command {
            Command::Optimize(strategy) => {
                let opts =
                    OptimizeOptions { pass_stats: eval.show_pass_stats, objective: eval.objective };
                let (report, module, measurement) =
                    optimize_with(source, strategy, target, opts, warm)?;
                Reply { report, module: Some(module), measurement: Some(measurement) }
            }
            Command::Search(bits) => {
                let (report, measurement) = search_with(source, bits, target, eval, warm)?;
                Reply { report, module: None, measurement }
            }
            Command::Autotune(rounds, init) => {
                let (report, measurement) =
                    autotune_with(source, rounds, init, target, eval, warm)?;
                Reply { report, module: None, measurement }
            }
        })
    }
}

/// `optinline run` — interpret the module's `main`.
pub fn cmd_run(source: &str) -> Result<String, CliError> {
    let module = load_module(source)?;
    let outcome = optinline_ir::interp::run_main(&module)?;
    let mut out = String::new();
    let _ = writeln!(out, "return value: {:?}", outcome.ret);
    let _ = writeln!(out, "globals:      {:?}", outcome.globals);
    let _ = writeln!(out, "cycles:       {}", outcome.cycles);
    let _ = writeln!(out, "steps:        {}", outcome.steps);
    Ok(out)
}

/// `optinline cfg` — render a function's control-flow graph as DOT.
pub fn cmd_cfg(source: &str, func_name: &str) -> Result<String, CliError> {
    let module = load_module(source)?;
    let fid = module
        .func_by_name(func_name)
        .ok_or_else(|| format!("no function named `{func_name}` in {}", module.name))?;
    Ok(optinline_ir::dot::function_cfg_dot(&module, fid))
}

/// `optinline link` — link several modules, optionally internalizing
/// everything except the kept symbols, and return the combined module's
/// text plus a summary line.
pub fn cmd_link(sources: &[String], keep: Option<&str>) -> Result<(String, String), CliError> {
    if sources.is_empty() {
        return Err("link needs at least one input".into());
    }
    let modules = sources.iter().map(|s| load_module(s)).collect::<Result<Vec<_>, _>>()?;
    let per_file_sites: usize = modules.iter().map(|m| m.inlinable_sites().len()).sum();
    let mut linked = optinline_ir::link_modules("linked", &modules);
    let mut demoted = 0;
    if let Some(keep) = keep {
        let kept: Vec<&str> = keep.split(',').map(str::trim).collect();
        demoted = optinline_ir::internalize_except(&mut linked, |name| kept.contains(&name));
    }
    optinline_ir::verify_module(&linked)?;
    let mut report = String::new();
    let _ = writeln!(report, "linked {} modules: {} functions", sources.len(), linked.func_count());
    let _ = writeln!(
        report,
        "inlinable sites: {} per-file -> {} linked",
        per_file_sites,
        linked.inlinable_sites().len()
    );
    if keep.is_some() {
        let _ = writeln!(report, "internalized:    {demoted} formerly-public functions");
    }
    Ok((report, linked.to_string()))
}

/// `optinline corpus` — materialize the synthetic suite as `.ir` files.
pub fn cmd_corpus(dir: &std::path::Path, small: bool) -> Result<String, CliError> {
    let scale =
        if small { optinline_workloads::Scale::Small } else { optinline_workloads::Scale::Full };
    let written = optinline_workloads::save_suite(dir, scale)?;
    Ok(format!(
        "wrote {} files under {}
",
        written.len(),
        dir.display()
    ))
}

/// `optinline check` — the differential fuzz loop: random modules ×
/// random configurations through the semantic and size oracles. Returns
/// the report on a clean run; a run with divergences or mismatches is an
/// `Err` carrying the same report, so the process exits non-zero (which is
/// what CI keys on).
pub fn cmd_check(
    cases: usize,
    seed: u64,
    reduce: bool,
    repro_dir: Option<&std::path::Path>,
) -> Result<String, CliError> {
    let options = optinline_check::FuzzOptions {
        cases,
        seed,
        reduce,
        repro_dir: repro_dir.map(std::path::Path::to_path_buf),
        ..Default::default()
    };
    let report = optinline_check::run_fuzz(&options)?;
    let rendered = report.render();
    if report.clean() {
        Ok(rendered)
    } else {
        Err(format!("differential check failed\n{rendered}").into())
    }
}

/// `optinline check --chaos N` — the standalone chaos oracle: N cases of
/// seeded fault injection against a live daemon plus crash/recovery
/// cycles against a store, asserting no hangs, byte-identical surviving
/// replies, exact accounting, and a clean `verify` after every restart.
/// A run with broken promises is an `Err` so the process exits non-zero.
pub fn cmd_check_chaos(cases: usize, seed: u64) -> Result<String, CliError> {
    let report = optinline_check::run_chaos(cases, seed);
    let mut rendered = report.render();
    rendered.push('\n');
    for m in &report.mismatches {
        let _ = writeln!(rendered, "  {m}");
    }
    if report.clean() {
        Ok(rendered)
    } else {
        Err(format!("chaos check failed\n{rendered}").into())
    }
}

/// `optinline check --demo-reduce` — seed a known fast-path size bug, let
/// the size oracle catch it, and shrink the trigger with the reducer. An
/// end-to-end proof that the harness detects and minimizes real failures.
pub fn cmd_demo_reduce(seed: u64, repro_dir: Option<&std::path::Path>) -> Result<String, CliError> {
    let demo = optinline_check::run_reducer_demo(seed, repro_dir)?;
    let mut out = String::new();
    let _ =
        writeln!(out, "seeded bug:      size_of inflated when `f3` present and ≥1 site inlined");
    let _ = writeln!(
        out,
        "reduced module:  {} -> {} function(s)",
        demo.functions_before, demo.functions_after
    );
    let _ = writeln!(out, "reduced config:  {} decision(s)", demo.config_decisions);
    let _ = writeln!(out, "predicate runs:  {}", demo.predicate_runs);
    if let Some(p) = &demo.repro_path {
        let _ = writeln!(out, "reproducer:      {}", p.display());
    }
    Ok(out)
}

/// `optinline gen` — emit a generated module as textual IR.
pub fn cmd_gen(seed: u64, n_internal: usize, clusters: usize) -> Result<String, CliError> {
    let module = optinline_workloads::generate_file(&optinline_workloads::GenParams {
        n_internal,
        clusters,
        ..optinline_workloads::GenParams::named(format!("gen_{seed}"), seed)
    });
    Ok(module.to_string())
}

/// What `optinline cache` should do to the evaluation store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheAction {
    /// Report entry/byte/counter totals.
    Stats,
    /// Evict least-recently-used scopes until the directory fits the
    /// `--cache-budget-bytes` budget.
    Gc,
    /// Structurally scan every log, report damage, truncate torn tails,
    /// and sweep orphaned temp files.
    Verify,
    /// Rewrite every scope log, dropping superseded and duplicate lines.
    Compact,
}

impl CacheAction {
    /// Parses `stats` / `gc` / `verify` / `compact`.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "stats" => Ok(CacheAction::Stats),
            "gc" => Ok(CacheAction::Gc),
            "verify" => Ok(CacheAction::Verify),
            "compact" => Ok(CacheAction::Compact),
            other => {
                Err(format!("unknown cache action `{other}` (expected stats|gc|verify|compact)")
                    .into())
            }
        }
    }
}

/// `optinline cache` — administer the on-disk evaluation store under
/// `--cache-dir`. `verify` returns an `Err` carrying its report when the
/// scan finds malformed lines or unreadable logs, so the process exits
/// non-zero (which is what CI keys on).
pub fn cmd_cache(
    action: CacheAction,
    dir: &std::path::Path,
    budget_bytes: Option<u64>,
) -> Result<String, CliError> {
    let store = LocalStore::shared(dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "cache dir:       {}", dir.display());
    match action {
        CacheAction::Stats => {
            let census = store.census()?;
            let _ = writeln!(out, "scopes:          {}", census.scopes);
            let _ = writeln!(out, "entries:         {}", census.entries);
            let _ = writeln!(out, "disk bytes:      {}", store.disk_bytes()?);
        }
        CacheAction::Gc => {
            let budget =
                budget_bytes.ok_or("cache gc needs --cache-budget-bytes <n>".to_string())?;
            let report = store.gc(budget)?;
            let _ = writeln!(out, "budget:          {} B", report.budget_bytes);
            let _ = writeln!(
                out,
                "disk bytes:      {} B -> {} B",
                report.before_bytes, report.after_bytes
            );
            let _ = writeln!(out, "evicted scopes:  {}", report.evicted_scopes);
        }
        CacheAction::Verify => {
            let report = store.verify()?;
            let _ = writeln!(out, "scopes:          {}", report.scopes);
            let _ = writeln!(out, "entries:         {}", report.entries);
            let _ = writeln!(out, "disk bytes:      {}", report.bytes);
            let _ = writeln!(out, "duplicate lines: {}", report.duplicate_lines);
            let _ = writeln!(out, "malformed lines: {}", report.malformed_lines);
            let _ = writeln!(out, "unreadable logs: {}", report.unreadable_logs);
            let _ = writeln!(out, "foreign files:   {}", report.foreign_files);
            let _ = writeln!(out, "size-only lines: {}", report.size_only_lines);
            let _ = writeln!(out, "measured lines:  {}", report.measurement_lines);
            for mix in &report.mix {
                let _ = writeln!(
                    out,
                    "  scope {:032x}: {} size-only, {} measured",
                    mix.fingerprint, mix.size_only_lines, mix.measurement_lines
                );
            }
            if !report.clean() {
                return Err(format!("cache verify found damage\n{out}").into());
            }
        }
        CacheAction::Compact => {
            let reclaimed = store.compact_all()?;
            let _ = writeln!(out, "reclaimed:       {reclaimed} B");
            let _ = writeln!(out, "disk bytes:      {}", store.disk_bytes()?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_source() -> String {
        cmd_gen(11, 5, 2).expect("generation succeeds")
    }

    #[test]
    fn gen_print_round_trips() {
        let src = demo_source();
        let printed = cmd_print(&src).unwrap();
        assert_eq!(printed, src);
    }

    #[test]
    fn stats_reports_structure() {
        let s = cmd_stats(&demo_source()).unwrap();
        assert!(s.contains("functions:"));
        assert!(s.contains("inlinable sites:"));
        assert!(s.contains("recursive space:"));
    }

    #[test]
    fn optimize_reports_sizes_for_every_strategy() {
        let src = demo_source();
        for strat in [
            StrategyChoice::Never,
            StrategyChoice::Always,
            StrategyChoice::Heuristic,
            StrategyChoice::Trial,
        ] {
            let (report, text) =
                cmd_optimize(&src, strat, TargetChoice::X86, OptimizeOptions::default()).unwrap();
            assert!(report.contains("size:"), "{strat:?}: {report}");
            // The optimized module still parses.
            load_module(&text).unwrap();
        }
    }

    #[test]
    fn search_finds_optimum_and_beats_strategies() {
        let src = demo_source();
        let report = cmd_search(&src, 18, TargetChoice::X86, EvalOptions::default()).unwrap();
        assert!(report.contains("optimal size:"));
        // Relative lines are >= 100%.
        for line in report.lines().filter(|l| l.contains('%')) {
            let pct: f64 = line
                .split('(')
                .nth(1)
                .and_then(|s| s.split('%').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(100.0);
            assert!(pct >= 100.0 - 1e-9, "strategy beat the optimum: {line}");
        }
    }

    #[test]
    fn retired_wire_flags_are_refused_before_any_work() {
        let text = |s: &str| s.to_string();
        let refused = [
            (
                RequestKind::Optimize {
                    source: demo_source(),
                    target: text("x86"),
                    strategy: text("heuristic"),
                    full_sweep: true,
                    pass_stats: false,
                    objective: text("size"),
                },
                RequestError::FullSweepRemoved,
            ),
            (
                RequestKind::Search {
                    source: demo_source(),
                    target: text("x86"),
                    bits: 18,
                    full_eval: true,
                    stats: false,
                    pass_stats: false,
                    objective: text("size"),
                },
                RequestError::FullEvalRemoved,
            ),
            (
                RequestKind::Autotune {
                    source: demo_source(),
                    target: text("x86"),
                    rounds: 2,
                    init: text("both"),
                    full_eval: true,
                    stats: false,
                    pass_stats: false,
                    objective: text("speed"),
                },
                RequestError::FullEvalRemoved,
            ),
        ];
        for (kind, reason) in refused {
            let err = Evaluation::decode(&kind, &LocalSettings::default()).expect_err("refused");
            assert_eq!(err.downcast_ref(), Some(&reason), "{err}");
        }
    }

    #[test]
    fn autotune_improves_or_matches_baseline() {
        let src = demo_source();
        let report =
            cmd_autotune(&src, 3, InitChoice::Both, TargetChoice::X86, EvalOptions::default())
                .unwrap();
        assert!(report.contains("tuned best:"));
        let pct: f64 = report
            .lines()
            .find(|l| l.contains("tuned best"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("percentage present");
        assert!(pct <= 100.0);
    }

    #[test]
    fn run_interprets_main() {
        let report = cmd_run(&demo_source()).unwrap();
        assert!(report.contains("cycles:"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(cmd_print("not ir at all").is_err());
        assert!(TargetChoice::parse("arm").is_err());
        assert!(StrategyChoice::parse("magic").is_err());
        assert!(InitChoice::parse("warm").is_err());
    }

    #[test]
    fn search_refuses_oversized_spaces() {
        let src = cmd_gen(3, 20, 1).unwrap();
        let module = load_module(&src).unwrap();
        if module.inlinable_sites().len() > 12 {
            let err = cmd_search(&src, 4, TargetChoice::X86, EvalOptions::default());
            assert!(err.is_err() || module.inlinable_sites().len() <= 12);
        }
    }

    #[test]
    fn search_rejects_bits_beyond_the_u128_budget() {
        let src = demo_source();
        for bits in [128, 130, u32::MAX] {
            let err = cmd_search(&src, bits, TargetChoice::X86, EvalOptions::default())
                .expect_err("an unrepresentable budget is refused");
            assert_eq!(err.downcast_ref(), Some(&RequestError::BitsOutOfRange(bits)), "{err}");
        }
        // 2^127 is the largest budget and still searches.
        cmd_search(&src, 127, TargetChoice::X86, EvalOptions::default()).unwrap();
    }

    #[test]
    fn search_rejects_more_jobs_than_the_largest_farm() {
        let src = demo_source();
        let eval = EvalOptions { jobs: Some(MAX_JOBS + 1), ..EvalOptions::default() };
        let err = cmd_search(&src, 18, TargetChoice::X86, eval).expect_err("257 jobs are refused");
        assert_eq!(err.downcast_ref(), Some(&RequestError::JobsOutOfRange(257)), "{err}");
    }

    #[test]
    fn search_rejects_zero_jobs() {
        let src = demo_source();
        let eval = EvalOptions { jobs: Some(0), ..EvalOptions::default() };
        let err = cmd_search(&src, 18, TargetChoice::X86, eval).expect_err("0 jobs are refused");
        assert_eq!(err.downcast_ref(), Some(&RequestError::JobsOutOfRange(0)), "{err}");
        assert!(err.to_string().ends_with("at least 1, at most 256"), "{err}");
    }

    #[test]
    fn autotune_rejects_zero_rounds_under_every_objective() {
        let src = demo_source();
        for objective in [Objective::Size, Objective::Speed, Objective::Pareto] {
            let eval = EvalOptions { objective, ..EvalOptions::default() };
            let err = cmd_autotune(&src, 0, InitChoice::Both, TargetChoice::X86, eval)
                .expect_err("zero rounds are refused");
            let expected = RequestError::RoundsOutOfRange(0);
            assert_eq!(err.downcast_ref(), Some(&expected), "{objective:?}");
        }
    }

    #[test]
    fn autotune_runs_256_rounds_and_refuses_257() {
        let src = demo_source();
        let tune = |rounds| {
            cmd_autotune(&src, rounds, InitChoice::Clean, TargetChoice::X86, EvalOptions::default())
        };
        tune(MAX_ROUNDS).unwrap();
        let err = tune(MAX_ROUNDS + 1).expect_err("257 rounds are refused");
        assert_eq!(err.downcast_ref(), Some(&RequestError::RoundsOutOfRange(257)), "{err}");
        assert!(err.to_string().ends_with("at least 1, at most 256"), "{err}");
    }

    #[test]
    fn cfg_renders_dot_for_named_functions() {
        let src = demo_source();
        let dot = cmd_cfg(&src, "main").unwrap();
        assert!(dot.contains("digraph \"main\""));
        assert!(cmd_cfg(&src, "no_such_fn").is_err());
    }

    #[test]
    fn wasm_target_is_selectable() {
        let src = demo_source();
        let (report, _) =
            cmd_optimize(&src, StrategyChoice::Heuristic, TargetChoice::Wasm, Default::default())
                .unwrap();
        assert!(report.contains("wasm-like"));
    }

    #[test]
    fn pass_stats_table_appears_on_request() {
        let src = demo_source();
        let (plain, _) =
            cmd_optimize(&src, StrategyChoice::Heuristic, TargetChoice::X86, Default::default())
                .unwrap();
        assert!(!plain.contains("pass stats:"), "{plain}");
        let (with_stats, _) = cmd_optimize(
            &src,
            StrategyChoice::Heuristic,
            TargetChoice::X86,
            OptimizeOptions { pass_stats: true, ..Default::default() },
        )
        .unwrap();
        assert!(with_stats.contains("pass stats:"), "{with_stats}");
        assert!(with_stats.contains("analysis cache:"), "{with_stats}");
        assert!(with_stats.contains("scheduling:"), "{with_stats}");
    }

    #[test]
    fn search_output_is_identical_across_job_counts() {
        // --jobs 1 takes the sequential Algorithm 1 path; every other
        // setting forks the search through a pool. The report must be
        // byte-identical regardless.
        // Memo misses are single-flight, so "compilations done" matches too.
        let src = demo_source();
        let opts = |jobs| EvalOptions { jobs, ..Default::default() };
        let sequential = cmd_search(&src, 18, TargetChoice::X86, opts(Some(1))).unwrap();
        for jobs in [None, Some(2), Some(4), Some(8)] {
            let parallel = cmd_search(&src, 18, TargetChoice::X86, opts(jobs)).unwrap();
            assert_eq!(sequential, parallel, "jobs={jobs:?} diverged");
        }
    }

    #[test]
    fn persistent_cache_warm_starts_search() {
        let src = demo_source();
        let dir = std::env::temp_dir().join(format!("optinline-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts =
            EvalOptions { show_stats: true, cache_dir: Some(dir.clone()), ..Default::default() };
        let cold = cmd_search(&src, 18, TargetChoice::X86, opts.clone()).unwrap();
        let warm = cmd_search(&src, 18, TargetChoice::X86, opts).unwrap();
        let optimal =
            |r: &str| r.lines().find(|l| l.starts_with("optimal size:")).map(str::to_owned);
        assert_eq!(optimal(&cold), optimal(&warm));
        assert!(cold.contains("persist:"), "{cold}");
        // The warm run answers every query from disk: zero compilations.
        let compiles = warm
            .lines()
            .find(|l| l.starts_with("compilations done:"))
            .and_then(|l| l.split_whitespace().nth(2).map(str::to_owned))
            .unwrap();
        assert_eq!(compiles, "0", "warm run must not compile: {warm}");
        // And the stats line reports the hits.
        let stats_line = warm.lines().find(|l| l.starts_with("evaluator:")).unwrap();
        assert!(stats_line.contains("persist:"), "{stats_line}");
        assert!(stats_line.contains("0 misses"), "{stats_line}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn no_persist_disables_the_cache() {
        let src = demo_source();
        let dir =
            std::env::temp_dir().join(format!("optinline-cli-nopersist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EvalOptions {
            show_stats: true,
            cache_dir: Some(dir.clone()),
            no_persist: true,
            ..Default::default()
        };
        let report = cmd_search(&src, 18, TargetChoice::X86, opts).unwrap();
        assert!(!report.contains("persist:"), "{report}");
        assert!(!dir.exists(), "--no-persist must not create the cache dir");
    }

    #[test]
    fn autotune_reuses_the_search_cache() {
        let src = demo_source();
        let dir =
            std::env::temp_dir().join(format!("optinline-cli-tunecache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts =
            EvalOptions { show_stats: true, cache_dir: Some(dir.clone()), ..Default::default() };
        let first =
            cmd_autotune(&src, 2, InitChoice::Clean, TargetChoice::X86, opts.clone()).unwrap();
        let second = cmd_autotune(&src, 2, InitChoice::Clean, TargetChoice::X86, opts).unwrap();
        let tuned = |r: &str| r.lines().find(|l| l.contains("tuned best")).map(str::to_owned);
        assert_eq!(tuned(&first), tuned(&second));
        let compiles = second
            .lines()
            .find(|l| l.starts_with("compilations:"))
            .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
            .unwrap();
        assert_eq!(compiles, "0", "warm autotune must not compile: {second}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_subcommand_reports_verifies_compacts_and_gcs() {
        let src = demo_source();
        let dir = std::env::temp_dir().join(format!("optinline-cli-admin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EvalOptions { cache_dir: Some(dir.clone()), ..Default::default() };
        cmd_search(&src, 18, TargetChoice::X86, opts).unwrap();

        let stats = cmd_cache(CacheAction::Stats, &dir, None).unwrap();
        assert!(stats.contains("scopes:          1"), "{stats}");
        assert!(stats.contains("entries:"), "{stats}");

        let verify = cmd_cache(CacheAction::Verify, &dir, None).unwrap();
        assert!(verify.contains("malformed lines: 0"), "{verify}");
        assert!(verify.contains("unreadable logs: 0"), "{verify}");

        let compact = cmd_cache(CacheAction::Compact, &dir, None).unwrap();
        assert!(compact.contains("reclaimed:"), "{compact}");

        assert!(cmd_cache(CacheAction::Gc, &dir, None).is_err(), "gc without budget must fail");
        let gc = cmd_cache(CacheAction::Gc, &dir, Some(1)).unwrap();
        assert!(gc.contains("evicted scopes:  1"), "{gc}");
        // The budget is enforced: no scope remains.
        let post = cmd_cache(CacheAction::Stats, &dir, None).unwrap();
        assert!(post.contains("scopes:          0"), "{post}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_root_holds_only_sharded_logs() {
        let src = demo_source();
        let dir = std::env::temp_dir().join(format!("optinline-cli-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EvalOptions { cache_dir: Some(dir.clone()), ..Default::default() };
        cmd_search(&src, 18, TargetChoice::X86, opts).unwrap();
        let store = LocalStore::shared(&dir).unwrap();
        store.gc(u64::MAX).unwrap();
        store.compact_all().unwrap();
        assert!(store.verify().unwrap().clean());
        drop(store);
        let mut logs = 0;
        for shard in std::fs::read_dir(&dir).unwrap() {
            let shard = shard.unwrap();
            assert!(shard.file_type().unwrap().is_dir(), "{:?} is not a shard", shard.path());
            for log in std::fs::read_dir(shard.path()).unwrap() {
                let name = log.unwrap().file_name().to_string_lossy().into_owned();
                assert!(name.ends_with(".log"), "{name} is not a scope log");
                logs += 1;
            }
        }
        assert_eq!(logs, 1, "the search's one scope");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two stores on one directory, as two processes sharing a cache
    /// would have: each sees the scopes the other used, in the order
    /// they were used, because recency and counts live in the logs.
    #[test]
    fn stores_sharing_a_directory_agree_on_counts_and_gc_order() {
        use optinline_store::{scope_rel_path, StoreOptions};
        let dir = std::env::temp_dir().join(format!("optinline-cli-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        let b = LocalStore::open(&dir, StoreOptions::default()).unwrap();
        // Fingerprints descend so that only recency, never the tie-break,
        // can put Z first.
        let (z, y, x) = (3u128, 2u128, 1u128);
        for (store, fingerprint) in [(&a, z), (&b, y), (&a, x)] {
            let scope = store.scope(fingerprint, "m target=t sites=1").unwrap();
            scope.put(Vec::new(), Measurement::size_only(100));
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stats = cmd_cache(CacheAction::Stats, &dir, None).unwrap();
        assert!(stats.contains("scopes:          3"), "{stats}");

        let report = a.gc(a.disk_bytes().unwrap() - 1).unwrap();
        assert_eq!(report.evicted_scopes, 1, "{report:?}");
        let exists = |fp| {
            let (shard, file) = scope_rel_path(fp);
            dir.join(shard).join(file).exists()
        };
        assert!(!exists(z), "the least recently used scope goes first");
        assert!(exists(y) && exists(x));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_verify_fails_on_damaged_store() {
        let dir = std::env::temp_dir().join(format!("optinline-cli-damage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("ab")).unwrap();
        // A log whose header is garbage is unreadable damage.
        std::fs::write(dir.join("ab").join(format!("{:030x}.log", 7)), "not a store log\n")
            .unwrap();
        let err = cmd_cache(CacheAction::Verify, &dir, None).unwrap_err();
        assert!(err.to_string().contains("unreadable logs: 1"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_pre_store_sizes_file_at_the_root_is_left_alone() {
        use optinline_core::{cache_meta, module_fingerprint};
        let src = demo_source();
        let tmp = |tag: &str| {
            let dir = std::env::temp_dir()
                .join(format!("optinline-cli-stray-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        };
        let (dir, empty) = (tmp("sizes"), tmp("empty"));
        // A pre-store flat cache file under the module's own name and
        // identity, with one absurd entry for the all-no-inline key.
        let module = load_module(&src).unwrap();
        let fp = module_fingerprint(&module, "x86-like");
        let meta = cache_meta(&module, "x86-like").replace(['\n', '\r'], " ");
        let stray = dir.join(format!("{fp:032x}.sizes"));
        let body = format!("optinline-cache v2\nmeta {meta}\n424242 -\n");
        std::fs::write(&stray, &body).unwrap();
        // The sequential walk, so the `--stats` counters repeat exactly.
        let search = |dir: &std::path::Path| {
            let opts = EvalOptions {
                show_stats: true,
                jobs: Some(1),
                cache_dir: Some(dir.to_path_buf()),
                ..Default::default()
            };
            cmd_search(&src, 18, TargetChoice::X86, opts).unwrap()
        };
        // Everything but the wall-clock token of the `--stats` line.
        let masked = |report: &str| -> Vec<String> {
            let untimed = |part: &&str| !part.ends_with(" compiling");
            let mask = |line: &str| line.split(", ").filter(untimed).collect::<Vec<_>>().join(", ");
            report.lines().map(mask).collect()
        };
        let report = search(&dir);
        assert_eq!(masked(&report), masked(&search(&empty)), "compiles as in an empty store");
        assert!(!report.contains("424242"), "the file is never read: {report}");
        assert_eq!(std::fs::read_to_string(&stray).unwrap(), body, "nor deleted");
        let bytes = |dir: &std::path::Path| LocalStore::shared(dir).unwrap().disk_bytes().unwrap();
        assert_eq!(bytes(&dir), bytes(&empty) + body.len() as u64, "but counted on disk");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn search_budget_gc_keeps_the_directory_within_budget() {
        let src = demo_source();
        let other = cmd_gen(12, 5, 2).unwrap();
        let dir = std::env::temp_dir().join(format!("optinline-cli-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Populate two scopes, then rerun with a small budget: the store
        // may evict the cold scope but must keep the one the run just used
        // (it holds a live handle during GC and is newest-recency anyway).
        let opts = |budget| EvalOptions {
            cache_dir: Some(dir.clone()),
            cache_budget_bytes: budget,
            ..Default::default()
        };
        cmd_search(&other, 18, TargetChoice::X86, opts(None)).unwrap();
        cmd_search(&src, 18, TargetChoice::X86, opts(None)).unwrap();
        cmd_search(&src, 18, TargetChoice::X86, opts(Some(1))).unwrap();
        let stats = cmd_cache(CacheAction::Stats, &dir, None).unwrap();
        assert!(stats.contains("scopes:          1"), "cold scope must be evicted: {stats}");
        // The surviving scope still warm-starts.
        let warm = cmd_search(&src, 18, TargetChoice::X86, opts(None)).unwrap();
        let compiles = warm
            .lines()
            .find(|l| l.starts_with("compilations done:"))
            .and_then(|l| l.split_whitespace().nth(2).map(str::to_owned))
            .unwrap();
        assert_eq!(compiles, "0", "survivor must stay warm: {warm}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn speed_search_reports_cycles_and_is_deterministic() {
        let src = demo_source();
        let opts = |jobs| EvalOptions { jobs, objective: Objective::Speed, ..Default::default() };
        let sequential = cmd_search(&src, 18, TargetChoice::X86, opts(Some(1))).unwrap();
        assert!(sequential.contains("objective:          speed"), "{sequential}");
        assert!(sequential.contains("optimal cycles:"), "{sequential}");
        assert!(sequential.contains("optimal size:"), "{sequential}");
        // The optimum dominates both baselines in cycles.
        for line in sequential.lines().filter(|l| l.contains('%')) {
            let pct: f64 = line
                .split('(')
                .nth(1)
                .and_then(|s| s.split('%').next())
                .and_then(|s| s.trim().parse().ok())
                .unwrap_or(100.0);
            assert!(pct >= 100.0 - 1e-9, "baseline beat the speed optimum: {line}");
        }
        // Byte-identical across executor shapes, like the size search.
        for jobs in [None, Some(2), Some(4)] {
            let parallel = cmd_search(&src, 18, TargetChoice::X86, opts(jobs)).unwrap();
            assert_eq!(sequential, parallel, "jobs={jobs:?} diverged");
        }
    }

    #[test]
    fn pareto_search_builds_a_deterministic_front() {
        let src = demo_source();
        let opts = || EvalOptions { objective: Objective::Pareto, ..Default::default() };
        let first = cmd_search(&src, 18, TargetChoice::X86, opts()).unwrap();
        assert!(first.contains("objective:          pareto"), "{first}");
        assert!(first.contains("size-optimal:"), "{first}");
        assert!(first.contains("speed-optimal:"), "{first}");
        assert!(first.contains("pareto front:"), "{first}");
        assert!(first.contains(" B, "), "points carry both metrics: {first}");
        let again = cmd_search(&src, 18, TargetChoice::X86, opts()).unwrap();
        assert_eq!(first, again, "pareto front must be run-to-run deterministic");
        // The size-optimal point matches the plain size search's optimum.
        let size_report = cmd_search(&src, 18, TargetChoice::X86, EvalOptions::default()).unwrap();
        let optimal: u64 = size_report
            .lines()
            .find(|l| l.starts_with("optimal size:"))
            .and_then(|l| l.split_whitespace().nth(2))
            .and_then(|v| v.parse().ok())
            .unwrap();
        assert!(
            first.contains(&format!("size-optimal:       {optimal} B")),
            "front must contain the size optimum ({optimal} B): {first}"
        );
    }

    #[test]
    fn pareto_autotune_prunes_dominated_configs() {
        let src = demo_source();
        let opts = || EvalOptions { objective: Objective::Pareto, ..Default::default() };
        let first = cmd_autotune(&src, 3, InitChoice::Both, TargetChoice::X86, opts()).unwrap();
        assert!(first.contains("objective:       pareto"), "{first}");
        assert!(first.contains("pareto front:"), "{first}");
        assert!(first.contains("evaluations:"), "{first}");
        let points = first.lines().filter(|l| l.starts_with("  - ")).count();
        assert!(points >= 1, "front must be non-empty: {first}");
        let again = cmd_autotune(&src, 3, InitChoice::Both, TargetChoice::X86, opts()).unwrap();
        assert_eq!(first, again, "pareto tuning must be deterministic");
        // No point on the front dominates another: sizes strictly
        // decrease only if cycles increase along the sorted front.
        let metrics: Vec<(u64, u64)> = first
            .lines()
            .filter(|l| l.starts_with("  - "))
            .filter_map(|l| {
                let rest = l.strip_prefix("  - ")?;
                let size: u64 = rest.split(" B").next()?.trim().parse().ok()?;
                let cycles: u64 =
                    rest.split(", ").nth(1)?.split(' ').next()?.trim().parse().ok()?;
                Some((size, cycles))
            })
            .collect();
        for pair in metrics.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(a.0 < b.0 || (a.0 == b.0 && a.1 <= b.1), "front not sorted: {metrics:?}");
            assert!(a.1 > b.1 || (a.0 == b.0), "dominated point survived: {metrics:?}");
        }
    }

    #[test]
    fn speed_autotune_minimizes_cycles() {
        let src = demo_source();
        let opts = EvalOptions { objective: Objective::Speed, ..Default::default() };
        let report = cmd_autotune(&src, 3, InitChoice::Both, TargetChoice::X86, opts).unwrap();
        assert!(report.contains("objective:       speed"), "{report}");
        assert!(report.contains("tuned best:"), "{report}");
        assert!(report.contains("cycles"), "{report}");
        let pct: f64 = report
            .lines()
            .find(|l| l.contains("tuned best"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("percentage present");
        assert!(pct <= 100.0, "tuning must not lose to the baseline: {report}");
    }

    #[test]
    fn objectives_share_a_store_without_aliasing() {
        let src = demo_source();
        let dir =
            std::env::temp_dir().join(format!("optinline-cli-objcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |objective| EvalOptions {
            cache_dir: Some(dir.clone()),
            objective,
            ..Default::default()
        };
        let size_cold = cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Size)).unwrap();
        let speed_cold = cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Speed)).unwrap();
        // Two scopes now exist: the historical size scope and the cycles
        // scope — speed entries never alias size entries.
        let stats = cmd_cache(CacheAction::Stats, &dir, None).unwrap();
        assert!(stats.contains("scopes:          2"), "{stats}");
        // Both objectives warm-start from their own scope, to identical
        // reports with zero compilations.
        let compiles = |r: &str| {
            r.lines()
                .find(|l| l.starts_with("compilations done:"))
                .and_then(|l| l.split_whitespace().nth(2).map(str::to_owned))
                .unwrap()
        };
        let size_warm = cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Size)).unwrap();
        assert_eq!(compiles(&size_warm), "0", "warm size run must not compile: {size_warm}");
        let masked = |r: &str| {
            r.lines()
                .filter(|l| !l.starts_with("compilations done:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(masked(&size_cold), masked(&size_warm));
        let speed_warm = cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Speed)).unwrap();
        assert_eq!(compiles(&speed_warm), "0", "warm speed run must not compile: {speed_warm}");
        assert_eq!(masked(&speed_cold), masked(&speed_warm));
        // A pareto run reuses the speed scope (one shared cycles scope),
        // not a third one.
        cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Pareto)).unwrap();
        let stats = cmd_cache(CacheAction::Stats, &dir, None).unwrap();
        assert!(stats.contains("scopes:          2"), "pareto must share the speed scope: {stats}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_verify_reports_the_format_mix_per_scope() {
        let src = demo_source();
        let dir = std::env::temp_dir().join(format!("optinline-cli-mix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |objective| EvalOptions {
            cache_dir: Some(dir.clone()),
            objective,
            ..Default::default()
        };
        cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Size)).unwrap();
        cmd_search(&src, 18, TargetChoice::X86, opts(Objective::Speed)).unwrap();
        let verify = cmd_cache(CacheAction::Verify, &dir, None).unwrap();
        assert!(verify.contains("size-only lines:"), "{verify}");
        assert!(verify.contains("measured lines:"), "{verify}");
        let count = |label: &str| -> u64 {
            verify
                .lines()
                .find(|l| l.starts_with(label))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        assert!(count("size-only lines:") > 0, "size scope writes bare sizes: {verify}");
        assert!(count("measured lines:") > 0, "speed scope writes cycles: {verify}");
        let mix_lines = verify.lines().filter(|l| l.trim_start().starts_with("scope ")).count();
        assert_eq!(mix_lines, 2, "one mix line per scope: {verify}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn optimize_reports_cycles_under_speed_objective() {
        let src = demo_source();
        let (plain, _) =
            cmd_optimize(&src, StrategyChoice::Heuristic, TargetChoice::X86, Default::default())
                .unwrap();
        assert!(!plain.contains("cycles:"), "size report stays unchanged: {plain}");
        let (speed, _, m) = cmd_optimize_measured(
            &src,
            StrategyChoice::Heuristic,
            TargetChoice::X86,
            OptimizeOptions { objective: Objective::Speed, ..Default::default() },
        )
        .unwrap();
        assert!(speed.contains("objective:       speed"), "{speed}");
        assert!(speed.contains("cycles:"), "{speed}");
        assert!(m.cycles.is_some(), "generated modules have a public main: {m:?}");
        // The cycles lines are appended: everything else matches.
        let strip = |r: &str| {
            r.lines()
                .filter(|l| !l.starts_with("objective:") && !l.starts_with("cycles:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&plain), strip(&speed));
    }

    #[test]
    fn search_renders_pipeline_table_under_pass_stats() {
        let src = demo_source();
        let report = cmd_search(
            &src,
            18,
            TargetChoice::X86,
            EvalOptions { show_pass_stats: true, ..Default::default() },
        )
        .unwrap();
        assert!(report.contains("pass stats:"), "{report}");
        assert!(report.contains("analysis cache:"), "{report}");
    }
}
