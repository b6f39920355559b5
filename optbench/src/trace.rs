//! The traced executor: the same requests as the untraced run, re-executed
//! as a sequence of public calls with a span around each layer.
//!
//! Spans live in memory and are written as JSON lines when the run ends.
//! Evaluator calls are too many to span one by one, so each item carries
//! them as aggregates (count + total nanoseconds). Nothing inside the
//! system is instrumented: every number here is taken at a call boundary
//! the benchmark itself makes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_cli::{cmd_optimize_measured, load_module, OptimizeOptions, StrategyChoice};
use optinline_cli::{Objective, TargetChoice};
use optinline_codegen::{text_size, X86Like};
use optinline_core::autotune::Autotuner;
use optinline_core::tree::{space_size, try_build_inlining_tree};
use optinline_core::{
    cache_meta, evaluate_inlining_tree_dag, module_cycles, module_fingerprint, objective_scope,
    Evaluator, InliningConfiguration, PersistentCache, PersistentEvaluator, SearchSession,
    SizeEvaluator, SpeedEvaluator, WorkerPool,
};
use optinline_ir::analysis::EffectSummary;
use optinline_ir::interp::CostModel;
use optinline_ir::{AnalysisManager, FuncId, Measurement, Module};
use optinline_opt::{
    run_inliner_tracked, ConstFold, Cse, Dce, DeadArgElim, DeadFunctionElim, ForcedDecisions, Gvn,
    Pass, PassManager, PassResult, PipelineOptions, PipelineStats, Sccp, Simplify, SimplifyCfg,
    TailMerge,
};
use optinline_serve::{Handler, Reply, RequestKind};
use optinline_store::LocalStore;

use crate::inputs::{Item, Op, SEARCH_BITS};
use crate::json::{obj, Json};
use crate::stats::self_time;

/// One timed interval. `parent` links a layer call to the item it served.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Calls too frequent to span individually, summed per item.
#[derive(Clone, Debug)]
pub struct Aggregate {
    pub item: u64,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// In-memory span store with one clock for every thread of the process.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    aggregates: Mutex<Vec<Aggregate>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            aggregates: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a parent whose children finish before it does.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) {
        let span = Span { id, parent, name, start, end };
        self.spans.lock().expect("recorder lock poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(self.reserve(), Some(parent), name, start, self.now());
        out
    }

    pub fn aggregate(&self, item: u64, name: &'static str, count: u64, total_ns: u64) {
        let agg = Aggregate { item, name, count, total_ns };
        self.aggregates.lock().expect("recorder lock poisoned").push(agg);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("recorder lock poisoned").clone()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("recorder lock poisoned");
        spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64).collect()
    }

    /// Σ over spans that have children of the time their children cover,
    /// ÷ Σ of their durations.
    pub fn coverage(&self) -> f64 {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let (mut covered, mut total) = (0u64, 0u64);
        for s in spans.iter().filter(|s| children.contains_key(&s.id)) {
            let dur = s.end - s.start;
            covered += dur - self_time(s.start, s.end, &children[&s.id]);
            total += dur;
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes every span and aggregate as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = obj([
                ("id", Json::Num(s.id as f64)),
                ("parent", parent),
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::Num(s.start as f64)),
                ("end_ns", Json::Num(s.end as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        for a in self.aggregates.lock().expect("recorder lock poisoned").iter() {
            let line = obj([
                ("aggregate", Json::Str(a.name.into())),
                ("item", Json::Num(a.item as f64)),
                ("count", Json::Num(a.count as f64)),
                ("total_ns", Json::Num(a.total_ns as f64)),
            ]);
            writeln!(out, "{}", line.encode())?;
        }
        out.flush()
    }
}

/// Counters summed over the traced items.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub tree_evaluations: f64,
    pub queries: u64,
    pub compiles: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub full_module_equivalents: f64,
    pub fixpoint_cap_hits: u64,
    pub cycle_measures: u64,
    pub cycle_compiles: u64,
    /// Time inside the evaluator proper (inner timer), summed over lanes.
    pub eval_busy_ns: u64,
    pub eval_miss_ns: u64,
    pub eval_misses: u64,
    /// Time inside the persistent wrapper minus time inside the evaluator
    /// it wraps: the store's lookups and puts.
    pub lookup_ns: u64,
    pub search_wall_ns: u64,
    pub search_busy_ns: u64,
    pub tasks: u64,
    pub steals: u64,
    pub dedup_hits: u64,
    pub autotune_wall_ns: u64,
    pub autotune_busy_ns: u64,
    pub probes: u64,
    pub store_hits: u64,
    pub store_misses: u64,
}

impl Totals {
    fn absorb(&mut self, o: &Totals) {
        self.tree_evaluations += o.tree_evaluations;
        self.queries += o.queries;
        self.compiles += o.compiles;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.full_module_equivalents += o.full_module_equivalents;
        self.fixpoint_cap_hits += o.fixpoint_cap_hits;
        self.cycle_measures += o.cycle_measures;
        self.cycle_compiles += o.cycle_compiles;
        self.eval_busy_ns += o.eval_busy_ns;
        self.eval_miss_ns += o.eval_miss_ns;
        self.eval_misses += o.eval_misses;
        self.lookup_ns += o.lookup_ns;
        self.search_wall_ns += o.search_wall_ns;
        self.search_busy_ns += o.search_busy_ns;
        self.tasks += o.tasks;
        self.steals += o.steals;
        self.dedup_hits += o.dedup_hits;
        self.autotune_wall_ns += o.autotune_wall_ns;
        self.autotune_busy_ns += o.autotune_busy_ns;
        self.probes += o.probes;
        self.store_hits += o.store_hits;
        self.store_misses += o.store_misses;
    }
}

/// How many configurations the whole-module replay re-compiles.
pub const REPLAY_SAMPLES: usize = 256;

/// A configuration an evaluator answered, kept for the replay.
#[derive(Clone, Debug)]
pub struct Sample {
    pub source: Arc<str>,
    pub config: InliningConfiguration,
    pub expected: Measurement,
}

/// Two reservoirs: configurations that missed every memo (compiled), and
/// all answered configurations, the fallback when a workload compiles less
/// than the replay needs (a warm store compiles nothing; replaying its
/// answers then checks the store against fresh compiles).
#[derive(Debug)]
pub struct Sampler {
    state: Mutex<SamplerState>,
}

#[derive(Debug)]
struct SamplerState {
    rng: u64,
    misses: (u64, Vec<Sample>),
    queries: (u64, Vec<Sample>),
}

impl Sampler {
    pub fn new(seed: u64) -> Sampler {
        let state = SamplerState { rng: seed | 1, misses: (0, vec![]), queries: (0, vec![]) };
        Sampler { state: Mutex::new(state) }
    }

    /// Reservoir-samples one answered configuration into the miss or the
    /// query reservoir.
    fn offer(&self, miss: bool, make: impl FnOnce() -> Sample) {
        let mut st = self.state.lock().expect("sampler lock poisoned");
        let SamplerState { rng, misses, queries } = &mut *st;
        let (seen, kept) = if miss { misses } else { queries };
        *seen += 1;
        if kept.len() < REPLAY_SAMPLES {
            kept.push(make());
            return;
        }
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        let j = (*rng % *seen) as usize;
        if j < REPLAY_SAMPLES {
            kept[j] = make();
        }
    }

    /// The replay set: every kept miss, topped up from all queries.
    pub fn take(&self) -> (Vec<Sample>, usize) {
        let st = self.state.lock().expect("sampler lock poisoned");
        let mut out = st.misses.1.clone();
        let misses = out.len();
        out.extend(st.queries.1.iter().take(REPLAY_SAMPLES - misses).cloned());
        (out, misses)
    }
}

/// Which answers a [`Timed`] wrapper hands the replay sampler.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Offer {
    /// Calls that compiled (around the evaluator itself).
    Misses,
    /// Every call (around the outermost evaluator, store included).
    Queries,
}

/// An [`Evaluator`] wrapper that times every call; a call that raised the
/// wrapped evaluator's compilation count is a miss. Under parallel callers
/// another lane's compile can land inside a call, so the miss split is
/// approximate; the busy total is exact.
struct Timed<'a> {
    inner: &'a dyn Evaluator,
    busy_ns: AtomicU64,
    miss_ns: AtomicU64,
    misses: AtomicU64,
    calls: AtomicU64,
    sampling: (&'a Sampler, Arc<str>, Offer),
}

impl std::fmt::Debug for Timed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timed").field("busy_ns", &self.busy_ns).finish_non_exhaustive()
    }
}

impl<'a> Timed<'a> {
    fn new(inner: &'a dyn Evaluator, sampling: (&'a Sampler, Arc<str>, Offer)) -> Self {
        Timed {
            inner,
            busy_ns: AtomicU64::new(0),
            miss_ns: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            sampling,
        }
    }

    fn timed(
        &self,
        config: &InliningConfiguration,
        f: impl FnOnce() -> Measurement,
    ) -> Measurement {
        let before = self.inner.compilations();
        let start = Instant::now();
        let m = f();
        let ns = start.elapsed().as_nanos() as u64;
        let miss = self.inner.compilations() > before;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if miss {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.miss_ns.fetch_add(ns, Ordering::Relaxed);
        }
        let (sampler, source, offer) = &self.sampling;
        if miss || *offer == Offer::Queries {
            let sample = || Sample { source: source.clone(), config: config.clone(), expected: m };
            sampler.offer(*offer == Offer::Misses, sample);
        }
        m
    }

    fn busy(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }
}

impl Evaluator for Timed<'_> {
    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        self.timed(config, || Measurement::size_only(self.inner.size_of(config))).size
    }

    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        self.timed(config, || self.inner.measure(config, objective))
    }

    fn compilations(&self) -> u64 {
        self.inner.compilations()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn memo_scope(&self) -> Option<u128> {
        self.inner.memo_scope()
    }
}

/// Everything the traced executor writes to.
#[derive(Debug)]
pub struct TraceCtx {
    pub rec: Recorder,
    pub totals: Mutex<Totals>,
    pub sampler: Sampler,
    /// Items executed, by kind.
    pub items: Mutex<HashMap<Op, u64>>,
}

impl TraceCtx {
    pub fn new(epoch: Instant, seed: u64) -> TraceCtx {
        TraceCtx {
            rec: Recorder::new(epoch),
            totals: Mutex::new(Totals::default()),
            sampler: Sampler::new(seed),
            items: Mutex::new(HashMap::new()),
        }
    }

    pub fn count(&self, op: Op) -> u64 {
        self.items.lock().expect("trace lock poisoned").get(&op).copied().unwrap_or(0)
    }

    pub fn totals(&self) -> Totals {
        self.totals.lock().expect("trace lock poisoned").clone()
    }
}

/// The CLI's store-scope choice for an evaluator, rebuilt from public
/// parts: the same scope and meta `EvalOptions` opens.
fn open_cache(
    ev: &SizeEvaluator,
    dir: &Path,
    objective: Objective,
) -> std::io::Result<PersistentCache> {
    let legacy = module_fingerprint(ev.module(), ev.target().name());
    let base = ev.memo_scope().unwrap_or(legacy);
    let fp = objective_scope(base, objective, ev.cost_model());
    let meta = cache_meta(ev.module(), ev.target().name());
    let import = (!objective.wants_cycles()).then_some(legacy);
    PersistentCache::open_scoped(dir, fp, import, &meta)
}

/// Lanes parallel figures are normalized by: the global pool's workers
/// plus the calling thread, as the DAG executor and the autotuner use them.
pub fn lanes() -> f64 {
    (WorkerPool::global().threads() + 1) as f64
}

/// Executes `item` as one public call per layer, recording each under the
/// item span `id`. Returns the measurement the untraced path reports.
pub fn execute(
    ctx: &TraceCtx,
    item: &Item,
    cache_dir: Option<&Path>,
    id: u64,
) -> Result<Option<Measurement>, String> {
    *ctx.items.lock().expect("trace lock poisoned").entry(item.op).or_default() += 1;
    let rec = &ctx.rec;
    if item.op == Op::Optimize {
        let run = || {
            cmd_optimize_measured(
                &item.source,
                StrategyChoice::Heuristic,
                TargetChoice::X86,
                OptimizeOptions::default(),
            )
        };
        let (_, _, m) = rec.time("cli.optimize", id, run).map_err(|e| e.to_string())?;
        return Ok(Some(m));
    }
    let module =
        rec.time("ir.load", id, || load_module(&item.source)).map_err(|e| e.to_string())?;
    let mut t = Totals::default();
    let tree = if item.op == Op::Search {
        let build = || {
            let graph = InlineGraph::from_module(&module);
            try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1u128 << SEARCH_BITS)
        };
        let tree = rec.time("callgraph.tree_build", id, build).ok_or("search space too large")?;
        t.tree_evaluations = space_size(&tree) as f64;
        Some(tree)
    } else {
        None
    };
    let ev =
        rec.time("core.evaluator_new", id, || SizeEvaluator::new(module, Box::new(X86Like), true));
    let sites = ev.sites().clone();
    if tree.is_none() && sites.is_empty() {
        return Ok(None);
    }
    let objective = item.objective();
    let cache = match cache_dir {
        Some(dir) => Some(
            rec.time("store.open", id, || open_cache(&ev, dir, objective))
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let inner = Timed::new(&ev, (&ctx.sampler, item.source.clone(), Offer::Misses));
    let persisted = cache.as_ref().map(|c| PersistentEvaluator::new(&inner, c, sites.clone()));
    let base: &dyn Evaluator = match &persisted {
        Some(p) => p,
        None => &inner,
    };
    let outer = Timed::new(base, (&ctx.sampler, item.source.clone(), Offer::Queries));
    // The baselines span covers the heuristic's decision and its
    // measurement (and, for searches, the clean slate's).
    let heuristic = || StrategyChoice::Heuristic.configuration(ev.module(), ev.target());
    let clean = InliningConfiguration::clean_slate();
    let session = SearchSession::new();
    let answer = match (item.op, &tree) {
        (Op::Search, Some(tree)) => {
            let busy0 = inner.busy();
            let start = Instant::now();
            let (_, size) = rec.time("core.search", id, || {
                let pool = WorkerPool::global();
                evaluate_inlining_tree_dag(tree, &outer, clean.clone(), pool, Some(&session))
            });
            t.search_wall_ns = start.elapsed().as_nanos() as u64;
            t.search_busy_ns = inner.busy() - busy0;
            let exec = session.stats();
            (t.tasks, t.steals, t.dedup_hits) = (exec.tasks, exec.steals, exec.dedup_hits);
            rec.time("core.baselines", id, || {
                outer.size_of(&heuristic());
                outer.size_of(&clean);
            });
            Measurement::size_only(size)
        }
        (Op::AutotuneSize | Op::AutotuneSpeed, _) => {
            // The CLI's combined session: clean slate, then heuristic init,
            // keep the better; for speed, over cycles via `SpeedEvaluator`.
            let speed = SpeedEvaluator::new(&outer, ev.cost_model());
            let tuned: &dyn Evaluator = if item.op == Op::AutotuneSpeed { &speed } else { &outer };
            let h = rec.time("core.baselines", id, || {
                let h = heuristic();
                tuned.size_of(&h);
                h
            });
            let (busy0, start) = (inner.busy(), Instant::now());
            let outcomes = rec.time("core.autotune", id, || {
                let tuner = Autotuner::new(tuned, sites.clone());
                [tuner.clean_slate(item.rounds()), tuner.run(h, item.rounds())]
            });
            t.autotune_wall_ns = start.elapsed().as_nanos() as u64;
            t.autotune_busy_ns = inner.busy() - busy0;
            t.probes = outcomes.iter().map(|o| o.total_evaluations() as u64).sum();
            let best = Autotuner::combine(outcomes.iter());
            if item.op == Op::AutotuneSpeed {
                rec.time("core.final_measure", id, || outer.measure(&best.config, Objective::Speed))
            } else {
                Measurement::size_only(best.size)
            }
        }
        _ => unreachable!("optimize returned above; searches always build a tree"),
    };
    if let Some(c) = &cache {
        rec.time("store.flush", id, || c.flush()).map_err(|e| e.to_string())?;
        let p = c.stats();
        (t.store_hits, t.store_misses) = (p.hits, p.misses);
        t.lookup_ns = outer.busy().saturating_sub(inner.busy());
    }
    let s = ev.stats();
    t.queries = s.queries;
    t.compiles = s.compiles;
    t.memo_hits = s.cache_hits;
    t.memo_misses = s.cache_misses;
    t.full_module_equivalents = s.full_module_equivalents;
    t.fixpoint_cap_hits = s.fixpoint_cap_hits;
    t.cycle_measures = s.cycle_measures;
    t.cycle_compiles = s.cycle_compiles;
    t.eval_busy_ns = inner.busy();
    t.eval_miss_ns = inner.miss_ns.load(Ordering::Relaxed);
    t.eval_misses = inner.misses.load(Ordering::Relaxed);
    rec.aggregate(id, "core.eval", inner.calls.load(Ordering::Relaxed), t.eval_busy_ns);
    // Releasing the request's state is part of its cost, as on the
    // untraced path: memo tables and the session, then the store handle.
    let start = rec.now();
    drop(outer);
    drop(persisted);
    drop(inner);
    drop((session, tree, ev));
    rec.record(rec.reserve(), Some(id), "teardown", start, rec.now());
    if cache.is_some() {
        rec.time("store.close", id, || drop(cache));
    }
    ctx.totals.lock().expect("trace lock poisoned").absorb(&t);
    Ok(Some(answer))
}

/// The request a wire `kind` carries, as a workload item.
pub fn item_of(kind: &RequestKind) -> Option<Item> {
    let (source, op) = match kind {
        RequestKind::Search { source, .. } => (source, Op::Search),
        RequestKind::Autotune { source, objective, .. } if objective == "speed" => {
            (source, Op::AutotuneSpeed)
        }
        RequestKind::Autotune { source, .. } => (source, Op::AutotuneSize),
        RequestKind::Optimize { source, .. } => (source, Op::Optimize),
        _ => return None,
    };
    let key = source.lines().next().and_then(|l| l.split('"').nth(1)).unwrap_or("?").into();
    Some(Item { key, source: source.as_str().into(), op })
}

/// One handler execution, for matching to the client request it served.
#[derive(Clone, Copy, Debug)]
pub struct HandlerRun {
    pub identity: Option<u128>,
    pub entry: u64,
    pub exit: u64,
}

/// What the benchmark keeps of a [`TracedHandler`] it gave a daemon: the
/// slot selecting which context records, and the log of handler runs.
#[derive(Clone, Debug)]
pub struct Taps {
    pub ctx: Arc<Mutex<Arc<TraceCtx>>>,
    pub runs: Arc<Mutex<Vec<HandlerRun>>>,
}

/// A daemon handler that runs the traced executor, with the same store
/// policy as the CLI's handler: one shared store for the daemon's life,
/// flushed on drain.
pub struct TracedHandler {
    taps: Taps,
    dir: PathBuf,
    store: Arc<LocalStore>,
}

impl std::fmt::Debug for TracedHandler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedHandler").field("dir", &self.dir).finish_non_exhaustive()
    }
}

impl TracedHandler {
    pub fn new(dir: &Path, ctx: Arc<TraceCtx>) -> std::io::Result<(TracedHandler, Taps)> {
        let taps = Taps { ctx: Arc::new(Mutex::new(ctx)), runs: Arc::new(Mutex::new(Vec::new())) };
        let store = LocalStore::shared(dir)?;
        Ok((TracedHandler { taps: taps.clone(), dir: dir.to_path_buf(), store }, taps))
    }
}

impl Handler for TracedHandler {
    fn handle(&self, kind: &RequestKind, _progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let ctx = self.taps.ctx.lock().expect("handler lock poisoned").clone();
        let entry = ctx.rec.now();
        let item = item_of(kind).ok_or_else(|| format!("{} is not evaluable", kind.name()))?;
        let id = ctx.rec.reserve();
        let result = execute(&ctx, &item, Some(&self.dir), id);
        let exit = ctx.rec.now();
        ctx.rec.record(id, None, "serve.handler", entry, exit);
        let run = HandlerRun { identity: kind.identity(), entry, exit };
        self.taps.runs.lock().expect("handler lock poisoned").push(run);
        let measurement = result?;
        Ok(Reply { report: String::new(), module: None, measurement })
    }

    fn drained(&self) {
        if let Err(e) = self.store.flush_all() {
            eprintln!("optbench: store flush on drain failed: {e}");
        }
    }
}

/// A cleanup pass with a stopwatch around every per-function application.
#[derive(Debug)]
struct TimedPass {
    inner: Box<dyn Pass>,
    ns: Arc<AtomicU64>,
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_on_function(
        &self,
        module: &mut Module,
        fid: FuncId,
        am: &mut AnalysisManager,
    ) -> PassResult {
        let start = Instant::now();
        let res = self.inner.run_on_function(module, fid, am);
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        res
    }
}

/// The nine cleanup passes, in `cleanup_pipeline_with`'s order.
pub const PASSES: [&str; 9] = [
    "const-fold",
    "simplify",
    "sccp",
    "cse",
    "gvn",
    "simplify-cfg",
    "tail-merge",
    "dce",
    "dead-arg-elim",
];

/// `cleanup_pipeline_with(options, Some(summary))`, pass for pass, with
/// each pass behind a stopwatch.
fn timed_pipeline(summary: &EffectSummary, timers: &[Arc<AtomicU64>; 9]) -> PassManager {
    let passes: [Box<dyn Pass>; 9] = [
        Box::new(ConstFold),
        Box::new(Simplify),
        Box::new(Sccp),
        Box::new(Cse::with_summary(summary.clone())),
        Box::new(Gvn),
        Box::new(SimplifyCfg),
        Box::new(TailMerge),
        Box::new(Dce::with_summary(summary.clone())),
        Box::new(DeadArgElim),
    ];
    let mut pm = PassManager::new();
    pm.max_iterations(PipelineOptions::default().max_iterations);
    for (inner, ns) in passes.into_iter().zip(timers) {
        pm.add(TimedPass { inner, ns: ns.clone() });
    }
    pm
}

/// Mean per-compile costs of the whole-module replay.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub compiles: u64,
    /// Samples that were memo misses (the rest came from all queries).
    pub from_misses: usize,
    pub clone_ns: u64,
    pub effect_summary_ns: u64,
    pub inline_ns: u64,
    pub dfe_ns: u64,
    pub pass_ns: [u64; 9],
    pub text_size_ns: u64,
    pub interp_ns: u64,
    pub stats: PipelineStats,
    /// Replays whose size (or cycles) differed from the evaluator's answer.
    pub mismatches: Vec<String>,
}

/// Re-compiles each sample whole-module through the public pipeline pieces
/// in `optimize_os_report`'s order, timing each stage, and checks that the
/// replayed size (and cycles, when the evaluator measured them) equal the
/// evaluator's answer.
pub fn replay(samples: &[Sample], from_misses: usize) -> Replay {
    let timers: [Arc<AtomicU64>; 9] = Default::default();
    let mut r = Replay { from_misses, ..Replay::default() };
    let mut parsed: HashMap<*const u8, Module> = HashMap::new();
    let cost = CostModel::default();
    let lap = |t: &mut Instant| {
        let ns = t.elapsed().as_nanos() as u64;
        *t = Instant::now();
        ns
    };
    for s in samples {
        let pristine = parsed
            .entry(s.source.as_ptr())
            .or_insert_with(|| load_module(&s.source).expect("sampled sources parsed before"));
        let mut t = Instant::now();
        let mut m = pristine.clone();
        r.clone_ns += lap(&mut t);
        let summary = EffectSummary::compute(&m);
        r.effect_summary_ns += lap(&mut t);
        run_inliner_tracked(&mut m, &ForcedDecisions::new(s.config.decisions().clone()));
        r.inline_ns += lap(&mut t);
        let pm = timed_pipeline(&summary, &timers);
        let mut stats = pm.fresh_stats();
        let mut am = AnalysisManager::with_frozen_effects(summary);
        let all: Vec<FuncId> = m.func_ids().collect();
        pm.run_worklist(&mut m, &mut am, all.iter().copied(), &mut stats);
        lap(&mut t);
        let dead = DeadFunctionElim.run(&mut m);
        r.dfe_ns += lap(&mut t);
        if dead {
            am.invalidate_all();
            pm.run_worklist(&mut m, &mut am, all, &mut stats);
        }
        lap(&mut t);
        let size = text_size(&m, &X86Like);
        r.text_size_ns += lap(&mut t);
        let cycles = module_cycles(&m, &cost);
        r.interp_ns += lap(&mut t);
        r.stats.absorb(&stats);
        r.compiles += 1;
        let cycles_differ = s.expected.cycles.is_some() && cycles != s.expected.cycles;
        if size != s.expected.size || cycles_differ {
            r.mismatches.push(format!(
                "replay of {} under {} gave ({size}, {cycles:?}), the evaluator ({}, {:?})",
                pristine.name, s.config, s.expected.size, s.expected.cycles
            ));
        }
    }
    for (slot, timer) in r.pass_ns.iter_mut().zip(&timers) {
        *slot = timer.load(Ordering::Relaxed);
    }
    r
}

/// Per-layer metric value helper: `Σ / n`, 0 when `n` is 0.
pub fn mean(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}
