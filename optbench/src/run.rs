//! One workload run in one process: set-up, the measured phase, the traced
//! phase when asked, and the untimed check phase.

use std::collections::btree_map::Entry;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use optinline_core::WorkerPool;
use optinline_serve::ServerStats;
use optinline_store::LocalStore;

use crate::check::{self, Answers};
use crate::inputs::{self, Answer, Item, Op, Workload};
use crate::json::{metric, obj, Json};
use crate::serve::{self, Daemon, Exchange};
use crate::speed::Calibrator;
use crate::stats::{median, percentile, samples_beyond, tail_percentile};
use crate::sys;
use crate::trace::{self, mean, HandlerRun, Replay, TraceCtx, TracedHandler, PASSES};

/// Set-up repeats until it has run at least `SETUP_MIN_REPS` times and for
/// `SETUP_MIN_SECONDS` in total; `setup_s` is the median. A millisecond
/// set-up thus gets hundreds of samples and a second-long one three.
pub const SETUP_MIN_REPS: usize = 3;
pub const SETUP_MIN_SECONDS: f64 = 1.0;
pub const SETUP_MAX_REPS: usize = 1000;
/// Round trips per probe kind after a traced served phase.
pub const PROBES: usize = 500;
/// Chunks per pass of a served workload's measured phase; the speed kernel
/// is sampled after each. Each chunk ends when its last reply is in, which
/// idles one connection for part of a request, so chunks are few.
pub const SERVED_CHUNKS: usize = 16;
/// Seconds a run measures, `BENCHMARK.json`'s `run_seconds`: whole passes
/// run until the next would end after it, so at least one always runs.
pub const RUN_SECONDS: f64 = 10.0;

/// End-to-end metrics: name and unit, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("throughput_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics: name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 71] = [
    ("ir.load_ms", "ms"),
    ("ir.interp_us", "us"),
    ("callgraph.tree_build_ms", "ms"),
    ("callgraph.tree_evaluations", "count"),
    ("core.evaluator_new_ms", "ms"),
    ("core.baselines_ms", "ms"),
    ("core.eval.queries", "count"),
    ("core.eval.compiles", "count"),
    ("core.eval.memo_hit_ratio", "ratio"),
    ("core.eval.full_module_equivalents", "count"),
    ("core.eval.fixpoint_cap_hits", "count"),
    ("core.eval.busy_ms", "ms"),
    ("core.eval.us_per_compile", "us"),
    ("core.eval.cycle_measures", "count"),
    ("core.eval.cycle_compiles", "count"),
    ("core.search.ms", "ms"),
    ("core.search.lane_utilization", "ratio"),
    ("core.search.tasks", "count"),
    ("core.search.steals", "count"),
    ("core.search.dedup_hits", "count"),
    ("core.autotune.ms", "ms"),
    ("core.autotune.probes", "count"),
    ("core.autotune.lane_utilization", "ratio"),
    ("opt.replayed_compiles", "count"),
    ("opt.clone_us", "us"),
    ("opt.effect_summary_us", "us"),
    ("opt.inline_us", "us"),
    ("opt.dead-function-elim_us", "us"),
    ("opt.pass.const-fold_us", "us"),
    ("opt.pass.simplify_us", "us"),
    ("opt.pass.sccp_us", "us"),
    ("opt.pass.cse_us", "us"),
    ("opt.pass.gvn_us", "us"),
    ("opt.pass.simplify-cfg_us", "us"),
    ("opt.pass.tail-merge_us", "us"),
    ("opt.pass.dce_us", "us"),
    ("opt.pass.dead-arg-elim_us", "us"),
    ("opt.pass.const-fold.invocations", "count"),
    ("opt.pass.simplify.invocations", "count"),
    ("opt.pass.sccp.invocations", "count"),
    ("opt.pass.cse.invocations", "count"),
    ("opt.pass.gvn.invocations", "count"),
    ("opt.pass.simplify-cfg.invocations", "count"),
    ("opt.pass.tail-merge.invocations", "count"),
    ("opt.pass.dce.invocations", "count"),
    ("opt.pass.dead-arg-elim.invocations", "count"),
    ("opt.pass_useful_ratio", "ratio"),
    ("opt.function_visits", "count"),
    ("opt.analysis_hit_ratio", "ratio"),
    ("codegen.text_size_us", "us"),
    ("store.open_ms", "ms"),
    ("store.lookup_ms", "ms"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.appends", "count"),
    ("store.flushed_lines", "count"),
    ("store.flush_ms", "ms"),
    ("store.disk_bytes", "B"),
    ("serve.pre_handler_us_p50", "us"),
    ("serve.pre_handler_us_p99", "us"),
    ("serve.handler_ms_p50", "ms"),
    ("serve.post_handler_us_p50", "us"),
    ("serve.ping_rtt_us_p50", "us"),
    ("serve.noop_rtt_us_p50", "us"),
    ("serve.evaluations", "count"),
    ("serve.dedup_joined", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.poll_wakeups_per_request", "count"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one `run` was asked to do.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Result file; a traced run writes its spans beside it.
    pub out: Option<PathBuf>,
}

/// A run's outcome, as printed and as written with `--out`.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics for untraced runs, per-layer ones for traced.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
    pub explain: Option<Json>,
}

impl RunReport {
    /// The end-to-end `failed_ratio`: failed requests and failed checks ÷
    /// requests attempted. It is 0 on every correct run, so it is printed
    /// and gated by `compare` at exactly 0 rather than listed with the
    /// bounded metrics in `BENCHMARK.json`, whose bounds are shares of a
    /// median.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Sockets, caches and spans of one run, under the working directory;
/// removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = PathBuf::from(".optbench").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.optbench` in place only when it holds something else.
        let _ = std::fs::remove_dir(".optbench");
    }
}

/// The measured phase's samples and answers. Wall and CPU time per pass
/// and latencies are as the clocks read them; the run scales them to the
/// reference speed ([`speed`]) when it reports them.
/// Latencies and throughput count answered requests only; a failed one is
/// a problem, which fails the run.
#[derive(Default)]
struct Phase {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    latencies_ms: Vec<f64>,
    passes: Vec<Vec<Item>>,
    answers: Answers,
    attempted: u64,
    problems: Vec<String>,
}

impl Phase {
    fn record(&mut self, item: &Item, latency_ms: f64, result: Result<Answer, String>) {
        self.attempted += 1;
        match result {
            Err(e) => {
                self.problems.push(format!("{} {}: {e}", item.key, item.op.name()));
            }
            Ok(answer) => match self.answers.entry((item.key.clone(), item.op)) {
                Entry::Vacant(slot) => {
                    self.latencies_ms.push(latency_ms);
                    slot.insert(answer);
                }
                // Reports count compilations, which racing lanes can
                // repeat; the measurement is the answer.
                Entry::Occupied(first) if first.get().1 != answer.1 => {
                    self.problems.push(format!("{}: answer changed between repeats", item.key));
                }
                Entry::Occupied(_) => self.latencies_ms.push(latency_ms),
            },
        }
    }

    fn wall(&self) -> f64 {
        self.walls.iter().sum()
    }
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Pass `p`'s items. serve-cold renames its modules every pass so each
/// pass finds the store cold; the other workloads repeat their items.
fn pass_items(workload: Workload, items: &[Item], p: usize) -> Vec<Item> {
    match workload {
        Workload::ServeCold => {
            items.iter().map(|it| it.renamed(&format!("{}.p{p}", it.key))).collect()
        }
        _ => items.to_vec(),
    }
}

/// Builds the inputs and, for served workloads, boots the daemon and fills
/// its store (serve-warm sends every distinct request once).
fn setup(
    args: &RunArgs,
    scratch: &Path,
    rep: usize,
) -> Result<(Vec<Item>, Option<Daemon>), String> {
    let items = inputs::items(args.workload, args.seed);
    // The process-wide worker pool starts lazily; start it here rather
    // than inside the first timed request.
    WorkerPool::global();
    if !args.workload.served() {
        return Ok((items, None));
    }
    let dir = scratch.join(format!("cache-{rep}"));
    let mut daemon = Daemon::start_cli(&dir, &scratch.join(format!("d{rep}.sock")))?;
    if args.workload == Workload::ServeWarm {
        for e in serve::drive(&mut daemon.clients, &inputs::distinct(&items)) {
            e.result.map_err(|err| format!("warm-up request failed: {err}"))?;
        }
    }
    Ok((items, Some(daemon)))
}

/// Runs whole passes until the next one would end, on average, past
/// `budget` seconds (at least one pass). A pass runs in chunks with a speed
/// sample after each: one request per chunk in-process, and
/// [`SERVED_CHUNKS`] chunks per pass when served.
fn measure(
    workload: Workload,
    items: &[Item],
    daemon: Option<&mut Daemon>,
    budget: f64,
    cal: &mut Calibrator,
) -> Phase {
    let mut phase = Phase::default();
    let mut clients = daemon.map(|d| &mut d.clients);
    let chunk_len = match clients {
        Some(_) => items.len().div_ceil(SERVED_CHUNKS),
        None => 1,
    };
    let start = Instant::now();
    for p in 0.. {
        let pass = pass_items(workload, items, p);
        let (mut wall, mut cpu) = (0.0, 0.0);
        for chunk in pass.chunks(chunk_len) {
            let (t0, cpu0) = (Instant::now(), sys::cpu_seconds());
            let answered: Vec<(usize, f64, Result<Answer, String>)> = match clients.as_deref_mut() {
                Some(clients) => serve::drive(clients, chunk)
                    .into_iter()
                    .map(|e| (e.index, ms(e.done - e.sent), e.result))
                    .collect(),
                None => chunk
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        let t = Instant::now();
                        let result = item.run_in_process().map_err(|e| e.to_string());
                        (i, ms(t.elapsed()), result)
                    })
                    .collect(),
            };
            let (w, c) = (t0.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0);
            cal.sample_after(w);
            wall += w;
            cpu += c;
            for (i, latency_ms, result) in answered {
                phase.record(&chunk[i], latency_ms, result);
            }
        }
        phase.walls.push(wall);
        phase.cpus.push(cpu);
        phase.passes.push(pass);
        if start.elapsed().as_secs_f64() + median(&phase.walls) / 2.0 >= budget {
            break;
        }
    }
    phase
}

/// A traced answer must equal the untraced run's.
fn compare_answer(
    phase: &Phase,
    item: &Item,
    traced: &Result<Option<optinline_ir::Measurement>, String>,
    problems: &mut Vec<String>,
) {
    let untraced = phase.answers.get(&(item.key.clone(), item.op)).map(|a| a.1);
    match traced {
        Ok(m) if Some(*m) == untraced => {}
        other => problems.push(format!(
            "{} {}: traced answer {other:?} != untraced {untraced:?}",
            item.key,
            item.op.name()
        )),
    }
}

/// What only a traced served phase measures.
#[derive(Default)]
struct ServeTrace {
    requests: f64,
    pre_us: Vec<f64>,
    post_us: Vec<f64>,
    ping_us: Vec<f64>,
    noop_us: Vec<f64>,
    delta: ServerStats,
    appends: f64,
    flushed_lines: f64,
    disk_bytes: f64,
    /// Medians of the no-op probes' split, µs, by part.
    noop_split: Vec<(String, f64)>,
}

/// The handler run that served a request sent at `sent` and answered at
/// `done`, if this request did not join one already running.
fn handler_run(
    runs: &[HandlerRun],
    identity: Option<u128>,
    sent: u64,
    done: u64,
) -> Option<HandlerRun> {
    runs.iter()
        .filter(|r| r.identity == identity && r.entry >= sent && r.exit <= done)
        .max_by_key(|r| r.entry)
        .copied()
}

/// Re-sends the measured phase's passes to a daemon running the traced
/// executor, in the measured phase's chunks with a speed sample after each,
/// then probes ping and no-op round trips. Returns the traced wall time.
fn trace_served(
    args: &RunArgs,
    phase: &Phase,
    dir: &Path,
    socket: &Path,
    ctx: &Arc<TraceCtx>,
    cal: &mut Calibrator,
    problems: &mut Vec<String>,
) -> Result<(f64, ServeTrace), String> {
    let (handler, taps) = TracedHandler::new(dir, ctx.clone()).map_err(|e| e.to_string())?;
    let mut daemon = Daemon::start_with(handler, dir, socket)?;
    let store = LocalStore::shared(dir).map_err(|e| e.to_string())?;
    let (store0, stats0) = (store.store_stats(), daemon.stats());
    let mut st = ServeTrace::default();
    let mut wall = 0.0;
    let mut exchanges: Vec<(Exchange, Option<u128>)> = Vec::new();
    for pass in &phase.passes {
        for chunk in pass.chunks(pass.len().div_ceil(SERVED_CHUNKS)) {
            let t0 = Instant::now();
            let ex = serve::drive(&mut daemon.clients, chunk);
            let w = t0.elapsed().as_secs_f64();
            wall += w;
            cal.sample_after(w);
            for e in ex {
                let item = &chunk[e.index];
                let traced = e.result.clone().map(|a| a.1);
                compare_answer(phase, item, &traced, problems);
                exchanges.push((e, item.request_kind().identity()));
            }
        }
    }
    let (store1, stats1) = (store.store_stats(), daemon.stats());
    st.requests = exchanges.len() as f64;
    st.appends = (store1.appends - store0.appends) as f64;
    st.flushed_lines = (store1.flushed_lines - store0.flushed_lines) as f64;
    st.disk_bytes = store.disk_bytes().map_err(|e| e.to_string())? as f64;
    st.delta = ServerStats {
        evaluations: stats1.evaluations - stats0.evaluations,
        dedup_joined: stats1.dedup_joined - stats0.dedup_joined,
        poll_wakeups: stats1.poll_wakeups - stats0.poll_wakeups,
        ..ServerStats::default()
    };
    let rec = &ctx.rec;
    let measured_runs = std::mem::take(&mut *taps.runs.lock().expect("handler lock poisoned"));
    for (e, identity) in &exchanges {
        let (sent, done) = (rec.at(e.sent), rec.at(e.done));
        if let Some(run) = handler_run(&measured_runs, *identity, sent, done) {
            st.pre_us.push((run.entry - sent) as f64 / 1e3);
            st.post_us.push((done - run.exit) as f64 / 1e3);
        }
    }

    // Probes: a ping is transport alone; a search of an empty module adds
    // the request path with no evaluation work. They record into their
    // own context so the measured phase's layer numbers stay clean.
    let probe_ctx = Arc::new(TraceCtx::new(Instant::now(), args.seed));
    *taps.ctx.lock().expect("handler lock poisoned") = probe_ctx.clone();
    let client = &mut daemon.clients[0];
    for _ in 0..PROBES {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping failed: {e}"))?;
        st.ping_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let noop = Item { key: "noop".into(), source: "module \"noop\" {\n}\n".into(), op: Op::Search };
    let (mut pre, mut handler_us, mut post) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBES {
        let kind = noop.request_kind();
        let identity = kind.identity();
        let sent = Instant::now();
        client.call(kind, &mut |_| {}).map_err(|e| format!("no-op search failed: {e}"))?;
        let done = Instant::now();
        st.noop_us.push((done - sent).as_secs_f64() * 1e6);
        let runs = taps.runs.lock().expect("handler lock poisoned");
        let (s, d) = (probe_ctx.rec.at(sent), probe_ctx.rec.at(done));
        if let Some(run) = handler_run(&runs, identity, s, d) {
            pre.push((run.entry - s) as f64 / 1e3);
            handler_us.push((run.exit - run.entry) as f64 / 1e3);
            post.push((d - run.exit) as f64 / 1e3);
        }
    }
    st.noop_split = vec![
        ("pre_handler".into(), median(&pre)),
        ("handler".into(), median(&handler_us)),
        ("post_handler".into(), median(&post)),
    ];
    for layer in [
        "ir.load",
        "callgraph.tree_build",
        "core.evaluator_new",
        "store.open",
        "core.search",
        "core.baselines",
        "store.flush",
        "teardown",
        "store.close",
    ] {
        st.noop_split
            .push((format!("handler.{layer}"), median(&probe_ctx.rec.durations(layer)) / 1e3));
    }
    let final_stats = daemon.stop()?;
    problems.extend(serve::ledger_problem(&final_stats));
    problems.extend(serve::store_problem(dir));
    Ok((wall, st))
}

/// Runs one workload end to end and reports it.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let scratch = Scratch::new()?;
    let mut setup_cal = Calibrator::start();
    let mut setup_times = Vec::new();
    let mut current: Option<(Vec<Item>, Option<Daemon>)> = None;
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && setup_times.iter().sum::<f64>() >= SETUP_MIN_SECONDS {
            break;
        }
        let t = Instant::now();
        let next = setup(args, &scratch.0, rep)?;
        let elapsed = t.elapsed().as_secs_f64();
        setup_times.push(elapsed);
        setup_cal.sample_after(elapsed);
        if let Some((_, Some(old))) = current.replace(next) {
            let dir = old.cache_dir.clone();
            old.stop()?;
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    // Each phase is scaled to the reference speed by its own samples.
    let setup_scale = setup_cal.scale();
    let (items, mut daemon) = current.expect("at least one set-up");
    let budget = if args.trace { RUN_SECONDS / 2.0 } else { RUN_SECONDS };
    let mut cal = Calibrator::start();
    let mut phase = measure(args.workload, &items, daemon.as_mut(), budget, &mut cal);
    let peak_rss_mb = sys::peak_rss_mb();
    let scale = cal.scale();
    let mut problems = std::mem::take(&mut phase.problems);
    let mut cache_dir = None;
    if let Some(d) = daemon {
        cache_dir = Some(d.cache_dir.clone());
        let stats = d.stop()?;
        problems.extend(serve::ledger_problem(&stats));
        problems.extend(cache_dir.as_deref().and_then(serve::store_problem));
    }

    let n = phase.latencies_ms.len();
    let tail = tail_percentile(n, &[50.0, 90.0, 99.0, 99.9])
        .map_or("none".to_string(), |p| format!("p{p}"));
    let mut notes = vec![
        format!("workload {} seed {} nproc {}", args.workload.name(), args.seed, sys::nproc()),
        format!(
            "{} passes of {} requests; pass wall times (s) {:.3?} as read; wall times are \
             multiplied by {:.4} to read at the reference speed",
            phase.passes.len(),
            items.len(),
            phase.walls,
            scale.wall(),
        ),
        setup_cal.describe("set-up"),
        cal.describe("measured phase"),
        format!(
            "{n} latency samples: {} beyond p90, {} beyond p99; highest percentile with ten \
             beyond: {tail}",
            samples_beyond(n, 90.0),
            samples_beyond(n, 99.0),
        ),
    ];
    if args.workload.served() {
        notes.push(format!("{} closed-loop client connections", serve::connections()));
    }

    let mut explain = None;
    let mut per_layer_values = None;
    if args.trace {
        let ctx = Arc::new(TraceCtx::new(Instant::now(), args.seed));
        let mut trace_cal = Calibrator::start();
        let (traced_wall, serve_trace) = if args.workload.served() {
            // serve-warm keeps its warm store; serve-cold starts empty again.
            let dir = match args.workload {
                Workload::ServeWarm => cache_dir.clone().expect("served workloads have a store"),
                _ => scratch.0.join("cache-traced"),
            };
            let sock = scratch.0.join("traced.sock");
            let (wall, st) =
                trace_served(args, &phase, &dir, &sock, &ctx, &mut trace_cal, &mut problems)?;
            (wall, Some(st))
        } else {
            (trace_in_process(&phase, &ctx, &mut trace_cal, &mut problems), None)
        };
        // Both phases at the reference speed, each at its own.
        notes.push(trace_cal.describe("traced phase"));
        let overhead = traced_wall * trace_cal.scale().wall() / (phase.wall() * scale.wall()) - 1.0;
        let (samples, from_misses) = ctx.sampler.take();
        let replay = trace::replay(&samples, from_misses);
        problems.extend(replay.mismatches.iter().cloned());
        notes.push(format!(
            "replayed {} configurations whole-module ({} were evaluator misses); the \
             incremental evaluator compiles component slices, so replay costs approximate \
             its per-compile costs and match the cycles path exactly",
            replay.compiles, replay.from_misses
        ));
        if let Some(path) = args.out.as_deref().map(spans_path) {
            ctx.rec.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!("spans written to {}", path.display()));
        }
        let passes = phase.passes.len() as f64;
        per_layer_values = Some(per_layer(&ctx, &replay, passes, serve_trace.as_ref(), overhead));
        explain = Some(explain_json(&replay, serve_trace.as_ref()));
    }

    let check_start = Instant::now();
    let verdict = check::check(args.workload, &items, &phase.answers);
    problems.extend(verdict.problems);
    notes.push(format!("check phase took {:.1} s", check_start.elapsed().as_secs_f64()));
    let metrics = match per_layer_values {
        Some(values) => PER_LAYER.iter().map(|&(name, unit)| (name, values[name], unit)).collect(),
        None => {
            let wall = scale.wall();
            let lat: Vec<f64> = phase.latencies_ms.iter().map(|l| l * wall).collect();
            let values: HashMap<&str, f64> = HashMap::from([
                ("setup_s", median(&setup_times) * setup_scale.wall()),
                ("wall_s", median(&phase.walls) * wall),
                ("cpu_s", median(&phase.cpus) * scale.cpu),
                ("throughput_per_s", lat.len() as f64 / (phase.wall() * wall)),
                ("latency_p50_ms", percentile(&lat, 50.0)),
                ("latency_p90_ms", percentile(&lat, 90.0)),
                ("latency_p99_ms", percentile(&lat, 99.0)),
                ("peak_rss_mb", peak_rss_mb),
                ("quality_ratio", verdict.quality_ratio),
            ]);
            END_TO_END.iter().map(|&(name, unit)| (name, values[name], unit)).collect()
        }
    };
    Ok(RunReport {
        correct: problems.is_empty(),
        attempted: phase.attempted,
        // Every failed request and every failed check leaves one problem.
        failed: problems.len() as u64,
        metrics,
        notes,
        problems,
        explain,
    })
}

/// Re-executes the measured passes through the traced executor, with a
/// speed sample after each item; returns the traced wall time.
fn trace_in_process(
    phase: &Phase,
    ctx: &TraceCtx,
    cal: &mut Calibrator,
    problems: &mut Vec<String>,
) -> f64 {
    let mut wall = 0.0;
    for item in phase.passes.iter().flatten() {
        let t0 = Instant::now();
        let id = ctx.rec.reserve();
        let start = ctx.rec.now();
        let traced = trace::execute(ctx, item, None, id);
        ctx.rec.record(id, None, "item", start, ctx.rec.now());
        let w = t0.elapsed().as_secs_f64();
        wall += w;
        cal.sample_after(w);
        compare_answer(phase, item, &traced, problems);
    }
    wall
}

/// Every per-layer metric by name. Times are means per item (spans) or per
/// replayed compile (replay); counts are per pass of the workload, so a
/// deterministic count reads the same whatever the run length. A layer the
/// workload does not reach reads 0.
fn per_layer(
    ctx: &TraceCtx,
    replay: &Replay,
    passes: f64,
    serve: Option<&ServeTrace>,
    overhead: f64,
) -> HashMap<String, f64> {
    let t = ctx.totals();
    let rec = &ctx.rec;
    let span_ms = |name: &str| {
        let d = rec.durations(name);
        mean(d.iter().sum::<f64>(), d.len() as f64) / 1e6
    };
    let per_pass = |x: f64| x / passes;
    let rc = replay.compiles as f64;
    let per_compile_us = |ns: u64| mean(ns as f64, rc) / 1e3;
    let evaluated = [Op::Search, Op::AutotuneSpeed, Op::AutotuneSize]
        .iter()
        .map(|&op| ctx.count(op))
        .sum::<u64>() as f64;
    let stores = rec.durations("store.open").len() as f64;
    let lanes = trace::lanes();
    let (mut invocations, mut changed) = (0u64, 0u64);
    for p in &replay.stats.per_pass {
        invocations += p.invocations;
        changed += p.changed;
    }
    let a = replay.stats.analysis;
    let empty = ServeTrace::default();
    let s = serve.unwrap_or(&empty);
    let or0 = |x: f64| if x.is_nan() { 0.0 } else { x };
    let handler_ms: Vec<f64> = rec.durations("serve.handler").iter().map(|ns| ns / 1e6).collect();
    let (evals, joined) = (s.delta.evaluations as f64, s.delta.dedup_joined as f64);
    let mut m: Vec<(String, f64)> = vec![
        ("ir.load_ms".into(), span_ms("ir.load")),
        ("ir.interp_us".into(), per_compile_us(replay.interp_ns)),
        ("callgraph.tree_build_ms".into(), span_ms("callgraph.tree_build")),
        ("callgraph.tree_evaluations".into(), per_pass(t.tree_evaluations)),
        ("core.evaluator_new_ms".into(), span_ms("core.evaluator_new")),
        ("core.baselines_ms".into(), span_ms("core.baselines")),
        ("core.eval.queries".into(), per_pass(t.queries as f64)),
        ("core.eval.compiles".into(), per_pass(t.compiles as f64)),
        (
            "core.eval.memo_hit_ratio".into(),
            mean(t.memo_hits as f64, (t.memo_hits + t.memo_misses) as f64),
        ),
        ("core.eval.full_module_equivalents".into(), per_pass(t.full_module_equivalents)),
        ("core.eval.fixpoint_cap_hits".into(), per_pass(t.fixpoint_cap_hits as f64)),
        ("core.eval.busy_ms".into(), mean(t.eval_busy_ns as f64, evaluated) / 1e6),
        (
            "core.eval.us_per_compile".into(),
            mean(t.eval_miss_ns as f64, t.eval_misses as f64) / 1e3,
        ),
        ("core.eval.cycle_measures".into(), per_pass(t.cycle_measures as f64)),
        ("core.eval.cycle_compiles".into(), per_pass(t.cycle_compiles as f64)),
        ("core.search.ms".into(), span_ms("core.search")),
        (
            "core.search.lane_utilization".into(),
            mean(t.search_busy_ns as f64, t.search_wall_ns as f64 * lanes),
        ),
        ("core.search.tasks".into(), per_pass(t.tasks as f64)),
        ("core.search.steals".into(), per_pass(t.steals as f64)),
        ("core.search.dedup_hits".into(), per_pass(t.dedup_hits as f64)),
        ("core.autotune.ms".into(), span_ms("core.autotune")),
        ("core.autotune.probes".into(), per_pass(t.probes as f64)),
        (
            "core.autotune.lane_utilization".into(),
            mean(t.autotune_busy_ns as f64, t.autotune_wall_ns as f64 * lanes),
        ),
        ("opt.replayed_compiles".into(), rc),
        ("opt.clone_us".into(), per_compile_us(replay.clone_ns)),
        ("opt.effect_summary_us".into(), per_compile_us(replay.effect_summary_ns)),
        ("opt.inline_us".into(), per_compile_us(replay.inline_ns)),
        ("opt.dead-function-elim_us".into(), per_compile_us(replay.dfe_ns)),
        ("opt.pass_useful_ratio".into(), mean(changed as f64, invocations as f64)),
        ("opt.function_visits".into(), mean(replay.stats.function_visits as f64, rc)),
        ("opt.analysis_hit_ratio".into(), mean(a.hits as f64, (a.hits + a.computes) as f64)),
        ("codegen.text_size_us".into(), per_compile_us(replay.text_size_ns)),
        ("store.open_ms".into(), span_ms("store.open")),
        ("store.lookup_ms".into(), mean(t.lookup_ns as f64, stores) / 1e6),
        ("store.hits".into(), per_pass(t.store_hits as f64)),
        ("store.misses".into(), per_pass(t.store_misses as f64)),
        (
            "store.hit_ratio".into(),
            mean(t.store_hits as f64, (t.store_hits + t.store_misses) as f64),
        ),
        ("store.appends".into(), per_pass(s.appends)),
        ("store.flushed_lines".into(), per_pass(s.flushed_lines)),
        ("store.flush_ms".into(), span_ms("store.flush")),
        ("store.disk_bytes".into(), s.disk_bytes),
        ("serve.pre_handler_us_p50".into(), or0(percentile(&s.pre_us, 50.0))),
        ("serve.pre_handler_us_p99".into(), or0(percentile(&s.pre_us, 99.0))),
        ("serve.handler_ms_p50".into(), or0(percentile(&handler_ms, 50.0))),
        ("serve.post_handler_us_p50".into(), or0(percentile(&s.post_us, 50.0))),
        ("serve.ping_rtt_us_p50".into(), or0(percentile(&s.ping_us, 50.0))),
        ("serve.noop_rtt_us_p50".into(), or0(percentile(&s.noop_us, 50.0))),
        ("serve.evaluations".into(), per_pass(evals)),
        ("serve.dedup_joined".into(), per_pass(joined)),
        ("serve.dedup_ratio".into(), mean(joined, evals + joined)),
        ("serve.poll_wakeups_per_request".into(), mean(s.delta.poll_wakeups as f64, s.requests)),
        ("trace.coverage_ratio".into(), rec.coverage()),
        ("trace.overhead_ratio".into(), overhead),
    ];
    for (i, name) in PASSES.iter().enumerate() {
        let calls = replay.stats.per_pass.get(i).map_or(0, |p| p.invocations);
        m.push((format!("opt.pass.{name}_us"), per_compile_us(replay.pass_ns[i])));
        m.push((format!("opt.pass.{name}.invocations"), mean(calls as f64, rc)));
    }
    m.into_iter().collect()
}

/// The two explanations the traced numbers allow: where a no-op request's
/// time goes beyond a ping, and how one compile's time splits by stage.
fn explain_json(replay: &Replay, serve: Option<&ServeTrace>) -> Json {
    let rc = replay.compiles.max(1) as f64;
    let us = |ns: u64| Json::Num(ns as f64 / rc / 1e3);
    let mut stages = vec![
        ("clone".to_string(), us(replay.clone_ns)),
        ("effect_summary".to_string(), us(replay.effect_summary_ns)),
        ("inline".to_string(), us(replay.inline_ns)),
    ];
    for (name, &ns) in PASSES.iter().zip(&replay.pass_ns) {
        stages.push((format!("pass.{name}"), us(ns)));
    }
    stages.push(("dead-function-elim".to_string(), us(replay.dfe_ns)));
    stages.push(("text_size".to_string(), us(replay.text_size_ns)));
    stages.push(("interp".to_string(), us(replay.interp_ns)));
    let mut fields = vec![(
        "per_compile_us".to_string(),
        obj([
            ("basis", Json::Str("whole-module replay, mean per compile, in stage order".into())),
            ("compiles", Json::Num(replay.compiles as f64)),
            ("stages", Json::Obj(stages)),
        ]),
    )];
    if let Some(s) = serve {
        let split = s.noop_split.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect();
        let (ping, noop) = (percentile(&s.ping_us, 50.0), percentile(&s.noop_us, 50.0));
        fields.push((
            "ping_vs_noop_us".to_string(),
            obj([
                ("ping_rtt_p50", Json::Num(ping)),
                ("noop_rtt_p50", Json::Num(noop)),
                ("gap_p50", Json::Num(noop - ping)),
                ("noop_split_p50", Json::Obj(split)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Where a traced run with result file `out` writes its spans:
/// `result.json` → `result.spans.jsonl`.
pub fn spans_path(out: &Path) -> PathBuf {
    out.with_extension("spans.jsonl")
}

/// The run's result line, printed last on stdout.
pub fn summary_json(report: &RunReport) -> Json {
    let metrics =
        report.metrics.iter().map(|&(name, v, unit)| (name.to_string(), metric(v, unit))).collect();
    obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// The result file `--out` writes and `compare` reads: the run's identity,
/// the result line's fields, then notes, problems and (traced) explanations.
pub fn result_json(args: &RunArgs, report: &RunReport) -> Json {
    let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
    let mut fields = vec![
        ("workload".to_string(), Json::Str(args.workload.name().into())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("nproc".to_string(), Json::Num(sys::nproc() as f64)),
    ];
    if let Json::Obj(summary) = summary_json(report) {
        fields.extend(summary);
    }
    fields.push(("failed_ratio".to_string(), Json::Num(report.failed_ratio())));
    fields.push(("notes".to_string(), strings(&report.notes)));
    fields.push(("problems".to_string(), strings(&report.problems)));
    if let Some(e) = &report.explain {
        fields.push(("explain".to_string(), e.clone()));
    }
    Json::Obj(fields)
}
