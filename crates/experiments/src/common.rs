//! Shared plumbing for the experiment harness: evaluator construction,
//! relative-size accounting, and report output (stdout + `results/`).

use optinline_codegen::X86Like;
use optinline_core::{
    cache_meta, module_fingerprint, Evaluator, EvaluatorStats, InliningConfiguration,
    PersistentCache, PersistentEvaluator, SearchSession, SizeEvaluator,
};
use optinline_heuristics::CostModelInliner;
use optinline_ir::Module;
use optinline_workloads::{spec_suite, Benchmark, Scale};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The harness-wide counters of the parallel tree search: every exhaustive
/// search in a run reports into it, so Figure 7 and the stats footer can
/// show cumulative tasks (tree nodes) and steals.
pub fn search_session() -> &'static SearchSession {
    static SESSION: OnceLock<SearchSession> = OnceLock::new();
    SESSION.get_or_init(SearchSession::new)
}

/// Harness context: scale, exhaustive-search budget, output directory.
#[derive(Debug)]
pub struct Ctx {
    /// Workload scale.
    pub scale: Scale,
    /// Only files whose recursively partitioned space is at most
    /// `2^exhaustive_bits` are searched exhaustively (paper: `2^18`).
    pub exhaustive_bits: u32,
    /// Where reports are written.
    pub out_dir: PathBuf,
    /// Run the size evaluator in component mode (default) instead of
    /// whole-module mode (`--full-eval`).
    pub incremental: bool,
    /// Directory for the persistent evaluation store (`--cache-dir`, or
    /// the `OPTINLINE_CACHE_DIR` environment variable): a second harness
    /// run answers every repeated size query from disk. `None` disables
    /// persistence.
    pub cache_dir: Option<PathBuf>,
}

impl Ctx {
    /// Default context: full scale, `2^14` exhaustive budget, `results/`,
    /// incremental evaluation.
    pub fn new() -> Self {
        Ctx {
            scale: Scale::Full,
            exhaustive_bits: 14,
            out_dir: PathBuf::from("results"),
            incremental: true,
            cache_dir: std::env::var_os("OPTINLINE_CACHE_DIR").map(PathBuf::from),
        }
    }

    /// Prints a report and writes it to `results/<name>.txt`.
    pub fn report(&self, name: &str, body: &str) {
        println!("{body}");
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{name}.txt"));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("[written to {}]", path.display());
        }
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Self::new()
    }
}

/// One file of the suite wrapped with its evaluator and the baseline
/// heuristic's configuration/size (computed once, shared by experiments).
#[derive(Debug)]
pub struct FileCase {
    /// Benchmark this file belongs to.
    pub bench: &'static str,
    /// File (module) name.
    pub file: String,
    /// Size evaluator (x86-like target; incremental or full per
    /// [`Ctx::incremental`]).
    pub evaluator: SizeEvaluator,
    /// The file's scope in the persistent evaluation store, when the
    /// harness runs with a cache directory.
    pub cache: Option<PersistentCache>,
    /// The LLVM-`-Os`-like baseline configuration.
    pub heuristic: InliningConfiguration,
    /// Baseline size (the experiments' 100% reference).
    pub heuristic_size: u64,
    /// Size with inlining disabled.
    pub no_inline_size: u64,
}

impl FileCase {
    /// Wraps `module` for the harness. With a cache directory, the
    /// evaluator gets a persistent scope in one shared store, addressed by
    /// its `memo_scope` identity — the same addressing the CLI uses, so
    /// harness and CLI runs share warm entries.
    pub fn new(
        bench: &'static str,
        module: Module,
        incremental: bool,
        cache_dir: Option<&Path>,
    ) -> FileCase {
        let file = module.name.clone();
        let evaluator = SizeEvaluator::new(module, Box::new(X86Like), incremental);
        let cache = cache_dir.and_then(|dir| {
            let fp = evaluator.memo_scope().expect("a SizeEvaluator always names its domain");
            // Names an older release's flat per-module file, imported once.
            let legacy = module_fingerprint(evaluator.module(), evaluator.target().name());
            let meta = cache_meta(evaluator.module(), evaluator.target().name());
            PersistentCache::open_scoped(dir, fp, Some(legacy), &meta)
                .map_err(|e| eprintln!("warning: cache disabled for {file}: {e}"))
                .ok()
        });
        let heuristic = InliningConfiguration::from_decisions(
            CostModelInliner::default().decide(evaluator.module(), &X86Like),
        );
        let mut case = FileCase {
            bench,
            file,
            evaluator,
            cache,
            heuristic,
            heuristic_size: 0,
            no_inline_size: 0,
        };
        (case.heuristic_size, case.no_inline_size) = case.with_evaluator(|ev| {
            (ev.size_of(&case.heuristic), ev.size_of(&InliningConfiguration::clean_slate()))
        });
        case
    }

    /// Runs `f` against the evaluator experiments query: the size
    /// evaluator, answered from the file's store scope first when there is
    /// one.
    pub fn with_evaluator<R>(&self, f: impl FnOnce(&dyn Evaluator) -> R) -> R {
        match &self.cache {
            Some(cache) => {
                let sites = self.evaluator.sites().clone();
                f(&PersistentEvaluator::new(&self.evaluator, cache, sites))
            }
            None => f(&self.evaluator),
        }
    }
}

/// Loads the suite and precomputes per-file baselines (see
/// [`FileCase::new`] for the cache directory).
pub fn load_cases(scale: Scale, incremental: bool, cache_dir: Option<&Path>) -> Vec<FileCase> {
    let suite: Vec<Benchmark> = spec_suite(scale);
    let mut cases = Vec::new();
    for bench in suite {
        for module in bench.files {
            cases.push(FileCase::new(bench.name, module, incremental, cache_dir));
        }
    }
    cases
}

/// Aggregates evaluator and store-scope counters across the whole suite.
pub fn aggregate_stats(cases: &[FileCase]) -> EvaluatorStats {
    let mut agg = EvaluatorStats::default();
    for c in cases {
        agg.merge(&c.evaluator.stats());
        if let Some(cache) = &c.cache {
            agg.absorb_persist(cache.stats());
        }
    }
    agg
}

/// One-line evaluator footer for experiment reports: cumulative compile
/// work across the suite so far.
pub fn stats_footer(cases: &[FileCase]) -> String {
    let mut stats = aggregate_stats(cases);
    stats.absorb_executor(search_session().stats());
    // All cases share one store (same directory), so its store-wide I/O
    // counters fold in exactly once.
    if let Some(cache) = cases.iter().find_map(|c| c.cache.as_ref()) {
        stats.absorb_store(cache.store_stats());
    }
    format!("evaluator: {}", stats.render())
}

/// Benchmark names in suite order.
pub fn bench_names(cases: &[FileCase]) -> Vec<&'static str> {
    let mut names = Vec::new();
    for c in cases {
        if !names.contains(&c.bench) {
            names.push(c.bench);
        }
    }
    names
}

/// Sums `f` over a benchmark's files.
pub fn bench_total(cases: &[FileCase], bench: &str, f: impl Fn(&FileCase) -> u64) -> u64 {
    cases.iter().filter(|c| c.bench == bench).map(f).sum()
}

/// Renders a per-benchmark relative-size table (vs the heuristic baseline).
pub fn relative_table(title: &str, cases: &[FileCase], tuned: impl Fn(&FileCase) -> u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>10}",
        "benchmark", "baseline(B)", "tuned(B)", "relative"
    );
    let mut rels = Vec::new();
    let mut grand_base = 0u64;
    let mut grand_tuned = 0u64;
    for name in bench_names(cases) {
        let base = bench_total(cases, name, |c| c.heuristic_size);
        let t = bench_total(cases, name, &tuned);
        grand_base += base;
        grand_tuned += t;
        let rel = 100.0 * t as f64 / base as f64;
        rels.push(rel);
        let _ = writeln!(out, "{name:<12} {base:>12} {t:>12} {rel:>9.1}%");
    }
    let median = optinline_core::analysis::median(&rels);
    let total = 100.0 * grand_tuned as f64 / grand_base as f64;
    let _ = writeln!(out, "{:-<50}", "");
    let _ = writeln!(out, "{:<12} median relative size: {median:>6.2}%", "");
    let _ = writeln!(out, "{:<12} total  relative size: {total:>6.2}%", "");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_core::Objective;

    #[test]
    fn pareto_cycle_counters_reach_the_footer() {
        let module =
            optinline_workloads::generate_file(&optinline_workloads::GenParams::named("footer", 5));
        let cases = vec![FileCase::new("bench", module, true, None)];
        assert!(!stats_footer(&cases).contains("cycles:"), "size-only so far");
        let measured =
            cases[0].with_evaluator(|ev| ev.measure(&cases[0].heuristic, Objective::Pareto));
        assert!(measured.cycles.is_some(), "generated modules have a public main");
        let footer = stats_footer(&cases);
        assert!(footer.contains("cycles: 1 measures / 1 compiles"), "{footer}");
    }

    #[test]
    fn store_counters_fold_in_once_per_case() {
        let dir = std::env::temp_dir().join(format!("optinline-exp-footer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let module = |seed| {
            optinline_workloads::generate_file(&optinline_workloads::GenParams::named(
                format!("file{seed}"),
                seed,
            ))
        };
        let cases: Vec<FileCase> =
            (0..2).map(|seed| FileCase::new("bench", module(seed), true, Some(&dir))).collect();
        // Two baseline queries per case, all against cold scopes.
        let stats = aggregate_stats(&cases);
        assert_eq!(stats.persist_hits + stats.persist_misses, 4);
        assert_eq!(stats.persist_loaded, 0);
        drop(cases);
        let warm: Vec<FileCase> =
            (0..2).map(|seed| FileCase::new("bench", module(seed), true, Some(&dir))).collect();
        let stats = aggregate_stats(&warm);
        assert_eq!((stats.persist_hits, stats.persist_misses), (4, 0));
        assert_eq!(stats.compiles, 0, "a warm harness run answers from disk");
        drop(warm);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
