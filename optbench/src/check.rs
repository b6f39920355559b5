//! The untimed check phase and the goldens it compares against.
//!
//! References are independent of the path under test where one exists:
//! committed goldens (in-process `cmd_*_measured` answers for every module
//! any seed can draw, so served answers are checked against the in-process
//! path too), the exhaustive `2^n` search for small modules, and the
//! interpreter for program behaviour.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use optinline_callgraph::Decision;
use optinline_cli::{cmd_optimize_measured, load_module, OptimizeOptions, StrategyChoice};
use optinline_cli::{Objective, TargetChoice};
use optinline_codegen::{text_size, X86Like};
use optinline_core::{exhaustive_search, InliningConfiguration, SizeEvaluator};
use optinline_ir::interp::run_main;
use optinline_ir::{CallSiteId, Measurement, Module};

use crate::inputs::{self, Answer, Item, Members, Op, Workload};
use crate::stats::{geomean, median};

/// Exhaustive `2^n` search cross-checks search-cold's tree optima up to
/// this many call sites. At ten sites the 1024-configuration searches of
/// a draw's ten-site files alone take about 16 CPU-seconds, over half the
/// measured phase; at nine all of them take about two. Served searches are
/// checked against goldens instead: exhaustive checks of serve-warm's 32
/// modules alone would take longer than its measured phase.
pub const NAIVE_MAX_SITES: usize = 9;

const SEARCH_GOLDEN: &str = include_str!("../golden/search-cold.tsv");
const AUTOTUNE_GOLDEN: &str = include_str!("../golden/autotune-speed.tsv");
const WARM_GOLDEN: &str = include_str!("../golden/serve-warm.tsv");
const COLD_GOLDEN: &str = include_str!("../golden/serve-cold.tsv");

/// Recorded answers by (module, request kind).
type Golden = HashMap<(String, Op), Measurement>;

/// The first answer seen for each distinct request.
pub type Answers = BTreeMap<(Arc<str>, Op), Answer>;

/// What the check phase found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub problems: Vec<String>,
    /// Geometric mean of answer ÷ heuristic (size for searches, cycles for
    /// speed autotuning).
    pub quality_ratio: f64,
}

/// Parses `{s3: inline, s5: no-inline}`, the configuration form reports
/// print.
pub fn parse_config(text: &str) -> Option<InliningConfiguration> {
    let inner = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut config = InliningConfiguration::clean_slate();
    for entry in inner.split(", ").filter(|e| !e.is_empty()) {
        let (site, label) = entry.split_once(": ")?;
        let id = CallSiteId::new(site.strip_prefix('s')?.parse().ok()?);
        let decision = match label {
            "inline" => Decision::Inline,
            "no-inline" => Decision::NoInline,
            _ => return None,
        };
        config.set(id, decision);
    }
    Some(config)
}

/// The configuration a search or autotune report chose.
fn reported_config(report: &str) -> Option<InliningConfiguration> {
    report
        .lines()
        .find_map(|l| l.strip_prefix("optimal config:").or(l.strip_prefix("configuration:")))
        .and_then(parse_config)
}

/// Checks a compiled module against its input under the interpreter: same
/// return value and final globals.
fn behaviour_problem(module: &Module, compiled: &Module) -> Option<String> {
    let observe = |m: &Module| run_main(m).map(|o| (o.ret, o.globals)).map_err(|e| e.to_string());
    let (before, after) = (observe(module), observe(compiled));
    (before != after).then(|| {
        format!("{}: chosen configuration changes behaviour: {before:?} -> {after:?}", module.name)
    })
}

fn golden_rows(workload: Workload) -> impl Iterator<Item = Vec<&'static str>> {
    let text = match workload {
        Workload::SearchCold => SEARCH_GOLDEN,
        Workload::AutotuneSpeed => AUTOTUNE_GOLDEN,
        Workload::ServeWarm => WARM_GOLDEN,
        Workload::ServeCold => COLD_GOLDEN,
    };
    text.lines().skip(1).filter(|l| !l.trim().is_empty()).map(|l| l.split('\t').collect())
}

/// The recorded answers of every request `workload` can draw, from rows of
/// `module request size cycles cost_ms`, with `-` for no cycles.
fn golden(workload: Workload) -> Golden {
    golden_rows(workload)
        .filter_map(|r| {
            let size = r.get(2)?.parse().ok()?;
            let m = match *r.get(3)? {
                "-" => Measurement::size_only(size),
                cycles => Measurement::with_cycles(size, cycles.parse().ok()?),
            };
            Some(((r.first()?.to_string(), Op::parse(r.get(1)?)?), m))
        })
        .collect()
}

/// Module → milliseconds its requests took in-process when the goldens
/// were written, summed over request kinds: the cost its population is
/// stratified by. Only the order matters.
pub fn costs(workload: Workload) -> HashMap<String, f64> {
    let mut costs = HashMap::new();
    for r in golden_rows(workload) {
        let ms = r.get(4).and_then(|c| c.parse::<f64>().ok());
        if let (Some(module), Some(ms)) = (r.first(), ms) {
            *costs.entry(module.to_string()).or_default() += ms;
        }
    }
    costs
}

fn heuristic(source: &str, objective: Objective) -> Result<Measurement, String> {
    let opts = OptimizeOptions { objective, ..OptimizeOptions::default() };
    cmd_optimize_measured(source, StrategyChoice::Heuristic, TargetChoice::X86, opts)
        .map(|(_, _, m)| m)
        .map_err(|e| e.to_string())
}

/// Checks every distinct answer of a run and computes its quality ratio.
/// `items` is one pass of the workload, for the sources behind the keys.
/// Answers are checked on every core at once; problems keep answer order.
pub fn check(workload: Workload, items: &[Item], answers: &Answers) -> Verdict {
    let sources: HashMap<(Arc<str>, Op), &Item> =
        items.iter().map(|it| ((it.key.clone(), it.op), it)).collect();
    let golden = golden(workload);
    let answers: Vec<_> = answers.iter().collect();
    let cursor = AtomicUsize::new(0);
    let mut checked: Vec<(usize, Vec<String>, Option<f64>)> = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..crate::sys::nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&((key, op), answer)) = answers.get(i) else { break };
                        let item = sources.get(&(key.clone(), *op)).copied();
                        let (problems, ratio) =
                            check_answer(workload, &golden, key, *op, item, answer);
                        done.push((i, problems, ratio));
                    }
                    done
                })
            })
            .collect();
        lanes.into_iter().flat_map(|l| l.join().expect("check thread panicked")).collect()
    });
    checked.sort_by_key(|c| c.0);
    let mut v = Verdict::default();
    let mut ratios = Vec::new();
    for (_, problems, ratio) in checked {
        v.problems.extend(problems);
        ratios.extend(ratio);
    }
    v.quality_ratio = geomean(&ratios);
    v
}

/// One distinct answer's problems, and its answer ÷ heuristic ratio where
/// it has one.
fn check_answer(
    workload: Workload,
    golden: &Golden,
    key: &Arc<str>,
    op: Op,
    item: Option<&Item>,
    (report, measured): &Answer,
) -> (Vec<String>, Option<f64>) {
    let mut problems = Vec::new();
    let Some(item) = item else {
        return (vec![format!("{key}: answered but not in the workload")], None);
    };
    let Some(measured) = *measured else {
        return (vec![format!("{key}: no measurement in the answer")], None);
    };
    let module = match load_module(&item.source) {
        Ok(m) => m,
        Err(e) => return (vec![format!("{key}: {e}")], None),
    };
    let recorded = golden.get(&(key.to_string(), op));
    if recorded != Some(&measured) {
        problems.push(format!("{key} {}: answer {measured:?} != golden {recorded:?}", op.name()));
    }
    if op == Op::Optimize {
        return (problems, None);
    }
    match reported_config(report) {
        Some(config) => {
            let whole = SizeEvaluator::new(module.clone(), Box::new(X86Like), false);
            let compiled = whole.compile(&config);
            let size = text_size(&compiled, &X86Like);
            if size != measured.size {
                problems.push(format!(
                    "{key}: reported config compiles to {size} B, answer {} B",
                    measured.size
                ));
            }
            problems.extend(behaviour_problem(&module, &compiled));
        }
        None => problems.push(format!("{key}: no configuration in the report")),
    }
    let small = module.inlinable_sites().len() <= NAIVE_MAX_SITES;
    if workload == Workload::SearchCold && small {
        let ev = SizeEvaluator::new(module.clone(), Box::new(X86Like), true);
        let naive = exhaustive_search(&ev, ev.sites());
        if naive.size != measured.size {
            problems.push(format!(
                "{key}: tree optimum {} != exhaustive {}",
                measured.size, naive.size
            ));
        }
    }
    let objective = item.objective();
    let ratio = match heuristic(&item.source, objective) {
        Ok(h) if objective == Objective::Speed => {
            // The speed scalar falls back to size for a module with
            // nothing executable, as the autotuner's does.
            let (tuned, base) =
                (measured.cycles.unwrap_or(measured.size), h.cycles.unwrap_or(h.size));
            if tuned > base {
                problems.push(format!("{key}: tuned {tuned} cycles > heuristic {base}"));
            }
            Some(tuned as f64 / base as f64)
        }
        Ok(h) => Some(measured.size as f64 / h.size as f64),
        Err(e) => {
            problems.push(format!("{key}: heuristic failed: {e}"));
            None
        }
    };
    (problems, ratio)
}

/// Repetitions of each request when the goldens are written; its cost is
/// their median time.
const COST_REPS: usize = 3;

/// Writes `<workload>.tsv` under `dir` for every workload: the in-process
/// answer to every request any seed can draw, and its median time over
/// [`COST_REPS`] runs, which orders the populations for the draw.
pub fn write_goldens(dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut text = String::from("module\trequest\tsize\tcycles\tcost_ms\n");
        for item in inputs::population(workload, Members::Defined) {
            let mut times = Vec::new();
            let mut answers = Vec::new();
            for _ in 0..COST_REPS {
                let t = Instant::now();
                let (_, m) = item.run_in_process().map_err(|e| format!("{}: {e}", item.key))?;
                times.push(t.elapsed().as_secs_f64() * 1e3);
                answers.push(m.ok_or_else(|| format!("{}: no measurement", item.key))?);
            }
            if answers.iter().any(|a| *a != answers[0]) {
                return Err(format!("{}: answers differ between runs: {answers:?}", item.key));
            }
            let m = answers[0];
            let cycles = m.cycles.map_or("-".to_string(), |c| c.to_string());
            let cost = median(&times);
            let (key, op) = (&item.key, item.op.name());
            let _ = writeln!(text, "{key}\t{op}\t{}\t{cycles}\t{cost:.3}", m.size);
        }
        let name = format!("{}.tsv", workload.name());
        std::fs::write(dir.join(&name), &text).map_err(|e| format!("{name}: {e}"))?;
        rows.push(format!("{} {name}", text.lines().count() - 1));
    }
    Ok(format!("wrote {} golden rows under {}", rows.join(", "), dir.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configurations_round_trip_through_their_printed_form() {
        let config = InliningConfiguration::clean_slate()
            .with(CallSiteId::new(3), Decision::Inline)
            .with(CallSiteId::new(12), Decision::NoInline);
        assert_eq!(parse_config(&config.to_string()), Some(config));
        assert_eq!(parse_config("{}"), Some(InliningConfiguration::clean_slate()));
        assert_eq!(parse_config("{s1: maybe}"), None);
        let report = "optimal size:       96 B\noptimal config:     {s0: inline}\n";
        let expected =
            InliningConfiguration::clean_slate().with(CallSiteId::new(0), Decision::Inline);
        assert_eq!(reported_config(report), Some(expected));
    }

    /// The goldens list exactly the population each workload defines, so
    /// runs, which take the population from the goldens, draw from it.
    #[test]
    fn goldens_cover_every_request_a_seed_can_draw() {
        let keys = |items: Vec<Item>| -> Vec<(String, Op, String)> {
            items.into_iter().map(|it| (it.key.to_string(), it.op, it.source.to_string())).collect()
        };
        for workload in Workload::ALL {
            let golden = golden(workload);
            let defined = keys(inputs::population(workload, Members::Defined));
            assert_eq!(golden.len(), defined.len(), "{workload:?}");
            for (key, op, _) in &defined {
                assert!(golden.contains_key(&(key.clone(), *op)), "{workload:?}: {key} {op:?}");
            }
            assert_eq!(keys(inputs::population(workload, Members::Listed)), defined);
        }
    }
}
