//! `optbench compare`: parent runs against change runs, one row per
//! (workload, end-to-end metric), under `BENCHMARK.json`'s bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{obj, Json};
use crate::stats::{median, quartiles, relative_iqr};

/// A metric's direction and regression bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    /// Share of the parent's median the change may lose.
    pub bound: f64,
    /// Loss allowed whatever the share, in the metric's unit.
    pub floor: f64,
}

impl Bound {
    /// How far the change may move from a parent median of `parent`.
    fn allowed(self, parent: f64) -> f64 {
        (self.bound * parent.abs()).max(self.floor)
    }
}

/// `setup_s` may worsen by its share or 0.2 s, whichever is larger: a
/// set-up of a few milliseconds moves by more than any share between runs.
pub const SETUP_FLOOR_S: f64 = 0.2;
/// Metrics `compare` holds exact. Runs that share a seed give every
/// request the same inputs, so their answers, and `quality_ratio`, repeat
/// exactly; `BENCHMARK.json`'s bound for it is the spread across seeds.
pub const EXACT: [&str; 1] = ["quality_ratio"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    NoChange,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        }
    }
}

/// The rules, with runs paired in the order they were made:
/// - spread: if the parent's IQR exceeds the bound, the metric is
///   unresolved unless every change run beats every parent run;
/// - regression: the change's median is worse than the parent's by more
///   than the bound;
/// - gain: at least ten pairs, the change wins at least nine tenths of
///   them (ties count for neither), and the medians differ by more than
///   the parent's IQR.
pub fn verdict(parent: &[f64], change: &[f64], b: Bound) -> Verdict {
    // `better(a, b)`: a reads strictly better than b.
    let better = |a: f64, c: f64| if b.higher_is_better { a > c } else { a < c };
    let (pm, cm) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let iqr = q3 - q1;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if iqr > b.allowed(pm) && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if b.higher_is_better { pm - cm } else { cm - pm };
    if worse_by > b.allowed(pm) {
        return Verdict::Regression;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > iqr {
        return Verdict::Gain;
    }
    Verdict::NoChange
}

/// End-to-end metric bounds by name: `BENCHMARK.json`'s, with
/// [`SETUP_FLOOR_S`] under `setup_s` and the [`EXACT`] metrics at 0.
pub fn bounds(benchmark: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let metrics = benchmark.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without `better`")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without `bound`")?;
            let b = Bound {
                higher_is_better: better == "higher",
                bound: if EXACT.contains(&name) { 0.0 } else { bound },
                floor: if name == "setup_s" { SETUP_FLOOR_S } else { 0.0 },
            };
            Ok((name.to_string(), b))
        })
        .collect()
}

/// One workload's untraced runs, in file-name order (the order runs were
/// made in when names carry a counter).
#[derive(Debug, Default)]
pub struct WorkloadRuns {
    /// Each end-to-end metric's values.
    pub metrics: BTreeMap<String, Vec<f64>>,
    /// Each run's `failed_ratio`: failed requests and checks ÷ attempted,
    /// and 1 for a run whose result line says it was not correct.
    pub failed_ratios: Vec<f64>,
}

/// workload → its runs.
pub type Runs = BTreeMap<String, WorkloadRuns>;

/// Every result file under `dir`, in file-name order.
pub fn read_results(dir: &Path) -> Result<Vec<Json>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

fn workload_of(doc: &Json) -> &str {
    doc.get("workload").and_then(Json::as_str).unwrap_or("?")
}

fn traced(doc: &Json) -> bool {
    doc.get("trace") == Some(&Json::Bool(true))
}

/// The untraced runs among `results`.
pub fn untraced_runs(results: &[Json]) -> Runs {
    let mut runs = Runs::new();
    for doc in results.iter().filter(|d| !traced(d)) {
        let w = runs.entry(workload_of(doc).to_string()).or_default();
        let correct = doc.get("correct") == Some(&Json::Bool(true));
        let count = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let ratio = count("failed") / count("attempted").max(1.0);
        // NaN (a missing count) fails the comparison and counts as failed.
        w.failed_ratios.push(if correct && ratio >= 0.0 { ratio } else { 1.0 });
        for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                w.metrics.entry(name.clone()).or_default().push(v);
            }
        }
    }
    runs
}

/// A ledger entry for a set of runs: per workload, each end-to-end
/// metric's median and quartiles over the untraced runs, and the last
/// traced run's per-layer metrics and explanations.
pub fn ledger(results: &[Json], basis: &str) -> Json {
    let runs = untraced_runs(results);
    let mut workloads = Vec::new();
    for (workload, w) in &runs {
        let mut e2e = Vec::new();
        for (name, values) in &w.metrics {
            let (q1, q3) = quartiles(values);
            let summary = obj([
                ("median", Json::Num(median(values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("iqr_share", Json::Num(relative_iqr(values))),
            ]);
            e2e.push((name.clone(), summary));
        }
        let mut fields = vec![
            ("untraced_runs".to_string(), Json::Num(w.failed_ratios.len() as f64)),
            ("max_failed_ratio".to_string(), Json::Num(max(&w.failed_ratios))),
            ("end_to_end".to_string(), Json::Obj(e2e)),
        ];
        let last_traced = results.iter().rev().find(|d| traced(d) && workload_of(d) == workload);
        if let Some(doc) = last_traced {
            for key in ["metrics", "explain"] {
                if let Some(v) = doc.get(key) {
                    let name = if key == "metrics" { "per_layer" } else { key };
                    fields.push((name.to_string(), v.clone()));
                }
            }
        }
        workloads.push((workload.clone(), Json::Obj(fields)));
    }
    // The two questions the traced numbers answer, under their own names:
    // where a no-op request's time goes beyond a ping's, and how one
    // compile's time splits by stage.
    let mut explanations = Vec::new();
    for (name, workload) in [("ping_vs_noop_us", "serve-warm"), ("per_compile_us", "search-cold")] {
        let found = results
            .iter()
            .rev()
            .filter(|d| traced(d) && workload_of(d) == workload)
            .find_map(|d| d.get("explain").and_then(|e| e.get(name)));
        if let Some(e) = found {
            explanations.push((format!("{name} ({workload})"), e.clone()));
        }
    }
    let nproc = results.iter().find_map(|d| d.get("nproc").cloned()).unwrap_or(Json::Null);
    obj([
        ("basis", Json::Str(basis.to_string())),
        ("nproc", nproc),
        ("explanations", Json::Obj(explanations)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// The comparison table, and whether any row is a regression. Each
/// workload's first row is `failed_ratio`, held at exactly 0: a change run
/// that failed a request or a check is a regression whatever its other
/// numbers say.
pub fn compare(parent: &Runs, change: &Runs, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<17} {:>12} {:>12} {:>8} {:>6} {:>5}  verdict",
        "workload", "metric", "parent p50", "change p50", "delta", "spread", "bound"
    );
    let mut regressed = false;
    for (workload, pw) in parent {
        let Some(cw) = change.get(workload) else {
            let _ = writeln!(out, "{workload:<15} (no change runs)");
            continue;
        };
        let failing = max(&cw.failed_ratios) > 0.0;
        regressed |= failing;
        let _ = writeln!(
            out,
            "{workload:<15} {:<17} {:>12} {:>12} {:>8} {:>6} {:>5}  {} (worst run of each side)",
            "failed_ratio",
            max(&pw.failed_ratios),
            max(&cw.failed_ratios),
            "",
            "",
            "0",
            if failing { "regression" } else { "no change" }
        );
        for (metric, b) in bounds {
            let (Some(p), Some(c)) = (pw.metrics.get(metric), cw.metrics.get(metric)) else {
                continue;
            };
            let v = verdict(p, c, *b);
            regressed |= v == Verdict::Regression;
            let (pm, cm) = (median(p), median(c));
            let bound = match b.floor {
                0.0 => format!("{:.0}%", 100.0 * b.bound),
                floor => format!("{:.0}%|{floor}", 100.0 * b.bound),
            };
            let _ = writeln!(
                out,
                "{workload:<15} {metric:<17} {pm:>12.4} {cm:>12.4} {:>+7.1}% {:>5.1}% {bound:>5}  {} ({}v{} runs)",
                100.0 * (cm - pm) / pm.abs(),
                100.0 * relative_iqr(p),
                v.name(),
                p.len(),
                c.len()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound { higher_is_better: false, bound: 0.10, floor: 0.0 };
    const HIGHER: Bound = Bound { higher_is_better: true, bound: 0.10, floor: 0.0 };

    #[test]
    fn identical_runs_are_no_change() {
        let p = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&p, &p, LOWER), Verdict::NoChange);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_is_a_regression() {
        let p = [10.0, 10.1, 9.9, 10.0, 10.05];
        let c = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(verdict(&p, &c, LOWER), Verdict::Regression);
        // Direction matters: the same numbers are a gain candidate when
        // higher is better, but five pairs are too few to claim one.
        assert_eq!(verdict(&p, &c, HIGHER), Verdict::NoChange);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_iqr() {
        let p: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let better: Vec<f64> = p.iter().map(|x| x - 1.0).collect();
        assert_eq!(verdict(&p, &better, LOWER), Verdict::Gain);
        assert_eq!(verdict(&p[..9], &better[..9], LOWER), Verdict::NoChange);
        // Eight wins of ten is not enough.
        let mut mixed = better.clone();
        mixed[0] = 20.0;
        mixed[1] = 20.0;
        assert_eq!(verdict(&p, &mixed, LOWER), Verdict::NoChange);
        // A gap inside the parent's own spread is not a gain.
        let close: Vec<f64> = p.iter().map(|x| x - 0.001).collect();
        assert_eq!(verdict(&p, &close, LOWER), Verdict::NoChange);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.0, 13.0, 10.0, 9.5, 10.5];
        let similar = [8.5, 11.5, 9.0, 11.0, 10.0, 7.5, 12.5, 10.0, 9.0, 10.0];
        assert_eq!(verdict(&noisy, &similar, LOWER), Verdict::Unresolved);
        let far_better = [5.0; 10];
        assert_eq!(verdict(&noisy, &far_better, LOWER), Verdict::Gain);
    }

    #[test]
    fn an_exact_metric_regresses_on_any_worsening() {
        let exact = Bound { higher_is_better: false, bound: 0.0, floor: 0.0 };
        assert_eq!(verdict(&[0.9; 5], &[0.9; 5], exact), Verdict::NoChange);
        assert_eq!(verdict(&[0.9; 5], &[0.9001; 5], exact), Verdict::Regression);
    }

    #[test]
    fn a_floor_absorbs_small_absolute_moves() {
        let setup = Bound { higher_is_better: false, bound: 0.10, floor: 0.2 };
        // +100% of 10 ms is inside the 0.2 s floor; +0.3 s is not.
        assert_eq!(verdict(&[0.01; 5], &[0.02; 5], setup), Verdict::NoChange);
        assert_eq!(verdict(&[0.01; 5], &[0.31; 5], setup), Verdict::Regression);
        // Above 2 s the share is the larger allowance.
        assert_eq!(verdict(&[3.0; 5], &[3.25; 5], setup), Verdict::NoChange);
        assert_eq!(verdict(&[3.0; 5], &[3.35; 5], setup), Verdict::Regression);
    }

    fn result(correct: bool, failed: f64, wall: f64) -> Json {
        let wall = obj([("value", Json::Num(wall)), ("unit", Json::Str("s".into()))]);
        obj([
            ("workload", Json::Str("search-cold".into())),
            ("trace", Json::Bool(false)),
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("metrics", obj([("wall_s", wall)])),
        ])
    }

    #[test]
    fn a_failing_change_run_is_a_regression_whatever_its_numbers() {
        let bounds = BTreeMap::from([("wall_s".to_string(), LOWER)]);
        let parent = untraced_runs(&[result(true, 0.0, 10.0), result(true, 0.0, 10.0)]);
        // Faster, but one run failed a check.
        let change = untraced_runs(&[result(true, 0.0, 5.0), result(false, 1.0, 5.0)]);
        assert_eq!(change["search-cold"].failed_ratios, [0.0, 1.0]);
        let wrong_but_uncounted = untraced_runs(&[result(false, 0.0, 5.0)]);
        assert_eq!(wrong_but_uncounted["search-cold"].failed_ratios, [1.0]);
        let one_failed = untraced_runs(&[result(true, 2.0, 5.0)]);
        assert_eq!(one_failed["search-cold"].failed_ratios, [0.02]);
        let (table, regressed) = compare(&parent, &change, &bounds);
        assert!(regressed, "{table}");
        let clean = untraced_runs(&[result(true, 0.0, 10.0)]);
        assert!(!compare(&parent, &clean, &bounds).1);
    }

    #[test]
    fn bounds_come_from_the_benchmark_file() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "throughput_per_s", "unit": "req/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "quality_ratio", "unit": "ratio", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b["wall_s"], LOWER);
        assert_eq!(b["throughput_per_s"], HIGHER);
        assert_eq!(b["setup_s"], Bound { higher_is_better: false, bound: 0.25, floor: 0.2 });
        assert_eq!(b["quality_ratio"], Bound { higher_is_better: false, bound: 0.0, floor: 0.0 });
    }
}
