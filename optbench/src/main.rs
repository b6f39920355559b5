//! `optbench` — the end-to-end benchmark for optinline.
//!
//! ```text
//! optbench run --workload <name> --seed <n> [--seconds 10] [--trace 0|1]
//!              [--out result.json]
//! optbench all --seed <n> [--trace 0|1] [--out-dir <dir>]
//! optbench compare --parent <dir> --change <dir> [--benchmark BENCHMARK.json]
//! optbench golden [--dir optbench/golden]
//! optbench ledger --dir <results> [--out ledger.json] [--basis <text>]
//! ```
//!
//! `run` prints a `name value unit` table and, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; it exits
//! non-zero when any check fails. A traced run given `--out result.json`
//! writes its spans to `result.spans.jsonl`. The run length is fixed:
//! `--seconds` is accepted, as the benchmark command is called with it, but
//! only with `run_seconds`' value.

mod check;
mod compare;
mod inputs;
mod json;
mod run;
mod serve;
mod speed;
mod stats;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::Workload;
use json::Json;
use run::RunArgs;

const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  optbench run --workload <search-cold|autotune-speed|serve-warm|serve-cold> --seed <n>
               [--seconds 10] [--trace 0|1] [--out <result.json>]
  optbench all --seed <n> [--trace 0|1] [--out-dir <dir>]
  optbench compare --parent <dir> --change <dir> [--benchmark <BENCHMARK.json>]
  optbench golden [--dir <dir>]
  optbench ledger --dir <results> [--out <ledger.json>] [--basis <text>]";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for --{name}")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace").unwrap_or("0") {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not `{other}`")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("golden") => cmd_golden(&args[1..]),
        Some("ledger") => cmd_ledger(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("optbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["workload", "seed", "seconds", "trace", "out"])?;
    let name = flags.get("workload").ok_or("run needs --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: f64 = flags.parsed("seconds", run::RUN_SECONDS)?;
    if seconds != run::RUN_SECONDS {
        return Err(format!(
            "runs measure {} s; --seconds {seconds} is not offered",
            run::RUN_SECONDS
        ));
    }
    let run_args = RunArgs {
        workload,
        seed: flags.parsed("seed", DEFAULT_SEED)?,
        trace: flags.trace()?,
        out: flags.get("out").map(PathBuf::from),
    };
    let report = run::run(&run_args)?;
    for note in &report.notes {
        println!("# {note}");
    }
    for problem in &report.problems {
        println!("# FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    println!("failed_ratio {} ratio", report.failed_ratio());
    if let Some(path) = &run_args.out {
        let doc = run::result_json(&run_args, &report);
        std::fs::write(path, doc.encode() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", run::summary_json(&report).encode());
    Ok(if report.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Runs every workload, each in a fresh child process of this binary, so
/// each one's peak memory is its own.
fn cmd_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["seed", "trace", "out-dir"])?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let trace = flags.trace()?;
    let dir = PathBuf::from(flags.get("out-dir").unwrap_or("optbench-results"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut failed = false;
    for w in Workload::ALL {
        let out = first_free(
            &dir,
            &format!("{}.seed{seed}{}", w.name(), if trace { ".trace" } else { "" }),
        );
        println!("== {} -> {}", w.name(), out.display());
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .status()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        failed |= !status.success();
    }
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `<dir>/<stem>.<k>.json` for the first `k` not yet taken, so repeated
/// runs accumulate in the order they were made.
fn first_free(dir: &Path, stem: &str) -> PathBuf {
    (0..)
        .map(|k| dir.join(format!("{stem}.{k:03}.json")))
        .find(|p| !p.exists())
        .expect("an unbounded range has a free name")
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["parent", "change", "benchmark"])?;
    let runs = |flag: &str| -> Result<_, String> {
        let dir = flags.get(flag).ok_or_else(|| format!("compare needs --{flag}"))?;
        Ok(compare::untraced_runs(&compare::read_results(Path::new(dir))?))
    };
    let (parent, change) = (runs("parent")?, runs("change")?);
    let path = flags.get("benchmark").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let bounds = compare::bounds(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)?;
    let (table, regressed) = compare::compare(&parent, &change, &bounds);
    print!("{table}");
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Summarizes a results directory (untraced and traced runs) as a ledger.
fn cmd_ledger(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["dir", "out", "basis"])?;
    let results = compare::read_results(Path::new(flags.get("dir").ok_or("ledger needs --dir")?))?;
    let basis = flags.get("basis").unwrap_or("");
    let doc = compare::ledger(&results, basis).pretty() + "\n";
    match flags.get("out") {
        Some(out) => std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?,
        None => print!("{doc}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_golden(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["dir"])?;
    let dir = PathBuf::from(flags.get("dir").unwrap_or("optbench/golden"));
    println!("{}", check::write_goldens(&dir)?);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// `run` reports, with the same units, and the workloads it knows.
    #[test]
    fn benchmark_file_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&run::END_TO_END));
        assert_eq!(listed("per_layer"), own(&run::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(run::RUN_SECONDS));
    }

    #[test]
    fn flags_parse_and_reject_strays() {
        let args: Vec<String> = ["--seed", "7", "--trace", "1"].map(String::from).to_vec();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.parsed("seed", 0u64).unwrap(), 7);
        assert!(flags.trace().unwrap());
        assert!(flags.check_known(&["seed"]).is_err());
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
        assert!(Flags::parse(&["seed".to_string()]).is_err());
    }
}
