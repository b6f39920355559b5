//! Byte-exact `search` and `autotune` reports, pinned against the files
//! under `tests/golden/`.
//!
//! Every objective (size, speed, pareto) of both commands is rendered on
//! one generated module under five option sets: the defaults, `--stats`,
//! `--pass-stats`, and `--stats` against a cold and then a warm
//! evaluation store. The nothing-to-tune and over-`--bits`
//! error paths are pinned too. Searches run with `jobs: Some(1)`; the only
//! masked byte range is the wall-clock token of `--stats` lines
//! (`…, 1.2ms compiling, …`).
//!
//! On a mismatch the rendered reports are written under the test's
//! scratch directory (`CARGO_TARGET_TMPDIR/golden-actual/`) for diffing;
//! the golden files themselves are never rewritten by the test.

use std::path::{Path, PathBuf};

use optinline_cli::{
    cmd_autotune, cmd_gen, cmd_search, EvalOptions, InitChoice, Objective, TargetChoice,
};

const BITS: u32 = 18;
const ROUNDS: usize = 3;

/// A module with no inlinable call sites: nothing to tune.
const NO_SITES: &str =
    "module \"flat\" {\n  public fn main {\n  b0():\n    v0 = const 7\n    ret v0\n  }\n}\n";

fn demo_source() -> String {
    cmd_gen(11, 5, 2).expect("generation succeeds")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("optinline-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Replaces the wall-clock token before ` compiling` on `evaluator:` lines.
fn mask_wall_time(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    for line in report.split_inclusive('\n') {
        match line.find(" compiling") {
            Some(end) if line.starts_with("evaluator:") => {
                let start = line[..end].rfind(' ').map_or(0, |i| i + 1);
                out.push_str(&line[..start]);
                out.push_str("<wall>");
                out.push_str(&line[end..]);
            }
            _ => out.push_str(line),
        }
    }
    out
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Search,
    Autotune,
}

impl Command {
    fn name(self) -> &'static str {
        match self {
            Command::Search => "search",
            Command::Autotune => "autotune",
        }
    }

    fn run(self, source: &str, eval: EvalOptions) -> String {
        let result = match self {
            Command::Search => cmd_search(source, BITS, TargetChoice::X86, eval),
            Command::Autotune => {
                cmd_autotune(source, ROUNDS, InitChoice::Both, TargetChoice::X86, eval)
            }
        };
        match result {
            Ok(report) => report,
            Err(e) => format!("error: {e}\n"),
        }
    }
}

/// Compares every `(name, report)` pair with its golden file, writing the
/// actual reports aside and failing with the list of mismatches.
fn assert_golden(reports: &[(String, String)]) {
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-actual");
    let mut mismatched = Vec::new();
    for (name, report) in reports {
        let path = golden_dir().join(format!("{name}.txt"));
        let expected = std::fs::read_to_string(&path).unwrap_or_default();
        if mask_wall_time(report) != expected {
            std::fs::create_dir_all(&actual_dir).expect("scratch dir");
            std::fs::write(actual_dir.join(format!("{name}.txt")), mask_wall_time(report))
                .expect("write actual report");
            mismatched.push(name.clone());
        }
    }
    assert!(
        mismatched.is_empty(),
        "reports differ from tests/golden for {mismatched:?}; actual reports are in {}",
        actual_dir.display()
    );
}

/// The five pinned renderings of one command under one objective.
fn check(command: Command, objective: Objective) {
    let src = demo_source();
    let prefix = format!("{}-{}", command.name(), objective.name());
    let base = EvalOptions { objective, jobs: Some(1), ..EvalOptions::default() };
    let store = store_dir(&prefix);
    let stored = EvalOptions { show_stats: true, cache_dir: Some(store.clone()), ..base.clone() };
    let variants = [
        ("default", base.clone()),
        ("stats", EvalOptions { show_stats: true, ..base.clone() }),
        ("pass-stats", EvalOptions { show_pass_stats: true, ..base.clone() }),
        ("cold-store", stored.clone()),
        ("warm-store", stored),
    ];
    let reports: Vec<(String, String)> = variants
        .into_iter()
        .map(|(variant, eval)| (format!("{prefix}-{variant}"), command.run(&src, eval)))
        .collect();
    let _ = std::fs::remove_dir_all(&store);
    assert_golden(&reports);
}

#[test]
fn search_size_reports_are_pinned() {
    check(Command::Search, Objective::Size);
}

#[test]
fn search_speed_reports_are_pinned() {
    check(Command::Search, Objective::Speed);
}

#[test]
fn search_pareto_reports_are_pinned() {
    check(Command::Search, Objective::Pareto);
}

#[test]
fn autotune_size_reports_are_pinned() {
    check(Command::Autotune, Objective::Size);
}

#[test]
fn autotune_speed_reports_are_pinned() {
    check(Command::Autotune, Objective::Speed);
}

#[test]
fn autotune_pareto_reports_are_pinned() {
    check(Command::Autotune, Objective::Pareto);
}

#[test]
fn error_paths_are_pinned() {
    let src = demo_source();
    let mut reports = Vec::new();
    for objective in [Objective::Size, Objective::Speed, Objective::Pareto] {
        let eval = EvalOptions { objective, jobs: Some(1), ..EvalOptions::default() };
        let tune = Command::Autotune.run(NO_SITES, eval.clone());
        reports.push((format!("autotune-{}-nothing-to-tune", objective.name()), tune));
        let over = cmd_search(&src, 2, TargetChoice::X86, eval)
            .map_or_else(|e| format!("error: {e}\n"), |r| format!("unexpected success:\n{r}"));
        reports.push((format!("search-{}-over-bits", objective.name()), over));
    }
    assert_golden(&reports);
}
