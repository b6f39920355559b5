//! Process-level tests of the `optinline` binary: the full
//! gen → stats → optimize → search → autotune → run workflow through argv,
//! files, and exit codes.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use optinline_serve::{Client, Endpoint};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_optinline"))
}

fn run_ok(args: &[&str]) -> Output {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "optinline {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("optinline_cli_{}_{name}", std::process::id()))
}

#[test]
fn full_workflow_through_the_binary() {
    let ir = tmp("demo.ir");
    run_ok(&[
        "gen",
        "--seed",
        "9",
        "--internal",
        "5",
        "--clusters",
        "2",
        "-o",
        ir.to_str().unwrap(),
    ]);

    let stats = run_ok(&["stats", ir.to_str().unwrap()]);
    let stats_text = String::from_utf8_lossy(&stats.stdout).into_owned();
    assert!(stats_text.contains("inlinable sites:"), "{stats_text}");

    let opt = run_ok(&["optimize", ir.to_str().unwrap(), "--strategy", "heuristic"]);
    assert!(String::from_utf8_lossy(&opt.stdout).contains("size:"));

    let search = run_ok(&["search", ir.to_str().unwrap(), "--bits", "18"]);
    assert!(String::from_utf8_lossy(&search.stdout).contains("optimal size:"));

    let tune = run_ok(&["autotune", ir.to_str().unwrap(), "--rounds", "2"]);
    assert!(String::from_utf8_lossy(&tune.stdout).contains("tuned best:"));

    let run = run_ok(&["run", ir.to_str().unwrap()]);
    assert!(String::from_utf8_lossy(&run.stdout).contains("cycles:"));

    std::fs::remove_file(&ir).ok();
}

#[test]
fn print_round_trips_through_a_file() {
    let ir = tmp("rt.ir");
    run_ok(&["gen", "--seed", "4", "--internal", "4", "-o", ir.to_str().unwrap()]);
    let first = run_ok(&["print", ir.to_str().unwrap()]);
    let text = std::fs::read_to_string(&ir).unwrap();
    assert_eq!(String::from_utf8_lossy(&first.stdout), text);
    std::fs::remove_file(&ir).ok();
}

#[test]
fn bad_input_exits_nonzero() {
    let out = bin().arg("print").arg("/nonexistent/x.ir").output().unwrap();
    assert!(!out.status.success());
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = bin().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn flags_a_command_does_not_list_are_refused() {
    let ir = tmp("flags.ir");
    run_ok(&["gen", "--seed", "3", "--internal", "4", "-o", ir.to_str().unwrap()]);
    let path = ir.to_str().unwrap();
    for (args, flag, cmd) in [
        // A misspelled value flag used to be silently ignored.
        (vec!["search", path, "--bit", "20"], "--bit", "search"),
        // Removed boolean flags, after the file and before it (where they
        // would otherwise have consumed the file name as their value).
        (vec!["optimize", path, "--full-sweep"], "--full-sweep", "optimize"),
        (vec!["optimize", "--full-sweep", path], "--full-sweep", "optimize"),
        (vec!["search", path, "--full-eval"], "--full-eval", "search"),
        (vec!["search", "--full-eval", path], "--full-eval", "search"),
        (vec!["autotune", path, "--full-eval"], "--full-eval", "autotune"),
        (vec!["autotune", "--full-eval", path], "--full-eval", "autotune"),
        // `-o` is a flag too.
        (vec!["stats", path, "-o", "x.ir"], "-o", "stats"),
    ] {
        let out = bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag} for {cmd}")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
    std::fs::remove_file(&ir).ok();
}

#[test]
fn rounds_are_read_at_the_width_the_wire_carries() {
    let ir = tmp("rounds.ir");
    run_ok(&["gen", "--seed", "3", "--internal", "4", "-o", ir.to_str().unwrap()]);
    let path = ir.to_str().unwrap();
    // One past u32::MAX would reach a daemon as 0; in-process it is now
    // refused the same way.
    let out = bin()
        .args(["autotune", path, "--init", "clean", "--rounds", "4294967296"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("number too large to fit in target type"), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused request must not run");
    // The widest value the wire carries parses, and is refused by the
    // typed rounds bound before any work.
    let out = bin()
        .args(["autotune", path, "--init", "clean", "--rounds", "4294967295"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let refusal = "--rounds 4294967295 is out of range: autotuning runs at least 1, at most 256";
    assert!(stderr.contains(refusal), "{stderr}");
    assert!(out.stdout.is_empty(), "a refused request must not run");
    std::fs::remove_file(&ir).ok();
}

#[test]
fn a_misspelled_value_fails_before_dialing() {
    let ir = tmp("spelling.ir");
    let sock = tmp("nobody.sock");
    run_ok(&["gen", "--seed", "3", "--internal", "4", "-o", ir.to_str().unwrap()]);
    let out = bin()
        .args(["search", ir.to_str().unwrap(), "--objective", "fast"])
        .args(["--connect", sock.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown objective `fast` (expected size|speed|pareto)"), "{stderr}");
    assert!(!stderr.contains("no daemon"), "the request must fail before any dial: {stderr}");
    std::fs::remove_file(&ir).ok();
}

#[test]
fn optimized_output_file_parses_again() {
    let ir = tmp("opt.ir");
    let out_ir = tmp("opt_out.ir");
    run_ok(&["gen", "--seed", "6", "--internal", "5", "-o", ir.to_str().unwrap()]);
    run_ok(&[
        "optimize",
        ir.to_str().unwrap(),
        "--strategy",
        "always",
        "-o",
        out_ir.to_str().unwrap(),
    ]);
    let reprint = run_ok(&["stats", out_ir.to_str().unwrap()]);
    assert!(String::from_utf8_lossy(&reprint.stdout).contains("functions:"));
    std::fs::remove_file(&ir).ok();
    std::fs::remove_file(&out_ir).ok();
}

#[test]
fn link_combines_files_and_reports_new_sites() {
    let a = tmp("link_a.ir");
    let b = tmp("link_b.ir");
    let out = tmp("link_prog.ir");
    run_ok(&["gen", "--seed", "1", "--internal", "4", "-o", a.to_str().unwrap()]);
    run_ok(&["gen", "--seed", "2", "--internal", "4", "-o", b.to_str().unwrap()]);
    let linked = run_ok(&[
        "link",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--keep",
        "main",
        "-o",
        out.to_str().unwrap(),
    ]);
    let text = String::from_utf8_lossy(&linked.stdout).into_owned();
    assert!(text.contains("linked 2 modules"), "{text}");
    assert!(text.contains("internalized:"), "{text}");
    // The linked program is valid IR.
    run_ok(&["stats", out.to_str().unwrap()]);
    for f in [&a, &b, &out] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn check_fuzz_smoke_runs_clean() {
    let dir = tmp("check_repros");
    let out =
        run_ok(&["check", "--fuzz", "3", "--seed", "5", "--repro-dir", dir.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("fuzz: 3 cases"), "{text}");
    assert!(text.contains("semantic divergences: 0"), "{text}");
    assert!(text.contains("size mismatches: 0"), "{text}");
    // A clean run writes no reproducers.
    assert!(!dir.exists(), "clean run should not create {}", dir.display());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_demo_reduce_shrinks_the_seeded_bug() {
    let dir = tmp("demo_repros");
    let out =
        run_ok(&["check", "--demo-reduce", "--seed", "42", "--repro-dir", dir.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(text.contains("seeded bug:"), "{text}");
    assert!(text.contains("reduced module:"), "{text}");
    // The reproducer landed in the requested directory and is parseable IR
    // after stripping the comment header.
    let repro = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let body: String = std::fs::read_to_string(&repro)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n");
    let stripped = tmp("demo_repro_body.ir");
    std::fs::write(&stripped, body).unwrap();
    run_ok(&["stats", stripped.to_str().unwrap()]);
    std::fs::remove_file(&stripped).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corpus_writes_a_loadable_suite() {
    let dir = tmp("corpus_dir");
    let out = run_ok(&["corpus", "--dir", dir.to_str().unwrap(), "--scale", "small"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));
    // Spot-check one file parses.
    let one = std::fs::read_dir(dir.join("gcc")).unwrap().next().unwrap().unwrap().path();
    run_ok(&["stats", one.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_exit_report_counts_warm_heuristic_hits() {
    let ir = tmp("warm.ir");
    let sock = tmp("warm.sock");
    let _ = std::fs::remove_file(&sock);
    let (ir_path, sock_path) = (ir.to_str().unwrap(), sock.to_str().unwrap());
    run_ok(&["gen", "--seed", "9", "--internal", "5", "-o", ir_path]);
    let daemon = bin()
        .args(["serve", "--socket", sock_path])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    for _ in 0..2 {
        let out = run_ok(&["search", ir_path, "--bits", "18", "--connect", sock_path]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("[daemon]"), "served, not a fallback: {err}");
    }
    Client::connect(&Endpoint::Unix(sock.clone())).unwrap().shutdown().unwrap();
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    for line in ["heuristic entries:   1", "heuristic hits:      1", "heuristic misses:    1"] {
        assert!(report.lines().any(|l| l == line), "{line}: {report}");
    }
    std::fs::remove_file(&ir).ok();
}
