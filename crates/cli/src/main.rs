//! Thin argv shim over `optinline_cli` (the testable library half).

use optinline_cli::serve::{
    cmd_serve, default_socket_path, parse_endpoint, remote_call, ServeConfig,
};
use optinline_cli::{
    cmd_autotune, cmd_cache, cmd_cfg, cmd_check, cmd_check_chaos, cmd_corpus, cmd_demo_reduce,
    cmd_gen, cmd_link, cmd_optimize, cmd_print, cmd_run, cmd_search, cmd_stats, CacheAction,
    CliError, EvalOptions, InitChoice, Objective, OptimizeOptions, StrategyChoice, TargetChoice,
};
use optinline_serve::{loadgen, ClientConfig, Outcome, RequestKind};

const USAGE: &str = "\
optinline — optimal function inlining toolkit (ASPLOS'22 reproduction)

usage:
  optinline print    <file.ir>
  optinline stats    <file.ir>
  optinline optimize <file.ir> [--strategy never|always|heuristic|trial]
                               [--target x86|wasm] [--pass-stats]
                               [--objective size|speed|pareto]
                               [--full-sweep] [-o out.ir] [--connect EP]
  optinline search   <file.ir> [--bits N] [--target x86|wasm]
                               [--objective size|speed|pareto]
                               [--full-eval] [--stats] [--pass-stats]
                               [--jobs N] [--cache-dir DIR] [--no-persist]
                               [--cache-budget-bytes N] [--connect EP]
  optinline autotune <file.ir> [--rounds N] [--init clean|heuristic|both]
                               [--target x86|wasm] [--full-eval] [--stats]
                               [--objective size|speed|pareto]
                               [--pass-stats] [--cache-dir DIR] [--no-persist]
                               [--cache-budget-bytes N] [--connect EP]
  optinline serve    [--socket PATH | --tcp ADDR] [--cache-dir DIR]
                               [--cache-budget-bytes N] [--queue N]
                               [--max-concurrent N]
  optinline loadgen  [--connect EP] [--connections N] [--requests N]
                               [--mix ping|search|ping:9,search:1]
                               [--threads N] [--seed N] [--deadline-ms N]
  optinline cache    stats|gc|verify|compact --cache-dir DIR
                               [--cache-budget-bytes N]   (gc only)
  optinline run      <file.ir>
  optinline gen      [--seed N] [--internal N] [--clusters N] [-o out.ir]
  optinline link     <a.ir> <b.ir> ... [--keep main,api] [-o prog.ir]
  optinline corpus   --dir DIR [--scale small|full]
  optinline cfg      <file.ir> --func NAME        (DOT to stdout)
  optinline check    [--fuzz N] [--seed N] [--reduce] [--repro-dir DIR]
  optinline check    --demo-reduce [--seed N] [--repro-dir DIR]
  optinline check    --chaos N [--seed N]

`EP` is a Unix socket path or `tcp:HOST:PORT`. With --connect, optimize /
search / autotune ask the daemon at EP first and transparently fall back
to in-process evaluation when no daemon answers or it is draining. Cache
and --jobs flags are local settings: the daemon applies its own.

client knobs (with --connect):
  --deadline-ms N         queue-time budget; the daemon sheds the request
                          with `rejected{deadline}` if still queued past it
  --connect-timeout-ms N  bound on each dial attempt      (default 2000)
  --retries N             transient-failure retries       (default 2)
  --retry-backoff-ms N    backoff base, doubled and capped, deterministic
                          jitter                          (default 50)
";

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut argv = argv.peekable();
        // Flags that take no value; present means "on".
        const BOOLEAN: &[&str] = &[
            "stats",
            "full-eval",
            "reduce",
            "demo-reduce",
            "pass-stats",
            "full-sweep",
            "no-persist",
        ];
        while let Some(a) = argv.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN.contains(&name) {
                    flags.push((name.to_string(), String::new()));
                    continue;
                }
                let value = argv.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value));
            } else if a == "-o" {
                let value = argv.next().ok_or("-o needs a path")?;
                flags.push(("out".into(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, flags })
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn eval_options(&self) -> Result<EvalOptions, CliError> {
        let jobs = match self.flag("jobs") {
            Some(j) => {
                let n: usize = j.parse()?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                Some(n)
            }
            None => None,
        };
        Ok(EvalOptions {
            incremental: self.flag("full-eval").is_none(),
            show_stats: self.flag("stats").is_some(),
            show_pass_stats: self.flag("pass-stats").is_some(),
            jobs,
            cache_dir: self.flag("cache-dir").map(std::path::PathBuf::from),
            no_persist: self.flag("no-persist").is_some(),
            cache_budget_bytes: self.cache_budget_bytes()?,
            objective: self.objective()?,
        })
    }

    fn objective(&self) -> Result<Objective, CliError> {
        let s = self.flag("objective").unwrap_or("size");
        Objective::parse(s)
            .ok_or_else(|| format!("unknown objective `{s}` (expected size|speed|pareto)").into())
    }

    fn cache_budget_bytes(&self) -> Result<Option<u64>, CliError> {
        match self.flag("cache-budget-bytes") {
            Some(b) => Ok(Some(b.parse()?)),
            None => Ok(None),
        }
    }

    /// Sends the request `kind` builds to the daemon named by `--connect`,
    /// if any, and prints its report. `None` means no daemon answered: the
    /// caller runs the request in-process.
    fn served(&self, kind: impl FnOnce() -> RequestKind) -> Result<Option<Outcome>, CliError> {
        let Some(ep) = self.flag("connect") else { return Ok(None) };
        let outcome = remote_call(&parse_endpoint(ep), kind(), &self.client_config()?)?;
        if let Some(outcome) = &outcome {
            print!("{}", outcome.report);
        }
        Ok(outcome)
    }

    /// Client-side robustness knobs for `--connect` calls. The retry
    /// jitter seed is the pid: deterministic within one process, spread
    /// across a herd of clients hammering a recovering daemon.
    fn client_config(&self) -> Result<ClientConfig, CliError> {
        Ok(ClientConfig {
            connect_timeout: Some(std::time::Duration::from_millis(
                self.flag("connect-timeout-ms").unwrap_or("2000").parse()?,
            )),
            deadline_ms: self.flag("deadline-ms").map(str::parse).transpose()?,
            retries: self.flag("retries").unwrap_or("2").parse()?,
            retry_base: std::time::Duration::from_millis(
                self.flag("retry-backoff-ms").unwrap_or("50").parse()?,
            ),
            retry_seed: std::process::id() as u64,
            ..ClientConfig::default()
        })
    }

    fn optimize_options(&self) -> Result<OptimizeOptions, CliError> {
        Ok(OptimizeOptions {
            full_sweep: self.flag("full-sweep").is_some(),
            pass_stats: self.flag("pass-stats").is_some(),
            objective: self.objective()?,
        })
    }

    fn input(&self) -> Result<String, CliError> {
        let path = self.positional.first().ok_or("missing input file")?;
        Ok(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
    }

    fn positional_sources(&self) -> Result<Vec<String>, CliError> {
        if self.positional.is_empty() {
            return Err("missing input files".into());
        }
        self.positional
            .iter()
            .map(|p| {
                std::fs::read_to_string(p).map_err(|e| -> CliError { format!("{p}: {e}").into() })
            })
            .collect()
    }

    fn write_or_print(&self, content: &str) -> Result<(), CliError> {
        match self.flag("out") {
            Some(path) => {
                std::fs::write(path, content).map_err(|e| format!("{path}: {e}"))?;
                eprintln!("[written to {path}]");
            }
            None => print!("{content}"),
        }
        Ok(())
    }
}

fn run_command(cmd: &str, args: &Args) -> Result<(), CliError> {
    match cmd {
        "print" => {
            let out = cmd_print(&args.input()?)?;
            args.write_or_print(&out)
        }
        "stats" => {
            print!("{}", cmd_stats(&args.input()?)?);
            Ok(())
        }
        "optimize" => {
            let strategy = StrategyChoice::parse(args.flag("strategy").unwrap_or("heuristic"))?;
            let target = TargetChoice::parse(args.flag("target").unwrap_or("x86"))?;
            let opts = args.optimize_options()?;
            let source = args.input()?;
            let served = args.served(|| RequestKind::Optimize {
                source: source.clone(),
                target: args.flag("target").unwrap_or("x86").to_string(),
                strategy: args.flag("strategy").unwrap_or("heuristic").to_string(),
                full_sweep: opts.full_sweep,
                pass_stats: opts.pass_stats,
                objective: args.flag("objective").unwrap_or("size").to_string(),
            })?;
            if let Some(outcome) = served {
                if args.flag("out").is_some() {
                    args.write_or_print(outcome.module.as_deref().unwrap_or_default())?;
                }
                return Ok(());
            }
            let (report, module_text) = cmd_optimize(&source, strategy, target, opts)?;
            print!("{report}");
            if args.flag("out").is_some() {
                args.write_or_print(&module_text)?;
            }
            Ok(())
        }
        "search" => {
            let bits: u32 = args.flag("bits").unwrap_or("16").parse()?;
            let target = TargetChoice::parse(args.flag("target").unwrap_or("x86"))?;
            let eval = args.eval_options()?;
            let source = args.input()?;
            let served = args.served(|| RequestKind::Search {
                source: source.clone(),
                target: args.flag("target").unwrap_or("x86").to_string(),
                bits,
                full_eval: !eval.incremental,
                stats: eval.show_stats,
                pass_stats: eval.show_pass_stats,
                objective: args.flag("objective").unwrap_or("size").to_string(),
            })?;
            if served.is_none() {
                print!("{}", cmd_search(&source, bits, target, eval)?);
            }
            Ok(())
        }
        "autotune" => {
            let rounds: usize = args.flag("rounds").unwrap_or("4").parse()?;
            let init = InitChoice::parse(args.flag("init").unwrap_or("both"))?;
            let target = TargetChoice::parse(args.flag("target").unwrap_or("x86"))?;
            let eval = args.eval_options()?;
            let source = args.input()?;
            let served = args.served(|| RequestKind::Autotune {
                source: source.clone(),
                target: args.flag("target").unwrap_or("x86").to_string(),
                rounds: rounds as u32,
                init: args.flag("init").unwrap_or("both").to_string(),
                full_eval: !eval.incremental,
                stats: eval.show_stats,
                pass_stats: eval.show_pass_stats,
                objective: args.flag("objective").unwrap_or("size").to_string(),
            })?;
            if served.is_none() {
                print!("{}", cmd_autotune(&source, rounds, init, target, eval)?);
            }
            Ok(())
        }
        "serve" => {
            let endpoint = match (args.flag("socket"), args.flag("tcp")) {
                (Some(_), Some(_)) => return Err("--socket and --tcp are exclusive".into()),
                (Some(path), None) => parse_endpoint(path),
                (None, Some(addr)) => optinline_serve::Endpoint::Tcp(addr.to_string()),
                (None, None) => optinline_serve::Endpoint::Unix(default_socket_path()),
            };
            let config = ServeConfig {
                endpoint,
                cache_dir: args.flag("cache-dir").map(std::path::PathBuf::from),
                cache_budget_bytes: args.cache_budget_bytes()?,
                queue_capacity: args.flag("queue").map(str::parse).transpose()?.unwrap_or(0),
                max_concurrent: args
                    .flag("max-concurrent")
                    .map(str::parse)
                    .transpose()?
                    .unwrap_or(0),
            };
            print!("{}", cmd_serve(config)?);
            Ok(())
        }
        "loadgen" => {
            let endpoint = match args.flag("connect") {
                Some(ep) => parse_endpoint(ep),
                None => optinline_serve::Endpoint::Unix(default_socket_path()),
            };
            let connections: usize = args.flag("connections").unwrap_or("64").parse()?;
            let seed: u64 = args.flag("seed").unwrap_or("0").parse()?;
            let mix = loadgen::LoadMix::parse(args.flag("mix").unwrap_or("ping"))
                .map_err(CliError::from)?;
            // Search requests need a module; a small deterministic one
            // generated from the seed keeps runs replayable.
            let search_source = if mix.search > 0 { Some(cmd_gen(seed, 6, 2)?) } else { None };
            let opts = loadgen::LoadgenOptions {
                connections,
                requests: args
                    .flag("requests")
                    .map(str::parse)
                    .transpose()?
                    .unwrap_or(connections as u64 * 10),
                threads: args.flag("threads").unwrap_or("0").parse()?,
                seed,
                mix,
                search_source,
                deadline_ms: args.flag("deadline-ms").map(str::parse).transpose()?,
            };
            let report = loadgen::run(&endpoint, &opts).map_err(CliError::from)?;
            print!("{}", report.render(&opts));
            if report.errors > 0 {
                return Err(format!("loadgen saw {} request errors", report.errors).into());
            }
            if report.balanced() == Some(false) {
                return Err("server accounting is unbalanced after the load".into());
            }
            Ok(())
        }
        "run" => {
            print!("{}", cmd_run(&args.input()?)?);
            Ok(())
        }
        "link" => {
            let sources = args.positional_sources().map_err(|e| -> CliError { e })?;
            let (report, text) = cmd_link(&sources, args.flag("keep"))?;
            print!("{report}");
            args.write_or_print(&text)
        }
        "cfg" => {
            let func = args.flag("func").ok_or("cfg needs --func NAME")?;
            print!("{}", cmd_cfg(&args.input()?, func)?);
            Ok(())
        }
        "corpus" => {
            let dir = args.flag("dir").ok_or("corpus needs --dir")?;
            let small = args.flag("scale").map(|s| s == "small").unwrap_or(false);
            print!("{}", cmd_corpus(std::path::Path::new(dir), small)?);
            Ok(())
        }
        "check" => {
            let seed: u64 = args.flag("seed").unwrap_or("12648430").parse()?;
            let repro_dir =
                std::path::PathBuf::from(args.flag("repro-dir").unwrap_or("results/repros"));
            if let Some(chaos) = args.flag("chaos") {
                print!("{}", cmd_check_chaos(chaos.parse()?, seed)?);
            } else if args.flag("demo-reduce").is_some() {
                print!("{}", cmd_demo_reduce(seed, Some(&repro_dir))?);
            } else {
                let cases: usize = args.flag("fuzz").unwrap_or("100").parse()?;
                let reduce = args.flag("reduce").is_some();
                print!("{}", cmd_check(cases, seed, reduce, Some(&repro_dir))?);
            }
            Ok(())
        }
        "cache" => {
            let action = CacheAction::parse(
                args.positional.first().ok_or("cache needs an action: stats|gc|verify|compact")?,
            )?;
            let dir = args.flag("cache-dir").ok_or("cache needs --cache-dir DIR")?;
            let budget = args.cache_budget_bytes()?;
            print!("{}", cmd_cache(action, std::path::Path::new(dir), budget)?);
            Ok(())
        }
        "gen" => {
            let seed: u64 = args.flag("seed").unwrap_or("0").parse()?;
            let internal: usize = args.flag("internal").unwrap_or("8").parse()?;
            let clusters: usize = args.flag("clusters").unwrap_or("1").parse()?;
            let text = cmd_gen(seed, internal, clusters)?;
            args.write_or_print(&text)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    }
}

fn main() {
    // Arm a fault plan from OPTINLINE_FAULT_PLAN, if one is set: CI's
    // kill-9-mid-write recovery check crashes this very binary at a
    // chosen store write. A no-op (one env read) in normal runs.
    optinline_fault::arm_from_env();
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_command(&cmd, &args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
