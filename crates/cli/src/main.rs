//! Thin argv shim over `optinline_cli` (the testable library half).

use optinline_cli::serve::{
    cmd_serve, default_socket_path, parse_endpoint, remote_call, ServeConfig,
};
use optinline_cli::{
    cmd_cache, cmd_cfg, cmd_check, cmd_check_chaos, cmd_corpus, cmd_demo_reduce, cmd_gen, cmd_link,
    cmd_print, cmd_run, cmd_stats, CacheAction, CliError, Evaluation, LocalSettings,
};
use optinline_serve::{loadgen, ClientConfig, Outcome, RequestKind};

const USAGE: &str = "\
optinline — optimal function inlining toolkit (ASPLOS'22 reproduction)

usage:
  optinline print    <file.ir> [-o out.ir]
  optinline stats    <file.ir>
  optinline optimize <file.ir> [--strategy never|always|heuristic|trial]
                               [--target x86|wasm] [--pass-stats]
                               [--objective size|speed|pareto]
                               [-o out.ir] [--connect EP]
  optinline search   <file.ir> [--bits N] [--target x86|wasm]
                               [--objective size|speed|pareto]
                               [--stats] [--pass-stats]
                               [--jobs N] [--cache-dir DIR] [--no-persist]
                               [--cache-budget-bytes N] [--connect EP]
  optinline autotune <file.ir> [--rounds N] [--init clean|heuristic|both]
                               [--target x86|wasm] [--stats]
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

/// The client knobs `optimize`, `search` and `autotune` take with
/// `--connect` (see USAGE).
const CLIENT_FLAGS: &str = "connect deadline-ms connect-timeout-ms retries retry-backoff-ms";

/// The flags each command's USAGE entry lists, space-separated, in two
/// parts: its own (`out` is `-o`) and its client knobs. `None` for an
/// unknown command, which `run_command` refuses.
fn command_flags(cmd: &str) -> Option<[&'static str; 2]> {
    Some(match cmd {
        "print" => ["out", ""],
        "stats" | "run" => ["", ""],
        "optimize" => ["strategy target pass-stats objective out", CLIENT_FLAGS],
        "search" => [
            "bits target objective stats pass-stats jobs cache-dir no-persist cache-budget-bytes",
            CLIENT_FLAGS,
        ],
        "autotune" => [
            "rounds init target stats objective pass-stats cache-dir no-persist \
             cache-budget-bytes",
            CLIENT_FLAGS,
        ],
        "serve" => ["socket tcp cache-dir cache-budget-bytes queue max-concurrent", ""],
        "loadgen" => ["connect connections requests mix threads seed deadline-ms", ""],
        "cache" => ["cache-dir cache-budget-bytes", ""],
        "gen" => ["seed internal clusters out", ""],
        "link" => ["keep out", ""],
        "corpus" => ["dir scale", ""],
        "cfg" => ["func", ""],
        "check" => ["fuzz seed reduce repro-dir demo-reduce chaos", ""],
        _ => return None,
    })
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Splits `argv` into positionals and flags, refusing any flag the
    /// USAGE entry of `cmd` does not list before it can take a value.
    fn parse(cmd: &str, argv: impl Iterator<Item = String>) -> Result<Args, CliError> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut argv = argv.peekable();
        // Flags that take no value; present means "on".
        const BOOLEAN: &[&str] = &["stats", "reduce", "demo-reduce", "pass-stats", "no-persist"];
        let accepted = command_flags(cmd);
        let check = |name: &str, spelled: &str| match accepted {
            Some(lists) if !lists.iter().flat_map(|l| l.split_whitespace()).any(|f| f == name) => {
                Err(format!("unknown flag {spelled} for {cmd}"))
            }
            _ => Ok(()),
        };
        while let Some(a) = argv.next() {
            if let Some(name) = a.strip_prefix("--") {
                check(name, &a)?;
                if BOOLEAN.contains(&name) {
                    flags.push((name.to_string(), String::new()));
                    continue;
                }
                let value = argv.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value));
            } else if a == "-o" {
                check("out", &a)?;
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

    /// The request `optimize`, `search` or `autotune` spells in argv, with
    /// the input file as its source. Every default is spelled here, once,
    /// for in-process and served runs alike.
    fn request(&self, cmd: &str) -> Result<RequestKind, CliError> {
        let text = |name, default: &str| self.flag(name).unwrap_or(default).to_string();
        let source = self.input()?;
        let (target, objective) = (text("target", "x86"), text("objective", "size"));
        let stats = self.flag("stats").is_some();
        let pass_stats = self.flag("pass-stats").is_some();
        Ok(match cmd {
            "optimize" => RequestKind::Optimize {
                source,
                target,
                strategy: text("strategy", "heuristic"),
                full_sweep: false,
                pass_stats,
                objective,
            },
            "search" => RequestKind::Search {
                source,
                target,
                bits: self.flag("bits").unwrap_or("16").parse()?,
                full_eval: false,
                stats,
                pass_stats,
                objective,
            },
            "autotune" => RequestKind::Autotune {
                source,
                target,
                rounds: self.flag("rounds").unwrap_or("4").parse()?,
                init: text("init", "both"),
                full_eval: false,
                stats,
                pass_stats,
                objective,
            },
            other => return Err(format!("`{other}` sends no evaluation request").into()),
        })
    }

    /// The settings that stay in this process (see [`LocalSettings`]).
    fn local(&self) -> Result<LocalSettings, CliError> {
        Ok(LocalSettings {
            jobs: self.flag("jobs").map(str::parse).transpose()?,
            cache_dir: self.flag("cache-dir").map(std::path::PathBuf::from),
            no_persist: self.flag("no-persist").is_some(),
            cache_budget_bytes: self.cache_budget_bytes()?,
        })
    }

    fn cache_budget_bytes(&self) -> Result<Option<u64>, CliError> {
        match self.flag("cache-budget-bytes") {
            Some(b) => Ok(Some(b.parse()?)),
            None => Ok(None),
        }
    }

    /// Sends `kind` to the daemon named by `--connect`, if any. `None`
    /// means no daemon answered: the caller runs the request in-process.
    fn served(&self, kind: &RequestKind) -> Result<Option<Outcome>, CliError> {
        let Some(ep) = self.flag("connect") else { return Ok(None) };
        remote_call(&parse_endpoint(ep), kind.clone(), &self.client_config()?)
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
        "optimize" | "search" | "autotune" => {
            let kind = args.request(cmd)?;
            // Decoded before dialing, so a misspelled value fails here with
            // the message a daemon would send.
            let request = Evaluation::decode(&kind, &args.local()?)?;
            let (report, module) = match args.served(&kind)? {
                Some(outcome) => (outcome.report, outcome.module),
                None => {
                    let reply = request.run(None)?;
                    (reply.report, reply.module)
                }
            };
            print!("{report}");
            if args.flag("out").is_some() {
                args.write_or_print(module.as_deref().unwrap_or_default())?;
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
    let args = match Args::parse(&cmd, argv) {
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
