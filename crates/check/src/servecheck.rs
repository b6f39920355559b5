//! The **serve oracle**: the daemon transport must be invisible. A
//! request answered over the socket has to be byte-identical to calling
//! the same handler directly — for every request kind, on a cold and a
//! warm repeat — concurrent identical requests must collapse into one
//! evaluation whose fan-out copies are byte-identical too, and a drain
//! must leave the socket gone and the server's counters consistent.
//!
//! The handler under test is a real one: it parses the module out of the
//! request and runs the sequential search / the `-Os` pipeline, so the
//! reports exercise multi-line text, arrows, and percentages through the
//! JSON framing — exactly the payloads the CLI daemon ships.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_codegen::{text_size, X86Like};
use optinline_core::tree::{evaluate_inlining_tree, try_build_inlining_tree};
use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};
use optinline_ir::Module;
use optinline_serve::{Client, Endpoint, Handler, Reply, RequestKind, ServeOptions, Server};

/// Evaluation budget per fuzzed module, matching the store oracle: the
/// serve oracle is about transport fidelity, not search scale.
const TREE_BUDGET: u128 = 1 << 9;

/// Identical concurrent clients fired at the dedup stage.
const DEDUP_CLIENTS: usize = 3;

/// One way the daemon transport was visible.
#[derive(Clone, Debug)]
pub struct ServeMismatch {
    /// Which stage diverged (`direct-vs-served`, `warm-repeat`, `dedup`,
    /// `drain`).
    pub stage: &'static str,
    /// What diverged.
    pub detail: String,
}

impl fmt::Display for ServeMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serve oracle [{}]: {}", self.stage, self.detail)
    }
}

/// Outcome of [`check_serve_equivalence`] on one module.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Served results compared against direct handler calls (plus the
    /// dedup fan-out and drain checks).
    pub comparisons: usize,
    /// Transport-visible divergences (empty = the daemon is invisible).
    pub mismatches: Vec<ServeMismatch>,
}

/// A deterministic, CLI-shaped handler: parses the module from the
/// request and computes real reports. Shared (via `Arc`) between the
/// server and the direct-call reference so both run literally the same
/// code — any byte difference is the transport's fault.
struct OracleHandler {
    evaluations: AtomicU64,
    /// When armed, evaluations park here until released — how the dedup
    /// stage guarantees followers arrive while the leader is in flight.
    hold: Mutex<bool>,
    released: Condvar,
}

impl OracleHandler {
    fn new() -> Arc<OracleHandler> {
        Arc::new(OracleHandler {
            evaluations: AtomicU64::new(0),
            hold: Mutex::new(false),
            released: Condvar::new(),
        })
    }

    fn arm(&self) {
        *self.hold.lock().unwrap() = true;
    }

    fn release(&self) {
        *self.hold.lock().unwrap() = false;
        self.released.notify_all();
    }
}

/// Newtype around the shared handler (the orphan rule forbids
/// implementing [`Handler`] for `Arc<OracleHandler>` directly).
struct SharedHandler(Arc<OracleHandler>);

impl Handler for SharedHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        self.0.handle(kind, progress)
    }
}

impl OracleHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        self.evaluations.fetch_add(1, Ordering::SeqCst);
        progress(&format!("oracle evaluating {}", kind.name()));
        {
            let mut held = self.hold.lock().unwrap();
            while *held {
                held = self.released.wait(held).unwrap();
            }
        }
        match kind {
            RequestKind::Search { source, bits, .. } => {
                let module = optinline_ir::parse_module(source).map_err(|e| e.to_string())?;
                let graph = InlineGraph::from_module(&module);
                let tree = try_build_inlining_tree(&graph, PartitionStrategy::Paper, 1u128 << bits)
                    .ok_or("tree exceeds the requested bit budget")?;
                let ev = SizeEvaluator::new(module, Box::new(X86Like), false);
                let (config, size) =
                    evaluate_inlining_tree(&tree, &ev, InliningConfiguration::clean_slate());
                Ok(Reply {
                    report: format!(
                        "optimal size:   {size} B\noptimal config: {config}\ncompilations:   {}\n",
                        ev.compilations()
                    ),
                    module: None,
                    measurement: Some(optinline_ir::Measurement::size_only(size)),
                })
            }
            RequestKind::Optimize { source, .. } => {
                let module = optinline_ir::parse_module(source).map_err(|e| e.to_string())?;
                let before = text_size(&module, &X86Like);
                let mut optimized = module.clone();
                optinline_opt::optimize_os_report(
                    &mut optimized,
                    &optinline_opt::ForcedDecisions::new(Default::default()),
                    optinline_opt::PipelineOptions::default(),
                );
                let after = text_size(&optimized, &X86Like);
                Ok(Reply {
                    report: format!(
                        "size: {before} B -> {after} B ({:.1}%)\n",
                        100.0 * after as f64 / before as f64
                    ),
                    module: Some(optimized.to_string()),
                    measurement: Some(optinline_ir::Measurement::size_only(after)),
                })
            }
            other => Err(format!("oracle does not serve {}", other.name())),
        }
    }
}

fn search_kind(source: &str, bits: u32) -> RequestKind {
    RequestKind::Search {
        source: source.to_string(),
        target: "x86".to_string(),
        bits,
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

/// Boots a daemon around a real handler and demands the transport be
/// invisible for `module`: direct call == served call for every request
/// kind (and on a warm repeat), identical concurrent requests collapse
/// into one evaluation with byte-identical fan-out, and the drain leaves
/// no socket behind. Returns `None` when the module's search tree
/// exceeds the per-case budget — a skip, not a pass.
pub fn check_serve_equivalence(module: &Module, seed: u64) -> Option<ServeReport> {
    let graph = InlineGraph::from_module(module);
    try_build_inlining_tree(&graph, PartitionStrategy::Paper, TREE_BUDGET)?;
    let source = module.to_string();
    let bits = 9;

    let mut report = ServeReport::default();
    let handler = OracleHandler::new();
    let sock = std::env::temp_dir().join(format!(
        "optinline-servecheck-{}-{}-{seed:x}.sock",
        std::process::id(),
        module.name
    ));
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Unix(sock.clone());
    let server = match Server::bind(
        endpoint.clone(),
        Box::new(SharedHandler(Arc::clone(&handler))),
        ServeOptions {
            queue_capacity: 16,
            max_concurrent: DEDUP_CLIENTS,
            ..ServeOptions::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            report.mismatches.push(ServeMismatch {
                stage: "drain",
                detail: format!("daemon failed to bind: {e}"),
            });
            return Some(report);
        }
    };
    let handle = server.start();

    // Stage 1: direct vs served, every kind, then a warm repeat.
    let kinds = [
        search_kind(&source, bits),
        RequestKind::Optimize {
            source: source.clone(),
            target: "x86".to_string(),
            strategy: "heuristic".to_string(),
            full_sweep: false,
            pass_stats: false,
            objective: "size".to_string(),
        },
    ];
    match Client::connect(&endpoint) {
        Ok(mut client) => {
            for stage in ["direct-vs-served", "warm-repeat"] {
                for kind in &kinds {
                    report.comparisons += 1;
                    let direct = handler.handle(kind, &|_| {});
                    let served = client.call(kind.clone(), &mut |_| {});
                    match (direct, served) {
                        (Ok(d), Ok(s)) => {
                            if d.report != s.report || d.module != s.module {
                                report.mismatches.push(ServeMismatch {
                                    stage,
                                    detail: format!("{} reply diverged over the wire", kind.name()),
                                });
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (d, s) => report.mismatches.push(ServeMismatch {
                            stage,
                            detail: format!(
                                "{}: direct ok={} but served ok={}",
                                kind.name(),
                                d.is_ok(),
                                s.is_ok()
                            ),
                        }),
                    }
                }
            }
        }
        Err(e) => report.mismatches.push(ServeMismatch {
            stage: "direct-vs-served",
            detail: format!("client failed to connect: {e}"),
        }),
    }

    // Stage 2: dedup. Park the handler, fire identical requests, check
    // exactly one evaluation ran and every copy matches.
    report.comparisons += 1;
    let evals_before = handler.evaluations.load(Ordering::SeqCst);
    let stats_before = handle.stats();
    handler.arm();
    let workers: Vec<_> = (0..DEDUP_CLIENTS)
        .map(|_| {
            let endpoint = endpoint.clone();
            let kind = search_kind(&source, bits);
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint)?;
                client.call(kind, &mut |_| {})
            })
        })
        .collect();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while handle.stats().dedup_joined - stats_before.dedup_joined < DEDUP_CLIENTS as u64 - 1 {
        if std::time::Instant::now() > deadline {
            report.mismatches.push(ServeMismatch {
                stage: "dedup",
                detail: "followers never joined the in-flight evaluation".to_string(),
            });
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    handler.release();
    let mut outcomes = Vec::new();
    for w in workers {
        match w.join() {
            Ok(Ok(outcome)) => outcomes.push(outcome),
            Ok(Err(e)) => report.mismatches.push(ServeMismatch {
                stage: "dedup",
                detail: format!("dedup client failed: {e}"),
            }),
            Err(_) => report.mismatches.push(ServeMismatch {
                stage: "dedup",
                detail: "dedup client panicked".to_string(),
            }),
        }
    }
    if outcomes.len() == DEDUP_CLIENTS {
        let ran = handler.evaluations.load(Ordering::SeqCst) - evals_before;
        if ran != 1 {
            report.mismatches.push(ServeMismatch {
                stage: "dedup",
                detail: format!("{ran} evaluations ran for identical concurrent requests"),
            });
        }
        if outcomes.iter().any(|o| o.report != outcomes[0].report) {
            report.mismatches.push(ServeMismatch {
                stage: "dedup",
                detail: "fan-out copies differ".to_string(),
            });
        }
        if outcomes.iter().filter(|o| o.evaluated).count() != 1 {
            report.mismatches.push(ServeMismatch {
                stage: "dedup",
                detail: "exactly one outcome must carry the evaluated flag".to_string(),
            });
        }
    }

    // Stage 3: drain. The server must exit cleanly, account for every
    // request, and remove its socket.
    report.comparisons += 1;
    handle.drain();
    match handle.join() {
        Ok(stats) => {
            // Every accepted request must land in exactly one terminal
            // counter: completed, errored, shed past its deadline, or
            // cancelled by its waiters vanishing.
            if stats.terminal() != stats.accepted {
                report.mismatches.push(ServeMismatch {
                    stage: "drain",
                    detail: format!(
                        "counters leak requests: accepted {} vs completed {} + errors {} \
                         + shed {} + cancelled {}",
                        stats.accepted,
                        stats.completed,
                        stats.errors,
                        stats.shed_deadline,
                        stats.cancelled
                    ),
                });
            }
        }
        Err(e) => report.mismatches.push(ServeMismatch {
            stage: "drain",
            detail: format!("server exited uncleanly: {e}"),
        }),
    }
    if sock.exists() {
        report.mismatches.push(ServeMismatch {
            stage: "drain",
            detail: "socket file left behind after drain".to_string(),
        });
        let _ = std::fs::remove_file(&sock);
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_workloads::{generate_file, GenParams};

    #[test]
    fn transport_is_invisible_on_generated_modules() {
        let mut checked = 0;
        for seed in 0..4u64 {
            let m = generate_file(&GenParams {
                n_internal: 4,
                clusters: 2,
                ..GenParams::named("serve", seed)
            });
            if let Some(report) = check_serve_equivalence(&m, seed) {
                checked += 1;
                assert!(report.comparisons >= 6, "stages must all run: {report:?}");
                assert!(report.mismatches.is_empty(), "seed {seed}: {}", report.mismatches[0]);
            }
        }
        assert!(checked > 0, "every generated module was skipped");
    }

    #[test]
    fn oversized_trees_are_skipped_not_failed() {
        let m = generate_file(&GenParams {
            n_internal: 40,
            clusters: 1,
            ..GenParams::named("servebig", 3)
        });
        let graph = InlineGraph::from_module(&m);
        if try_build_inlining_tree(&graph, PartitionStrategy::Paper, TREE_BUDGET).is_none() {
            assert!(check_serve_equivalence(&m, 3).is_none());
        }
    }

    #[test]
    fn mismatches_render_their_stage() {
        let m = ServeMismatch { stage: "dedup", detail: "fan-out copies differ".to_string() };
        assert!(m.to_string().contains("[dedup]"));
        assert!(m.to_string().contains("fan-out"));
    }
}
