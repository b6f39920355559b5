//! The **chaos oracle**: seeded fault injection against the daemon and
//! the store, asserting the robustness contract rather than plain
//! functional equivalence.
//!
//! Per case (one seed) it runs two halves:
//!
//! - **Serve half.** A daemon whose handler hits an injected-fault site
//!   (`chaos.handler`: panics, delays) and whose reply writes pass
//!   through the torn-write site (`serve.out`), hammered by concurrent
//!   clients with read timeouts, retries, and (for some) deadlines. The
//!   assertions: *no client hangs* — every call reaches a terminal
//!   outcome within its bounded retry budget; *every surviving reply is
//!   byte-identical to direct execution* of the same handler with faults
//!   off; and the server's terminal counters *account for every accepted
//!   request* (completed + errors + shed + cancelled == accepted).
//! - **Store half.** A store is built, crash artifacts are inflicted —
//!   torn log tails, orphaned temp files, injected torn appends — and
//!   after every crash/restart cycle `verify` must come back clean and
//!   every durably flushed entry must still be served.
//!
//! The case seed fixes the fault plan, the request mix, and the surgery
//! schedule, but not which replies survive: client deadlines and read
//! timeouts are wall-clock, so runs of one seed can count different
//! surviving replies (four runs of `--chaos 200 --seed 12648430` printed
//! 849 to 866). A failure names the seed to replay; compare two builds by
//! exit status and failure count, not by the report.

use std::fmt;
use std::time::{Duration, Instant};

use optinline_fault::{arm_scoped, FaultKind, FaultPlan, FaultSpec};
use optinline_ir::{CallSiteId, Measurement};
use optinline_serve::{
    Client, ClientConfig, ClientError, Endpoint, Handler, Reply, RequestKind, ServeOptions, Server,
};
use optinline_store::{LocalStore, StoreOptions};

/// Concurrent clients fired per serve half.
const CLIENTS: usize = 6;

/// Wall-clock bound on the whole serve half; a client still running past
/// it is a hang (every call is bounded by read timeouts × retries far
/// below this).
const HANG_BOUND: Duration = Duration::from_secs(30);

/// One broken robustness promise.
#[derive(Clone, Debug)]
pub struct ChaosMismatch {
    /// Which stage broke (`serve-hang`, `serve-divergence`,
    /// `serve-accounting`, `store-recovery`).
    pub stage: &'static str,
    /// What happened.
    pub detail: String,
}

impl fmt::Display for ChaosMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos oracle [{}]: {}", self.stage, self.detail)
    }
}

/// Outcome of one chaos case (or an accumulated run).
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Cases executed.
    pub cases: usize,
    /// Individual assertions checked across both halves.
    pub comparisons: usize,
    /// Surviving served replies compared byte-for-byte against direct
    /// execution.
    pub survivors: usize,
    /// Requests that terminated in an injected failure, a deadline shed,
    /// or a cancellation — expected chaos, checked for typed reporting.
    pub casualties: usize,
    /// Crash/restart cycles whose recovery was verified clean.
    pub recoveries: usize,
    /// Broken promises (empty = the system is chaos-hardened).
    pub mismatches: Vec<ChaosMismatch>,
}

impl ChaosReport {
    /// `true` iff every robustness promise held.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Folds another report (one case) into this accumulator.
    pub fn absorb(&mut self, other: ChaosReport) {
        self.cases += other.cases;
        self.comparisons += other.comparisons;
        self.survivors += other.survivors;
        self.casualties += other.casualties;
        self.recoveries += other.recoveries;
        self.mismatches.extend(other.mismatches);
    }

    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        format!(
            "chaos: {} cases, {} assertions, {} surviving replies byte-checked, \
             {} injected casualties, {} crash recoveries verified, {} broken promises",
            self.cases,
            self.comparisons,
            self.survivors,
            self.casualties,
            self.recoveries,
            self.mismatches.len()
        )
    }
}

/// splitmix64 — the local deterministic stream everything derives from.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic handler shaped like the CLI's: its reply is a pure
/// function of the request source, and its evaluation passes an
/// injected-fault site first — the seam the chaos plan panics and delays
/// through. With faults off it is exactly the no-chaos reference.
struct ChaosHandler;

fn digest(source: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in source.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Handler for ChaosHandler {
    fn handle(&self, kind: &RequestKind, progress: &dyn Fn(&str)) -> Result<Reply, String> {
        let RequestKind::Search { source, .. } = kind else {
            return Err("chaos oracle only serves search".to_string());
        };
        optinline_fault::fail_point("chaos.handler", source).map_err(|e| e.to_string())?;
        optinline_ir::cancel::checkpoint();
        progress("chaos evaluating");
        Ok(Reply {
            report: format!("chaos {:016x}\nsource bytes {}\n", digest(source), source.len()),
            module: None,
            measurement: Some(Measurement::size_only(source.len() as u64)),
        })
    }
}

fn search_kind(source: &str) -> RequestKind {
    RequestKind::Search {
        source: source.to_string(),
        target: "x86".to_string(),
        bits: 4,
        full_eval: false,
        stats: false,
        pass_stats: false,
        objective: "size".to_string(),
    }
}

/// The serve half. The `tag` makes this case's sockets and fault
/// contexts unique so concurrent test binaries cannot cross-fire.
fn chaos_serve(seed: u64, report: &mut ChaosReport) {
    let tag = format!("chaos-{}-{seed:x}", std::process::id());
    let sock = std::env::temp_dir().join(format!("optinline-{tag}.sock"));
    let _ = std::fs::remove_file(&sock);
    let endpoint = Endpoint::Unix(sock.clone());

    // The fault plan, derived from the seed: panic some evaluations
    // (matched by the per-case marker inside the request source), delay
    // a few, and tear some reply writes on the socket.
    let panic_ppm = 150_000 + (mix(seed) % 250_000) as u32;
    let tear_ppm = 50_000 + (mix(seed ^ 1) % 150_000) as u32;
    let plan = FaultPlan::new(seed)
        .with(FaultSpec::with_ppm("chaos.handler", &tag, panic_ppm, FaultKind::Panic, 0))
        .with(FaultSpec::with_ppm("chaos.handler", &tag, 100_000, FaultKind::Delay, 15))
        .with(FaultSpec::with_ppm("serve.out", &tag, tear_ppm, FaultKind::Truncate, 0));

    let server = match Server::bind(
        endpoint.clone(),
        Box::new(ChaosHandler),
        ServeOptions { queue_capacity: 32, max_concurrent: 2, ..ServeOptions::default() },
    ) {
        Ok(s) => s,
        Err(e) => {
            report.mismatches.push(ChaosMismatch {
                stage: "serve-hang",
                detail: format!("daemon failed to bind: {e}"),
            });
            return;
        }
    };
    let handle = server.start();

    // Injected panics unwind through the default hook; keep the run's
    // output readable while they are expected.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let guard = arm_scoped(plan);

    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            // A small distinct pool of sources, with collisions so dedup
            // runs under fire too; every source carries the case tag the
            // fault specs filter on.
            let source = format!("(module {tag}-m{})", mix(seed ^ i as u64) % 4);
            let deadline_ms =
                if mix(seed ^ (0x40 + i as u64)).is_multiple_of(3) { Some(2_000) } else { None };
            let endpoint = endpoint.clone();
            let config = ClientConfig {
                connect_timeout: Some(Duration::from_secs(2)),
                read_timeout: Some(Duration::from_secs(1)),
                deadline_ms,
                retries: 3,
                retry_base: Duration::from_millis(5),
                retry_cap: Duration::from_millis(50),
                retry_seed: seed,
            };
            std::thread::spawn(move || {
                let outcome = Client::connect_with(&endpoint, config)
                    .and_then(|mut c| c.call(search_kind(&source), &mut |_| {}));
                (source, outcome)
            })
        })
        .collect();

    // No-hang assertion: every client must reach a terminal outcome
    // within the wall bound.
    let started = Instant::now();
    let mut hung = false;
    for w in &workers {
        while !w.is_finished() {
            if started.elapsed() > HANG_BOUND {
                hung = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    report.comparisons += 1;
    if hung {
        report.mismatches.push(ChaosMismatch {
            stage: "serve-hang",
            detail: format!("a client was still blocked after {HANG_BOUND:?}"),
        });
        // Leave the stuck threads behind; joining would hang the oracle.
        drop(guard);
        std::panic::set_hook(prev_hook);
        handle.drain();
        let _ = handle.join();
        return;
    }

    let outcomes: Vec<(String, Result<_, _>)> =
        workers.into_iter().map(|w| w.join().expect("finished client thread")).collect();

    // Survivors must be byte-identical to direct execution with faults
    // off; casualties must be *typed* failures, never silence.
    drop(guard);
    std::panic::set_hook(prev_hook);
    let reference = ChaosHandler;
    for (source, outcome) in &outcomes {
        report.comparisons += 1;
        match outcome {
            Ok(served) => {
                report.survivors += 1;
                let direct = reference
                    .handle(&search_kind(source), &|_| {})
                    .expect("reference handler is infallible with faults off");
                if served.report != direct.report || served.measurement != direct.measurement {
                    report.mismatches.push(ChaosMismatch {
                        stage: "serve-divergence",
                        detail: format!(
                            "surviving reply diverged from direct execution for {source}: \
                             served {:?} vs direct {:?}",
                            served.report, direct.report
                        ),
                    });
                }
            }
            Err(
                ClientError::Remote(_)
                | ClientError::Rejected(_)
                | ClientError::Io(_)
                | ClientError::Connect(_),
            ) => report.casualties += 1,
            Err(other) => report.mismatches.push(ChaosMismatch {
                stage: "serve-divergence",
                detail: format!("untyped terminal outcome for {source}: {other}"),
            }),
        }
    }

    // Terminal accounting must balance even after injected chaos.
    handle.drain();
    report.comparisons += 1;
    match handle.join() {
        Ok(stats) => {
            if stats.terminal() != stats.accepted {
                report.mismatches.push(ChaosMismatch {
                    stage: "serve-accounting",
                    detail: format!(
                        "accepted {} but completed {} + errors {} + shed {} + cancelled {}",
                        stats.accepted,
                        stats.completed,
                        stats.errors,
                        stats.shed_deadline,
                        stats.cancelled
                    ),
                });
            }
        }
        Err(e) => report.mismatches.push(ChaosMismatch {
            stage: "serve-accounting",
            detail: format!("server exited uncleanly: {e}"),
        }),
    }
    let _ = std::fs::remove_file(&sock);
}

fn key(ids: &[u32]) -> Vec<CallSiteId> {
    ids.iter().map(|&i| CallSiteId::new(i)).collect()
}

/// One crash artifact inflicted between store sessions.
fn inflict(choice: u64, log: &std::path::Path) {
    if choice.is_multiple_of(2) {
        // Torn log tail: a crash mid-append left a partial entry line.
        if let Ok(mut text) = std::fs::read_to_string(log) {
            text.push_str("912 s1,s");
            let _ = std::fs::write(log, text);
        }
    } else if let Some(shard) = log.parent() {
        // Orphaned temp file from a writer that died mid-rewrite.
        let _ = std::fs::write(shard.join("dead.tmp.999999998"), "torn");
    }
}

/// The store half: build → crash → restart → verify-clean, three cycles
/// with seed-chosen artifacts, plus an injected torn append through the
/// real fault seam.
fn chaos_store(seed: u64, report: &mut ChaosReport) {
    let dir =
        std::env::temp_dir().join(format!("optinline-chaos-store-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fingerprint = 0xc4a0_5000u128 + (seed as u128 & 0xff);
    let meta = "chaos target=t sites=4";
    let mut fail = |detail: String| {
        report.mismatches.push(ChaosMismatch { stage: "store-recovery", detail });
    };

    // Session 0: durably record the entries every later cycle must serve.
    let log = {
        let store = match LocalStore::open(&dir, StoreOptions::default()) {
            Ok(s) => s,
            Err(e) => return fail(format!("store failed to open: {e}")),
        };
        let scope = match store.scope(fingerprint, meta) {
            Ok(s) => s,
            Err(e) => return fail(format!("scope failed to open: {e}")),
        };
        scope.put(key(&[]), Measurement::size_only(100));
        scope.put(key(&[1]), Measurement::size_only(90));
        scope.put(key(&[1, 2]), Measurement::size_only(80));
        if let Err(e) = store.flush_all() {
            return fail(format!("baseline flush failed: {e}"));
        }
        scope.path().to_path_buf()
    };

    // Injected chaos through the real seam: a torn batched append,
    // followed by reopen + verify.
    {
        let plan = FaultPlan::new(seed).with(FaultSpec::on_hits(
            "store.append",
            &dir.to_string_lossy(),
            &[1],
            FaultKind::Truncate,
            0,
        ));
        let _guard = arm_scoped(plan);
        if let Ok(store) = LocalStore::open(&dir, StoreOptions::default()) {
            if let Ok(scope) = store.scope(fingerprint, meta) {
                // This entry is sacrificed to the torn append — recovery
                // may drop it (it was never durable), but must stay clean.
                scope.put(key(&[3]), Measurement::size_only(70));
                let _ = scope.flush();
            }
            let _ = store.flush_all();
        }
    }

    // Crash/restart cycles with seed-chosen artifacts on top.
    for cycle in 0..3u64 {
        inflict(mix(seed ^ (0xc0 + cycle)), &log);
        let store = match LocalStore::open(&dir, StoreOptions::default()) {
            Ok(s) => s,
            Err(e) => return fail(format!("cycle {cycle}: reopen failed: {e}")),
        };
        report.comparisons += 1;
        match store.verify() {
            Ok(v) if v.clean() => report.recoveries += 1,
            Ok(v) => {
                return fail(format!(
                    "cycle {cycle}: verify not clean after recovery: \
                     {} malformed, {} unreadable",
                    v.malformed_lines, v.unreadable_logs
                ))
            }
            Err(e) => return fail(format!("cycle {cycle}: verify failed: {e}")),
        }
        // The durably flushed entries must still be served.
        report.comparisons += 1;
        match store.scope(fingerprint, meta) {
            Ok(scope) => {
                for (ids, size) in [(&[][..], 100), (&[1][..], 90), (&[1, 2][..], 80)] {
                    if scope.get(&key(ids)) != Some(Measurement::size_only(size)) {
                        return fail(format!(
                            "cycle {cycle}: durable entry {ids:?} lost after recovery"
                        ));
                    }
                }
            }
            Err(e) => return fail(format!("cycle {cycle}: scope reopen failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one chaos case: the serve half and the store half, both derived
/// from `seed`.
pub fn check_chaos(seed: u64) -> ChaosReport {
    let mut report = ChaosReport { cases: 1, ..ChaosReport::default() };
    chaos_serve(seed, &mut report);
    chaos_store(seed, &mut report);
    report
}

/// Runs `cases` chaos cases (seeds `seed..seed+cases`) and accumulates —
/// the standalone driver behind `optinline check --chaos`.
pub fn run_chaos(cases: usize, seed: u64) -> ChaosReport {
    let mut total = ChaosReport::default();
    for i in 0..cases {
        total.absorb(check_chaos(seed.wrapping_add(i as u64)));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_chaos_run_is_clean() {
        let report = run_chaos(4, 0xC4A05);
        assert!(report.clean(), "{:?}", report.mismatches.first());
        assert_eq!(report.cases, 4);
        assert!(report.recoveries >= 12, "3 cycles per case must verify: {}", report.render());
        assert!(report.survivors + report.casualties > 0, "clients must terminate");
    }

    #[test]
    fn every_client_terminates_under_fire() {
        let mut report = ChaosReport::default();
        chaos_serve(7, &mut report);
        assert!(
            !report.mismatches.iter().any(|m| m.stage == "serve-hang"),
            "{:?}",
            report.mismatches
        );
    }

    #[test]
    fn store_recovery_survives_every_artifact_kind() {
        for seed in 0..5u64 {
            let mut report = ChaosReport::default();
            chaos_store(seed, &mut report);
            assert!(report.clean(), "seed {seed}: {:?}", report.mismatches.first());
        }
    }

    #[test]
    fn mismatches_render_their_stage() {
        let m = ChaosMismatch { stage: "serve-hang", detail: "stuck".to_string() };
        assert!(m.to_string().contains("[serve-hang]"));
    }
}
