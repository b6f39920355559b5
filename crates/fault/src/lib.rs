//! # optinline-fault
//!
//! Seeded fault injection behind a zero-cost-when-off seam.
//!
//! Production code sprinkles *fault sites* — named points where an
//! injected failure is plausible (a socket write, a log append, the
//! index rename). Each site is one call into this crate:
//!
//! ```ignore
//! optinline_fault::fail_point("store.append", path_str)?;
//! ```
//!
//! When no [`FaultPlan`] is armed (the production state) a site costs one
//! relaxed atomic load and nothing else. When a plan is armed, each hit
//! of a site is counted and matched against the plan's specs: a matching
//! spec can panic, sleep, return an injected I/O error, truncate a write,
//! or abort the whole process — all decided deterministically from the
//! plan's seed and the site's hit counter, so a chaos case replays from
//! its seed alone.
//!
//! Specs carry a *context filter* (substring match on the free-form
//! context string the call site passes, usually a path or endpoint).
//! This scopes injected faults to one daemon or one store directory, so
//! a chaos test armed inside a multi-test process cannot perturb
//! unrelated stores or servers running concurrently.
//!
//! Plans can also be armed from the `OPTINLINE_FAULT_PLAN` environment
//! variable (see [`arm_from_env`]) so a *subprocess* can be crashed at a
//! chosen point — the kill-9-mid-write recovery check in CI does exactly
//! that with a `kind=crash` spec.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The environment variable [`arm_from_env`] reads a plan from.
pub const FAULT_PLAN_ENV: &str = "OPTINLINE_FAULT_PLAN";

/// What an injected fault does at its site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with `injected fault: <site>` (an injected evaluation
    /// panic; the server's catch_unwind turns it into an error event).
    Panic,
    /// Return an injected `std::io::Error` from the site.
    IoError,
    /// Sleep `arg` milliseconds, then proceed normally (delayed bytes).
    Delay,
    /// Truncate the write to `arg` bytes and report an injected error
    /// (a torn write: the prefix lands on disk, the rest does not).
    Truncate,
    /// Abort the process (`SIGABRT`): a crash at a chosen point, for
    /// subprocess crash/restart recovery tests.
    Crash,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        Some(match s {
            "panic" => FaultKind::Panic,
            "io" => FaultKind::IoError,
            "delay" => FaultKind::Delay,
            "truncate" => FaultKind::Truncate,
            "crash" => FaultKind::Crash,
            _ => return None,
        })
    }
}

/// One injected-fault rule: where, when, and what.
#[derive(Clone, Debug)]
pub struct FaultSpec {
    /// The site name this spec applies to (exact match).
    pub site: String,
    /// Substring the call site's context must contain; empty matches any.
    pub ctx: String,
    /// 1-based hit numbers of the site that fire. Empty means "use
    /// `ppm`" instead. Explicit hit lists are what bound chaos cases:
    /// a fault that fires on hits 1 and 2 cannot fire forever.
    pub nth: Vec<u64>,
    /// Per-hit firing probability in parts-per-million, decided by the
    /// plan seed and the hit number (used only when `nth` is empty).
    pub ppm: u32,
    /// What happens when the spec fires.
    pub kind: FaultKind,
    /// Kind-specific argument: delay milliseconds, or truncate-keep
    /// bytes.
    pub arg: u64,
}

impl FaultSpec {
    /// A spec firing on exactly the given 1-based hits of `site`.
    pub fn on_hits(site: &str, ctx: &str, hits: &[u64], kind: FaultKind, arg: u64) -> FaultSpec {
        FaultSpec {
            site: site.to_string(),
            ctx: ctx.to_string(),
            nth: hits.to_vec(),
            ppm: 0,
            kind,
            arg,
        }
    }

    /// A spec firing each hit of `site` with probability `ppm` / 1e6.
    pub fn with_ppm(site: &str, ctx: &str, ppm: u32, kind: FaultKind, arg: u64) -> FaultSpec {
        FaultSpec { site: site.to_string(), ctx: ctx.to_string(), nth: Vec::new(), ppm, kind, arg }
    }
}

/// A seeded set of fault rules. Arm one with [`arm`] (or [`arm_scoped`]
/// in tests); everything it decides derives from `seed` and per-site hit
/// counters, never from wall-clock time or OS randomness.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed feeding every probabilistic decision.
    pub seed: u64,
    /// The rules; the first matching spec that fires wins.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (arms the seam without injecting anything).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, specs: Vec::new() }
    }

    /// Adds a spec, builder style.
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// Parses the textual plan format used by [`FAULT_PLAN_ENV`]:
    /// records separated by `;`, fields by `,`. The first field of a
    /// record is either `seed=N` or a site name; the rest are
    /// `kind=panic|io|delay|truncate|crash`, `nth=1+2+5`, `ppm=N`,
    /// `arg=N`, `ctx=S`.
    ///
    /// Example: `seed=7;store.append,kind=crash,nth=1`.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for record in text.split(';').map(str::trim).filter(|r| !r.is_empty()) {
            let mut fields = record.split(',').map(str::trim);
            let head = fields.next().unwrap_or_default();
            if let Some(seed) = head.strip_prefix("seed=") {
                plan.seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
                continue;
            }
            let mut spec = FaultSpec::on_hits(head, "", &[], FaultKind::Panic, 0);
            for field in fields {
                let (key, value) =
                    field.split_once('=').ok_or_else(|| format!("bad field {field:?}"))?;
                match key {
                    "kind" => {
                        spec.kind =
                            FaultKind::parse(value).ok_or_else(|| format!("bad kind {value:?}"))?;
                    }
                    "nth" => {
                        spec.nth = value
                            .split('+')
                            .map(|n| n.parse().map_err(|_| format!("bad nth {n:?}")))
                            .collect::<Result<_, _>>()?;
                    }
                    "ppm" => spec.ppm = value.parse().map_err(|_| format!("bad ppm {value:?}"))?,
                    "arg" => spec.arg = value.parse().map_err(|_| format!("bad arg {value:?}"))?,
                    "ctx" => spec.ctx = value.to_string(),
                    other => return Err(format!("unknown field {other:?}")),
                }
            }
            plan.specs.push(spec);
        }
        Ok(plan)
    }
}

/// The armed flag, checked first at every site: one relaxed load is the
/// entire production cost of the seam.
static ARMED: AtomicBool = AtomicBool::new(false);

struct Active {
    plan: FaultPlan,
    /// Per-site hit counters (1-based after increment).
    hits: HashMap<String, u64>,
    /// Per-site counts of faults actually fired.
    fired: HashMap<String, u64>,
}

fn state() -> &'static Mutex<Option<Active>> {
    static STATE: OnceLock<Mutex<Option<Active>>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(None))
}

fn lock_state() -> MutexGuard<'static, Option<Active>> {
    state().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether a plan is armed. Inlined fast path for call sites that want
/// to skip even building their context string.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms `plan` process-wide, resetting all hit counters.
pub fn arm(plan: FaultPlan) {
    *lock_state() = Some(Active { plan, hits: HashMap::new(), fired: HashMap::new() });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection (the production state).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *lock_state() = None;
}

/// Serializes tests that arm plans: only one scoped arming is live at a
/// time, and dropping the guard disarms.
static TEST_GATE: Mutex<()> = Mutex::new(());

/// An armed plan scoped to a guard's lifetime (tests).
#[derive(Debug)]
pub struct ArmGuard {
    _gate: MutexGuard<'static, ()>,
}

/// Arms `plan` for the lifetime of the returned guard, serializing
/// against other scoped armings so concurrent tests cannot interleave
/// plans. Dropping the guard disarms.
pub fn arm_scoped(plan: FaultPlan) -> ArmGuard {
    let gate = TEST_GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    arm(plan);
    ArmGuard { _gate: gate }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms the plan named by [`FAULT_PLAN_ENV`], if set and parseable.
/// Called once at CLI startup so CI can crash a real subprocess at a
/// chosen point. Returns whether a plan was armed.
pub fn arm_from_env() -> bool {
    match std::env::var(FAULT_PLAN_ENV) {
        Ok(text) if !text.trim().is_empty() => match FaultPlan::parse(&text) {
            Ok(plan) => {
                arm(plan);
                true
            }
            Err(e) => {
                eprintln!("[fault] ignoring malformed {FAULT_PLAN_ENV}: {e}");
                false
            }
        },
        _ => false,
    }
}

/// How many times `site` has fired an injected fault under the current
/// plan (0 when disarmed). Chaos oracles assert on this to know a case
/// actually exercised its fault.
pub fn fired(site: &str) -> u64 {
    lock_state().as_ref().and_then(|a| a.fired.get(site).copied()).unwrap_or(0)
}

/// A splitmix-style mix: deterministic per (seed, site, hit).
fn decide(seed: u64, site: &str, hit: u64) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(hit.wrapping_add(1));
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Consults the armed plan for `site` under `ctx`: bumps the site's hit
/// counter and returns the first matching spec that fires. `None` (the
/// usual answer, and always the answer when disarmed) means proceed
/// normally.
pub fn check(site: &str, ctx: &str) -> Option<(FaultKind, u64)> {
    if !armed() {
        return None;
    }
    let mut guard = lock_state();
    let active = guard.as_mut()?;
    let hit = {
        let h = active.hits.entry(site.to_string()).or_insert(0);
        *h += 1;
        *h
    };
    let seed = active.plan.seed;
    let fired = active.plan.specs.iter().find_map(|spec| {
        if spec.site != site || (!spec.ctx.is_empty() && !ctx.contains(spec.ctx.as_str())) {
            return None;
        }
        let fires = if spec.nth.is_empty() {
            decide(seed, site, hit) % 1_000_000 < u64::from(spec.ppm)
        } else {
            spec.nth.contains(&hit)
        };
        fires.then_some((spec.kind, spec.arg))
    });
    if fired.is_some() {
        *active.fired.entry(site.to_string()).or_insert(0) += 1;
    }
    drop(guard);
    fired
}

/// The injected error every I/O-shaped fault reports.
fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {site}"))
}

/// The general-purpose site: panics, crashes, delays, or returns an
/// injected error according to the armed plan. [`FaultKind::Truncate`]
/// degrades to an injected error here (use [`write_cap`] at sites that
/// can honor a partial write).
pub fn fail_point(site: &str, ctx: &str) -> std::io::Result<()> {
    match check(site, ctx) {
        None => Ok(()),
        Some((FaultKind::Delay, ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some((FaultKind::Panic, _)) => panic!("injected fault: {site}"),
        Some((FaultKind::Crash, _)) => std::process::abort(),
        Some((FaultKind::IoError | FaultKind::Truncate, _)) => Err(injected_error(site)),
    }
}

/// What a write-shaped site should do with its buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// No fault: write the whole buffer.
    Pass,
    /// Torn write: persist exactly this prefix, then report
    /// [`write_error`] for the site.
    Truncate(usize),
    /// Injected failure: write nothing, report [`write_error`].
    Error,
}

/// Consults the plan at a write-shaped site (`len` = bytes about to be
/// written). `Truncate(n)` means "persist only the first `n` bytes, then
/// fail"; `Delay` is applied internally; `Panic`/`Crash` act here.
pub fn write_cap(site: &str, ctx: &str, len: usize) -> WriteFault {
    match check(site, ctx) {
        None => WriteFault::Pass,
        Some((FaultKind::Delay, ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            WriteFault::Pass
        }
        Some((FaultKind::Panic, _)) => panic!("injected fault: {site}"),
        Some((FaultKind::Crash, _)) => std::process::abort(),
        Some((FaultKind::IoError, _)) => WriteFault::Error,
        Some((FaultKind::Truncate, keep)) => {
            WriteFault::Truncate((keep as usize).min(len.saturating_sub(1)))
        }
    }
}

/// The error a write-shaped site reports after a `Truncate`/`Error`
/// verdict from [`write_cap`].
pub fn write_error(site: &str) -> std::io::Error {
    injected_error(site)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_cost_nothing_and_fire_nothing() {
        disarm();
        assert!(!armed());
        assert_eq!(check("any.site", "ctx"), None);
        assert!(fail_point("any.site", "ctx").is_ok());
        assert_eq!(write_cap("any.site", "ctx", 100), WriteFault::Pass);
        assert_eq!(fired("any.site"), 0);
    }

    #[test]
    fn nth_hits_fire_exactly_where_planned() {
        let plan = FaultPlan::new(1).with(FaultSpec::on_hits(
            "t.site",
            "",
            &[2, 4],
            FaultKind::IoError,
            0,
        ));
        let _guard = arm_scoped(plan);
        assert!(fail_point("t.site", "x").is_ok(), "hit 1 passes");
        assert!(fail_point("t.site", "x").is_err(), "hit 2 fires");
        assert!(fail_point("t.site", "x").is_ok(), "hit 3 passes");
        assert!(fail_point("t.site", "x").is_err(), "hit 4 fires");
        assert!(fail_point("t.site", "x").is_ok(), "hit 5 passes");
        assert_eq!(fired("t.site"), 2);
    }

    #[test]
    fn ctx_filter_scopes_faults() {
        let plan = FaultPlan::new(1).with(FaultSpec::on_hits(
            "c.site",
            "/store-a/",
            &[1, 2],
            FaultKind::IoError,
            0,
        ));
        let _guard = arm_scoped(plan);
        assert!(fail_point("c.site", "/tmp/store-b/log").is_ok(), "foreign ctx untouched");
        assert!(fail_point("c.site", "/tmp/store-a/log").is_err(), "matching ctx fires");
    }

    #[test]
    fn ppm_decisions_are_deterministic_in_the_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).with(FaultSpec::with_ppm(
                "p.site",
                "",
                500_000,
                FaultKind::IoError,
                0,
            ));
            let _guard = arm_scoped(plan);
            (0..64).map(|_| fail_point("p.site", "").is_err()).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same firing pattern");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let fired = run(7).iter().filter(|f| **f).count();
        assert!(fired > 8 && fired < 56, "~half the hits fire at 500000 ppm, got {fired}");
    }

    #[test]
    fn truncate_caps_below_the_buffer_length() {
        let plan = FaultPlan::new(1).with(FaultSpec::on_hits(
            "w.site",
            "",
            &[1, 2],
            FaultKind::Truncate,
            10,
        ));
        let _guard = arm_scoped(plan);
        assert_eq!(write_cap("w.site", "", 100), WriteFault::Truncate(10));
        assert_eq!(write_cap("w.site", "", 5), WriteFault::Truncate(4), "always a strict prefix");
    }

    #[test]
    fn plan_parsing_round_trips_the_env_grammar() {
        let plan = FaultPlan::parse(
            "seed=9;store.append,kind=truncate,nth=1+3,arg=12,ctx=/x/;serve.out,kind=delay,ppm=1000,arg=5",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.specs.len(), 2);
        assert_eq!(plan.specs[0].site, "store.append");
        assert_eq!(plan.specs[0].kind, FaultKind::Truncate);
        assert_eq!(plan.specs[0].nth, vec![1, 3]);
        assert_eq!(plan.specs[0].arg, 12);
        assert_eq!(plan.specs[0].ctx, "/x/");
        assert_eq!(plan.specs[1].kind, FaultKind::Delay);
        assert_eq!(plan.specs[1].ppm, 1000);
        assert!(FaultPlan::parse("site,kind=nope").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
    }
}
