//! The local inlining autotuner for size (§5, Algorithm 3).
//!
//! One round: starting from a base configuration, flip each site's label
//! independently against the *same* base, measure, and keep exactly the
//! flips that shrink the binary. All probes are independent, so a round is
//! embarrassingly parallel and costs `n + 2` compilations (`n` probes, the
//! base, and the combined result).
//!
//! Variants from §5.1:
//! - **clean slate** — base = everything no-inline;
//! - **heuristic-initialized** — base = the baseline compiler's decisions
//!   (the paper's "LLVM-initialized" mode);
//! - **round-based** — each round starts from the previous round's output,
//!   extending the effective scope to non-local configurations;
//! - **combined** — best of several runs (the paper combines clean-slate
//!   and LLVM-initialized results per file).
//!
//! The §6 extensions change only which sites a round probes (incremental)
//! or which flips it keeps (runtime-guarded), so every scalar session runs
//! one round loop, and every round fans its probes out over the pool.

use crate::config::InliningConfiguration;
use crate::evaluator::Evaluator;
use crate::measure::Objective;
use crate::pareto::ParetoFront;
use optinline_ir::CallSiteId;
use std::collections::BTreeSet;

/// Report for one autotuning round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// The round's output configuration.
    pub config: InliningConfiguration,
    /// Size of the output configuration.
    pub size: u64,
    /// Size of the round's base configuration.
    pub base_size: u64,
    /// Number of flips kept.
    pub flips: usize,
    /// Compilations this round would cost uncached: `n + 2`.
    pub evaluations: u128,
}

/// A full autotuning session (one or more rounds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneOutcome {
    /// Per-round reports, in order.
    pub rounds: Vec<RoundReport>,
}

impl TuneOutcome {
    /// The best configuration across all rounds (sizes can regress between
    /// rounds — Table 4 of the paper — so "last" is not always "best").
    pub fn best(&self) -> &RoundReport {
        self.rounds
            .iter()
            .min_by_key(|r| (r.size, r.round))
            .expect("a session has at least one round")
    }

    /// The final round's report.
    pub fn last(&self) -> &RoundReport {
        self.rounds.last().expect("a session has at least one round")
    }

    /// Total evaluation cost (`R * (n + 2)` when no round exits early).
    pub fn total_evaluations(&self) -> u128 {
        self.rounds.iter().map(|r| r.evaluations).sum()
    }
}

/// Outcome of a Pareto-front tuning session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParetoOutcome {
    /// The final front.
    pub front: ParetoFront,
    /// Rounds actually run (early exit on a round that adds no point).
    pub rounds: usize,
    /// Distinct configurations measured.
    pub evaluations: u128,
}

/// A runtime guard on a session's flips: one that shrinks the binary is
/// kept only if `cycles_of` reads it at most `budget` times the round
/// base's cycles (or either reads `None`).
struct Guard<'g> {
    cycles_of: &'g (dyn Fn(&InliningConfiguration) -> Option<u64> + Sync),
    budget: f64,
}

/// The autotuner (Algorithm 3 plus the §5.1 variations).
pub struct Autotuner<'e> {
    evaluator: &'e dyn Evaluator,
    sites: BTreeSet<CallSiteId>,
}

impl std::fmt::Debug for Autotuner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Autotuner").field("sites", &self.sites.len()).finish()
    }
}

impl<'e> Autotuner<'e> {
    /// Creates an autotuner over the given site domain.
    pub fn new(evaluator: &'e dyn Evaluator, sites: BTreeSet<CallSiteId>) -> Self {
        Autotuner { evaluator, sites }
    }

    /// Runs up to `rounds` rounds starting from `init`, stopping early at a
    /// fixpoint (a round with zero kept flips).
    pub fn run(&self, init: InliningConfiguration, rounds: usize) -> TuneOutcome {
        self.rounds(init, rounds, &[], None)
    }

    /// The paper's clean-slate session.
    pub fn clean_slate(&self, rounds: usize) -> TuneOutcome {
        self.run(InliningConfiguration::clean_slate(), rounds)
    }

    /// Incremental round-based tuning (the §6 scalability extension): after
    /// round one, only sites in call-graph components whose configuration
    /// changed in the previous round are re-probed.
    ///
    /// Under the independence property (§3.2), a probe's local size delta
    /// only depends on decisions within its own component, so skipping
    /// untouched components is **exact**: the outcome equals [`run`]'s,
    /// round for round, at a fraction of the evaluations (the per-round
    /// [`RoundReport::evaluations`] records the smaller probe counts).
    ///
    /// `components` partitions the site domain (see
    /// [`site_components`](optinline_callgraph::site_components)); sites
    /// missing from every part are probed every round, conservatively.
    ///
    /// [`run`]: Autotuner::run
    pub fn run_incremental(
        &self,
        components: &[BTreeSet<CallSiteId>],
        init: InliningConfiguration,
        rounds: usize,
    ) -> TuneOutcome {
        self.rounds(init, rounds, components, None)
    }

    /// Runtime-guarded tuning (the §6 "balance between performance and code
    /// size" direction): a flip is kept only if it strictly shrinks the
    /// binary AND does not slow the program beyond `budget` (relative to
    /// the round's base, e.g. `1.02` allows a 2% regression).
    ///
    /// `cycles_of` measures a configuration's runtime (simulated cycles);
    /// returning `None` (e.g. no executable entry) disables the guard for
    /// that probe. It runs on the pool's threads, like the size probes.
    pub fn run_guarded(
        &self,
        init: InliningConfiguration,
        rounds: usize,
        cycles_of: &(dyn Fn(&InliningConfiguration) -> Option<u64> + Sync),
        budget: f64,
    ) -> TuneOutcome {
        assert!(budget >= 1.0, "a budget below 1.0 would reject no-ops");
        self.rounds(init, rounds, &[], Some(Guard { cycles_of, budget }))
    }

    /// The round loop every scalar session runs: each round probes the
    /// dirty sites against the round's base, keeps the flips that pass, and
    /// hands the result to the next round; a round that keeps no flip ends
    /// the session. Round one probes every site; after it, a site in a part
    /// of `components` is dirty only when the previous round flipped a site
    /// of that part, and a site in no part is always dirty, so an empty
    /// partition probes every site every round.
    fn rounds(
        &self,
        init: InliningConfiguration,
        rounds: usize,
        components: &[BTreeSet<CallSiteId>],
        guard: Option<Guard<'_>>,
    ) -> TuneOutcome {
        assert!(rounds >= 1, "at least one round is required");
        let component_of = |site: CallSiteId| components.iter().position(|c| c.contains(&site));
        let mut dirty: BTreeSet<Option<usize>> =
            self.sites.iter().map(|&s| component_of(s)).collect();
        let mut reports = Vec::new();
        let mut base = init;
        for round in 1..=rounds {
            optinline_ir::cancel::checkpoint();
            let base_size = self.evaluator.size_of(&base);
            let sites: Vec<CallSiteId> = self
                .sites
                .iter()
                .copied()
                .filter(|&s| {
                    let c = component_of(s);
                    c.is_none() || dirty.contains(&c)
                })
                .collect();
            let kept = self.tune_round(&base, &sites, guard.as_ref());
            let mut tuned = base.clone();
            for &site in &kept {
                tuned.flip(site);
            }
            let size = self.evaluator.size_of(&tuned);
            // Only components that changed this round can yield new flips
            // next round.
            dirty = kept.iter().map(|&s| component_of(s)).collect();
            reports.push(RoundReport {
                round,
                config: tuned.clone(),
                size,
                base_size,
                flips: kept.len(),
                evaluations: sites.len() as u128 + 2,
            });
            if kept.is_empty() {
                break;
            }
            base = tuned;
        }
        TuneOutcome { rounds: reports }
    }

    /// One round against `base` (Algorithm 3 generalized to an arbitrary
    /// base): each of `sites` is flipped independently, and the flips that
    /// strictly shrink the binary, and pass `guard` if there is one, are
    /// returned in site order.
    fn tune_round(
        &self,
        base: &InliningConfiguration,
        sites: &[CallSiteId],
        guard: Option<&Guard<'_>>,
    ) -> Vec<CallSiteId> {
        let base_size = self.evaluator.size_of(base);
        let base_cycles = guard.and_then(|g| (g.cycles_of)(base));
        let probe = |&site: &CallSiteId| -> Option<CallSiteId> {
            let mut flipped = base.clone();
            flipped.flip(site);
            if self.evaluator.size_of(&flipped) >= base_size {
                return None;
            }
            let fast_enough = match (guard, base_cycles) {
                (Some(g), Some(b)) => {
                    (g.cycles_of)(&flipped).is_none_or(|f| f as f64 <= b as f64 * g.budget)
                }
                _ => true,
            };
            fast_enough.then_some(site)
        };
        // Probes fan out over the worker pool's shared atomic cursor: unlike
        // static chunking, a thread whose probes all hit the memo cache
        // immediately claims more, so one expensive chunk cannot serialize
        // the round. Per-index result slots keep the kept flips in site
        // order whichever thread probed them.
        crate::pool::WorkerPool::global().map(sites, probe).into_iter().flatten().collect()
    }

    /// Multi-objective tuning: grow a Pareto front of (size, cycles) by
    /// local flips. Every frontier configuration is probed one flip in
    /// every direction; non-dominated probes join the front and seed the
    /// next round. Stops at `rounds`, or earlier once a whole round adds
    /// nothing. `inits` seeds the front (the clean slate when empty).
    ///
    /// Deterministic and insertion-order-independent: sites are probed in
    /// id order from frontier points in sorted order, each distinct
    /// canonical configuration is measured exactly once (the `visited`
    /// set), and the front's tie rule is lexicographic. Two runs — or a
    /// direct run and a daemon-routed one — produce identical fronts.
    pub fn run_pareto(
        &self,
        inits: impl IntoIterator<Item = InliningConfiguration>,
        rounds: usize,
    ) -> ParetoOutcome {
        assert!(rounds >= 1, "at least one round is required");
        let canonical = |config: &InliningConfiguration| -> Vec<CallSiteId> {
            config.inlined_sites().intersection(&self.sites).copied().collect()
        };
        let mut visited: BTreeSet<Vec<CallSiteId>> = BTreeSet::new();
        let mut front = ParetoFront::new();
        let mut evaluations = 0u128;
        let mut seeds: Vec<InliningConfiguration> = inits.into_iter().collect();
        if seeds.is_empty() {
            seeds.push(InliningConfiguration::clean_slate());
        }
        for seed in seeds {
            if visited.insert(canonical(&seed)) {
                evaluations += 1;
                let measured = self.evaluator.measure(&seed, Objective::Pareto);
                front.insert(seed, measured);
            }
        }
        let mut rounds_run = 0;
        for _ in 0..rounds {
            optinline_ir::cancel::checkpoint();
            rounds_run += 1;
            let bases: Vec<InliningConfiguration> =
                front.points().iter().map(|p| p.config.clone()).collect();
            let mut progressed = false;
            for base in bases {
                for &site in &self.sites {
                    let mut flipped = base.clone();
                    flipped.flip(site);
                    if !visited.insert(canonical(&flipped)) {
                        continue;
                    }
                    evaluations += 1;
                    let measured = self.evaluator.measure(&flipped, Objective::Pareto);
                    if front.insert(flipped, measured) {
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        ParetoOutcome { front, rounds: rounds_run, evaluations }
    }

    /// Best-of combination across several outcomes (per-file `min`, as in
    /// Figures 15/18).
    pub fn combine<'a>(outcomes: impl IntoIterator<Item = &'a TuneOutcome>) -> RoundReport {
        outcomes
            .into_iter()
            .map(|o| o.best())
            .min_by_key(|r| r.size)
            .cloned()
            .expect("combine() requires at least one outcome")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::Decision;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A synthetic evaluator over 3 sites with a non-trivial landscape:
    /// size = 100 - 8*[s0] + 5*[s1] - 2*[s2] + 6*[s0][s2]
    /// (s0 good alone, s1 bad, s2 good alone but bad with s0).
    #[derive(Debug, Default)]
    struct Landscape {
        compiles: AtomicU64,
        queries: AtomicU64,
    }

    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    impl Evaluator for Landscape {
        fn size_of(&self, c: &InliningConfiguration) -> u64 {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            self.queries.fetch_add(1, Ordering::Relaxed);
            let b = |i: u32| (c.decision(s(i)) == Decision::Inline) as i64;
            (100 - 8 * b(0) + 5 * b(1) - 2 * b(2) + 6 * b(0) * b(2)) as u64
        }
        fn compilations(&self) -> u64 {
            self.compiles.load(Ordering::Relaxed)
        }
        fn queries(&self) -> u64 {
            self.queries.load(Ordering::Relaxed)
        }
    }

    fn sites() -> BTreeSet<CallSiteId> {
        [s(0), s(1), s(2)].into_iter().collect()
    }

    #[test]
    fn clean_slate_round_keeps_only_improving_flips() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let round = &tuner.clean_slate(1).rounds[0];
        // s0 (-8) and s2 (-2) improve independently; s1 (+5) does not.
        assert_eq!(round.flips, 2);
        assert_eq!(round.config.decision(s(0)), Decision::Inline);
        assert_eq!(round.config.decision(s(1)), Decision::NoInline);
        assert_eq!(round.config.decision(s(2)), Decision::Inline);
        // Interaction term: combined result (96) is worse than s0 alone (92)
        // — the local-minimum behaviour the round-based variant fixes.
        assert_eq!(round.size, 96);
    }

    #[test]
    fn second_round_escapes_the_interaction_trap() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let out = tuner.clean_slate(4);
        // Round 2 should flip s2 back off: 96 → 92.
        assert!(out.rounds.len() >= 2);
        assert_eq!(out.best().size, 92);
        let best = &out.best().config;
        assert_eq!(best.decision(s(0)), Decision::Inline);
        assert_eq!(best.decision(s(2)), Decision::NoInline);
    }

    #[test]
    fn fixpoint_stops_early() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let out = tuner.clean_slate(10);
        assert!(out.rounds.len() < 10);
        assert_eq!(out.last().flips, 0);
    }

    #[test]
    fn heuristic_initialization_is_respected() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let init: InliningConfiguration =
            [(s(0), Decision::Inline), (s(1), Decision::Inline), (s(2), Decision::Inline)]
                .into_iter()
                .collect();
        let out = tuner.run(init, 4);
        // From all-inline (101): flipping s1 off (-5) and s2 off (-6+2=... )
        // reaches the optimum 92 eventually.
        assert_eq!(out.best().size, 92);
    }

    #[test]
    fn sessions_on_fresh_evaluators_agree() {
        // Probes run on whichever threads the pool has; the outcome must
        // not depend on which.
        let ev1 = Landscape::default();
        let ev2 = Landscape::default();
        let first = Autotuner::new(&ev1, sites()).clean_slate(3);
        let second = Autotuner::new(&ev2, sites()).clean_slate(3);
        assert_eq!(first.best().size, second.best().size);
        assert_eq!(first.best().config, second.best().config);
    }

    #[test]
    fn combine_takes_the_per_file_minimum() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let a = tuner.clean_slate(1);
        let b = tuner.clean_slate(4);
        let best = Autotuner::combine([&a, &b]);
        assert_eq!(best.size, 92);
    }

    #[test]
    fn round_evaluation_budget_is_n_plus_2() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let out = tuner.clean_slate(1);
        assert_eq!(out.rounds[0].evaluations, 3 + 2);
    }

    #[test]
    fn empty_site_set_is_a_fixpoint_immediately() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, BTreeSet::new());
        let out = tuner.clean_slate(5);
        assert_eq!(out.rounds.len(), 1);
        assert_eq!(out.last().flips, 0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_is_rejected() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        tuner.run(InliningConfiguration::clean_slate(), 0);
    }

    #[test]
    fn guarded_tuning_rejects_slow_flips() {
        // Size landscape: s0 and s2 shrink. Runtime model: flipping s2 on
        // doubles the cycles. A 5% budget must keep s0 and reject s2.
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let cycles = |c: &InliningConfiguration| -> Option<u64> {
            Some(if c.decision(s(2)) == Decision::Inline { 2000 } else { 1000 })
        };
        let guarded = tuner.run_guarded(InliningConfiguration::clean_slate(), 3, &cycles, 1.05);
        let best = &guarded.best().config;
        assert_eq!(best.decision(s(0)), Decision::Inline);
        assert_eq!(best.decision(s(2)), Decision::NoInline);
        // With an unlimited budget the guard is a no-op and s2 is kept in
        // round one (it shrinks size in isolation).
        let free = tuner.run_guarded(InliningConfiguration::clean_slate(), 1, &cycles, f64::MAX);
        assert_eq!(free.rounds[0].config.decision(s(2)), Decision::Inline);
    }

    #[test]
    fn guarded_tuning_without_runtime_signal_matches_plain() {
        let ev1 = Landscape::default();
        let ev2 = Landscape::default();
        let plain = Autotuner::new(&ev1, sites()).clean_slate(3);
        let guarded = Autotuner::new(&ev2, sites()).run_guarded(
            InliningConfiguration::clean_slate(),
            3,
            &|_| None,
            1.0,
        );
        assert_eq!(plain.best().size, guarded.best().size);
        assert_eq!(plain.best().config, guarded.best().config);
    }

    #[test]
    #[should_panic(expected = "budget below 1.0")]
    fn guarded_tuning_rejects_absurd_budgets() {
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        tuner.run_guarded(InliningConfiguration::clean_slate(), 1, &|_| None, 0.5);
    }

    /// The Landscape's sizes with an adversarial cycle model: every flip
    /// that shrinks the binary slows it down, so the Pareto front must
    /// hold genuine trade-offs.
    #[derive(Debug, Default)]
    struct MeasuredLandscape(Landscape);

    impl Evaluator for MeasuredLandscape {
        fn size_of(&self, c: &InliningConfiguration) -> u64 {
            self.0.size_of(c)
        }
        fn measure(
            &self,
            c: &InliningConfiguration,
            objective: Objective,
        ) -> optinline_ir::Measurement {
            let size = self.size_of(c);
            if !objective.wants_cycles() {
                return optinline_ir::Measurement::size_only(size);
            }
            let b = |i: u32| (c.decision(s(i)) == Decision::Inline) as i64;
            let cycles = (100 + 8 * b(0) - 5 * b(1) + 2 * b(2)) as u64;
            optinline_ir::Measurement::with_cycles(size, cycles)
        }
        fn compilations(&self) -> u64 {
            self.0.compilations()
        }
        fn queries(&self) -> u64 {
            self.0.queries()
        }
    }

    #[test]
    fn pareto_tuning_without_cycles_degenerates_to_size_tuning() {
        // The Landscape's default `measure` is size-only, so dominance is
        // plain size comparison: the front collapses to the optimum the
        // scalar tuner finds.
        let ev = Landscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let out = tuner.run_pareto([], 4);
        assert_eq!(out.front.len(), 1);
        assert_eq!(out.front.min_size().unwrap().measurement.size, 92);
        let scalar = Autotuner::new(&Landscape::default(), sites()).clean_slate(4);
        // Same decisions up to canonical form (explicit vs default
        // NoInline entries differ between the two construction paths).
        assert_eq!(
            out.front.min_size().unwrap().config.inlined_sites(),
            scalar.best().config.inlined_sites()
        );
    }

    #[test]
    fn pareto_tuning_holds_size_cycles_trade_offs() {
        let ev = MeasuredLandscape::default();
        let tuner = Autotuner::new(&ev, sites());
        let out = tuner.run_pareto([], 5);
        // Smallest binary: s0 inlined (92 bytes, 108 cycles). Fastest:
        // s1 inlined (105 bytes, 95 cycles). Both must be on the front.
        let sizes: Vec<(u64, Option<u64>)> =
            out.front.points().iter().map(|p| (p.measurement.size, p.measurement.cycles)).collect();
        assert!(sizes.contains(&(92, Some(108))), "{sizes:?}");
        assert!(sizes.contains(&(105, Some(95))), "{sizes:?}");
        assert!(out.front.len() >= 3, "intermediate trade-offs survive: {sizes:?}");
        assert_eq!(out.front.min_size().unwrap().measurement.size, 92);
        assert_eq!(out.front.min_cycles().unwrap().measurement.cycles, Some(95));
        // Every distinct configuration is measured at most once.
        assert!(out.evaluations <= 8, "3 sites span 8 configurations, got {}", out.evaluations);
    }

    #[test]
    fn pareto_tuning_is_reproducible() {
        let run = || {
            let ev = MeasuredLandscape::default();
            Autotuner::new(&ev, sites()).run_pareto([], 5)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.front, b.front);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.rounds, b.rounds);
    }

    fn landscape_components() -> Vec<BTreeSet<CallSiteId>> {
        // s0 and s2 interact (one component); s1 is alone.
        vec![[s(0), s(2)].into_iter().collect(), [s(1)].into_iter().collect()]
    }

    #[test]
    fn incremental_matches_full_rounds() {
        let ev1 = Landscape::default();
        let ev2 = Landscape::default();
        let full = Autotuner::new(&ev1, sites()).clean_slate(4);
        let incr = Autotuner::new(&ev2, sites()).run_incremental(
            &landscape_components(),
            InliningConfiguration::clean_slate(),
            4,
        );
        assert_eq!(full.rounds.len(), incr.rounds.len());
        for (a, b) in full.rounds.iter().zip(&incr.rounds) {
            assert_eq!(a.size, b.size, "round {}", a.round);
            assert_eq!(a.config, b.config, "round {}", a.round);
        }
    }

    #[test]
    fn incremental_probes_fewer_sites_after_round_one() {
        let ev = Landscape::default();
        let incr = Autotuner::new(&ev, sites()).run_incremental(
            &landscape_components(),
            InliningConfiguration::clean_slate(),
            4,
        );
        assert_eq!(incr.rounds[0].evaluations, 3 + 2);
        // Round 1 flips s0 and s2 (component {0,2}); s1 stays — round 2
        // only re-probes the dirty component.
        assert!(incr.rounds.len() >= 2);
        assert_eq!(incr.rounds[1].evaluations, 2 + 2);
    }

    #[test]
    fn sites_outside_any_component_are_probed_every_round() {
        let ev = Landscape::default();
        // Pass a partition covering only s1: s0/s2 fall outside and must be
        // probed each round regardless.
        let partial: Vec<BTreeSet<CallSiteId>> = vec![[s(1)].into_iter().collect()];
        let incr = Autotuner::new(&ev, sites()).run_incremental(
            &partial,
            InliningConfiguration::clean_slate(),
            4,
        );
        let full_ev = Landscape::default();
        let full = Autotuner::new(&full_ev, sites()).clean_slate(4);
        assert_eq!(incr.best().size, full.best().size);
    }
}
