//! The four workloads and their inputs.
//!
//! Each workload has a fixed population of modules, sorted by what their
//! requests cost: the in-process time recorded with the goldens
//! ([`check::costs`]). The seed draws the run's modules from it — the
//! costliest few always, then one per stratum of neighbouring cost
//! ([`stratified`]) — and orders the requests. Costs are heavy-tailed (one
//! SPEC-shaped file costs over 1000× another), so a plain random draw would
//! move the measured totals between seeds by more than any bound; drawing
//! per stratum changes which modules run while keeping how much work they
//! are, and keeping the costliest keeps the tail percentiles, which a few
//! requests set. Fixed populations also let the goldens cover every module
//! any seed can draw.

use std::sync::Arc;

use optinline_callgraph::{InlineGraph, PartitionStrategy};
use optinline_cli::{
    cmd_autotune_measured, cmd_optimize_measured, cmd_search_measured, CliError, EvalOptions,
    InitChoice, Objective, OptimizeOptions, StrategyChoice, TargetChoice,
};
use optinline_core::tree::{space_size, try_build_inlining_tree};
use optinline_ir::{Measurement, Module};
use optinline_serve::RequestKind;
use optinline_workloads::rng::StdRng;
use optinline_workloads::{generate_file, spec_suite, GenParams, Scale};

use crate::check;

/// `--bits` every search is sent with: the CLI's default.
pub const SEARCH_BITS: u32 = 16;
/// search-cold's pool: SPEC-shaped files whose tree needs at most this many
/// evaluations (154 of the suite's 177 files).
pub const SEARCH_POOL_MAX_EVALUATIONS: u128 = 2048;
/// Files a seed draws from the pool, of which the `SEARCH_FIXED` costliest
/// are in every draw: they are over a third of the pool's work and hold
/// every percentile from p90 up.
pub const SEARCH_FILES: usize = 100;
pub const SEARCH_FIXED: usize = 12;
/// autotune-speed: modules shaped like `large_library`'s, scaled from 60
/// internal functions to 10 (one 60-function module takes 30–110 s to
/// tune), of which a seed draws `AUTOTUNE_MODULES`, the `AUTOTUNE_FIXED`
/// costliest (p90 and up) always.
pub const AUTOTUNE_POPULATION: usize = 72;
pub const AUTOTUNE_MODULES: usize = 60;
pub const AUTOTUNE_FIXED: usize = 8;
pub const AUTOTUNE_INTERNAL: usize = 10;
pub const AUTOTUNE_ROUNDS: usize = 4;
/// serve-warm: Zipf(1.0) popularity over `WARM_MODULES` small modules.
pub const WARM_POPULATION: usize = 48;
pub const WARM_MODULES: usize = 32;
pub const WARM_INTERNAL: (usize, usize) = (4, 7);
pub const WARM_TREE_CAP: u128 = 1 << 7;
pub const WARM_REQUESTS: usize = 3000;
/// serve-warm's mix: search 8 : autotune (size, 2 rounds) 1 : optimize 1.
pub const WARM_MIX: [(Op, u32); 3] = [(Op::Search, 8), (Op::AutotuneSize, 1), (Op::Optimize, 1)];
pub const WARM_AUTOTUNE_ROUNDS: u32 = 2;
/// serve-cold: distinct modules, each searched once; the `COLD_FIXED`
/// costliest are in every draw. The daemon takes about 120 ms per cold
/// search at the reference speed; 100 requests keep ten samples beyond p90
/// and the workload's runs inside the benchmark's time cap.
///
/// p99 of 100 closed-loop latencies rests on the costliest request or two
/// and on what each waited behind. Modules over `COLD_MAX_INSTS`
/// instructions took twice as long as any other, and with them p99's
/// spread over ten seeds reached 23%. Without them, and with the costliest
/// 30 in every draw, a queue model over the goldens' costs puts it at 8%
/// for a typical set of ten seeds; two measured sets read 11% and 17%.
pub const COLD_POPULATION: usize = 150;
pub const COLD_MODULES: usize = 100;
pub const COLD_FIXED: usize = 30;
pub const COLD_INTERNAL: (usize, usize) = (5, 8);
pub const COLD_TREE_CAP: u128 = 1 << 9;
pub const COLD_MAX_INSTS: usize = 400;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SearchCold,
    AutotuneSpeed,
    ServeWarm,
    ServeCold,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SearchCold, Workload::AutotuneSpeed, Workload::ServeWarm, Workload::ServeCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search-cold",
            Workload::AutotuneSpeed => "autotune-speed",
            Workload::ServeWarm => "serve-warm",
            Workload::ServeCold => "serve-cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Served workloads go through a daemon; the others call the CLI
    /// library in-process.
    pub fn served(self) -> bool {
        matches!(self, Workload::ServeWarm | Workload::ServeCold)
    }
}

/// What a request asks the system to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// Exact search, size objective.
    Search,
    /// Autotuner, speed objective, both inits, `AUTOTUNE_ROUNDS` rounds.
    AutotuneSpeed,
    /// Autotuner, size objective, both inits, `WARM_AUTOTUNE_ROUNDS` rounds.
    AutotuneSize,
    /// `-Os` under the cost-model heuristic.
    Optimize,
}

impl Op {
    const ALL: [Op; 4] = [Op::Search, Op::AutotuneSpeed, Op::AutotuneSize, Op::Optimize];

    pub fn parse(s: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::Search => "search",
            Op::AutotuneSpeed => "autotune-speed",
            Op::AutotuneSize => "autotune-size",
            Op::Optimize => "optimize",
        }
    }
}

/// One request of a workload.
#[derive(Clone, Debug)]
pub struct Item {
    /// The module's original name, which goldens and answers are filed
    /// under; [`Item::renamed`] keeps it.
    pub key: Arc<str>,
    pub source: Arc<str>,
    pub op: Op,
}

/// A request's answer: the user-visible report and measurement.
pub type Answer = (String, Option<Measurement>);

impl Item {
    pub fn new(module: &Module, op: Op) -> Item {
        Item { key: module.name.as_str().into(), source: module.to_string().into(), op }
    }

    /// Answers the request in-process through the CLI library.
    pub fn run_in_process(&self) -> Result<Answer, CliError> {
        let target = TargetChoice::X86;
        match self.op {
            Op::Search => {
                cmd_search_measured(&self.source, SEARCH_BITS, target, EvalOptions::default())
            }
            Op::AutotuneSpeed | Op::AutotuneSize => cmd_autotune_measured(
                &self.source,
                self.rounds(),
                InitChoice::Both,
                target,
                EvalOptions { objective: self.objective(), ..EvalOptions::default() },
            ),
            Op::Optimize => {
                let (report, _, m) = cmd_optimize_measured(
                    &self.source,
                    StrategyChoice::Heuristic,
                    target,
                    OptimizeOptions::default(),
                )?;
                Ok((report, Some(m)))
            }
        }
    }

    /// The same request on the wire.
    pub fn request_kind(&self) -> RequestKind {
        let source = self.source.to_string();
        let target = "x86".to_string();
        let objective = self.objective().name().to_string();
        match self.op {
            Op::Search => RequestKind::Search {
                source,
                target,
                bits: SEARCH_BITS,
                full_eval: false,
                stats: false,
                pass_stats: false,
                objective,
            },
            Op::AutotuneSpeed | Op::AutotuneSize => RequestKind::Autotune {
                source,
                target,
                rounds: self.rounds() as u32,
                init: "both".to_string(),
                full_eval: false,
                stats: false,
                pass_stats: false,
                objective,
            },
            Op::Optimize => RequestKind::Optimize {
                source,
                target,
                strategy: "heuristic".to_string(),
                full_sweep: false,
                pass_stats: false,
                objective,
            },
        }
    }

    pub fn objective(&self) -> Objective {
        match self.op {
            Op::AutotuneSpeed => Objective::Speed,
            _ => Objective::Size,
        }
    }

    pub fn rounds(&self) -> usize {
        match self.op {
            Op::AutotuneSpeed => AUTOTUNE_ROUNDS,
            _ => WARM_AUTOTUNE_ROUNDS as usize,
        }
    }

    /// The same request against a copy of the module renamed to `name`:
    /// identical work, but a new content address, so no cache holds it.
    pub fn renamed(&self, name: &str) -> Item {
        let body = self.source.split_once('\n').map_or("", |(_, rest)| rest);
        Item {
            key: self.key.clone(),
            source: format!("module \"{name}\" {{\n{body}").into(),
            op: self.op,
        }
    }
}

/// Evaluations the paper's partitioned tree needs for `module`, if it fits
/// under `cap`.
pub fn tree_evaluations(module: &Module, cap: u128) -> Option<u128> {
    let graph = InlineGraph::from_module(module);
    try_build_inlining_tree(&graph, PartitionStrategy::Paper, cap).map(|t| space_size(&t))
}

/// How a population's members are found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Members {
    /// By the population's definition: the candidates whose inlining tree
    /// fits under the workload's cap, which takes a tree build per
    /// candidate. `optbench golden` writes the goldens from this.
    Defined,
    /// The modules the goldens list. Runs use this: the tree builds of the
    /// definition would otherwise be most of a run's set-up, and a unit
    /// test holds the two lists equal.
    Listed,
}

/// `modules` sorted cheapest first by [`check::costs`] (a module without a
/// recorded cost first), then by name.
fn by_cost(workload: Workload, mut modules: Vec<Module>) -> Vec<Module> {
    let costs = check::costs(workload);
    let cost = |m: &Module| costs.get(m.name.as_str()).copied().unwrap_or(0.0);
    modules.sort_by(|a, b| cost(a).total_cmp(&cost(b)).then_with(|| a.name.cmp(&b.name)));
    modules
}

/// search-cold's pool, cheapest first.
fn search_pool(members: Members) -> Vec<Module> {
    let listed = check::costs(Workload::SearchCold);
    let pool = spec_suite(Scale::Full)
        .into_iter()
        .flat_map(|b| b.files)
        .filter(|m| match members {
            Members::Defined => tree_evaluations(m, SEARCH_POOL_MAX_EVALUATIONS).is_some(),
            Members::Listed => listed.contains_key(m.name.as_str()),
        })
        .collect();
    by_cost(Workload::SearchCold, pool)
}

/// autotune-speed's population, cheapest first: `large_library`'s
/// generator parameters with fewer internal functions.
fn autotune_modules() -> Vec<Module> {
    let population = (0..AUTOTUNE_POPULATION as u64)
        .map(|i| {
            generate_file(&GenParams {
                name: format!("autotune/{i:02}.ir"),
                seed: 0x11_77_AA_00 + i,
                n_internal: AUTOTUNE_INTERNAL,
                n_public: 4,
                avg_body_ops: 7,
                call_density: 2.0,
                const_arg_prob: 0.5,
                branchy_prob: 0.35,
                loop_prob: 0.15,
                wrapper_prob: 0.3,
                fat_prob: 0.2,
                recursion: i == 0,
                n_globals: 3,
                noinline_prob: 0.0,
                clusters: 3,
                call_window: 5,
            })
        })
        .collect();
    by_cost(Workload::AutotuneSpeed, population)
}

/// A served workload's population: small generated modules, the first
/// `count` candidates whose trees fit under `cap` and that have at most
/// `max_insts` instructions.
struct SmallModules {
    workload: Workload,
    prefix: &'static str,
    base_seed: u64,
    count: usize,
    internal: (usize, usize),
    cap: u128,
    max_insts: usize,
}

const WARM: SmallModules = SmallModules {
    workload: Workload::ServeWarm,
    prefix: "warm",
    base_seed: 0x5EED_0000,
    count: WARM_POPULATION,
    internal: WARM_INTERNAL,
    cap: WARM_TREE_CAP,
    max_insts: usize::MAX,
};

const COLD: SmallModules = SmallModules {
    workload: Workload::ServeCold,
    prefix: "cold",
    base_seed: 0xC01D_0000,
    count: COLD_POPULATION,
    internal: COLD_INTERNAL,
    cap: COLD_TREE_CAP,
    max_insts: COLD_MAX_INSTS,
};

impl SmallModules {
    /// Candidate `k`, named `<prefix>/<k>`.
    fn candidate(&self, k: u64) -> Module {
        let span = (self.internal.1 - self.internal.0 + 1) as u64;
        let mut params = GenParams::named(format!("{}/{k:03}", self.prefix), self.base_seed + k);
        params.n_internal = self.internal.0 + (k % span) as usize;
        generate_file(&params)
    }

    /// The population, cheapest first.
    fn population(&self, members: Members) -> Vec<Module> {
        let modules = match members {
            Members::Defined => (0u64..)
                .map(|k| self.candidate(k))
                .filter(|module| module.inst_count() <= self.max_insts)
                .filter(|module| tree_evaluations(module, self.cap).is_some())
                .take(self.count)
                .collect(),
            Members::Listed => check::costs(self.workload)
                .keys()
                .filter_map(|name| name.strip_prefix(self.prefix)?.strip_prefix('/')?.parse().ok())
                .map(|k| self.candidate(k))
                .collect(),
        };
        by_cost(self.workload, modules)
    }
}

/// The modules `workload` draws from, cheapest first, and the request
/// kinds it sends each.
fn modules(workload: Workload, members: Members) -> (Vec<Module>, &'static [Op]) {
    match workload {
        Workload::SearchCold => (search_pool(members), &[Op::Search]),
        Workload::AutotuneSpeed => (autotune_modules(), &[Op::AutotuneSpeed]),
        Workload::ServeWarm => {
            (WARM.population(members), &[Op::Search, Op::AutotuneSize, Op::Optimize])
        }
        Workload::ServeCold => (COLD.population(members), &[Op::Search]),
    }
}

/// Every request any seed can draw for `workload`: each module of its
/// population under each request kind it sends.
pub fn population(workload: Workload, members: Members) -> Vec<Item> {
    let (modules, ops) = modules(workload, members);
    modules.iter().flat_map(|m| ops.iter().map(|&op| Item::new(m, op))).collect()
}

/// Draws `n` of `population`, which is sorted cheapest first: the `fixed`
/// costliest always, and one from each of `n - fixed` equal strata of the
/// rest. The result stays in cost order.
pub fn stratified<T>(population: Vec<T>, n: usize, fixed: usize, rng: &mut StdRng) -> Vec<T> {
    assert!(fixed <= n && n <= population.len(), "cannot draw {n} of {}", population.len());
    let rest = population.len() - fixed;
    let strata = n - fixed;
    let mut picked = vec![false; population.len()];
    for i in 0..strata {
        picked[rng.gen_range(i * rest / strata..(i + 1) * rest / strata)] = true;
    }
    picked[rest..].fill(true);
    population.into_iter().zip(picked).filter_map(|(item, keep)| keep.then_some(item)).collect()
}

/// The workload's items for one pass: the seed's draw, in the seed's order.
pub fn items(workload: Workload, seed: u64) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed ^ fnv(workload.name()));
    let (population, ops) = modules(workload, Members::Listed);
    let (n, fixed) = match workload {
        Workload::SearchCold => (SEARCH_FILES, SEARCH_FIXED),
        Workload::AutotuneSpeed => (AUTOTUNE_MODULES, AUTOTUNE_FIXED),
        Workload::ServeWarm => (WARM_MODULES, 0),
        Workload::ServeCold => (COLD_MODULES, COLD_FIXED),
    };
    let drawn = stratified(population, n, fixed, &mut rng);
    let mut items = match workload {
        Workload::ServeWarm => warm_requests(&drawn),
        _ => drawn.iter().map(|m| Item::new(m, ops[0])).collect(),
    };
    shuffle(&mut items, &mut rng);
    items
}

/// serve-warm's request multiset: module `i` (popularity rank `i`) and kind
/// `k` appear in proportion to `1/(i+1)` × the mix weight of `k`, rounded
/// by largest remainder to exactly `WARM_REQUESTS` requests. `modules`
/// come cheapest first, one per cost stratum, so popularity follows cost
/// and a seed changes the hot modules without changing what they cost.
fn warm_requests(modules: &[Module]) -> Vec<Item> {
    let mix_total: u32 = WARM_MIX.iter().map(|(_, w)| w).sum();
    let harmonic: f64 = (1..=modules.len()).map(|r| 1.0 / r as f64).sum();
    let mut cells: Vec<(usize, Op, f64)> = Vec::new();
    for (rank, _) in modules.iter().enumerate() {
        for (op, weight) in WARM_MIX {
            let share =
                (1.0 / (rank + 1) as f64 / harmonic) * f64::from(weight) / f64::from(mix_total);
            cells.push((rank, op, share * WARM_REQUESTS as f64));
        }
    }
    let mut counts: Vec<usize> = cells.iter().map(|c| c.2.floor() as usize).collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        let frac = |i: usize| cells[i].2 - cells[i].2.floor();
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let missing = WARM_REQUESTS - counts.iter().sum::<usize>();
    for &i in order.iter().take(missing) {
        counts[i] += 1;
    }
    let mut items = Vec::with_capacity(WARM_REQUESTS);
    for ((rank, op, _), n) in cells.into_iter().zip(counts) {
        let item = Item::new(&modules[rank], op);
        items.extend(std::iter::repeat_n(item, n));
    }
    items
}

/// Every distinct request among `items`, in first-seen order.
pub fn distinct(items: &[Item]) -> Vec<Item> {
    let mut seen = std::collections::HashSet::new();
    items.iter().filter(|it| seen.insert((it.key.clone(), it.op))).cloned().collect()
}

/// Fisher–Yates with the workloads crate's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// FNV-1a, to give each workload its own stream under one seed.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(items: &[Item]) -> Vec<(String, Op)> {
        items.iter().map(|it| (it.key.to_string(), it.op)).collect()
    }

    #[test]
    fn same_seed_same_items_other_seed_other_items() {
        for w in Workload::ALL {
            let a = keys(&items(w, 42));
            assert_eq!(a, keys(&items(w, 42)), "{w:?}");
            let b = keys(&items(w, 43));
            assert_eq!(a.len(), b.len(), "{w:?}: item counts are fixed");
            let (mut sa, mut sb) = (a, b);
            sa.sort();
            sb.sort();
            assert_ne!(sa, sb, "{w:?}: another seed must draw other modules");
        }
    }

    #[test]
    fn stratified_draw_keeps_the_tail_and_one_per_stratum() {
        let mut rng = StdRng::seed_from_u64(7);
        let drawn = stratified((0..20).collect(), 8, 2, &mut rng);
        assert_eq!(drawn.len(), 8);
        assert_eq!(drawn[6..], [18, 19]);
        // Six strata of three over the other eighteen, one pick each.
        for (i, x) in drawn[..6].iter().enumerate() {
            assert!((3 * i..3 * i + 3).contains(x), "{drawn:?}");
        }
        let all = stratified((0..5).collect(), 5, 0, &mut rng);
        assert_eq!(all, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn warm_mix_follows_zipf_and_the_kind_weights() {
        let items = items(Workload::ServeWarm, 1);
        assert_eq!(items.len(), WARM_REQUESTS);
        let count = |pred: &dyn Fn(&Item) -> bool| items.iter().filter(|i| pred(i)).count();
        // Rounding happens per (module, kind) cell, so a kind's total may be
        // off its exact share by a request or two.
        let searches = count(&|i| i.op == Op::Search);
        let optimizes = count(&|i| i.op == Op::Optimize);
        assert!(searches.abs_diff(WARM_REQUESTS * 8 / 10) <= 2, "{searches} searches");
        assert!(optimizes.abs_diff(WARM_REQUESTS / 10) <= 2, "{optimizes} optimizes");
        let mut per_module: Vec<usize> = distinct(&items)
            .iter()
            .filter(|d| d.op == Op::Search)
            .map(|d| count(&|i| i.key == d.key))
            .collect();
        per_module.sort_unstable_by(|a, b| b.cmp(a));
        // Every drawn module is searched, with Zipf popularity.
        assert_eq!(per_module.len(), WARM_MODULES);
        let (top, second, last) = (per_module[0], per_module[1], per_module[WARM_MODULES - 1]);
        assert!(top > second && second > last && last > 0, "{top} > {second} > {last}");
    }

    #[test]
    fn renaming_changes_only_the_module_name() {
        let item = Item::new(&WARM.population(Members::Listed)[0], Op::Search);
        let renamed = item.renamed("warm/000.p7");
        let a = optinline_cli::load_module(&item.source).unwrap();
        let b = optinline_cli::load_module(&renamed.source).unwrap();
        assert_eq!(b.name, "warm/000.p7");
        assert_eq!(a.inst_count(), b.inst_count());
        assert_eq!(a.inlinable_sites(), b.inlinable_sites());
    }
}
