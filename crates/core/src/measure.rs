//! Multi-objective measurement: objectives, cycle measurement, and the
//! speed-objective evaluator adapter.
//!
//! The searches and the autotuner historically minimized one scalar —
//! `.text` bytes. This module generalizes *what* is measured without
//! touching *how* the searches run:
//!
//! - [`Objective`] names what a caller wants optimized: `Size` (the
//!   paper's objective, bit-for-bit the legacy behaviour), `Speed`
//!   (simulated cycles under the interpreter's [`CostModel`]), or
//!   `Pareto` (both, as a dominance front — see
//!   [`ParetoFront`](crate::ParetoFront)).
//! - [`module_cycles`] defines the canonical cycles metric: interpret
//!   every public non-stub function of the optimized module with zero
//!   arguments, each in a fresh interpreter (its own i-cache, globals
//!   and fuel), in declaration order, and sum their cycle counts
//!   (saturating). A run never leaves its entry's call-graph component,
//!   so the metric decomposes over components exactly as size does; the
//!   evaluator measures it per component slice (see
//!   [`SizeEvaluator`](crate::SizeEvaluator)).
//! - [`cost_model_fingerprint`] and [`objective_scope`] extend the
//!   persistent-identity family: cycles-carrying entries live in a scope
//!   derived from the size domain *plus* the cost model, so size-only
//!   and speed measurements never alias in the store.
//! - [`SpeedEvaluator`] adapts any measuring evaluator to the plain
//!   [`Evaluator`] interface with cycles as the minimized scalar, so the
//!   inlining-tree search (sequential and parallel) and the autotuner run
//!   unchanged against the speed objective.

use crate::config::InliningConfiguration;
use crate::evaluator::{evaluation_identity, Evaluator};
use optinline_callgraph::Fnv128;
use optinline_ir::interp::{CostModel, Interp};
use optinline_ir::{Linkage, Measurement, Module};

/// What a search or tuning run optimizes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize `.text` bytes (the paper's objective; the default, and
    /// byte-identical to the historical scalar path).
    #[default]
    Size,
    /// Minimize simulated cycles under the interpreter's cost model.
    Speed,
    /// Optimize both: maintain the dominance front over (size, cycles).
    Pareto,
}

impl Objective {
    /// Parses a CLI/protocol spelling (`size`, `speed`, `pareto`).
    pub fn parse(s: &str) -> Option<Objective> {
        match s {
            "size" => Some(Objective::Size),
            "speed" => Some(Objective::Speed),
            "pareto" => Some(Objective::Pareto),
            _ => None,
        }
    }

    /// The canonical spelling, also used in protocol encodings.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Size => "size",
            Objective::Speed => "speed",
            Objective::Pareto => "pareto",
        }
    }

    /// Whether measurements under this objective must carry cycles.
    pub fn wants_cycles(self) -> bool {
        !matches!(self, Objective::Size)
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// 128-bit fingerprint of a [`CostModel`]: any knob that can move a cycle
/// count moves the fingerprint. Part of the speed-scope identity, so
/// changing the cost model invalidates cached cycle measurements instead
/// of silently serving stale ones.
pub fn cost_model_fingerprint(cost: &CostModel) -> u128 {
    let mut h = Fnv128::new();
    h.write(format!("{cost:?}").as_bytes());
    h.finish()
}

/// The persistent-store scope for measurements under
/// `objective`. Size keeps the evaluator's own domain fingerprint
/// unchanged (warm caches stay warm); cycles-carrying objectives mix in
/// an objective tag and the cost-model fingerprint, so size-only and
/// speed entries can never alias. `Speed` and `Pareto` share one scope:
/// they record the same (size, cycles) measurements.
pub fn objective_scope(memo_scope: u128, objective: Objective, cost: &CostModel) -> u128 {
    if !objective.wants_cycles() {
        return memo_scope;
    }
    evaluation_identity([
        "objective:cycles",
        format!("{memo_scope:032x}").as_str(),
        format!("{:032x}", cost_model_fingerprint(cost)).as_str(),
    ])
}

/// The canonical cycles metric of a compiled module: interpret every
/// public non-stub function with zero-valued arguments, in declaration
/// order, under `cost`, and sum the cycle counts (saturating).
///
/// Functions that fail to execute (unreachable stubs left by DFE, fuel or
/// depth exhaustion) contribute zero — deterministically, since the
/// interpreter is deterministic. Returns `None` when the module has no
/// public non-stub function at all, i.e. nothing executable to measure.
pub fn module_cycles(module: &Module, cost: &CostModel) -> Option<u64> {
    let mut total = 0u64;
    let mut measured = false;
    for (id, func) in module.iter_funcs() {
        if func.linkage != Linkage::Public || module.is_stub(id) {
            continue;
        }
        measured = true;
        let args = vec![0i64; func.param_count()];
        if let Ok(out) = Interp::with_cost(module, cost.clone()).run(id, &args) {
            total = total.saturating_add(out.cycles);
        }
    }
    measured.then_some(total)
}

/// Adapts a measuring evaluator to the speed objective behind the plain
/// [`Evaluator`] interface: `size_of` returns *cycles*, so the inlining
/// tree search (sequential and parallel) and the autotuner minimize runtime
/// without a second code path. Ties still resolve by the searches'
/// prefer-not-inlined rule, so speed searches are as deterministic as
/// size searches.
///
/// A module with nothing executable measures `cycles: None`; the adapter
/// falls back to the size scalar there, degrading speed search to size
/// search instead of failing.
#[derive(Debug)]
pub struct SpeedEvaluator<'e, E: Evaluator + ?Sized> {
    inner: &'e E,
    scope: Option<u128>,
}

impl<'e, E: Evaluator + ?Sized> SpeedEvaluator<'e, E> {
    /// Wraps `inner`, deriving the cycles-carrying memo scope from its
    /// domain fingerprint and `cost`.
    pub fn new(inner: &'e E, cost: &CostModel) -> Self {
        let scope = inner.memo_scope().map(|s| objective_scope(s, Objective::Speed, cost));
        SpeedEvaluator { inner, scope }
    }
}

impl<E: Evaluator + ?Sized> Evaluator for SpeedEvaluator<'_, E> {
    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        let m = self.inner.measure(config, Objective::Speed);
        m.cycles.unwrap_or(m.size)
    }

    fn measure(&self, config: &InliningConfiguration, objective: Objective) -> Measurement {
        self.inner.measure(config, objective)
    }

    fn compilations(&self) -> u64 {
        self.inner.compilations()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn memo_scope(&self) -> Option<u128> {
        self.scope
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_ir::{BinOp, FuncBuilder};

    fn demo_module() -> Module {
        let mut m = Module::new("m");
        let helper = m.declare_function("helper", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, helper);
            let p = b.param(0);
            let one = b.iconst(1);
            let r = b.bin(BinOp::Add, p, one);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(41);
            let v = b.call(helper, &[x]).unwrap();
            b.ret(Some(v));
        }
        m
    }

    #[test]
    fn objective_spellings_round_trip() {
        for o in [Objective::Size, Objective::Speed, Objective::Pareto] {
            assert_eq!(Objective::parse(o.name()), Some(o));
        }
        assert_eq!(Objective::parse("sizes"), None);
        assert!(!Objective::Size.wants_cycles());
        assert!(Objective::Speed.wants_cycles());
        assert!(Objective::Pareto.wants_cycles());
    }

    #[test]
    fn module_cycles_counts_public_entry_points() {
        let m = demo_module();
        let cycles = module_cycles(&m, &CostModel::default()).expect("main is executable");
        assert!(cycles > 0);
        // Only `main` is public: internal helpers are reached through it,
        // not measured as roots of their own.
        let again = module_cycles(&m, &CostModel::default()).unwrap();
        assert_eq!(cycles, again, "measurement is deterministic");
    }

    #[test]
    fn module_with_no_public_functions_measures_nothing() {
        let mut m = Module::new("silent");
        let f = m.declare_function("f", 0, Linkage::Internal);
        {
            let mut b = FuncBuilder::new(&mut m, f);
            let x = b.iconst(1);
            b.ret(Some(x));
        }
        assert_eq!(module_cycles(&m, &CostModel::default()), None);
    }

    #[test]
    fn objective_scope_separates_size_from_cycles() {
        let cost = CostModel::default();
        let domain = 0xdead_beef_u128;
        assert_eq!(
            objective_scope(domain, Objective::Size, &cost),
            domain,
            "the size scope is the domain fingerprint itself — warm caches stay warm"
        );
        let speed = objective_scope(domain, Objective::Speed, &cost);
        assert_ne!(speed, domain, "cycles entries must never alias size entries");
        assert_eq!(
            speed,
            objective_scope(domain, Objective::Pareto, &cost),
            "speed and pareto record the same measurements: one shared scope"
        );
        // The cost model is part of the identity.
        let other = CostModel { call_overhead: 99, ..CostModel::default() };
        assert_ne!(speed, objective_scope(domain, Objective::Speed, &other));
    }
}
