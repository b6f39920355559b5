//! The naïve exponential search (§3.1): evaluate all `2^n` total
//! configurations. Feasible only for small `n`; it is the ground truth the
//! recursively partitioned search is validated against.

use crate::config::InliningConfiguration;
use crate::evaluator::Evaluator;
use optinline_ir::CallSiteId;
use std::collections::BTreeSet;

/// Result of a search: the best configuration found and bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SearchOutcome {
    /// An optimal configuration (ties broken toward fewer inlined sites —
    /// the all-no-inline mask is enumerated first).
    pub config: InliningConfiguration,
    /// Its `.text` size.
    pub size: u64,
    /// Number of configurations evaluated.
    pub evaluations: u128,
}

/// Hard cap on exhaustively enumerable sites (2^22 ≈ 4M compilations).
pub const NAIVE_SITE_CAP: usize = 22;

/// Exhaustively evaluates every configuration over `sites`.
///
/// # Panics
///
/// Panics if `sites.len() > NAIVE_SITE_CAP` — use the inlining tree
/// (`crate::tree`) for anything bigger; that is the point of the paper.
pub fn exhaustive_search(evaluator: &dyn Evaluator, sites: &BTreeSet<CallSiteId>) -> SearchOutcome {
    assert!(
        sites.len() <= NAIVE_SITE_CAP,
        "naïve search over {} sites would need 2^{} compilations",
        sites.len(),
        sites.len()
    );
    let n = sites.len() as u32;
    let total: u128 = 1u128 << n;
    let mut best: Option<(InliningConfiguration, u64)> = None;
    for mask in 0..total {
        let config = InliningConfiguration::from_mask(sites, mask);
        let size = evaluator.size_of(&config);
        let better = match &best {
            None => true,
            Some((_, s)) => size < *s,
        };
        if better {
            best = Some((config, size));
        }
    }
    let (config, size) = best.expect("at least the empty mask is evaluated");
    SearchOutcome { config, size, evaluations: total }
}

/// The naïve search-space size `2^n` as a `u128`.
///
/// # Panics
///
/// Panics if `n > 127`; report log2 sizes instead for big graphs.
pub fn naive_space_size(n_sites: usize) -> u128 {
    assert!(n_sites < 128, "2^{n_sites} overflows u128; report log2 instead");
    1u128 << n_sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizeEvaluator;
    use optinline_callgraph::Decision;
    use optinline_codegen::X86Like;
    use optinline_ir::{BinOp, FuncBuilder, Linkage, Module};

    /// Two independent calls: one profitable to inline (tiny callee that
    /// dies), one not (fat callee with two callers and a non-constant
    /// argument, so its body cannot fold away after inlining).
    fn mixed_module() -> (Module, CallSiteId, CallSiteId) {
        let mut m = Module::new("m");
        let g = m.add_global("g", 7);
        let tiny = m.declare_function("tiny", 1, Linkage::Internal);
        let fat = m.declare_function("fat", 1, Linkage::Internal);
        let main = m.declare_function("main", 0, Linkage::Public);
        let keeper = m.declare_function("keeper", 1, Linkage::Public);
        {
            let mut b = FuncBuilder::new(&mut m, tiny);
            let p = b.param(0);
            let r = b.bin(BinOp::Add, p, p);
            b.ret(Some(r));
        }
        {
            let mut b = FuncBuilder::new(&mut m, fat);
            let p = b.param(0);
            let mut acc = p;
            for k in 1..50 {
                let c = b.iconst(k * 3);
                acc = b.bin(BinOp::Xor, acc, c);
            }
            b.ret(Some(acc));
        }
        let (s_tiny, s_fat) = {
            let mut b = FuncBuilder::new(&mut m, main);
            let x = b.iconst(5);
            let (t, s_tiny) = b.call_with_site(tiny, &[x]);
            let unknown = b.load(g);
            let mixed = b.bin(BinOp::Add, t, unknown);
            let (f, s_fat) = b.call_with_site(fat, &[mixed]);
            b.ret(Some(f));
            (s_tiny, s_fat)
        };
        {
            let mut b = FuncBuilder::new(&mut m, keeper);
            let p = b.param(0);
            let v = b.call(fat, &[p]).unwrap();
            b.ret(Some(v));
        }
        (m, s_tiny, s_fat)
    }

    #[test]
    fn finds_the_true_optimum_over_four_configs() {
        let (m, s_tiny, s_fat) = mixed_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let sites = ev.sites().clone();
        let out = exhaustive_search(&ev, &sites);
        assert_eq!(out.evaluations, 8); // three sites: two in main, one in keeper
        assert_eq!(out.config.decision(s_tiny), Decision::Inline);
        assert_eq!(out.config.decision(s_fat), Decision::NoInline);
        // Cross-check against direct enumeration.
        for mask in 0..8u128 {
            let c = InliningConfiguration::from_mask(&sites, mask);
            assert!(ev.size_of(&c) >= out.size);
        }
    }

    #[test]
    fn empty_site_set_evaluates_once() {
        let (m, _, _) = mixed_module();
        let ev = SizeEvaluator::new(m, Box::new(X86Like), false);
        let out = exhaustive_search(&ev, &BTreeSet::new());
        assert_eq!(out.evaluations, 1);
        assert_eq!(out.config, InliningConfiguration::clean_slate());
    }

    #[test]
    #[should_panic(expected = "naïve search")]
    fn refuses_oversized_site_sets() {
        let sites: BTreeSet<CallSiteId> = (0..40).map(CallSiteId::new).collect();
        struct Zero;
        impl Evaluator for Zero {
            fn size_of(&self, _c: &InliningConfiguration) -> u64 {
                0
            }
            fn compilations(&self) -> u64 {
                0
            }
            fn queries(&self) -> u64 {
                0
            }
        }
        exhaustive_search(&Zero, &sites);
    }

    #[test]
    fn naive_space_size_is_a_power_of_two() {
        assert_eq!(naive_space_size(0), 1);
        assert_eq!(naive_space_size(3), 8);
        assert_eq!(naive_space_size(20), 1 << 20);
    }
}
