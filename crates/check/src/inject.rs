//! Deliberate bug injection for end-to-end validation of the checker.
//!
//! A differential-testing harness that has never caught anything is
//! indistinguishable from one that cannot. [`BuggyEvaluator`] wraps a real
//! evaluator and misreports `size_of` under a narrow trigger — the module
//! contains a marker function *and* the configuration inlines at least one
//! site — while leaving the [`full_size_of`] reference path honest. The
//! size oracle must flag it, and the reducer must shrink the trigger to a
//! minimal module that still contains the marker and a minimal
//! configuration with a single inlined site. `optinline check
//! --demo-reduce` runs exactly that proof.
//!
//! [`full_size_of`]: BuggyEvaluator::full_size_of

use optinline_core::{Evaluator, InliningConfiguration, SizeEvaluator};

/// An evaluator with a seeded fast-path bug; see the module docs.
#[derive(Debug)]
pub struct BuggyEvaluator {
    inner: SizeEvaluator,
    marker: String,
    bias: u64,
}

impl BuggyEvaluator {
    /// Wraps `inner`, inflating `size_of` by `bias` whenever the module
    /// contains a function named `marker` and the configuration inlines at
    /// least one site.
    pub fn new(inner: SizeEvaluator, marker: impl Into<String>, bias: u64) -> Self {
        BuggyEvaluator { inner, marker: marker.into(), bias }
    }

    fn triggered(&self, config: &InliningConfiguration) -> bool {
        self.inner.module().func_by_name(&self.marker).is_some() && config.inlined_count() > 0
    }

    /// The honest reference path — that asymmetry is the bug the size
    /// oracle detects.
    pub fn full_size_of(&self, config: &InliningConfiguration) -> u64 {
        self.inner.full_size_of(config)
    }
}

impl Evaluator for BuggyEvaluator {
    fn size_of(&self, config: &InliningConfiguration) -> u64 {
        let honest = self.inner.size_of(config);
        if self.triggered(config) {
            honest + self.bias
        } else {
            honest
        }
    }

    fn compilations(&self) -> u64 {
        self.inner.compilations()
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optinline_callgraph::Decision;
    use optinline_codegen::X86Like;
    use optinline_workloads::{generate_file, GenParams};

    #[test]
    fn bias_fires_only_under_the_trigger() {
        let m = generate_file(&GenParams::named("inject", 6));
        assert!(m.func_by_name("f3").is_some());
        let site = *m.inlinable_sites().iter().next().expect("has sites");
        let ev = BuggyEvaluator::new(SizeEvaluator::new(m, Box::new(X86Like), true), "f3", 17);
        let clean = InliningConfiguration::clean_slate();
        let hot = clean.clone().with(site, Decision::Inline);
        // Untriggered: fast path agrees with the reference.
        assert_eq!(ev.size_of(&clean), ev.full_size_of(&clean));
        // Triggered: fast path lies by exactly the bias.
        assert_eq!(ev.size_of(&hot), ev.full_size_of(&hot) + 17);
    }
}
