//! Inlining configurations: the assignment of `{inline, no-inline}` labels
//! to call sites (§2 of the paper).

use optinline_callgraph::Decision;
use optinline_ir::CallSiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// An (possibly partial) inlining configuration.
///
/// Sites absent from the map are treated as `NoInline` — the paper's "clean
/// slate" default — which also makes structurally equal partial and total
/// configurations evaluate identically.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InliningConfiguration {
    decisions: BTreeMap<CallSiteId, Decision>,
}

impl InliningConfiguration {
    /// The empty (clean-slate) configuration: everything no-inline.
    pub fn clean_slate() -> Self {
        Self::default()
    }

    /// Builds a configuration from explicit decisions.
    pub fn from_decisions(decisions: BTreeMap<CallSiteId, Decision>) -> Self {
        InliningConfiguration { decisions }
    }

    /// The effective decision for a site (`NoInline` when unset).
    pub fn decision(&self, site: CallSiteId) -> Decision {
        self.decisions.get(&site).copied().unwrap_or(Decision::NoInline)
    }

    /// Sets a site's decision, returning `self` for chaining.
    pub fn with(mut self, site: CallSiteId, decision: Decision) -> Self {
        self.decisions.insert(site, decision);
        self
    }

    /// Sets a site's decision in place.
    pub fn set(&mut self, site: CallSiteId, decision: Decision) {
        self.decisions.insert(site, decision);
    }

    /// Flips a site's effective decision.
    pub fn flip(&mut self, site: CallSiteId) {
        let d = self.decision(site);
        self.decisions.insert(site, d.flipped());
    }

    /// The explicitly recorded decisions.
    pub fn decisions(&self) -> &BTreeMap<CallSiteId, Decision> {
        &self.decisions
    }

    /// Sites currently labelled `Inline` — the canonical identity of the
    /// configuration (used as the evaluator cache key).
    pub fn inlined_sites(&self) -> BTreeSet<CallSiteId> {
        self.decisions.iter().filter(|(_, &d)| d == Decision::Inline).map(|(&s, _)| s).collect()
    }

    /// Number of sites labelled `Inline`.
    pub fn inlined_count(&self) -> usize {
        self.decisions.values().filter(|&&d| d == Decision::Inline).count()
    }

    /// Merges `other`'s decisions into `self` (overwriting on conflict).
    pub fn merge(&mut self, other: &InliningConfiguration) {
        for (&s, &d) in &other.decisions {
            self.decisions.insert(s, d);
        }
    }

    /// Restricts the configuration to the given site set (canonicalizing
    /// away decisions about sites a module doesn't have).
    pub fn restricted_to(&self, sites: &BTreeSet<CallSiteId>) -> Self {
        InliningConfiguration {
            decisions: self
                .decisions
                .iter()
                .filter(|(s, _)| sites.contains(s))
                .map(|(&s, &d)| (s, d))
                .collect(),
        }
    }

    /// Builds the total configuration over `sites` where exactly the bits
    /// of `mask` are inlined (bit *i* ↔ *i*-th site in order). Used by the
    /// naïve exhaustive search.
    ///
    /// # Panics
    ///
    /// Panics if `sites` has more than 127 elements (mask width).
    pub fn from_mask(sites: &BTreeSet<CallSiteId>, mask: u128) -> Self {
        assert!(sites.len() < 128, "mask-based enumeration is capped at 127 sites");
        let decisions = sites
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let d =
                    if mask & (1u128 << i) != 0 { Decision::Inline } else { Decision::NoInline };
                (s, d)
            })
            .collect();
        InliningConfiguration { decisions }
    }
}

impl fmt::Display for InliningConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, d)) in self.decisions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let label = match d {
                Decision::Inline => "inline",
                Decision::NoInline => "no-inline",
            };
            write!(f, "{s}: {label}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(CallSiteId, Decision)> for InliningConfiguration {
    fn from_iter<T: IntoIterator<Item = (CallSiteId, Decision)>>(iter: T) -> Self {
        InliningConfiguration { decisions: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> CallSiteId {
        CallSiteId::new(i)
    }

    #[test]
    fn unset_sites_default_to_no_inline() {
        let c = InliningConfiguration::clean_slate();
        assert_eq!(c.decision(s(5)), Decision::NoInline);
        assert_eq!(c.inlined_count(), 0);
    }

    #[test]
    fn flip_toggles_effective_decision() {
        let mut c = InliningConfiguration::clean_slate();
        c.flip(s(1));
        assert_eq!(c.decision(s(1)), Decision::Inline);
        c.flip(s(1));
        assert_eq!(c.decision(s(1)), Decision::NoInline);
    }

    #[test]
    fn inlined_sites_is_canonical_under_partiality() {
        let partial = InliningConfiguration::clean_slate().with(s(2), Decision::Inline);
        let total = InliningConfiguration::clean_slate()
            .with(s(1), Decision::NoInline)
            .with(s(2), Decision::Inline)
            .with(s(3), Decision::NoInline);
        assert_eq!(partial.inlined_sites(), total.inlined_sites());
    }

    #[test]
    fn merge_overwrites_conflicts() {
        let mut a = InliningConfiguration::clean_slate().with(s(1), Decision::NoInline);
        let b = InliningConfiguration::clean_slate().with(s(1), Decision::Inline);
        a.merge(&b);
        assert_eq!(a.decision(s(1)), Decision::Inline);
    }

    #[test]
    fn from_mask_enumerates_bit_patterns() {
        let sites: BTreeSet<_> = [s(10), s(20), s(30)].into_iter().collect();
        let c = InliningConfiguration::from_mask(&sites, 0b101);
        assert_eq!(c.decision(s(10)), Decision::Inline);
        assert_eq!(c.decision(s(20)), Decision::NoInline);
        assert_eq!(c.decision(s(30)), Decision::Inline);
        assert_eq!(c.inlined_count(), 2);
    }

    #[test]
    fn restricted_to_drops_foreign_sites() {
        let c = InliningConfiguration::clean_slate()
            .with(s(1), Decision::Inline)
            .with(s(9), Decision::Inline);
        let keep: BTreeSet<_> = [s(1)].into_iter().collect();
        let r = c.restricted_to(&keep);
        assert_eq!(r.decisions().len(), 1);
        assert_eq!(r.decision(s(1)), Decision::Inline);
    }

    #[test]
    fn display_is_compact() {
        let c = InliningConfiguration::clean_slate().with(s(1), Decision::Inline);
        assert_eq!(c.to_string(), "{s1: inline}");
    }
}
