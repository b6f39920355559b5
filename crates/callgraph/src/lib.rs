//! # optinline-callgraph
//!
//! Call-graph machinery for the optimal-inlining study: the abstract
//! [`InlineGraph`] multigraph with *coupled edge groups* (one group per
//! original call site), the graph transformations inlining induces (§2 of
//! the paper), connected components and *bridge groups* (§3.2), BFS
//! eccentricity, partition-edge selection strategies (Algorithm 2), and
//! bottom-up SCC orders for heuristic inliners.
//!
//! The recursively partitioned search space of the paper rests on two facts
//! this crate makes computable:
//!
//! 1. connected components are independent w.r.t. inlining, and
//! 2. *not* inlining a bridge is identical to deleting it, creating new
//!    independent components.
//!
//! ```
//! use optinline_callgraph::{InlineGraph, Decision, bridge_groups, component_count};
//! use optinline_ir::CallSiteId;
//!
//! // Figure 5a of the paper: F→G→K→L→H→I, a chain of bridges.
//! let mut g = InlineGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
//! assert_eq!(bridge_groups(&g).len(), 5);
//! // Not inlining K→L splits the graph in two (Figure 5b).
//! g.apply(CallSiteId::new(2), Decision::NoInline);
//! assert_eq!(component_count(&g), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algo;
pub mod dot;
mod fingerprint;
mod graph;
mod select;

pub use algo::{
    bottom_up_sccs, bridge_groups, coarse_components, component_count, inlining_components,
    site_components,
};
pub use fingerprint::{fnv128, Fnv128};
pub use graph::{Decision, InlineGraph, NodeRef};
pub use select::PartitionStrategy;
