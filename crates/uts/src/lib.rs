//! # dws-uts
//!
//! A from-scratch implementation of the Unbalanced Tree Search (UTS)
//! benchmark — the workload of Perarnau & Sato (IPDPS 2014).
//!
//! UTS counts the nodes of an implicit random tree. Each node carries a
//! 20-byte SHA-1 state from which its children are derived, so any
//! process holding a node can generate its entire subtree: work can be
//! moved between processes freely, with no shared data. Trees are
//! heavily unbalanced by construction (binomial trees in the `q → 1/m`
//! regime), which forces continuous dynamic load balancing — the
//! property the paper's work-stealing study depends on.
//!
//! - [`sha1`] — SHA-1 (RFC 3174) verified against standard vectors,
//!   with a scalar and an x86-64 SHA-NI backend chosen by CPU detection;
//! - [`rng`] — the splittable per-node random state;
//! - [`tree`] — node type and shape specifications;
//! - [`presets`] — Table I trees plus scaled `T3SIM_*` analogues;
//! - [`mod@search`] — sequential ground-truth traversal.
//!
//! ## Example
//!
//! ```
//! use dws_uts::{presets, search};
//!
//! let workload = presets::t3sim_xs();
//! let stats = search::search(&workload);
//! assert!(stats.nodes > 1_000);
//! // Same parameters, same tree — always.
//! assert_eq!(stats, search::search(&workload));
//! ```

#![warn(missing_docs)]

pub mod presets;
pub mod rng;
pub mod search;
pub mod sha1;
pub mod stats;
pub mod tree;

pub use presets::{Workload, K_NODE_NS};
pub use rng::RngState;
pub use search::{search, SearchStats};
pub use stats::{measure as measure_shape, TreeShape};
pub use tree::{GeoShape, Node, TreeSpec, NODE_WIRE_BYTES};
