//! Bipartite biregular expander graphs for work spreading (paper §5.2).
//!
//! Each MPI application rank (*apprank*) may execute tasks on a small set of
//! nodes: its own *home* node plus `degree - 1` helper nodes. The paper
//! models this as a bipartite graph between appranks and nodes and requires
//! it to be an *expander*: every subset `A` of at most half the appranks
//! must satisfy `|N(A)| >= (1 + eps) * |A|` for a comfortably large `eps`,
//! so that no load imbalance can get "stuck" inside a small group of nodes.
//!
//! This crate provides:
//!
//! * [`BipartiteGraph::generate`] — random bipartite *biregular* graphs
//!   (every apprank has the same degree; every node hosts the same number
//!   of worker processes), with the home edges fixed by the SPMD rank
//!   placement, exactly as the runtime lays out processes.
//! * a deterministic circulant fallback construction for small or
//!   hard-to-randomise shapes (the paper's "heuristic-based search or
//!   known-optimal solution" for small graphs);
//! * screening: connectivity and the vertex isoperimetric number
//!   (the minimal `|N(A)|/|A|`, i.e. the paper's minimal `1 + eps`),
//!   exact for small graphs, and for large ones the minimum over sampled
//!   subsets, which bounds it from above.
//!
//! A graph is a pure function of its shape and seed, and screening runs
//! serially on the caller, so nothing is stored: where the paper keeps a
//! generated graph "for future executions", a run here regenerates it.
//!
//! # Example
//!
//! ```
//! use tlb_expander::{ExpanderConfig, BipartiteGraph};
//!
//! // 32 appranks on 16 nodes (2 per node), offloading degree 3: Fig. 4(c).
//! let cfg = ExpanderConfig::new(32, 16, 3).with_seed(7);
//! let g = BipartiteGraph::generate(&cfg).unwrap();
//! assert_eq!(g.apprank_degree(), 3);
//! assert_eq!(g.node_degree(), 6); // six worker processes per node
//! assert!(g.is_connected());
//! ```

mod generate;
mod graph;
mod isoperimetric;

pub use generate::{generate_circulant, generate_random};
pub use graph::{BipartiteGraph, ExpanderConfig, ExpanderError};
pub use isoperimetric::{isoperimetric_exact, isoperimetric_sampled};
