//! MicroPP-style micro-scale solid mechanics (paper §6.2).
//!
//! Alya MicroPP is a 3D finite-element library for micro-scale solid
//! mechanics in composite materials; its load imbalance comes from the mix
//! of *linear* and *non-linear* finite elements per MPI rank. We reproduce
//! that cost structure as a model, not a kernel:
//! [`micropp_workload`] builds per-rank batches of subproblem tasks for
//! the cluster simulation. A linear subproblem costs `linear_secs`
//! (0.001 s) and a non-linear one `nonlinear_ratio` (×8.0) times that;
//! both are model constants of [`MicroPpConfig`]. A seeded per-rank
//! non-linear fraction (material heterogeneity) creates the
//! application-level imbalance.

mod workload;

pub use workload::{micropp_workload, MicroPpConfig};
