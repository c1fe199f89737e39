//! Barnes–Hut n-body with Orthogonal Recursive Bisection (paper §6.2).
//!
//! The paper's n-body benchmark is a parallel Barnes–Hut implementation
//! that uses ORB each timestep to equalise work across MPI ranks. ORB's
//! cost model assumes uniform node speed, so a slow node leaves its ranks
//! behind (Fig. 6c) — the scenario the transparent balancer then rescues.
//!
//! * [`Body`], [`orb_partition`] — point masses and the orthogonal
//!   recursive bisection of them into per-rank groups of (near-)equal
//!   size.
//! * [`NBodyWorkload`] — the cluster-simulation workload: per-rank force
//!   tasks whose cost is the model `force_cost × block × log2(n)` (the
//!   Barnes–Hut `n log n` law; `force_cost` is a constant, 1 µs by
//!   default, not a measurement), scaled by a block-density factor and
//!   repartitioned by ORB after every timestep.

mod orb;
mod workload;

pub use orb::{orb_partition, Body};
pub use workload::{NBodyConfig, NBodyWorkload};
