//! Workloads: the three benchmarks of the paper's evaluation (§6.2), plus
//! two more shapes. Every one is a cost model that the cluster
//! simulation consumes; none runs a numeric kernel.
//!
//! * [`synthetic`] — the configurable-imbalance synthetic benchmark:
//!   100 tasks per core per iteration, 50 ms mean duration, per-rank
//!   durations chosen to hit a target imbalance (Eq. 2), with the
//!   worst-case rank at `50 ms × imbalance`.
//! * [`micropp`] — the cost structure of Alya MicroPP: every task is a
//!   batch of micro-scale subproblems, a per-rank fraction of which are
//!   *non-linear*, which is exactly MicroPP's source of load imbalance
//!   ("the mix of linear and non-linear finite elements"). The costs are
//!   model constants (0.001 s per linear subproblem, ×8.0 non-linear).
//! * [`nbody`] — a Barnes–Hut n-body cost model with Orthogonal
//!   Recursive Bisection repartitioning real body positions each
//!   timestep. ORB equalises *bodies* per rank under a uniform-speed
//!   cost model, which is why a slow node defeats it (paper §7.1,
//!   Fig. 6c) — the scenario our runtime then rescues.
//! * [`stencil`] — a heat-diffusion stencil with halo exchange: the
//!   canonical MPI+OmpSs-2 shape of the paper's programming model (§4),
//!   with non-offloadable MPI tasks and region dependencies; not one of
//!   the paper's benchmarks, but the pattern its model section targets.
//! * [`amr`] — adaptive mesh refinement whose hot spot moves between
//!   iterations.

#![forbid(unsafe_code)]

pub mod amr;
pub mod micropp;
pub mod nbody;
pub mod stencil;
pub mod synthetic;

pub use amr::{amr_workload, AmrConfig, AmrWorkload};
pub use synthetic::{synthetic_workload, SyntheticConfig};
