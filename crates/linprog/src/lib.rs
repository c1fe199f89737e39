//! Linear programming and network-flow machinery for the global core
//! allocation policy (paper §5.4.2).
//!
//! The paper's global policy minimises, every two seconds,
//!
//! ```text
//!   max over appranks a of   (total work on a) / (total cores on a)
//! ```
//!
//! subject to: each worker owns ≥ 1 core, per-node core capacity, and
//! apprank–node adjacency from the expander graph. The authors solve it
//! with CVXOPT; we implement the substrate ourselves:
//!
//! * [`simplex`] — a dense two-phase simplex solver with Bland's rule,
//!   general enough for any small LP (`min c·x, Ax {≤,=,≥} b, x ≥ 0`).
//! * [`maxflow`] — Dinic's algorithm, used by an alternative *parametric*
//!   solver: bisection on the objective value `t`, with each feasibility
//!   check a transportation problem (source → appranks → nodes → sink).
//! * [`allocation`] — the min-max core allocation program itself, with both
//!   solvers (they agree to within bisection tolerance — an ablation bench
//!   compares their speed), the paper's `1 + 1e-6` keep-local incentive,
//!   and [`largest_remainder`], the workspace's one rounding of a
//!   continuous core split to whole cores (a floor, an exact total, ties
//!   to the lower index), here with the ≥ 1 core per worker floor.

#![forbid(unsafe_code)]

pub mod allocation;
pub mod maxflow;
pub mod simplex;

pub use allocation::{
    largest_remainder, round_cores, solve_flow, solve_lp, AllocationProblem, AllocationSolution,
};
pub use maxflow::FlowNetwork;
pub use simplex::{Constraint, LinearProgram, LpError, LpSolution, Relation};
