//! The paper's primary contribution: transparent load balancing of MPI
//! programs by combining OmpSs-2@Cluster task offloading with DLB.
//!
//! This crate holds the *decision logic* that the virtual-time runtime
//! (`tlb-cluster`) drives:
//!
//! * [`ProcessLayout`] — the worker table: how appranks and helper ranks
//!   map onto nodes (both ways) and which of them are alive, derived from
//!   the expander graph (paper Fig. 2 / Fig. 4), including the initial
//!   DROM core ownership (helpers own one core; appranks split the rest,
//!   §5.4).
//! * [`choose_node`] — the offload scheduler rule (§5.5): locality-best
//!   node if it holds fewer than two tasks per *owned* core, else another
//!   adjacent node under the threshold, else hold the task for stealing.
//! * [`LocalPolicy`] — the local-convergence DROM policy (§5.4.1):
//!   per-node core ownership proportional to each worker's average busy
//!   cores.
//! * [`allocation_problem`] / [`allocate_living`] — the global solver
//!   policy (§5.4.2): the min-max program over the worker table's living
//!   workers, built afresh at each solve (every two seconds) and solved
//!   by the configured `tlb-portfolio` strategy; [`GlobalPolicy`] is the
//!   same program for a fixed expander graph.
//! * [`imbalance`] and friends — the paper's dimensionless imbalance
//!   metric (Eq. 2).
//! * [`BalanceConfig`] / [`Platform`] — experiment configuration,
//!   including presets for the paper's two machines (MareNostrum 4 and
//!   Nord3).
//! * [`PolicySpec`] / [`BalancePolicy`] — the open policy API: a
//!   deterministic registry of named, parameterized balancing policies
//!   (the paper's six LeWI × DROM combinations plus `reactive-offload`
//!   and `diffusion`) parsed from one `name(k=v,...)` string form
//!   everywhere; the only policy field of [`BalanceConfig`].

#![forbid(unsafe_code)]

mod balance;
mod config;
mod layout;
mod metrics;
mod policy;
mod sched;

/// Deterministic randomness for every layer of the workspace: SplitMix64
/// seeding, Xoshiro256++ streams, and `split(label)` substream derivation
/// (see the `tlb-rng` crate docs for the reproducibility guarantees).
pub use tlb_rng as rng;

/// The strategy → solver table every global solve dispatches through,
/// and the race the `solver_table` figure times beside it.
pub use tlb_portfolio::{PortfolioConfig, PortfolioEngine, Strategy};

pub use balance::{
    known_policy_names, BalancePolicy, Diffusion, GlobalAction, ParamDef, ParamKind, PolicyDef,
    PolicyError, PolicySpec, ReactiveOffload, SignalView, POLICY_REGISTRY,
};
pub use config::{
    BalanceConfig, DromPolicy, DynamicSpreading, GlobalSolverKind, Platform, Preset, SpeedEvent,
    StealGate, WorkSignal,
};
pub use layout::{ProcessLayout, WorkerRef};
pub use metrics::{imbalance, node_imbalance, Loads};
pub use policy::{allocate_living, allocation_problem, GlobalPolicy, LocalPolicy};
pub use sched::{choose_node, choose_node_explained, CandidateState, ChoiceReason, Placement};
