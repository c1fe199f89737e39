//! OmpSs-2@Cluster simulated distributed runtime (paper §3.2, §5).
//!
//! This crate executes MPI+OmpSs-2 style workloads on a discrete-event
//! model of a cluster: every node runs worker processes laid out by the
//! expander graph (`tlb-core`), cores are shared through DLB (`tlb-dlb`),
//! tasks order through their data accesses (`tlb-tasking`), and the
//! offload scheduler plus the local/global DROM policies of the paper
//! decide where work executes. All timing is virtual ([`tlb_des::SimTime`]),
//! which is what lets the repository reproduce 64-node MareNostrum
//! experiments on one machine: the *decision code* is the real runtime
//! logic; only task execution and message transfer are replaced by timed
//! events.
//!
//! Main entry point: [`ClusterSim::execute`], which executes a
//! [`RunSpec`] — a [`Workload`] under a [`tlb_core::BalanceConfig`] on a
//! [`tlb_core::Platform`], plus optional tracing and fault injection —
//! and returns a [`SimReport`] with
//! makespan, per-iteration times, and Paraver-style timelines (busy
//! cores and owned cores per worker) — the raw material for every figure
//! in the paper.
//!
//! # Example
//!
//! ```
//! use tlb_cluster::{ClusterSim, RunSpec, SpecWorkload, TaskSpec};
//! use tlb_core::{BalanceConfig, DromPolicy, Platform, Preset};
//!
//! // Two appranks on two 4-core nodes; apprank 0 has 3x the work.
//! let mk = |n: usize| (0..n).map(|_| TaskSpec::compute(0.050)).collect();
//! let wl = SpecWorkload::iterated(vec![mk(120), mk(40)], 3);
//! let platform = Platform::homogeneous(2, 4);
//!
//! let base_cfg = BalanceConfig::preset(Preset::Baseline);
//! let baseline =
//!     ClusterSim::execute(RunSpec::new(&platform, &base_cfg, wl.clone()).trace(true)).unwrap();
//! let bal_cfg = BalanceConfig::preset(Preset::Offload {
//!     degree: 2,
//!     drom: DromPolicy::Global,
//! });
//! let balanced =
//!     ClusterSim::execute(RunSpec::new(&platform, &bal_cfg, wl).trace(true)).unwrap();
//! assert!(balanced.makespan < baseline.makespan);
//! ```

#![forbid(unsafe_code)]

mod collective;
mod export;
mod fault;
mod report;
mod sim;
mod trace;
mod workload;

pub use collective::barrier_cost;
pub use export::{
    away_fraction, save_trace_chrome, save_trace_csv, trace_to_chrome, trace_to_csv, work_matrix,
};
pub use fault::{
    DelayFault, FaultPlan, FaultStats, LossFault, SolverOutageFault, StragglerFault,
    WorkerKillFault,
};
pub use report::SimReport;
pub use sim::{ClusterSim, RunSpec, SimError};
pub use trace::Trace;
pub use workload::{MpiOp, SpecWorkload, TaskSpec, Workload};
