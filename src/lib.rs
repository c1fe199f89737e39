//! # tlb — Transparent Load Balancing of MPI programs
//!
//! A Rust reproduction of *"Transparent load balancing of MPI programs
//! using OmpSs-2@Cluster and DLB"* (ICPP 2022): task offloading across
//! nodes over a bipartite expander graph, with DLB's LeWI (fine-grained
//! core lending) and DROM (coarse-grained core ownership) driven by a
//! local convergence policy or a global min-max LP solver.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`des`] — deterministic discrete-event engine and virtual time;
//! * [`expander`] — bipartite biregular expander graphs (§5.2);
//! * [`linprog`] — simplex, max-flow, and the core allocation program;
//! * [`tasking`] — OmpSs-2-style task graphs from data accesses;
//! * [`dlb`] — LeWI / DROM / TALP;
//! * [`smprt`] — the `parallel_for` thread pool sweeps run points on;
//! * [`core`] — layout, scheduler rule, policies, metrics, configs;
//! * [`cluster`] — the simulated OmpSs-2@Cluster distributed runtime;
//! * [`sweep`] — declarative scenario sweeps with caching and sharding;
//! * [`apps`] — workload cost models: MicroPP, Barnes–Hut n-body with
//!   ORB, the synthetic benchmark, a stencil and AMR.
//!
//! ## Quickstart
//!
//! ```
//! use tlb::cluster::{ClusterSim, RunSpec, SpecWorkload, TaskSpec};
//! use tlb::core::{BalanceConfig, DromPolicy, Platform, Preset};
//!
//! // Two appranks on two 4-core nodes; apprank 0 is 3x heavier.
//! let mk = |n: usize| (0..n).map(|_| TaskSpec::compute(0.05)).collect();
//! let wl = SpecWorkload::iterated(vec![mk(120), mk(40)], 4);
//! let platform = Platform::homogeneous(2, 4);
//!
//! let base_cfg = BalanceConfig::preset(Preset::Baseline);
//! let bal_cfg = BalanceConfig::preset(Preset::Offload { degree: 2, drom: DromPolicy::Global });
//! let base = ClusterSim::execute(RunSpec::new(&platform, &base_cfg, wl.clone()).trace(true)).unwrap();
//! let bal = ClusterSim::execute(RunSpec::new(&platform, &bal_cfg, wl).trace(true)).unwrap();
//! assert!(bal.makespan < base.makespan);
//! ```

#![forbid(unsafe_code)]

pub use tlb_apps as apps;
pub use tlb_cluster as cluster;
pub use tlb_core as core;
pub use tlb_des as des;
pub use tlb_dlb as dlb;
pub use tlb_expander as expander;
pub use tlb_linprog as linprog;
pub use tlb_smprt as smprt;
pub use tlb_sweep as sweep;
pub use tlb_tasking as tasking;
