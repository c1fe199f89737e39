//! OmpSs-2-style task graph (paper §3.1–§3.2, §4).
//!
//! OmpSs-2 uses a *single mechanism* — the task's declared data accesses —
//! to compute dependencies for ordering, to drive data locality on a node,
//! and to drive data transfers between nodes. This crate reproduces that
//! mechanism as an explicit Rust API (Rust has no pragma compiler; the
//! `#pragma oss task in(...) out(...)` annotation becomes a [`TaskDef`]
//! built with [`TaskDef::reads`]/[`TaskDef::writes`]):
//!
//! * [`DataRegion`] — a half-open range in the program's common virtual
//!   address space (OmpSs-2@Cluster keeps the same layout on every node,
//!   so a region is cluster-wide meaningful).
//! * [`TaskDef`] — label, accesses, cost hint, offloadable flag. Tasks
//!   marked non-offloadable stay on their apprank, which is what makes
//!   MPI calls inside them legal (paper §4).
//! * [`TaskGraph`] — computes the dependency DAG from access overlap in
//!   sequential submission order over one dependency domain, tracks
//!   readiness, and computes the cost-weighted critical path (used for
//!   the paper's "perfect load balance" reference lines). There is no
//!   nesting and no `taskwait` primitive: every task is top-level, and
//!   the simulator ends an iteration when all of its tasks completed,
//!   which is the `taskwait` the paper's applications issue.
//!
//! # Example
//!
//! ```
//! use tlb_tasking::{TaskDef, TaskGraph, DataRegion};
//!
//! let mut g = TaskGraph::new();
//! let buf = DataRegion::new(0x1000, 64);
//! let producer = g.submit(TaskDef::new("produce").writes(buf).cost(1.0)).unwrap();
//! let consumer = g.submit(TaskDef::new("consume").reads(buf).cost(2.0)).unwrap();
//! assert_eq!(g.ready(), vec![producer]);      // consumer waits (RAW)
//! g.start(producer).unwrap();
//! g.complete(producer).unwrap();
//! assert_eq!(g.ready(), vec![consumer]);
//! assert!((g.critical_path() - 3.0).abs() < 1e-12);
//! ```

mod graph;
mod index;
mod region;
mod task;

pub use graph::{GraphError, TaskGraph, TaskStats};
pub use index::{EntryId, IntervalIndex};
pub use region::DataRegion;
pub use task::{Access, AccessMode, TaskDef, TaskId, TaskState};
