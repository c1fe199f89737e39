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
//! * [`TaskDef`] — label, accesses and cost hint; the graph reads only
//!   the accesses.
//! * [`TaskGraph`] — computes the dependency DAG from access overlap in
//!   sequential submission order over one dependency domain and tracks
//!   readiness. The domain is the list of live accesses, which `submit`
//!   scans with [`Access::conflicts_with`]: the one app that declares
//!   accesses, the stencil, keeps at most 36 live per apprank at its
//!   default block height (4 halo tasks × 1 + 16 blocks × 2) and the
//!   simulator clears the graph every iteration, so an interval index
//!   would buy nothing.
//!   [`TaskGraph::submit`], [`TaskGraph::ready_count`],
//!   [`TaskGraph::start`] and [`TaskGraph::complete`] are what the
//!   simulator calls. There is no nesting and no `taskwait` primitive:
//!   every task is top-level, and the simulator ends an iteration when
//!   all of its tasks completed, which is the `taskwait` the paper's
//!   applications issue.
//!
//! # Example
//!
//! ```
//! use tlb_tasking::{TaskDef, TaskGraph, DataRegion};
//!
//! let mut g = TaskGraph::new();
//! let buf = DataRegion::new(0x1000, 64);
//! let producer = g.submit(TaskDef::new("produce").writes(buf)).unwrap();
//! let consumer = g.submit(TaskDef::new("consume").reads(buf)).unwrap();
//! assert_eq!(g.ready_count(), 1); // consumer waits (RAW)
//! g.start(producer).unwrap();
//! assert_eq!(g.complete(producer).unwrap(), vec![consumer]);
//! g.start(consumer).unwrap();
//! ```

#![forbid(unsafe_code)]

mod graph;
mod region;
mod task;

pub use graph::{GraphError, TaskGraph};
pub use region::DataRegion;
pub use task::{Access, AccessMode, TaskDef, TaskId, TaskState};
