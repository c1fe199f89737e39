//! Shared-memory malleable task runtime (the Nanos6-on-a-node substrate).
//!
//! This crate executes [`tlb_tasking`] task graphs on real threads with
//! work stealing, and it is *malleable* in the DLB sense: the number of
//! active workers can be changed while a graph is running, which is the
//! property LeWI/DROM exploit (paper §3.3 — "the ability to dynamically
//! adapt to varying resources at runtime, in this case the number of
//! cores").
//!
//! Components:
//!
//! * [`Pool`] — a work-stealing thread pool (in-tree std-only deques + a
//!   global injector) whose active-worker limit can be raised or lowered
//!   at any time; surplus workers park and wake without busy-waiting.
//! * [`Pool::parallel_for`] — the data-parallel fast path the application
//!   kernels run on: an atomic chunk counter shared by the caller and the
//!   active workers, with chunk boundaries independent of thread count so
//!   kernels can build bitwise-reproducible reductions on top.
//! * [`GraphRun`] — a task graph plus one closure per task; [`Pool::run`]
//!   executes it respecting all dependencies and reports per-worker
//!   statistics.
//!
//! # Example
//!
//! ```
//! use tlb_smprt::{Pool, GraphRun};
//! use tlb_tasking::{TaskDef, DataRegion};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = Pool::new(4);
//! let mut run = GraphRun::new();
//! let sum = Arc::new(AtomicU64::new(0));
//! let r = DataRegion::new(0x1000, 8);
//! for i in 0..10u64 {
//!     let sum = Arc::clone(&sum);
//!     // All tasks write the same region: they execute sequentially.
//!     run.task(TaskDef::new("add").reads_writes(r), move || {
//!         sum.fetch_add(i, Ordering::Relaxed);
//!     }).unwrap();
//! }
//! let stats = pool.run(run);
//! assert_eq!(sum.load(Ordering::Relaxed), 45);
//! assert_eq!(stats.tasks_executed, 10);
//! ```

mod deque;
mod pool;
mod run;

pub use pool::{Occupancy, Pool, PoolProfile, RunStats, TaskCtx};
pub use run::GraphRun;
