//! Reimplementation of the Dynamic Load Balancing (DLB) library semantics
//! (paper §3.3): per-node core sharing among worker processes.
//!
//! DLB's observable behaviour, as the paper uses it:
//!
//! * **LeWI** (*Lend When Idle*, §5.3) — a process's idle cores may be
//!   *borrowed* by another process on the same node; the owner *reclaims*
//!   them the moment it has work again, and the borrower must give each
//!   core back as soon as its current task finishes (no preemption).
//! * **DROM** (*Dynamic Resource Ownership Management*, §5.4) — the
//!   semi-permanent *ownership* of cores is re-divided among the node's
//!   processes; every process always owns at least one core. Ownership
//!   changes for busy cores are deferred until the running task releases
//!   the core.
//! * **TALP** — lightweight measurement of per-process busy time, exposed
//!   as the time-averaged number of busy cores: exactly the load estimate
//!   both of the paper's allocation policies consume.
//!
//! The implementation is a deterministic state machine driven by the
//! simulation: all timing is supplied by the caller, so nothing in it
//! depends on wall-clock time.
//!
//! # Example
//!
//! ```
//! use tlb_dlb::{NodeDlb, ProcId};
//!
//! // 4 cores, two processes owning two cores each, LeWI enabled.
//! let mut node = NodeDlb::new(4, &[ProcId(0), ProcId(0), ProcId(1), ProcId(1)], true);
//! let a = node.acquire(ProcId(0)).unwrap();
//! let b = node.acquire(ProcId(0)).unwrap();
//! // Process 1 is idle, so process 0 can borrow its cores (LeWI)...
//! let c = node.acquire(ProcId(0)).unwrap();
//! assert!(node.is_borrowed(c));
//! // ...until process 1 wants one back: the reclaim flags the core and
//! // process 0 must release it after the current task.
//! assert!(node.acquire(ProcId(1)).is_some()); // its other own core
//! assert!(node.acquire(ProcId(1)).is_none()); // none free; reclaim posted
//! assert!(node.reclaim_pending(c));
//! node.release(ProcId(0), c);
//! assert_eq!(node.acquire(ProcId(1)), Some(c));
//! # let _ = (a, b);
//! ```

#![forbid(unsafe_code)]

mod node;
mod talp;

pub use node::{CoreState, DlbError, DlbEvent, NodeDlb, ProcId};
pub use talp::Talp;
