//! The thread pool the sweep engine and the serve daemon run scenario
//! points on.
//!
//! Every simulated run is single-threaded virtual time (`tlb-cluster`);
//! real threads only run independent points side by side. [`Pool`] does
//! that with one primitive, [`Pool::parallel_for`]: the calling thread
//! and up to `threads - 1` helpers, scoped to that call, claim chunks of
//! an index range from one atomic counter.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use tlb_smprt::Pool;
//!
//! let pool = Pool::new(4);
//! let sum = AtomicU64::new(0);
//! pool.parallel_for(100, 8, |i| {
//!     sum.fetch_add(i as u64, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 4950);
//! ```

#![forbid(unsafe_code)]

mod pool;

pub use pool::{Pool, PoolProfile};
