//! The thread pool the sweep engine and the serve daemon run scenario
//! points on.
//!
//! Every simulated run is single-threaded virtual time (`tlb-cluster`);
//! real threads only run independent points side by side. [`Pool`] does
//! that with one primitive, [`Pool::parallel_for`]: the calling thread
//! and the pool's workers claim chunks of an index range from one atomic
//! counter. [`Pool::occupancy`] is the admission signal the `tlb-serve`
//! daemon reads, and [`Pool::profile`] counts idle parks.
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

mod pool;

pub use pool::{Occupancy, Pool, PoolProfile};
