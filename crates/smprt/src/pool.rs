//! The `parallel_for` thread pool.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Snapshot of a pool's lifetime counters ([`Pool::profile`]); plain
/// atomics, always on.
#[derive(Clone, Debug, Default)]
pub struct PoolProfile {
    /// Helpers that claimed no chunk: the other participants had taken
    /// every chunk before they started.
    pub idle_parks: u64,
    /// Always 0: the pool has no queues to steal from. The field stays
    /// because the benchmark harness records it.
    pub steals: u64,
}

/// `threads` participants per [`Pool::parallel_for`]: the calling
/// thread plus helpers spawned for that call and joined before it
/// returns. The sweep engine and the serve daemon run their points on
/// it, one index per point.
pub struct Pool {
    threads: usize,
    idle_parks: AtomicU64,
}

impl Pool {
    /// A pool that runs each loop on at most `threads` threads.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        Pool {
            threads,
            idle_parks: AtomicU64::new(0),
        }
    }

    /// Threads per loop, the caller of `parallel_for` included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body(i)` for every `i in 0..n` on at most `threads` threads,
    /// dealing indices in chunks of `chunk` from an atomic counter: one
    /// `fetch_add` per chunk. The caller is one participant; it spawns
    /// `min(threads, chunks) - 1` scoped helpers named `tlb-worker-{i}`
    /// and joins them before returning. A helper that fails to spawn is
    /// skipped, since the caller alone would claim every chunk.
    /// Concurrent calls each get their own helpers. Chunk boundaries
    /// depend only on `n` and `chunk`, never on the thread count.
    ///
    /// If a body panics, the rest of its chunk is skipped, every other
    /// chunk still runs, and once all have finished the first payload is
    /// re-raised here, on the caller.
    pub fn parallel_for<F>(&self, n: usize, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        assert!(chunk > 0, "chunk must be positive");
        if n <= chunk {
            // One chunk: run it inline, nothing is shared.
            (0..n).for_each(body);
            return;
        }
        let next = AtomicUsize::new(0);
        let first_panic = Mutex::new(None);
        // Claim and run chunks until none is left; returns whether any ran.
        let run_chunks = || {
            let mut did_any = false;
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    return did_any;
                }
                did_any = true;
                let run = || (start..n.min(start + chunk)).for_each(&body);
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) {
                    let mut first = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                    first.get_or_insert(payload);
                }
            }
        };
        let helpers = (self.threads - 1).min(n.div_ceil(chunk) - 1);
        thread::scope(|scope| {
            for i in 0..helpers {
                let _ = thread::Builder::new()
                    .name(format!("tlb-worker-{i}"))
                    .spawn_scoped(scope, || {
                        if !run_chunks() {
                            self.idle_parks.fetch_add(1, Ordering::Relaxed);
                        }
                    });
            }
            run_chunks();
        });
        let first = first_panic.into_inner();
        if let Some(payload) = first.unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }

    /// Snapshot the pool's lifetime counters.
    pub fn profile(&self) -> PoolProfile {
        PoolProfile {
            idle_parks: self.idle_parks.load(Ordering::Relaxed),
            steals: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn pool_parallel_for_covers_every_index_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(5000, 64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_parallel_for_small_n_runs_inline() {
        let pool = Pool::new(4);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(3, 16, |i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn pool_parallel_for_sequential_calls() {
        let pool = Pool::new(2);
        for _ in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.parallel_for(100, 8, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
        }
    }

    /// Each two-chunk loop on two threads spawns one helper; the pool
    /// counts one idle park exactly for the loops whose helper ran no
    /// index, and never a steal.
    #[test]
    fn a_helper_that_claims_nothing_counts_one_idle_park() {
        let pool = Pool::new(2);
        let caller = thread::current().id();
        let mut helper_idle = 0;
        for _ in 0..50 {
            let helper_ran = AtomicBool::new(false);
            pool.parallel_for(2, 1, |_| {
                if thread::current().id() != caller {
                    helper_ran.store(true, Ordering::Relaxed);
                }
            });
            helper_idle += u64::from(!helper_ran.into_inner());
        }
        let p = pool.profile();
        assert_eq!(p.idle_parks, helper_idle);
        assert_eq!(p.steals, 0);
    }

    /// `Pool::new(n)` never runs more than `n` bodies at once, and with
    /// `n = 1` every body runs on the caller's thread.
    #[test]
    fn at_most_threads_bodies_run_at_once() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let caller = thread::current().id();
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let off_caller = AtomicBool::new(false);
            pool.parallel_for(64, 1, |_| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if thread::current().id() != caller {
                    off_caller.store(true, Ordering::Relaxed);
                }
                thread::sleep(Duration::from_micros(200));
                running.fetch_sub(1, Ordering::SeqCst);
            });
            let peak = peak.into_inner();
            assert!(
                peak <= threads,
                "{threads} threads ran {peak} bodies at once"
            );
            if threads == 1 {
                assert!(!off_caller.into_inner(), "a body left the caller's thread");
            }
        }
    }

    /// Distinct threads that ran a 256-index loop of 200 µs bodies.
    fn participants(pool: &Pool) -> usize {
        let seen = Mutex::new(HashSet::new());
        pool.parallel_for(256, 1, |_| {
            seen.lock().unwrap().insert(thread::current().id());
            thread::sleep(Duration::from_micros(200));
        });
        let n = seen.lock().unwrap().len();
        n
    }

    #[test]
    fn pool_parallel_for_uses_multiple_threads() {
        let n = participants(&Pool::new(4));
        assert!(n > 1, "only {n} thread(s) participated");
    }

    /// One index panics, on the caller (at 1, 2 and 4 threads) or on a
    /// helper (at 2 and 4; one thread has no helper): the caller
    /// receives that payload, every index ran exactly once, and the same
    /// pool then runs a loop on every thread it has.
    #[test]
    fn a_panicking_index_reaches_the_caller_and_spares_the_pool() {
        for threads in [1, 2, 4] {
            for on_caller in [true, false] {
                if threads == 1 && !on_caller {
                    continue;
                }
                let at = format!("{threads} threads, panic on the caller: {on_caller}");
                let pool = Pool::new(threads);
                let caller = thread::current().id();
                let fired = AtomicBool::new(false);
                let panicked = AtomicUsize::new(usize::MAX);
                let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.parallel_for(256, 1, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        let here = thread::current().id() == caller;
                        if here != on_caller {
                            // The other side holds its first index until
                            // the panic fired, so the side that must panic
                            // claims one: at most 4 threads hold, 256 remain.
                            while !fired.load(Ordering::Acquire) {
                                thread::yield_now();
                            }
                        } else if !fired.swap(true, Ordering::AcqRel) {
                            panicked.store(i, Ordering::Relaxed);
                            panic!("index {i} failed");
                        }
                    });
                }));
                let payload = result.expect_err(&at);
                let i = panicked.load(Ordering::Relaxed);
                assert_eq!(
                    payload.downcast_ref::<String>(),
                    Some(&format!("index {i} failed")),
                    "{at}"
                );
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{at}");
                let n = participants(&pool);
                assert_eq!(n > 1, threads > 1, "{at}: {n} thread(s) participated");
            }
        }
    }
}
