//! The `parallel_for` thread pool.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Instantaneous occupancy snapshot of a [`Pool`] ([`Pool::occupancy`]).
///
/// This is the admission-control signal a caller queueing work *onto*
/// the pool reads: the `tlb-serve` daemon compares outstanding work
/// against its queue bound to decide whether to shed a request, and
/// reports these numbers from `/stats`. The snapshot is advisory — the
/// counters move concurrently — but each field is individually
/// consistent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    /// Worker threads.
    pub threads: usize,
    /// Indices of the in-flight `parallel_for`, if any, not yet done.
    pub unfinished: usize,
}

impl Occupancy {
    /// Outstanding work items: the in-flight loop's unfinished indices.
    pub fn outstanding(&self) -> usize {
        self.unfinished
    }

    /// Outstanding work per worker — > 1.0 means the pool has a backlog,
    /// the signal backpressure policies key off.
    pub fn saturation(&self) -> f64 {
        self.outstanding() as f64 / self.threads.max(1) as f64
    }
}

/// Snapshot of a pool's lifetime counters ([`Pool::profile`]); plain
/// atomics, always on.
#[derive(Clone, Debug, Default)]
pub struct PoolProfile {
    /// Times a worker parked because no chunk was left to claim.
    pub idle_parks: u64,
    /// Always 0: the pool has no queues to steal from. The field stays
    /// because the benchmark harness records it.
    pub steals: u64,
}

/// One `parallel_for` in flight: a chunk counter the caller and every
/// worker pull from. The body pointer is only dereferenced for chunks
/// claimed with `start < n`, and `parallel_for` does not return until
/// `done == n` — a panicking chunk counts as done too — so the borrow it
/// erases outlives every call.
struct Loop {
    /// First index of the next unclaimed chunk; publishes nothing else.
    next: AtomicUsize,
    /// Indices whose chunk has finished (or panicked). Incremented with
    /// `Release` after the chunk ran and read with `Acquire`, so a reader
    /// that sees `n` also sees every body's writes and the payload.
    done: AtomicUsize,
    n: usize,
    chunk: usize,
    body: *const (dyn Fn(usize) + Sync),
    /// Payload of the first chunk that panicked, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure owned by the `parallel_for`
// caller, which blocks until all chunk executions complete; the raw
// pointer is never dereferenced after that (claims see `start >= n`).
// Every other field is an atomic, a plain `usize`, or a `Mutex` of a
// `Send` payload, each `Send` and `Sync` on its own.
unsafe impl Send for Loop {}
unsafe impl Sync for Loop {}

impl Loop {
    /// Claim and run chunks until the counter is exhausted; returns
    /// whether any chunk ran. A panic in a chunk skips the rest of that
    /// chunk, is caught (its payload kept if it is the first), and the
    /// chunk is counted done, so the loop still completes and no worker
    /// thread dies.
    fn run_chunks(&self) -> bool {
        let mut did_any = false;
        loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return did_any;
            }
            did_any = true;
            let end = (start + self.chunk).min(self.n);
            // SAFETY: `start < n`, so the publishing `parallel_for` frame
            // is alive until this chunk is counted done (see `Loop`).
            let body = unsafe { &*self.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| {
                (start..end).for_each(body);
            })) {
                let mut first = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
                first.get_or_insert(payload);
            }
            self.done.fetch_add(end - start, Ordering::Release);
        }
    }

    fn unfinished(&self) -> usize {
        self.n.saturating_sub(self.done.load(Ordering::Acquire))
    }
}

struct Shared {
    /// The in-flight loop, if any. Its mutex is also the one both
    /// condition variables wait on.
    slot: Mutex<Option<Arc<Loop>>>,
    /// Bumped when a loop is published, so a worker that found nothing to
    /// claim parks only if nothing was published since it looked.
    epoch: AtomicU64,
    shutdown: AtomicBool,
    work_cv: Condvar,
    done_cv: Condvar,
    idle_parks: AtomicU64,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Option<Arc<Loop>>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A pool of `threads` worker threads that, together with the calling
/// thread, run one [`Pool::parallel_for`] at a time. The sweep engine
/// and the serve daemon run their points on it, one index per point.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serialises concurrent `parallel_for` calls (one chunk counter).
    gate: Mutex<()>,
}

impl Pool {
    /// Spawn a pool with `threads` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            idle_parks: AtomicU64::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tlb-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
            gate: Mutex::new(()),
        }
    }

    /// Worker threads (the caller of `parallel_for` participates too).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Instantaneous [`Occupancy`] snapshot: the thread count plus the
    /// in-flight `parallel_for`'s unfinished index count. Callers that
    /// feed the pool from their own queue use this for admission control
    /// — see the `tlb-serve` daemon.
    pub fn occupancy(&self) -> Occupancy {
        let unfinished = self
            .shared
            .lock()
            .as_ref()
            .map_or(0, |job| job.unfinished());
        Occupancy {
            threads: self.threads,
            unfinished,
        }
    }

    /// Run `body(i)` for every `i in 0..n` across the pool's workers plus
    /// the calling thread, dealing indices in chunks of `chunk` from an
    /// atomic counter: one `fetch_add` per chunk. Because the caller
    /// always participates, the loop completes even if every worker is
    /// busy or parked. Concurrent calls are serialised. Chunk boundaries
    /// depend only on `n` and `chunk`, never on the thread count.
    ///
    /// If a body panics, the rest of its chunk is skipped, every other
    /// chunk still runs, and once all have finished the first payload is
    /// re-raised here, on the caller; the pool stays usable.
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
        let gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let body: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: erase the borrow's lifetime to store it in the shared
        // slot; see the invariant documented on `Loop`.
        let body: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(Loop {
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            n,
            chunk,
            body,
            panic: Mutex::new(None),
        });
        {
            let mut slot = self.shared.lock();
            *slot = Some(Arc::clone(&job));
            self.shared.epoch.fetch_add(1, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        job.run_chunks();
        // Tail wait: workers may still be finishing chunks they claimed.
        let mut slot = self.shared.lock();
        while job.done.load(Ordering::Acquire) < n {
            slot = self
                .shared
                .done_cv
                .wait_timeout(slot, Duration::from_micros(200))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *slot = None;
        drop(slot);
        drop(gate);
        let first = job
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(payload) = first {
            panic::resume_unwind(payload);
        }
    }

    /// Snapshot the pool's lifetime counters.
    pub fn profile(&self) -> PoolProfile {
        PoolProfile {
            idle_parks: self.shared.idle_parks.load(Ordering::Relaxed),
            steals: 0,
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        {
            let _slot = self.shared.lock();
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let epoch = shared.epoch.load(Ordering::Acquire);
        let job = shared.lock().clone();
        if let Some(job) = job {
            if job.run_chunks() {
                if job.unfinished() == 0 {
                    let _slot = shared.lock();
                    shared.done_cv.notify_all();
                }
                continue;
            }
        }
        // Nothing to claim: sleep unless a loop was published since we
        // looked (the epoch check avoids missed wakeups).
        let slot = shared.lock();
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        if shared.epoch.load(Ordering::Acquire) == epoch {
            shared.idle_parks.fetch_add(1, Ordering::Relaxed);
            let _ = shared
                .work_cv
                .wait_timeout(slot, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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

    #[test]
    fn idle_workers_park_and_never_steal() {
        let pool = Pool::new(2);
        // Give the workers time to find nothing and park.
        std::thread::sleep(Duration::from_millis(15));
        let p = pool.profile();
        assert!(p.idle_parks > 0, "no idle parks");
        assert_eq!(p.steals, 0);
    }

    #[test]
    fn occupancy_idle_pool_reads_zero() {
        let pool = Pool::new(3);
        let occ = pool.occupancy();
        assert_eq!(occ.threads, 3);
        assert_eq!(occ.unfinished, 0);
        assert_eq!(occ.outstanding(), 0);
        assert_eq!(occ.saturation(), 0.0);
    }

    #[test]
    fn occupancy_sees_the_loop_in_flight() {
        let pool = Arc::new(Pool::new(2));
        // Sample from another thread mid-flight.
        let sampler = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                for _ in 0..2000 {
                    let occ = pool.occupancy();
                    if occ.unfinished > 0 {
                        return occ;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                pool.occupancy()
            })
        };
        pool.parallel_for(512, 1, |_| std::thread::sleep(Duration::from_micros(200)));
        let seen = sampler.join().unwrap();
        assert!(seen.unfinished > 0, "occupancy never became visible");
        assert!(seen.saturation() > 0.0);
        assert_eq!(pool.occupancy().outstanding(), 0);
    }

    /// Distinct threads that ran a 256-index loop of 200 µs bodies.
    fn participants(pool: &Pool) -> usize {
        let seen = Mutex::new(HashSet::new());
        pool.parallel_for(256, 1, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(Duration::from_micros(200));
        });
        let n = seen.lock().unwrap().len();
        n
    }

    #[test]
    fn pool_parallel_for_uses_multiple_threads() {
        let n = participants(&Pool::new(4));
        assert!(n > 1, "only {n} thread(s) participated");
    }

    /// One index panics, once on the caller and once on a worker: the
    /// caller receives that payload, every index ran exactly once, and
    /// the same pool then runs a loop on more than one thread.
    #[test]
    fn a_panicking_index_reaches_the_caller_and_spares_the_pool() {
        for threads in [1, 2, 4] {
            for on_caller in [true, false] {
                let at = format!("{threads} threads, panic on the caller: {on_caller}");
                let pool = Pool::new(threads);
                let caller = std::thread::current().id();
                let fired = AtomicBool::new(false);
                let panicked = AtomicUsize::new(usize::MAX);
                let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.parallel_for(256, 1, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                        let here = std::thread::current().id() == caller;
                        if here != on_caller {
                            // The other side holds its first index until
                            // the panic fired, so the side that must panic
                            // claims one: at most 4 threads hold, 256 remain.
                            while !fired.load(Ordering::Acquire) {
                                std::thread::yield_now();
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
                assert!(n > 1, "{at}: only {n} thread(s) participated");
            }
        }
    }

    /// Dropping a pool that has run loops joins its workers without
    /// hanging.
    #[test]
    fn drop_is_clean() {
        for _ in 0..10 {
            let pool = Pool::new(3);
            let sum = AtomicUsize::new(0);
            pool.parallel_for(64, 4, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 63 * 64 / 2);
            drop(pool);
        }
    }
}
