//! The malleable work-stealing thread pool.

use crate::deque::{Injector, Stealer, WorkerQueue};
use crate::run::{Body, GraphRun};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use tlb_tasking::{TaskDef, TaskGraph, TaskId};

type Job = (TaskId, Body);

/// Statistics of one [`Pool::run`] execution.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Total tasks executed.
    pub tasks_executed: usize,
    /// Tasks executed per worker index.
    pub per_worker: Vec<usize>,
    /// Jobs obtained by stealing from another worker's deque.
    pub steals: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

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
    /// Total worker threads (active or parked).
    pub threads: usize,
    /// Current active-worker limit (malleability).
    pub active_threads: usize,
    /// Tasks of the current graph run not yet completed.
    pub graph_outstanding: usize,
    /// Indices of the in-flight `parallel_for`, if any, not yet done.
    pub dp_outstanding: usize,
}

impl Occupancy {
    /// Total outstanding work items of both kinds.
    pub fn outstanding(&self) -> usize {
        self.graph_outstanding + self.dp_outstanding
    }

    /// Outstanding work per active worker — > 1.0 means the pool has a
    /// backlog, the signal backpressure policies key off.
    pub fn saturation(&self) -> f64 {
        self.outstanding() as f64 / self.active_threads.max(1) as f64
    }
}

/// Snapshot of a pool's lifetime park/steal counters
/// ([`Pool::profile`]); plain atomics, always on.
#[derive(Clone, Debug, Default)]
pub struct PoolProfile {
    /// Times a worker parked because it was above the active limit
    /// (malleability: DLB shrank the pool).
    pub malleability_parks: u64,
    /// Times a worker parked because no work was visible.
    pub idle_parks: u64,
    /// Jobs obtained by stealing from another worker's deque, summed
    /// over every run the pool ever executed.
    pub steals: u64,
}

struct ActiveRun {
    graph: TaskGraph,
    bodies: Vec<Option<Body>>,
    remaining: usize,
    per_worker: Vec<usize>,
    steals: usize,
    /// First panic payload from a task body; re-thrown by `run`.
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

/// One `parallel_for` operation in flight: a chunk counter the caller and
/// every active worker pull from. The body pointer is only dereferenced
/// for chunks claimed with `start < n`, and `parallel_for` does not return
/// until `done == n`, so the borrow it erases outlives every call.
struct DpJob {
    next: AtomicUsize,
    done: AtomicUsize,
    n: usize,
    chunk: usize,
    body: *const (dyn Fn(usize) + Sync),
}

// SAFETY: `body` points at a `Sync` closure owned by the `parallel_for`
// caller, which blocks until all chunk executions complete; the raw
// pointer is never dereferenced after that (claims see `start >= n`).
unsafe impl Send for DpJob {}
unsafe impl Sync for DpJob {}

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    active_limit: AtomicUsize,
    shutdown: AtomicBool,
    /// Bumped on every job push so sleeping workers re-check for work.
    work_epoch: AtomicU64,
    state: Mutex<Option<ActiveRun>>,
    /// The in-flight data-parallel operation, if any.
    dp: Mutex<Option<Arc<DpJob>>>,
    work_cv: Condvar,
    done_cv: Condvar,
    // Lifetime counters (see `PoolProfile`).
    malleability_parks: AtomicU64,
    idle_parks: AtomicU64,
    steals_total: AtomicU64,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, Option<ActiveRun>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A work-stealing pool over `threads` OS threads whose *active* worker
/// count can be changed at any time ([`Pool::set_active_threads`]) — the
/// malleability DLB relies on. Workers above the active limit park on a
/// condition variable; lowering the limit never preempts a running task
/// (LeWI semantics: a reclaimed core is returned when the current task
/// finishes).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Serialises concurrent `run` calls.
    run_gate: Mutex<()>,
    /// Serialises concurrent `parallel_for` calls (one chunk counter).
    dp_gate: Mutex<()>,
}

impl Pool {
    /// Spawn a pool with `threads` workers, all initially active.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        let deques: Vec<WorkerQueue<Job>> = (0..threads).map(|_| WorkerQueue::new()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            active_limit: AtomicUsize::new(threads),
            shutdown: AtomicBool::new(false),
            work_epoch: AtomicU64::new(0),
            state: Mutex::new(None),
            dp: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            malleability_parks: AtomicU64::new(0),
            idle_parks: AtomicU64::new(0),
            steals_total: AtomicU64::new(0),
        });
        let handles = deques
            .into_iter()
            .enumerate()
            .map(|(i, deque)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tlb-worker-{i}"))
                    .spawn(move || worker_loop(i, deque, shared))
                    .expect("failed to spawn worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            threads,
            run_gate: Mutex::new(()),
            dp_gate: Mutex::new(()),
        }
    }

    /// Total worker threads (active or parked).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current active-worker limit.
    pub fn active_threads(&self) -> usize {
        self.shared.active_limit.load(Ordering::Relaxed)
    }

    /// Change the number of workers allowed to execute tasks, clamped to
    /// `1..=threads`. Raising the limit wakes parked workers immediately;
    /// lowering it takes effect as running tasks finish.
    pub fn set_active_threads(&self, n: usize) {
        let n = n.clamp(1, self.threads);
        self.shared.active_limit.store(n, Ordering::Relaxed);
        let _guard = self.shared.lock_state();
        self.shared.work_cv.notify_all();
    }

    /// Outstanding (not yet completed) tasks of the run currently
    /// executing, or zero when the pool is idle.
    pub fn load(&self) -> usize {
        self.shared.lock_state().as_ref().map_or(0, |a| a.remaining)
    }

    /// Instantaneous [`Occupancy`] snapshot: thread counts plus the
    /// outstanding work of the current graph run and the in-flight
    /// `parallel_for` (its unfinished index count). Callers that feed
    /// the pool from their own queue use this for admission control —
    /// see the `tlb-serve` daemon.
    pub fn occupancy(&self) -> Occupancy {
        let dp_outstanding = self
            .shared
            .dp
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
            .map_or(0, |job| {
                job.n.saturating_sub(job.done.load(Ordering::Acquire))
            });
        Occupancy {
            threads: self.threads,
            active_threads: self.active_threads(),
            graph_outstanding: self.load(),
            dp_outstanding,
        }
    }

    /// Run `body(i)` for every `i in 0..n` across the pool's *active*
    /// workers plus the calling thread, dealing indices in chunks of
    /// `chunk` from an atomic counter.
    ///
    /// This is the data-parallel fast path the application kernels (CG
    /// sweeps, Barnes–Hut force blocks) run inside: no task graph, no
    /// queue traffic — one `fetch_add` per chunk. It composes with
    /// malleability: workers above [`Pool::set_active_threads`]'s limit
    /// stay parked, and because the caller always participates the loop
    /// completes even if every worker is parked or busy. Concurrent
    /// `parallel_for` calls are serialised; a graph [`Pool::run`] may
    /// proceed concurrently (workers interleave both kinds of work).
    ///
    /// Chunk boundaries depend only on `n` and `chunk`, never on the
    /// thread count, which is what lets kernels build bitwise-reproducible
    /// reductions on top (fixed per-chunk partials, summed in order).
    pub fn parallel_for<F>(&self, n: usize, chunk: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        assert!(chunk > 0, "chunk must be positive");
        if n == 0 {
            return;
        }
        let body_ref: &(dyn Fn(usize) + Sync) = &body;
        if n <= chunk {
            for i in 0..n {
                body_ref(i);
            }
            return;
        }
        let _gate = self
            .dp_gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // SAFETY: erase the borrow's lifetime to store it in the shared
        // slot; see the invariant documented on `DpJob`.
        let body_ptr: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body_ref) };
        let job = Arc::new(DpJob {
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            n,
            chunk,
            body: body_ptr,
        });
        *self
            .shared
            .dp
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&job));
        self.shared.work_epoch.fetch_add(1, Ordering::Release);
        {
            let _guard = self.shared.lock_state();
            self.shared.work_cv.notify_all();
        }
        // The caller is always a participant, so progress never depends
        // on worker availability.
        run_dp_chunks(&job, body_ref);
        // Tail wait: workers may still be finishing chunks they claimed.
        if job.done.load(Ordering::Acquire) < n {
            let mut guard = self.shared.lock_state();
            while job.done.load(Ordering::Acquire) < n {
                let (g, _) = self
                    .shared
                    .done_cv
                    .wait_timeout(guard, Duration::from_micros(200))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                guard = g;
            }
        }
        *self
            .shared
            .dp
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// Snapshot the pool's lifetime park/steal counters.
    pub fn profile(&self) -> PoolProfile {
        PoolProfile {
            malleability_parks: self.shared.malleability_parks.load(Ordering::Relaxed),
            idle_parks: self.shared.idle_parks.load(Ordering::Relaxed),
            steals: self.shared.steals_total.load(Ordering::Relaxed),
        }
    }

    /// Execute a [`GraphRun`] to completion and return statistics.
    ///
    /// Concurrent `run` calls from different threads are serialised.
    pub fn run(&self, run: GraphRun) -> RunStats {
        let _gate = self
            .run_gate
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let started = std::time::Instant::now();
        let GraphRun { graph, mut bodies } = run;
        let total = graph.len();
        if total == 0 {
            return RunStats {
                per_worker: vec![0; self.threads],
                ..RunStats::default()
            };
        }
        {
            let mut state = self.shared.lock_state();
            debug_assert!(state.is_none(), "run gate should prevent overlap");
            let mut active = ActiveRun {
                remaining: total,
                per_worker: vec![0; self.threads],
                steals: 0,
                graph,
                bodies: Vec::new(),
                panic: None,
            };
            // Seed initially ready tasks.
            let ready = active.graph.ready();
            for id in ready {
                active.graph.start(id).expect("ready task must start");
                let body = bodies[id.raw() as usize]
                    .take()
                    .expect("missing body for ready task");
                self.shared.injector.push((id, body));
            }
            active.bodies = bodies;
            *state = Some(active);
            self.shared.work_epoch.fetch_add(1, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        // Wait for completion.
        let mut state = self.shared.lock_state();
        while state.as_ref().is_some_and(|a| a.remaining > 0) {
            state = self
                .shared
                .done_cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let mut finished = state.take().expect("run vanished");
        drop(state);
        if let Some(payload) = finished.panic.take() {
            // A task body panicked: surface it on the caller, exactly as
            // a panicking closure would in a scoped-thread API.
            std::panic::resume_unwind(payload);
        }
        RunStats {
            // Children spawned during execution count too, so sum what
            // actually ran rather than reporting the pre-run task count.
            tasks_executed: finished.per_worker.iter().sum(),
            per_worker: finished.per_worker,
            steals: finished.steals,
            elapsed: started.elapsed(),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        {
            let _guard = self.shared.lock_state();
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pull chunks off a data-parallel job until the counter is exhausted.
/// Returns whether any chunk was executed. Notifies `done_cv` when this
/// call completes the final indices.
fn run_dp_chunks(job: &DpJob, body: &(dyn Fn(usize) + Sync)) -> bool {
    let mut did_any = false;
    loop {
        let start = job.next.fetch_add(job.chunk, Ordering::Relaxed);
        if start >= job.n {
            return did_any;
        }
        did_any = true;
        let end = (start + job.chunk).min(job.n);
        for i in start..end {
            body(i);
        }
        job.done.fetch_add(end - start, Ordering::Release);
    }
}

/// Worker-side participation in an in-flight `parallel_for`, if one is
/// published. Returns whether any chunk was executed.
fn try_dp_work(shared: &Shared) -> bool {
    let job = shared
        .dp
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let Some(job) = job else {
        return false;
    };
    // SAFETY: chunks are only claimed while `next < n`; the publishing
    // `parallel_for` frame is alive until all such chunks complete.
    let body = unsafe { &*job.body };
    let did = run_dp_chunks(&job, body);
    if did && job.done.load(Ordering::Acquire) >= job.n {
        let _guard = shared.lock_state();
        shared.done_cv.notify_all();
    }
    did
}

fn find_job(index: usize, deque: &WorkerQueue<Job>, shared: &Shared) -> Option<(Job, bool)> {
    if let Some(job) = deque.pop() {
        return Some((job, false));
    }
    if let Some(job) = shared.injector.steal_batch_and_pop(deque, 4) {
        return Some((job, false));
    }
    for (i, stealer) in shared.stealers.iter().enumerate() {
        if i == index {
            continue;
        }
        if let Some(job) = stealer.steal() {
            return Some((job, true));
        }
    }
    None
}

fn worker_loop(index: usize, deque: WorkerQueue<Job>, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // Malleability: parked while above the active limit.
        if index >= shared.active_limit.load(Ordering::Relaxed) {
            let state = shared.lock_state();
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if index >= shared.active_limit.load(Ordering::Relaxed) {
                shared.malleability_parks.fetch_add(1, Ordering::Relaxed);
                let _ = shared
                    .work_cv
                    .wait_timeout(state, Duration::from_millis(5))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            continue;
        }
        let epoch = shared.work_epoch.load(Ordering::Acquire);
        // Data-parallel work takes priority: it is the latency-sensitive
        // inner loop of a kernel the caller is actively waiting on.
        if try_dp_work(&shared) {
            continue;
        }
        let Some((job, stolen)) = find_job(index, &deque, &shared) else {
            // No work visible: sleep unless new work arrived since we
            // started searching (epoch check avoids missed wakeups).
            let state = shared.lock_state();
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if shared.work_epoch.load(Ordering::Acquire) == epoch {
                shared.idle_parks.fetch_add(1, Ordering::Relaxed);
                let _ = shared
                    .work_cv
                    .wait_timeout(state, Duration::from_millis(1))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            continue;
        };
        execute_job(index, Some(&deque), &shared, job, stolen);
    }
}

/// Run one job to completion: execute the body (panics are caught and
/// recorded, never kill the thread), then release successors. Shared by
/// the worker loop and [`TaskCtx::taskwait`]'s helping path (which has no
/// local deque).
fn execute_job(
    index: usize,
    deque: Option<&WorkerQueue<Job>>,
    shared: &Arc<Shared>,
    job: Job,
    stolen: bool,
) {
    let (id, body) = job;
    let ctx = TaskCtx {
        shared: Arc::clone(shared),
        task: id,
        worker: index,
    };
    // A panicking body must not kill the worker thread: that would
    // strand `remaining > 0` forever and hang `run`. Catch it, record
    // the payload, and count the task as executed so the run drains.
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx))).err();
    // Mark complete, release successors, gather their bodies.
    let mut state = shared.lock_state();
    let active = state.as_mut().expect("job without active run");
    if let Some(payload) = panic {
        if active.panic.is_none() {
            active.panic = Some(payload);
        }
    }
    let newly_ready = active.graph.complete(id).expect("completion failed");
    active.per_worker[index] += 1;
    if stolen {
        active.steals += 1;
        shared.steals_total.fetch_add(1, Ordering::Relaxed);
    }
    active.remaining -= 1;
    let mut pushed = false;
    for (k, succ) in newly_ready.into_iter().enumerate() {
        active
            .graph
            .start(succ)
            .expect("ready successor must start");
        let body = active.bodies[succ.raw() as usize]
            .take()
            .expect("missing body for successor");
        match (k, deque) {
            // Keep the first successor local for cache affinity.
            (0, Some(d)) => d.push((succ, body)),
            _ => shared.injector.push((succ, body)),
        }
        pushed = true;
    }
    let done = active.remaining == 0;
    drop(state);
    if pushed {
        shared.work_epoch.fetch_add(1, Ordering::Release);
        let _guard = shared.lock_state();
        shared.work_cv.notify_all();
    }
    if done {
        let _guard = shared.lock_state();
        shared.done_cv.notify_all();
    }
}

/// Handle passed to every task body: spawn nested child tasks and wait
/// for them (OmpSs-2 nesting and `taskwait`, paper §3.1). Children form
/// their own dependency domain — their declared accesses order them
/// against their *siblings*, independent of the parent's level.
pub struct TaskCtx {
    shared: Arc<Shared>,
    task: TaskId,
    worker: usize,
}

impl TaskCtx {
    /// The id of the currently executing task.
    pub fn current(&self) -> TaskId {
        self.task
    }

    /// Spawn a child task of the current one. Its accesses order it
    /// against its siblings; it may start immediately on any worker.
    pub fn spawn(&self, def: TaskDef, body: impl FnOnce() + Send + 'static) -> TaskId {
        self.spawn_with_ctx(def, move |_| body())
    }

    /// Spawn a child whose body itself receives a [`TaskCtx`] (arbitrary
    /// nesting depth).
    pub fn spawn_with_ctx(
        &self,
        def: TaskDef,
        body: impl FnOnce(&TaskCtx) + Send + 'static,
    ) -> TaskId {
        let def = def.child_of(self.task);
        let mut state = self.shared.lock_state();
        let active = state.as_mut().expect("spawn outside a run");
        let id = active.graph.submit(def).expect("parent is running");
        debug_assert_eq!(id.raw() as usize, active.bodies.len());
        active.remaining += 1;
        if active.graph.state(id) == tlb_tasking::TaskState::Ready {
            active.graph.start(id).expect("ready child must start");
            active.bodies.push(None);
            self.shared.injector.push((id, Box::new(body)));
        } else {
            active.bodies.push(Some(Box::new(body)));
        }
        drop(state);
        self.shared.work_epoch.fetch_add(1, Ordering::Release);
        let _guard = self.shared.lock_state();
        self.shared.work_cv.notify_all();
        id
    }

    /// Block until every child of the current task has completed — by
    /// *helping*: while waiting, this worker executes other ready tasks
    /// (stolen from the injector or any worker's deque), so a task-waiting
    /// parent never wastes its core.
    pub fn taskwait(&self) {
        loop {
            {
                let state = self.shared.lock_state();
                let active = state.as_ref().expect("taskwait outside a run");
                if active.graph.pending_children(Some(self.task)) == 0 {
                    return;
                }
            }
            // Help: run anything available anywhere.
            match find_job_anywhere(&self.shared) {
                Some(job) => execute_job(self.worker, None, &self.shared, job, true),
                None => std::thread::yield_now(),
            }
        }
    }
}

/// Steal from the injector or any worker's deque (used by helping waits,
/// which have no local deque of their own).
fn find_job_anywhere(shared: &Shared) -> Option<Job> {
    if let Some(job) = shared.injector.steal() {
        return Some(job);
    }
    for stealer in shared.stealers.iter() {
        if let Some(job) = stealer.steal() {
            return Some(job);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphRun;
    use std::sync::atomic::AtomicUsize;
    use tlb_tasking::{DataRegion, TaskDef};

    #[test]
    fn executes_all_tasks() {
        let pool = Pool::new(4);
        let mut run = GraphRun::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            run.task(TaskDef::new("inc"), move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        let stats = pool.run(run);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(stats.tasks_executed, 100);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 100);
    }

    #[test]
    fn empty_run_returns_immediately() {
        let pool = Pool::new(2);
        let stats = pool.run(GraphRun::new());
        assert_eq!(stats.tasks_executed, 0);
    }

    #[test]
    fn dependencies_enforced_under_parallelism() {
        let pool = Pool::new(8);
        let mut run = GraphRun::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let r = DataRegion::new(0, 8);
        // A chain through a region: must execute strictly in order even
        // with 8 hungry workers.
        for i in 0..50u32 {
            let log = Arc::clone(&log);
            run.task(TaskDef::new("step").reads_writes(r), move || {
                log.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(i);
            })
            .unwrap();
        }
        pool.run(run);
        let log = log
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        assert_eq!(*log, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_fan_in() {
        let pool = Pool::new(4);
        let mut run = GraphRun::new();
        let acc = Arc::new(AtomicUsize::new(0));
        let src = DataRegion::new(0, 1024);
        let chunks = src.chunks(16);
        // Producer writes whole region, consumers read chunks, reducer
        // reads whole region again.
        {
            let acc = Arc::clone(&acc);
            run.task(TaskDef::new("produce").writes(src), move || {
                acc.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        for c in &chunks {
            let acc = Arc::clone(&acc);
            run.task(TaskDef::new("consume").reads(*c), move || {
                assert!(
                    acc.load(Ordering::Relaxed) >= 1,
                    "consumer ran before producer"
                );
                acc.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        {
            let acc = Arc::clone(&acc);
            // inout, not in: the reducer must order behind the *reader*
            // consumers too (readers commute with each other, so a plain
            // read would only order behind the producer).
            run.task(TaskDef::new("reduce").reads_writes(src), move || {
                assert_eq!(acc.load(Ordering::Relaxed), 17, "reducer ran early");
            })
            .unwrap();
        }
        let stats = pool.run(run);
        assert_eq!(stats.tasks_executed, 18);
    }

    #[test]
    fn active_limit_bounds_concurrency() {
        let pool = Pool::new(4);
        pool.set_active_threads(2);
        let inflight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut run = GraphRun::new();
        for _ in 0..64 {
            let inflight = Arc::clone(&inflight);
            let peak = Arc::clone(&peak);
            run.task(TaskDef::new("t"), move || {
                let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(300));
                inflight.fetch_sub(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.run(run);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak concurrency {} exceeded active limit",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn raising_limit_mid_run_speeds_up() {
        let pool = Pool::new(4);
        pool.set_active_threads(1);
        let mut run = GraphRun::new();
        let executed = Arc::new(AtomicUsize::new(0));
        for _ in 0..40 {
            let executed = Arc::clone(&executed);
            run.task(TaskDef::new("t"), move || {
                std::thread::sleep(Duration::from_micros(500));
                executed.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        let pool = Arc::new(pool);
        let p2 = Arc::clone(&pool);
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            p2.set_active_threads(4);
        });
        let stats = pool.run(run);
        raiser.join().unwrap();
        assert_eq!(executed.load(Ordering::Relaxed), 40);
        // After the raise, more than one worker must have participated.
        let participants = stats.per_worker.iter().filter(|&&n| n > 0).count();
        assert!(participants > 1, "per_worker {:?}", stats.per_worker);
    }

    #[test]
    fn sequential_runs_reuse_pool() {
        let pool = Pool::new(3);
        for round in 0..5 {
            let mut run = GraphRun::new();
            let c = Arc::new(AtomicUsize::new(0));
            for _ in 0..20 {
                let c = Arc::clone(&c);
                run.task(TaskDef::new("t"), move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            let stats = pool.run(run);
            assert_eq!(stats.tasks_executed, 20, "round {round}");
            assert_eq!(c.load(Ordering::Relaxed), 20);
        }
    }

    #[test]
    fn task_panic_propagates_to_run() {
        let pool = Pool::new(2);
        let mut run = GraphRun::new();
        run.task(TaskDef::new("ok"), || {}).unwrap();
        run.task(TaskDef::new("boom"), || panic!("kernel exploded"))
            .unwrap();
        run.task(TaskDef::new("ok2"), || {}).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(run)));
        let payload = result.expect_err("panic must surface on the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("kernel exploded"), "payload: {msg}");
        // The pool survives and runs subsequent graphs.
        let mut run = GraphRun::new();
        run.task(TaskDef::new("after"), || {}).unwrap();
        assert_eq!(pool.run(run).tasks_executed, 1);
    }

    #[test]
    fn clamps_active_threads() {
        let pool = Pool::new(2);
        pool.set_active_threads(0);
        assert_eq!(pool.active_threads(), 1);
        pool.set_active_threads(99);
        assert_eq!(pool.active_threads(), 2);
    }

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
    fn park_and_steal_counters_advance() {
        let pool = Pool::new(4);
        pool.set_active_threads(1);
        // Give workers time to hit both park sites: three are above the
        // active limit, the active one finds no work.
        std::thread::sleep(Duration::from_millis(15));
        let p = pool.profile();
        assert!(p.malleability_parks > 0, "no malleability parks");
        assert!(p.idle_parks > 0, "no idle parks");
    }

    #[test]
    fn occupancy_idle_pool_reads_zero() {
        let pool = Pool::new(3);
        let occ = pool.occupancy();
        assert_eq!(occ.threads, 3);
        assert_eq!(occ.active_threads, 3);
        assert_eq!(occ.graph_outstanding, 0);
        assert_eq!(occ.dp_outstanding, 0);
        assert_eq!(occ.outstanding(), 0);
        assert_eq!(occ.saturation(), 0.0);
    }

    #[test]
    fn occupancy_sees_outstanding_work() {
        let pool = Arc::new(Pool::new(2));
        // Graph run: tasks that block until released, so the snapshot
        // deterministically observes outstanding > 0.
        let release = Arc::new(AtomicBool::new(false));
        let mut run = GraphRun::new();
        for _ in 0..8 {
            let release = Arc::clone(&release);
            run.task(TaskDef::new("hold"), move || {
                while !release.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
            .unwrap();
        }
        let runner = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.run(run))
        };
        // Wait until the run is installed, then sample.
        let mut seen = 0;
        for _ in 0..2000 {
            seen = pool.occupancy().graph_outstanding;
            if seen > 0 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(seen > 0, "graph occupancy never became visible");
        assert!(pool.occupancy().saturation() > 0.0);
        release.store(true, Ordering::Relaxed);
        runner.join().unwrap();
        assert_eq!(pool.occupancy().outstanding(), 0);

        // parallel_for: sample from another thread mid-flight.
        let sampler = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut peak = 0;
                for _ in 0..2000 {
                    peak = peak.max(pool.occupancy().dp_outstanding);
                    if peak > 0 {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                peak
            })
        };
        pool.parallel_for(512, 1, |_| std::thread::sleep(Duration::from_micros(200)));
        assert!(
            sampler.join().unwrap() > 0,
            "dp occupancy never became visible"
        );
        assert_eq!(pool.occupancy().dp_outstanding, 0);
    }

    #[test]
    fn pool_parallel_for_uses_multiple_threads() {
        let pool = Pool::new(4);
        let participants = Mutex::new(std::collections::HashSet::new());
        pool.parallel_for(256, 1, |_| {
            participants
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            std::thread::sleep(Duration::from_micros(200));
        });
        let n = participants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        assert!(n > 1, "only {n} thread(s) participated");
    }
}
