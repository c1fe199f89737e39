//! The point executor: a bounded admission queue drained by `jobs`
//! lanes, with an in-flight registry that dedupes identical points
//! across concurrent requests.
//!
//! Admission is a single atomic classification under one lock: every
//! distinct point of a request is either *cached* (served immediately,
//! no lane ever sees it), *in flight* (another request is already
//! computing it — subscribe to its completion), or *new* (enqueue).
//! A request whose new points would overflow the bounded queue is shed
//! whole — nothing is enqueued, nothing is subscribed — with a
//! retry-after hint derived from the points queued and executing, the
//! lane count, and an EMA of recent point execution times.
//!
//! The lanes are one `tlb-smprt` `parallel_for(jobs, 1, ..)` that lasts
//! the daemon's lifetime: each lane pops one point, runs it, publishes
//! it, and pops the next, so a point admitted behind a long one starts
//! as soon as any lane frees up.
//!
//! Completion publishes in a fixed order: store to cache **then** take
//! the subscriber list out of the registry **then** send. A racing
//! admission therefore either finds the key in the registry (and will
//! get the send) or no longer finds it (and its under-lock cache
//! re-check hits), so no subscriber can be stranded and no point can
//! run twice.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tlb_json::Value;
use tlb_smprt::Pool;
use tlb_sweep::{key_of, point_key_input, run_point, Cache, Scenario, SweepPoint};
use tlb_trace::Counters;

/// How the executor is provisioned.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Lanes executing points, one thread each.
    pub jobs: usize,
    /// Maximum number of points waiting in the admission queue; a
    /// request whose new points would push the depth past this bound
    /// is shed whole.
    pub queue_bound: usize,
    /// Result cache directory; `None` disables caching (every point
    /// executes, dedup still works).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            jobs: 2,
            queue_bound: 1024,
            cache_dir: None,
        }
    }
}

/// What a subscriber receives for one completed point: its cache key
/// and the record (or the execution error).
pub type PointResult = (u64, Result<Value, String>);

/// One enqueued unit of work.
struct WorkItem {
    scenario: Arc<Scenario>,
    point: SweepPoint,
    key: u64,
    key_input: Value,
}

/// State behind the executor's single lock.
struct State {
    queue: VecDeque<WorkItem>,
    /// key → subscribers awaiting that point's completion. Presence in
    /// this map *is* the in-flight marker; the queue holds the subset
    /// no lane has picked up yet.
    inflight: HashMap<u64, Vec<Sender<PointResult>>>,
    /// EMA of recent point execution times, seeding the retry-after
    /// hint. Starts at a conservative guess and converges quickly.
    ema_point_secs: f64,
    counters: Counters,
    /// Set by [`Executor::drain`]: admission sheds, and a lane that
    /// finds the queue empty returns.
    draining: bool,
}

/// The outcome of [`Executor::admit`] for one request.
pub enum Admission {
    /// The request is in: cache hits are pre-filled, the rest will
    /// arrive on `rx` (one message per *distinct* pending key).
    Admitted(AdmittedRequest),
    /// The queue is full (or the executor is draining): nothing was
    /// enqueued or subscribed; retry after the hinted delay.
    Shed {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
        /// Queue depth observed at the shed decision.
        queue_depth: usize,
        /// The configured bound the request did not fit under.
        queue_bound: usize,
        /// True when the shed was caused by drain-for-shutdown rather
        /// than queue pressure.
        draining: bool,
    },
}

/// An admitted request's handle: everything the connection handler
/// needs to stream results and assemble the deterministic report.
pub struct AdmittedRequest {
    /// The expanded points, in expansion order.
    pub points: Vec<SweepPoint>,
    /// Cache key per point (expansion order; duplicates possible).
    pub keys: Vec<u64>,
    /// The expansion indices of each key.
    pub(crate) by_key: KeyIndex,
    /// Pre-filled records for points served from cache at admission.
    pub slots: Vec<Option<Value>>,
    /// Distinct keys still pending (in flight or newly enqueued).
    pub pending: usize,
    /// Completions arrive here, one per distinct pending key.
    pub rx: Receiver<PointResult>,
    /// Points served from cache at admission.
    pub cache_hits: usize,
    /// Distinct points that were already in flight for some other
    /// request (this request subscribed instead of enqueueing).
    pub dedup_hits: usize,
    /// Distinct points newly enqueued by this request.
    pub enqueued: usize,
}

/// A snapshot of the executor's observable load, for `/stats` replies
/// and admission heuristics.
#[derive(Clone, Debug)]
pub struct ExecutorStats {
    /// Points waiting in the admission queue.
    pub queue_depth: usize,
    /// Distinct points admitted but not yet completed (queued or
    /// executing).
    pub inflight: usize,
    /// Points executing per lane: 0 when idle, 1 when every lane runs
    /// one.
    pub pool_saturation: f64,
    /// Monotonic counters (`serve.*`) since startup.
    pub counters: Value,
}

/// The resident executor: admission queue + the dispatcher thread that
/// runs the lanes.
pub struct Executor {
    config: ExecutorConfig,
    cache: Option<Cache>,
    state: Mutex<State>,
    /// Signals the lanes (work arrived / draining) and waiters in
    /// [`Executor::drain`] (a point completed).
    cond: Condvar,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Executor {
    /// Open the cache and start the dispatcher on its `jobs` lanes.
    pub fn start(config: ExecutorConfig) -> std::io::Result<Arc<Executor>> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(Cache::open(dir)?),
            None => None,
        };
        let exec = Arc::new(Executor {
            cache,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                ema_point_secs: 0.05,
                counters: Counters::new(),
                draining: false,
            }),
            cond: Condvar::new(),
            dispatcher: Mutex::new(None),
            config,
        });
        let worker = Arc::clone(&exec);
        let handle = std::thread::Builder::new()
            .name("tlb-serve-dispatch".into())
            .spawn(move || {
                let lanes = worker.lanes();
                Pool::new(lanes).parallel_for(lanes, 1, |_| worker.run_lane());
            })?;
        *exec.dispatcher.lock().unwrap() = Some(handle);
        Ok(exec)
    }

    /// The executor's provisioning.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Atomically classify and admit (or shed) one request. See the
    /// module docs for the cached / in-flight / new classification and
    /// the shed-whole rule.
    pub fn admit(&self, scenario: &Scenario) -> Admission {
        let scenario = Arc::new(scenario.clone());
        let points = scenario.expand();
        let key_inputs: Vec<Value> = points
            .iter()
            .map(|p| point_key_input(&scenario, p))
            .collect();
        let keys: Vec<u64> = key_inputs.iter().map(key_of).collect();

        // A request may repeat a point via duplicate axis values; each
        // distinct key is computed at most once.
        let by_key = KeyIndex::new(&keys);
        let distinct = by_key.distinct();

        // Optimistic cache pass outside the lock: disk reads are slow
        // and a hit here never needs the registry. A point completing
        // concurrently is caught by the under-lock re-check below.
        let mut slots: Vec<Option<Value>> = vec![None; points.len()];
        let mut unresolved: Vec<(u64, usize)> = Vec::new();
        for &(k, i) in &distinct {
            match self.cache.as_ref().and_then(|c| c.load(k, &key_inputs[i])) {
                Some(record) => by_key.fill(&mut slots, k, &record),
                None => unresolved.push((k, i)),
            }
        }

        let (tx, rx) = std::sync::mpsc::channel::<PointResult>();
        let mut state = self.lock_state();
        state.counters.inc("serve.requests");

        // Classify the unresolved keys under the lock. Nothing is
        // registered or enqueued until the shed decision is made, so a
        // shed request leaves no trace.
        let mut dedup = Vec::new();
        let mut fresh = Vec::new();
        for &(k, i) in &unresolved {
            if state.inflight.contains_key(&k) {
                dedup.push(k);
            } else if let Some(record) = self.cache.as_ref().and_then(|c| c.load(k, &key_inputs[i]))
            {
                // Completed between the optimistic pass and this lock.
                by_key.fill(&mut slots, k, &record);
            } else {
                fresh.push((k, i));
            }
        }

        if state.draining || state.queue.len() + fresh.len() > self.config.queue_bound {
            state.counters.inc("serve.shed");
            // The backlog is every point queued or executing.
            let backlog = state.inflight.len();
            return Admission::Shed {
                retry_after_ms: retry_after_ms(backlog, self.lanes(), state.ema_point_secs),
                queue_depth: state.queue.len(),
                queue_bound: self.config.queue_bound,
                draining: state.draining,
            };
        }

        for &k in &dedup {
            state
                .inflight
                .get_mut(&k)
                .expect("classified in-flight under the same lock")
                .push(tx.clone());
        }
        for &(k, i) in &fresh {
            state.inflight.insert(k, vec![tx.clone()]);
            state.queue.push_back(WorkItem {
                scenario: Arc::clone(&scenario),
                point: points[i].clone(),
                key: k,
                key_input: key_inputs[i].clone(),
            });
        }

        let cache_hits = slots.iter().filter(|s| s.is_some()).count();
        state.counters.inc("serve.sweeps");
        state
            .counters
            .add("serve.points_total", points.len() as u64);
        state.counters.add("serve.cache_hits", cache_hits as u64);
        state
            .counters
            .add("serve.cache_misses", (dedup.len() + fresh.len()) as u64);
        state.counters.add("serve.dedup_hits", dedup.len() as u64);
        state.counters.add("serve.enqueued", fresh.len() as u64);
        let pending = dedup.len() + fresh.len();
        let enqueued = fresh.len();
        let dedup_hits = dedup.len();
        drop(state);
        self.cond.notify_all();

        Admission::Admitted(AdmittedRequest {
            points,
            keys,
            by_key,
            slots,
            pending,
            rx,
            cache_hits,
            dedup_hits,
            enqueued,
        })
    }

    /// Load snapshot for `/stats` and admission hints.
    pub fn stats(&self) -> ExecutorStats {
        let state = self.lock_state();
        let executing = state.inflight.len() - state.queue.len();
        ExecutorStats {
            queue_depth: state.queue.len(),
            inflight: state.inflight.len(),
            pool_saturation: executing as f64 / self.lanes() as f64,
            counters: state.counters.to_json(),
        }
    }

    /// Begin draining: every subsequent request is shed, and this call
    /// returns once the queue is empty and every in-flight point has
    /// completed (and therefore been flushed to the cache). Idempotent.
    pub fn drain(&self) {
        let mut state = self.lock_state();
        state.draining = true;
        self.cond.notify_all();
        while !(state.queue.is_empty() && state.inflight.is_empty()) {
            state = self.wait(state);
        }
        drop(state);
        if let Some(handle) = self.dispatcher.lock().unwrap().take() {
            let _ = handle.join();
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cond
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn lanes(&self) -> usize {
        self.config.jobs.max(1)
    }

    /// One lane: pop a point, run it, publish it, repeat; return once
    /// the executor drains and the queue is empty.
    fn run_lane(&self) {
        loop {
            let mut state = self.lock_state();
            let item = loop {
                if let Some(item) = state.queue.pop_front() {
                    break item;
                }
                if state.draining {
                    return;
                }
                state = self.wait(state);
            };
            drop(state);
            self.execute(&item);
        }
    }

    /// Run one point and publish it: cache store, registry removal, send.
    fn execute(&self, item: &WorkItem) {
        let started = Instant::now();
        // A panicking point is that point's error: unwinding would end
        // the lane's `parallel_for` and with it the dispatcher.
        let run = || run_point(&item.scenario, &item.point);
        let (result, panicked) = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(result) => (result, false),
            Err(payload) => (Err(panic_message(payload.as_ref())), true),
        };
        let secs = started.elapsed().as_secs_f64();
        if let (Ok(record), Some(cache)) = (&result, &self.cache) {
            // Flush before publication so a subscriber (or a racing
            // admission) never observes a completed key that is absent
            // from the cache.
            let _ = cache.store(item.key, &item.key_input, record);
        }
        let subscribers = {
            let mut state = self.lock_state();
            state.ema_point_secs = 0.7 * state.ema_point_secs + 0.3 * secs;
            state.counters.inc("serve.points_executed");
            if panicked {
                state.counters.inc("serve.point_panics");
            } else if result.is_err() {
                state.counters.inc("serve.point_errors");
            }
            state.inflight.remove(&item.key).unwrap_or_default()
        };
        self.cond.notify_all();
        for tx in subscribers {
            let _ = tx.send((item.key, result.clone()));
        }
    }
}

/// Retry hint: the expected time for `backlog` points to clear through
/// `lanes` lanes at `ema_point_secs` each, plus one point, floored at
/// 10 ms so clients never spin.
fn retry_after_ms(backlog: usize, lanes: usize, ema_point_secs: f64) -> u64 {
    let secs = (backlog as f64 / lanes.max(1) as f64 + 1.0) * ema_point_secs;
    ((secs * 1000.0).ceil() as u64).max(10)
}

/// The error a point that panicked with `payload` is published as.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let what = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("point panicked: {what}")
}

/// One request's key → indices table: every `(key, index)` pair, sorted,
/// so the points of one key are one run found by binary search. It keeps
/// admission and streaming linear-logarithmic in the point count.
pub(crate) struct KeyIndex {
    pairs: Vec<(u64, usize)>,
}

impl KeyIndex {
    fn new(keys: &[u64]) -> Self {
        let mut pairs: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        KeyIndex { pairs }
    }

    /// Each distinct key with the first index it appears at, in
    /// first-seen order.
    fn distinct(&self) -> Vec<(u64, usize)> {
        let mut firsts: Vec<(u64, usize)> = self
            .pairs
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| run[0])
            .collect();
        firsts.sort_unstable_by_key(|&(_, i)| i);
        firsts
    }

    /// The expansion indices of the points with cache key `key`,
    /// ascending.
    pub(crate) fn indices_of(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.pairs.partition_point(|&(k, _)| k < key);
        self.pairs[start..]
            .iter()
            .take_while(move |&&(k, _)| k == key)
            .map(|&(_, i)| i)
    }

    /// Copy one completed record into every expansion slot sharing its
    /// key.
    fn fill(&self, slots: &mut [Option<Value>], key: u64, record: &Value) {
        for i in self.indices_of(key) {
            slots[i] = Some(record.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_index_groups_repeated_keys() {
        let keys = [9, 4, 9, 7, 4, 9];
        let by_key = KeyIndex::new(&keys);
        assert_eq!(by_key.distinct(), [(9, 0), (4, 1), (7, 3)]);
        assert_eq!(by_key.indices_of(9).collect::<Vec<_>>(), [0, 2, 5]);
        assert_eq!(by_key.indices_of(7).collect::<Vec<_>>(), [3]);
        assert_eq!(by_key.indices_of(5).count(), 0);
        let mut slots = vec![None; keys.len()];
        by_key.fill(&mut slots, 4, &Value::from(1i64));
        let filled: Vec<bool> = slots.iter().map(Option::is_some).collect();
        assert_eq!(filled, [false, true, false, false, true, false]);
    }

    #[test]
    fn retry_hint_scales_with_the_backlog_per_lane() {
        assert_eq!(retry_after_ms(0, 2, 0.001), 10);
        assert_eq!(retry_after_ms(8, 2, 0.05), 250);
        let hints: Vec<u64> = (0..100).map(|b| retry_after_ms(b, 3, 0.02)).collect();
        assert!(hints.windows(2).all(|w| w[0] <= w[1]), "{hints:?}");
    }
}
