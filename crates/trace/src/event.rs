//! Event schema and the per-stream buffered log with deterministic merge.

use tlb_des::SimTime;

/// Identity of a task across the whole run. Task ids restart at 0 in
/// every iteration (each apprank's `TaskGraph` is cleared between
/// iterations), so the raw task id alone is ambiguous — the triple is not.
///
/// Fields are `u32`: hot paths copy millions of events into the stream
/// buffers, so the schema keeps every id narrow (4 G iterations, appranks
/// or tasks per iteration is far beyond any simulated run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskKey {
    /// Iteration the task belongs to (0-based).
    pub iteration: u32,
    /// Apprank that created the task.
    pub apprank: u32,
    /// Task id inside that iteration's graph.
    pub task: u32,
}

/// Why the offload scheduler placed a task where it did (Fig. 5's
/// decision taxonomy: locality-hit / adjacent-spill / queued / stolen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionReason {
    /// The home node was under its queue-depth threshold.
    LocalityHit,
    /// Home was saturated; spilled to the least-pressured adjacent node.
    AdjacentSpill,
    /// Every candidate was saturated; the task went to the hold queue.
    Queued,
    /// A previously held task was taken by an idle worker.
    Stolen,
}

impl DecisionReason {
    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            DecisionReason::LocalityHit => "locality_hit",
            DecisionReason::AdjacentSpill => "adjacent_spill",
            DecisionReason::Queued => "queued",
            DecisionReason::Stolen => "stolen",
        }
    }

    /// `decision:` and [`DecisionReason::name`]: the Chrome instant's
    /// name, a literal so the exporter allocates nothing for it.
    pub fn instant_name(&self) -> &'static str {
        match self {
            DecisionReason::LocalityHit => "decision:locality_hit",
            DecisionReason::AdjacentSpill => "decision:adjacent_spill",
            DecisionReason::Queued => "decision:queued",
            DecisionReason::Stolen => "decision:stolen",
        }
    }
}

/// Why a global-solver invocation was answered by the degradation ladder
/// instead of a fresh LP solution (the fault family's `solver_fallback`
/// event payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// Simplex hit its pivot budget (also used for injected timeouts).
    IterationLimit,
    /// The allocation program was reported infeasible mid-run.
    Infeasible,
    /// The allocation program was reported unbounded mid-run.
    Unbounded,
    /// Any other solver error.
    Other,
}

impl FallbackReason {
    /// Stable lowercase name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            FallbackReason::IterationLimit => "iteration_limit",
            FallbackReason::Infeasible => "infeasible",
            FallbackReason::Unbounded => "unbounded",
            FallbackReason::Other => "other",
        }
    }

    /// Small stable code used in the CSV `value` column.
    pub fn code(&self) -> u32 {
        match self {
            FallbackReason::IterationLimit => 0,
            FallbackReason::Infeasible => 1,
            FallbackReason::Unbounded => 2,
            FallbackReason::Other => 3,
        }
    }
}

/// Payload of one global-solver invocation: demand vector in, per-apprank
/// core allocation out, with simplex iteration count and the modelled
/// (virtual) solve cost charged to the simulation. Boxed inside
/// [`EventKind`] — solver events are rare and their vectors would
/// otherwise inflate every buffered event.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverRecord {
    /// Per-apprank demand (core·seconds of pending work).
    pub demand: Vec<f64>,
    /// Cores allocated to each apprank, summed over its nodes.
    pub cores: Vec<usize>,
    /// Simplex pivots the allocation took.
    pub simplex_iterations: usize,
    /// Objective value of the returned allocation.
    pub objective: f64,
    /// Virtual solve cost charged to the hosting node.
    pub modelled_cost: SimTime,
}

/// One structured trace event. All payloads are derived from virtual
/// simulation state only — never wall clocks — so the event stream is
/// reproducible bit-for-bit. Ids are `u32`/`i32` to keep the enum small:
/// fine-grained runs buffer hundreds of thousands of these, and the copy
/// into the stream buffers is the dominant cost of tracing.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Task submitted to its iteration graph (`cost` = nominal seconds).
    TaskCreated { key: TaskKey, cost: f64 },
    /// All dependencies satisfied; the task entered a ready queue.
    TaskReady { key: TaskKey },
    /// Offload-scheduler decision, with the core counts that justified
    /// it. `chosen_node < 0` means the task was held (queued).
    SchedDecision {
        key: TaskKey,
        reason: DecisionReason,
        chosen_node: i32,
        home_node: u32,
        home_queued: u32,
        home_owned: u32,
        chosen_queued: i32,
        chosen_owned: i32,
    },
    /// Task sent to a non-home node (eagerly, or late via stealing).
    TaskOffloaded {
        key: TaskKey,
        from_node: u32,
        to_node: u32,
        stolen: bool,
    },
    /// Task began executing on a core.
    TaskStarted {
        key: TaskKey,
        node: u32,
        proc: u32,
        stolen: bool,
    },
    /// Task finished executing.
    TaskCompleted { key: TaskKey, node: u32, proc: u32 },
    /// LeWI: `proc` borrowed an idle core lent by `owner`.
    LewiBorrow {
        node: u32,
        proc: u32,
        core: u32,
        owner: u32,
    },
    /// LeWI: `owner` posted a reclaim on a core `borrower` is using.
    LewiReclaim {
        node: u32,
        core: u32,
        owner: u32,
        borrower: u32,
    },
    /// DROM: a deferred ownership transfer was applied at core release.
    DromTransfer {
        node: u32,
        core: u32,
        from: u32,
        to: u32,
    },
    /// DROM: an ownership transaction set per-proc core counts on a node.
    DromOwnership { node: u32, counts: Vec<usize> },
    /// TALP: per-proc average busy cores over the window a local or
    /// global tick closes.
    TalpWindow { node: u32, busy: Vec<f64> },
    /// Global solver invocation (boxed payload — see [`SolverRecord`]).
    SolverInvoked(Box<SolverRecord>),
    /// All appranks finished iteration `iteration`.
    IterationEnd { iteration: u32 },
    /// Fault injection: `node` entered a straggler burst; its speed is
    /// multiplied by `factor` (< 1) until the matching [`EventKind::StragglerEnd`].
    StragglerStart { node: u32, factor: f64 },
    /// Fault recovery: a straggler burst on `node` ended.
    StragglerEnd { node: u32 },
    /// Fault injection: worker `proc` on `node` (a helper of `apprank`)
    /// died; `requeued` queued/in-flight tasks were re-enqueued at home.
    WorkerKilled {
        apprank: u32,
        node: u32,
        proc: u32,
        requeued: u32,
    },
    /// Fault injection: offload message for `key` towards `to_node` was
    /// dropped on send attempt `attempt` (0-based) and will be retried.
    MessageDropped {
        key: TaskKey,
        to_node: u32,
        attempt: u32,
    },
    /// Fault absorption: retries for `key` towards `to_node` were
    /// exhausted after `attempts` sends; the task runs at home instead.
    MessageFailover {
        key: TaskKey,
        to_node: u32,
        attempts: u32,
    },
    /// Fault injection/recovery: a global-solver outage window opened
    /// (`active`) or closed (`!active`).
    SolverOutage { active: bool },
    /// Fault absorption: a solver invocation failed and the runtime fell
    /// back to the local-convergence / last-good allocation.
    SolverFallback { reason: FallbackReason },
}

impl EventKind {
    /// Position of the variant in declaration order: its row in
    /// [`KINDS`], and the slot [`Counters::note`](crate::Counters::note)
    /// bumps for it.
    pub(crate) fn index(&self) -> usize {
        match self {
            EventKind::TaskCreated { .. } => 0,
            EventKind::TaskReady { .. } => 1,
            EventKind::SchedDecision { .. } => 2,
            EventKind::TaskOffloaded { .. } => 3,
            EventKind::TaskStarted { .. } => 4,
            EventKind::TaskCompleted { .. } => 5,
            EventKind::LewiBorrow { .. } => 6,
            EventKind::LewiReclaim { .. } => 7,
            EventKind::DromTransfer { .. } => 8,
            EventKind::DromOwnership { .. } => 9,
            EventKind::TalpWindow { .. } => 10,
            EventKind::SolverInvoked(..) => 11,
            EventKind::IterationEnd { .. } => 12,
            EventKind::StragglerStart { .. } => 13,
            EventKind::StragglerEnd { .. } => 14,
            EventKind::WorkerKilled { .. } => 15,
            EventKind::MessageDropped { .. } => 16,
            EventKind::MessageFailover { .. } => 17,
            EventKind::SolverOutage { .. } => 18,
            EventKind::SolverFallback { .. } => 19,
        }
    }

    /// Stable snake_case name used as the CSV `kind` and Chrome event name.
    pub fn name(&self) -> &'static str {
        KINDS[self.index()].0
    }
}

/// Per variant, in declaration order: the export name, and the counter
/// that counts the kind's events, if one does. A `SchedDecision`
/// is counted by its reason as well, see `Counters::note`.
pub(crate) const KINDS: [(&str, Option<&str>); 20] = [
    ("task_created", Some("tasks_created")),
    ("task_ready", Some("tasks_ready")),
    ("sched_decision", Some("sched_decisions")),
    ("task_offloaded", Some("tasks_offloaded")),
    ("task_started", Some("tasks_started")),
    ("task_completed", Some("tasks_completed")),
    ("lewi_borrow", Some("lewi_lends")),
    ("lewi_reclaim", Some("lewi_reclaims")),
    ("drom_transfer", Some("drom_transfers")),
    ("drom_ownership", Some("drom_ownership_sets")),
    ("talp_window", Some("talp_windows")),
    ("solver_invoked", Some("solver_invocations")),
    ("iteration_end_ev", Some("iterations_completed")),
    ("straggler_start", None),
    ("straggler_end", None),
    ("worker_killed", Some("fault_workers_killed")),
    ("message_dropped", Some("fault_messages_dropped")),
    ("message_failover", Some("fault_message_failovers")),
    ("solver_outage", None),
    ("solver_fallback", Some("solver_fallbacks")),
];

/// A recorded event with its virtual timestamp and merge key.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// Stream the event was buffered on (0 = global, `1 + node` = node).
    pub stream: u32,
    /// Per-stream sequence number (records intra-stream causal order).
    pub seq: u32,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Project the event onto the long-format CSV schema
    /// `(kind, node, proc, apprank, value)` with `-1` sentinels for
    /// fields that do not apply (time is added by the caller). The
    /// Chrome export puts the event on the track of the same `node` and
    /// `proc`.
    pub fn csv_fields(&self) -> (&'static str, i64, i64, i64, f64) {
        let name = self.kind.name();
        match &self.kind {
            EventKind::TaskCreated { key, cost } => (name, -1, -1, key.apprank as i64, *cost),
            EventKind::TaskReady { key } => (name, -1, -1, key.apprank as i64, key.task as f64),
            EventKind::SchedDecision {
                key,
                chosen_node,
                home_node,
                ..
            } => {
                let node = if *chosen_node >= 0 {
                    *chosen_node as i64
                } else {
                    *home_node as i64
                };
                (name, node, -1, key.apprank as i64, key.task as f64)
            }
            EventKind::TaskOffloaded { key, to_node, .. } => (
                name,
                *to_node as i64,
                -1,
                key.apprank as i64,
                key.task as f64,
            ),
            EventKind::TaskStarted {
                key, node, proc, ..
            } => (
                name,
                *node as i64,
                *proc as i64,
                key.apprank as i64,
                key.task as f64,
            ),
            EventKind::TaskCompleted { key, node, proc } => (
                name,
                *node as i64,
                *proc as i64,
                key.apprank as i64,
                key.task as f64,
            ),
            EventKind::LewiBorrow {
                node, proc, core, ..
            } => (name, *node as i64, *proc as i64, -1, *core as f64),
            EventKind::LewiReclaim {
                node, core, owner, ..
            } => (name, *node as i64, *owner as i64, -1, *core as f64),
            EventKind::DromTransfer { node, core, to, .. } => {
                (name, *node as i64, *to as i64, -1, *core as f64)
            }
            EventKind::DromOwnership { node, counts } => (
                name,
                *node as i64,
                -1,
                -1,
                counts.iter().sum::<usize>() as f64,
            ),
            EventKind::TalpWindow { node, busy } => {
                (name, *node as i64, -1, -1, busy.iter().sum::<f64>())
            }
            EventKind::SolverInvoked(rec) => (name, -1, -1, -1, rec.objective),
            EventKind::IterationEnd { iteration } => (name, -1, -1, -1, *iteration as f64),
            EventKind::StragglerStart { node, factor } => (name, *node as i64, -1, -1, *factor),
            EventKind::StragglerEnd { node } => (name, *node as i64, -1, -1, 1.0),
            EventKind::WorkerKilled {
                apprank,
                node,
                proc,
                requeued,
            } => (
                name,
                *node as i64,
                *proc as i64,
                *apprank as i64,
                *requeued as f64,
            ),
            EventKind::MessageDropped {
                key,
                to_node,
                attempt,
            } => (
                name,
                *to_node as i64,
                -1,
                key.apprank as i64,
                *attempt as f64,
            ),
            EventKind::MessageFailover {
                key,
                to_node,
                attempts,
            } => (
                name,
                *to_node as i64,
                -1,
                key.apprank as i64,
                *attempts as f64,
            ),
            EventKind::SolverOutage { active } => {
                (name, -1, -1, -1, if *active { 1.0 } else { 0.0 })
            }
            EventKind::SolverFallback { reason } => (name, -1, -1, -1, reason.code() as f64),
        }
    }
}

/// Events per chunk of a stream (56 KiB).
const CHUNK: usize = 1024;

/// One producer's events in append order: full chunks, then a filling one.
#[derive(Clone, Debug, Default, PartialEq)]
struct Stream {
    chunks: Vec<Vec<Event>>,
    len: usize,
}

/// Per-stream buffered event log.
///
/// Each producer (the global scheduler, each node) appends to its own
/// stream in O(1); [`TraceLog::iter`] produces the canonical total
/// order `(at, stream, seq)`. Because both the virtual timestamps and
/// the per-stream append order come from the deterministic simulation,
/// the merged list is identical across runs and thread counts.
///
/// A stream is a list of chunks of 1,024 events, each allocated at full
/// capacity: [`TraceLog::push`] writes one 56-byte event in place, and
/// a stored event never moves again (one growing `Vec` copied all it
/// held each time it doubled). Only the list of chunk pointers grows.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    streams: Vec<Stream>,
}

/// Stream id for global events (solver, iteration boundaries).
pub const GLOBAL_STREAM: usize = 0;

impl TraceLog {
    /// Empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Stream id for events originating on `node`.
    pub fn node_stream(node: usize) -> usize {
        1 + node
    }

    /// Append an event to `stream` at virtual time `at`.
    pub fn push(&mut self, stream: usize, at: SimTime, kind: EventKind) {
        if self.streams.len() <= stream {
            self.streams.resize_with(stream + 1, Stream::default);
        }
        let s = &mut self.streams[stream];
        if s.len.is_multiple_of(CHUNK) {
            s.chunks.push(Vec::with_capacity(CHUNK));
        }
        s.chunks[s.len / CHUNK].push(Event {
            at,
            stream: stream as u32,
            seq: s.len as u32,
            kind,
        });
        s.len += 1;
    }

    /// Every event in stream order, each stream in append order.
    fn unordered(&self) -> impl Iterator<Item = &Event> {
        self.streams.iter().flat_map(|s| s.chunks.iter().flatten())
    }

    /// Total recorded events across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.len).sum()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every event, borrowed, in the canonical deterministic order
    /// `(at, stream, seq)` — what both exporters walk. A stream is not
    /// sorted by time (an iteration end is stamped after its barrier,
    /// ahead of the clock), so this sorts references, not a k-way merge.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let mut all: Vec<&Event> = Vec::with_capacity(self.len());
        all.extend(self.unordered());
        all.sort_by_key(|e| (e.at, e.stream, e.seq));
        all.into_iter()
    }

    /// [`TraceLog::iter`] collected into owned events.
    pub fn merged(&self) -> Vec<Event> {
        self.iter().cloned().collect()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&EventKind) -> bool) -> usize {
        self.unordered().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(task: u32) -> TaskKey {
        TaskKey {
            iteration: 0,
            apprank: 0,
            task,
        }
    }

    #[test]
    fn merge_orders_by_time_then_stream_then_seq() {
        let mut log = TraceLog::new();
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_millis(1);
        // Push out of time order across streams.
        log.push(2, t1, EventKind::TaskReady { key: key(3) });
        log.push(1, t0, EventKind::TaskReady { key: key(1) });
        log.push(1, t1, EventKind::TaskReady { key: key(2) });
        log.push(0, t0, EventKind::IterationEnd { iteration: 0 });
        // Equal timestamps within and across streams, and a stream that
        // goes back in time (an iteration end is stamped ahead of the
        // clock): the borrowed order is the old clone-and-sort order.
        log.push(2, t1, EventKind::TaskReady { key: key(4) });
        log.push(0, t1, EventKind::IterationEnd { iteration: 1 });
        log.push(0, t0, EventKind::TaskReady { key: key(5) });
        let mut reference: Vec<Event> = log.unordered().cloned().collect();
        reference.sort_by_key(|e| (e.at, e.stream, e.seq));
        assert!(log.iter().eq(reference.iter()));
        let merged = log.merged();
        assert_eq!(merged, reference);
        let order: Vec<(u64, u32, u32)> = merged
            .iter()
            .map(|e| (e.at.as_nanos(), e.stream, e.seq))
            .collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(merged.len(), 7);
        assert_eq!(merged[0].stream, 0); // t0 stream0 before t0 stream1
        assert_eq!(merged[2].stream, 1);
    }

    #[test]
    fn instant_name_is_decision_and_the_reason_name() {
        use DecisionReason::*;
        for reason in [LocalityHit, AdjacentSpill, Queued, Stolen] {
            let name = format!("decision:{}", reason.name());
            assert_eq!(reason.instant_name(), name);
        }
    }

    #[test]
    fn seq_preserves_intra_stream_order_at_same_instant() {
        let mut log = TraceLog::new();
        for task in 0..10 {
            log.push(1, SimTime::ZERO, EventKind::TaskReady { key: key(task) });
        }
        let merged = log.merged();
        for (i, e) in merged.iter().enumerate() {
            match &e.kind {
                EventKind::TaskReady { key } => assert_eq!(key.task as usize, i),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn csv_fields_use_sentinels() {
        let ev = Event {
            at: SimTime::ZERO,
            stream: 0,
            seq: 0,
            kind: EventKind::IterationEnd { iteration: 2 },
        };
        let (name, node, proc, apprank, value) = ev.csv_fields();
        assert_eq!(name, "iteration_end_ev");
        assert_eq!((node, proc, apprank), (-1, -1, -1));
        assert_eq!(value, 2.0);
    }

    /// What a traced run stores per event (`trace.push_ns` and
    /// `peak_rss_mb@trace_synth_4n` in the ledger scale with it): a
    /// variant that grows the enum should be a decision, not an accident.
    #[test]
    fn event_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }

    /// The chunked log against a flat `Vec<Event>` built by the same
    /// pushes, every stream at a size on one side of a chunk boundary.
    #[test]
    fn chunked_log_matches_a_flat_model() {
        let mut seed = 24;
        let sizes = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK - 72];
        for (per_stream, streams) in sizes.into_iter().zip([1, 1, 2, 3, 4, 2]) {
            let n = per_stream * streams;
            let (mut log, mut twin) = (TraceLog::new(), TraceLog::new());
            let mut model: Vec<Event> = Vec::new();
            for task in 0..n {
                let bits = crate::splitmix64(&mut seed);
                // A handful of instants: many ties, no order in a stream.
                let at = SimTime::from_nanos(bits & 31);
                let kind = match bits >> 8 & 1 {
                    0 => EventKind::TaskReady {
                        key: key(task as u32),
                    },
                    _ => EventKind::IterationEnd {
                        iteration: task as u32,
                    },
                };
                log.push(task % streams, at, kind.clone());
                twin.push(task % streams, at, kind.clone());
                model.push(Event {
                    at,
                    stream: (task % streams) as u32,
                    seq: (task / streams) as u32,
                    kind,
                });
            }
            assert_eq!((log.len(), log.is_empty()), (n, n == 0));
            assert!(log == twin && log.clone() == log, "{n} events");
            let ready = |k: &EventKind| matches!(k, EventKind::TaskReady { .. });
            let ready_in_model = model.iter().filter(|e| ready(&e.kind)).count();
            assert_eq!(log.count(ready), ready_in_model);
            // A full chunk was never outgrown, so never copied.
            for s in &log.streams {
                assert_eq!(s.chunks.len(), per_stream.div_ceil(CHUNK));
                assert!(s.chunks.iter().all(|c| c.capacity() == CHUNK));
            }
            // `seq` is the position in the stream: the model's event of
            // the same task carries the same one.
            assert!(log.unordered().all(|e| *e == model[task_of(e)]));
            model.sort_by_key(|e| (e.at, e.stream, e.seq));
            assert!(log.iter().eq(model.iter()), "{n} events");
            assert_eq!(log.merged(), model);
        }
    }

    fn task_of(e: &Event) -> usize {
        match &e.kind {
            EventKind::TaskReady { key } => key.task as usize,
            EventKind::IterationEnd { iteration } => *iteration as usize,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_and_len_agree() {
        let mut log = TraceLog::new();
        log.push(0, SimTime::ZERO, EventKind::IterationEnd { iteration: 0 });
        log.push(3, SimTime::ZERO, EventKind::TaskReady { key: key(0) });
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(
            log.count(|k| matches!(k, EventKind::IterationEnd { .. })),
            1
        );
    }
}
