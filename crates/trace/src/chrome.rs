//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Mapping: `pid` = node, `tid` = worker proc on that node (instants
//! without a worker use tid 0). Task executions become "X" complete
//! events paired from started/completed; everything else becomes an "i"
//! instant carrying its payload in `args`. Timestamps are virtual
//! nanoseconds converted to the format's microseconds, so the output is
//! bitwise-identical across runs, hosts, and thread counts.
//!
//! The text is written event by event into one `String`, reserved once
//! from the event count — no document tree is built — in exactly the
//! compact form `tlb_json::Value` would serialise to, so
//! `parse(&text).to_string_compact() == text`. What a byte costs: a key
//! is a compile-time literal with its quotes and colon (`k!`, one
//! `push_str`), strings and numbers go through `tlb-json`'s own kernels
//! (`write_escaped`, `write_i64`, `write_f64`), and a timestamp is
//! written from its integer nanoseconds (`Obj::micros`: at most 15
//! significant digits, hence already the double's shortest form).

use crate::event::{Event, EventKind, TaskKey};
use std::collections::HashMap;
use tlb_des::SimTime;
use tlb_json::{write_escaped, write_f64, write_i64};

/// Global-track pid used for solver / iteration instants: the `-1` that
/// [`Event::csv_fields`] gives an event with no node.
const GLOBAL_PID: i64 = -1;

/// An object key as the text it exports as, `"name":`. Every key of the
/// format is a plain identifier, so nothing in it needs escaping, and
/// `concat!` takes literals only: a key costs one `push_str`.
macro_rules! k {
    ($key:literal) => {
        concat!("\"", $key, "\":")
    };
}

/// One JSON object being written into `out`: `{"key":value,...}`, keys
/// (each a [`k!`] literal) in call order, numbers and strings in
/// `tlb-json`'s formats.
struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Obj<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { out, first: true }
    }

    fn close(self) {
        self.out.push('}');
    }

    /// Write `"key":` (after a comma unless first) and hand back the
    /// text for the value to follow.
    fn key(&mut self, key: &'static str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push_str(key);
        self.out
    }

    fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        write_escaped(self.key(key), v);
        self
    }

    fn int(&mut self, key: &'static str, v: impl Into<i64>) -> &mut Self {
        write_i64(self.key(key), v.into());
        self
    }

    fn float(&mut self, key: &'static str, v: f64) -> &mut Self {
        write_f64(self.key(key), v);
        self
    }

    /// `t` in the format's microseconds, as [`Obj::float`] would write
    /// `nanos as f64 / 1000.0`, from the integer: `q.rrr`, trailing zeros
    /// trimmed down to `q.0`. Equal below 10^15 ns (see the module doc);
    /// from there on a few values in a hundred differ, so `float` it is.
    fn micros(&mut self, key: &'static str, t: SimTime) -> &mut Self {
        let nanos = t.as_nanos();
        if nanos >= 10u64.pow(15) {
            return self.float(key, nanos as f64 / 1000.0);
        }
        let out = self.key(key);
        write_i64(out, (nanos / 1000) as i64);
        let (mut frac, mut r) = (*b".000", nanos % 1000);
        for digit in frac[1..].iter_mut().rev() {
            *digit += (r % 10) as u8;
            r /= 10;
        }
        let frac = std::str::from_utf8(&frac).expect("ASCII digits");
        out.push_str(&frac[..2]);
        out.push_str(frac[2..].trim_end_matches('0'));
        self
    }

    fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// `"key":[...]`, each item written by `each`.
    fn array<T>(
        &mut self,
        key: &'static str,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(&mut String, T),
    ) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            each(out, item);
        }
        out.push(']');
        self
    }

    fn counts(&mut self, key: &'static str, vs: &[usize]) -> &mut Self {
        self.array(key, vs, |out, &v| write_i64(out, v as i64))
    }

    fn floats(&mut self, key: &'static str, vs: &[f64]) -> &mut Self {
        self.array(key, vs, |out, &v| write_f64(out, v))
    }

    /// `"key":{...}`, filled by `fill`.
    fn object(&mut self, key: &'static str, fill: impl FnOnce(&mut Obj)) -> &mut Self {
        let mut inner = Obj::open(self.key(key));
        fill(&mut inner);
        inner.close();
        self
    }

    /// `"name":"aA.iI.tT"`, the label of a task's slice.
    fn slice_name(&mut self, key: &TaskKey) -> &mut Self {
        let out = self.key(k!("name"));
        out.push_str("\"a");
        write_i64(out, key.apprank.into());
        out.push_str(".i");
        write_i64(out, key.iteration.into());
        out.push_str(".t");
        write_i64(out, key.task.into());
        out.push('"');
        self
    }

    /// The three fields that identify a task.
    fn task(&mut self, key: &TaskKey) -> &mut Self {
        self.int(k!("iteration"), key.iteration)
            .int(k!("apprank"), key.apprank)
            .int(k!("task"), key.task)
    }
}

/// The `traceEvents` array being written: hands out one event object at
/// a time.
struct Doc {
    out: String,
    events: usize,
}

impl Doc {
    fn event(&mut self) -> Obj<'_> {
        if self.events > 0 {
            self.out.push(',');
        }
        self.events += 1;
        Obj::open(&mut self.out)
    }

    /// A track label: `process_name` of a pid, or `thread_name` of a
    /// `(pid, tid)`.
    fn metadata(&mut self, name: &str, pid: i64, tid: Option<i64>, label: &str) {
        let mut ev = self.event();
        ev.str(k!("name"), name)
            .str(k!("ph"), "M")
            .int(k!("pid"), pid);
        if let Some(tid) = tid {
            ev.int(k!("tid"), tid);
        }
        ev.object(k!("args"), |a| {
            a.str(k!("name"), label);
        });
        ev.close();
    }

    /// An "i" instant on track `(pid, tid)` with the payload of `kind`
    /// in `args`.
    fn instant(&mut self, name: &str, at: SimTime, pid: i64, tid: i64, kind: &EventKind) {
        let mut ev = self.event();
        ev.str(k!("name"), name)
            .str(k!("ph"), "i")
            .micros(k!("ts"), at)
            .int(k!("pid"), pid)
            .int(k!("tid"), tid)
            .str(k!("s"), "t")
            .object(k!("args"), |a| write_args(a, kind));
        ev.close();
    }
}

/// Write the `args` payload of the instant that `kind` exports as.
fn write_args(a: &mut Obj, kind: &EventKind) {
    match kind {
        // Exported as paired "X" slices, never as instants.
        EventKind::TaskStarted { .. } | EventKind::TaskCompleted { .. } => a,
        EventKind::TaskCreated { key, cost } => a.task(key).float(k!("cost_s"), *cost),
        EventKind::TaskReady { key } => a.task(key),
        EventKind::SchedDecision {
            key,
            reason,
            chosen_node,
            home_queued,
            home_owned,
            chosen_queued,
            chosen_owned,
            ..
        } => a
            .task(key)
            .str(k!("reason"), reason.name())
            .int(k!("chosen_node"), *chosen_node)
            .int(k!("home_queued"), *home_queued)
            .int(k!("home_owned"), *home_owned)
            .int(k!("chosen_queued"), *chosen_queued)
            .int(k!("chosen_owned"), *chosen_owned),
        EventKind::TaskOffloaded {
            key,
            from_node,
            to_node,
            stolen,
        } => a
            .task(key)
            .int(k!("from_node"), *from_node)
            .int(k!("to_node"), *to_node)
            .bool(k!("stolen"), *stolen),
        EventKind::LewiBorrow { core, owner, .. } => {
            a.int(k!("core"), *core).int(k!("owner"), *owner)
        }
        EventKind::LewiReclaim { core, borrower, .. } => {
            a.int(k!("core"), *core).int(k!("borrower"), *borrower)
        }
        EventKind::DromTransfer { core, from, .. } => {
            a.int(k!("core"), *core).int(k!("from"), *from)
        }
        EventKind::DromOwnership { counts, .. } => a.counts(k!("counts"), counts),
        EventKind::TalpWindow { busy, .. } => a.floats(k!("busy_core_s"), busy),
        EventKind::SolverInvoked(rec) => a
            .floats(k!("demand"), &rec.demand)
            .counts(k!("cores"), &rec.cores)
            .int(k!("simplex_iterations"), rec.simplex_iterations as i64)
            .float(k!("objective"), rec.objective)
            .micros(k!("modelled_cost_us"), rec.modelled_cost),
        EventKind::HelperSpawned { apprank, .. } => a.int(k!("apprank"), *apprank),
        EventKind::IterationEnd { iteration } => a.int(k!("iteration"), *iteration),
        EventKind::StragglerStart { factor, .. } => a.float(k!("factor"), *factor),
        EventKind::StragglerEnd { .. } => a,
        EventKind::WorkerKilled {
            apprank, requeued, ..
        } => a
            .int(k!("apprank"), *apprank)
            .int(k!("requeued"), *requeued),
        EventKind::MessageDropped { key, attempt, .. } => a.task(key).int(k!("attempt"), *attempt),
        EventKind::MessageFailover { key, attempts, .. } => {
            a.task(key).int(k!("attempts"), *attempts)
        }
        EventKind::SolverOutage { active } => a.bool(k!("active"), *active),
        EventKind::SolverFallback { reason } => a.str(k!("reason"), reason.name()),
    };
}

/// The Chrome trace-event JSON document for `events` (which must come in
/// the canonical merged order, as [`TraceLog::iter`](crate::TraceLog::iter)
/// yields them), serialised compactly — the canonical on-disk form used
/// by the bitwise-identity checks. `worker_apprank[node][proc]` labels
/// the per-worker tracks; it may be empty, in which case only the events
/// themselves are emitted.
pub fn chrome_trace_string<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    worker_apprank: &[Vec<usize>],
) -> String {
    let events = events.into_iter();
    // One reservation: `trace.chrome_bytes_per_event` is 136 in the ledger
    // (a start and an end share one slice), an instant runs to 250.
    let mut out = String::with_capacity(32 + events.size_hint().0 * 144);
    out.push_str("{\"traceEvents\":[");
    let mut doc = Doc { out, events: 0 };
    // Track metadata first: one process per node plus the global track.
    if !worker_apprank.is_empty() {
        doc.metadata("process_name", GLOBAL_PID, None, "global");
        for (node, workers) in worker_apprank.iter().enumerate() {
            doc.metadata("process_name", node as i64, None, &format!("node {node}"));
            for (proc, apprank) in workers.iter().enumerate() {
                let label = format!("proc {proc} (apprank {apprank})");
                doc.metadata("thread_name", node as i64, Some(proc as i64), &label);
            }
        }
    }
    // Pair started/completed into "X" complete events; everything else
    // becomes an instant. The map is only ever looked up by key, never
    // iterated, so it cannot leak nondeterminism into the output.
    let mut open: HashMap<TaskKey, (SimTime, u32, u32, bool)> = HashMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::TaskStarted {
                key,
                node,
                proc,
                stolen,
            } => {
                open.insert(*key, (ev.at, *node, *proc, *stolen));
            }
            EventKind::TaskCompleted { key, node, proc } => {
                let (start, snode, sproc, stolen) =
                    open.remove(key).unwrap_or((ev.at, *node, *proc, false));
                debug_assert_eq!((snode, sproc), (*node, *proc));
                let mut x = doc.event();
                x.slice_name(key)
                    .str(k!("ph"), "X")
                    .micros(k!("ts"), start)
                    .micros(k!("dur"), ev.at.saturating_sub(start))
                    .int(k!("pid"), *node)
                    .int(k!("tid"), *proc)
                    .object(k!("args"), |a| {
                        a.task(key).bool(k!("stolen"), stolen);
                    });
                x.close();
            }
            kind => {
                // An instant sits on the track of the node and worker its
                // CSV row names (`-1`, no node, is the global track's pid;
                // no worker is thread 0) — except a scheduling decision,
                // which the CSV files under the chosen node and the
                // timeline shows where it was taken, at home.
                let (name, node, proc, ..) = ev.csv_fields();
                let (name, pid) = match kind {
                    EventKind::SchedDecision {
                        reason, home_node, ..
                    } => (reason.instant_name(), *home_node as i64),
                    // `_ev` tells the CSV kind from the timeline's own
                    // `iteration_end` rows; Chrome has no such clash.
                    EventKind::IterationEnd { .. } => ("iteration_end", node),
                    _ => (name, node),
                };
                doc.instant(name, ev.at, pid, proc.max(0), kind);
            }
        }
    }
    doc.out.push_str("]}");
    doc.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceLog;
    use tlb_json::Value;

    fn key(task: u32) -> TaskKey {
        TaskKey {
            iteration: 0,
            apprank: 1,
            task,
        }
    }

    fn parsed(log: &TraceLog, worker_apprank: &[Vec<usize>]) -> Value {
        tlb_json::parse(&chrome_trace_string(log.iter(), worker_apprank))
            .expect("chrome trace must be valid JSON")
    }

    #[test]
    fn pairs_start_complete_into_x_events() {
        let doc = parsed(&every_kind_log(), &[]);
        let events = doc.get("traceEvents").as_array().unwrap();
        let x: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ph").as_str() == Some("X"))
            .collect();
        assert_eq!(
            x.len(),
            2,
            "the started task, and the one only seen completing"
        );
        assert_eq!(x[0].get("ts").as_f64(), Some(5.0));
        assert_eq!(x[0].get("dur").as_f64(), Some(1.25));
        assert_eq!(x[0].get("pid").as_i64(), Some(0));
        assert_eq!(x[0].get("tid").as_i64(), Some(1));
    }

    #[test]
    fn metadata_labels_every_track() {
        let doc = parsed(&TraceLog::new(), &[vec![0, 1], vec![1]]);
        let events = doc.get("traceEvents").as_array().unwrap();
        let meta = events
            .iter()
            .filter(|e| e.get("ph").as_str() == Some("M"))
            .count();
        // 1 global + 2 process_name + 3 thread_name.
        assert_eq!(meta, 6);
        assert_eq!(events.len(), meta, "empty log emits metadata only");
    }

    /// The variant declared after `kind`, with a representative payload.
    /// Exhaustive and wildcard-free on purpose: a new [`EventKind`]
    /// variant does not compile until it has a place in the golden.
    fn next_kind(kind: &EventKind) -> Option<EventKind> {
        use crate::event::{DecisionReason, FallbackReason, SolverRecord};
        Some(match kind {
            EventKind::TaskCreated { .. } => EventKind::TaskReady { key: key(0) },
            EventKind::TaskReady { .. } => EventKind::SchedDecision {
                key: key(0),
                reason: DecisionReason::Queued,
                chosen_node: -1,
                home_node: 1,
                home_queued: 9,
                home_owned: 2,
                chosen_queued: -1,
                chosen_owned: -1,
            },
            EventKind::SchedDecision { .. } => EventKind::TaskOffloaded {
                key: key(0),
                from_node: 1,
                to_node: 0,
                stolen: true,
            },
            EventKind::TaskOffloaded { .. } => EventKind::TaskStarted {
                key: key(0),
                node: 0,
                proc: 1,
                stolen: true,
            },
            EventKind::TaskStarted { .. } => EventKind::TaskCompleted {
                key: key(0),
                node: 0,
                proc: 1,
            },
            EventKind::TaskCompleted { .. } => EventKind::LewiBorrow {
                node: 0,
                proc: 1,
                core: 3,
                owner: 0,
            },
            EventKind::LewiBorrow { .. } => EventKind::LewiReclaim {
                node: 0,
                core: 3,
                owner: 0,
                borrower: 1,
            },
            EventKind::LewiReclaim { .. } => EventKind::DromTransfer {
                node: 1,
                core: 2,
                from: 0,
                to: 1,
            },
            EventKind::DromTransfer { .. } => EventKind::DromOwnership {
                node: 1,
                counts: vec![3, 1],
            },
            EventKind::DromOwnership { .. } => EventKind::TalpWindow {
                node: 0,
                busy: vec![0.25, 2.0],
            },
            EventKind::TalpWindow { .. } => EventKind::SolverInvoked(Box::new(SolverRecord {
                demand: vec![1.5, 0.0],
                cores: vec![5, 3],
                simplex_iterations: 7,
                objective: 0.3,
                modelled_cost: SimTime::from_nanos(1_500),
            })),
            EventKind::SolverInvoked(..) => EventKind::HelperSpawned {
                apprank: 1,
                node: 0,
            },
            EventKind::HelperSpawned { .. } => EventKind::IterationEnd { iteration: 4 },
            EventKind::IterationEnd { .. } => EventKind::StragglerStart {
                node: 1,
                factor: 3.0,
            },
            EventKind::StragglerStart { .. } => EventKind::StragglerEnd { node: 1 },
            EventKind::StragglerEnd { .. } => EventKind::WorkerKilled {
                apprank: 1,
                node: 0,
                proc: 1,
                requeued: 6,
            },
            EventKind::WorkerKilled { .. } => EventKind::MessageDropped {
                key: key(2),
                to_node: 0,
                attempt: 0,
            },
            EventKind::MessageDropped { .. } => EventKind::MessageFailover {
                key: key(2),
                to_node: 0,
                attempts: 4,
            },
            EventKind::MessageFailover { .. } => EventKind::SolverOutage { active: true },
            EventKind::SolverOutage { .. } => EventKind::SolverFallback {
                reason: FallbackReason::Infeasible,
            },
            EventKind::SolverFallback { .. } => return None,
        })
    }

    /// One event of every kind in declaration order, 1.25 µs apart and
    /// interleaved over three streams, then a completion whose start was
    /// never seen.
    fn every_kind_log() -> TraceLog {
        let mut log = TraceLog::new();
        let mut kind = Some(EventKind::TaskCreated {
            key: key(0),
            cost: 0.05,
        });
        let mut i = 0u64;
        while let Some(k) = kind {
            kind = next_kind(&k);
            log.push((i % 3) as usize, SimTime::from_nanos(i * 1_250), k);
            i += 1;
        }
        let unmatched = EventKind::TaskCompleted {
            key: key(7),
            node: 1,
            proc: 0,
        };
        log.push(2, SimTime::from_millis(1), unmatched);
        log
    }

    /// Byte identity of the export, metadata tracks included. The
    /// expected text was captured from the `Value`-tree exporter this
    /// writer replaced.
    #[test]
    fn golden_covers_every_kind() {
        let text = chrome_trace_string(every_kind_log().iter(), &[vec![0, 1], vec![1]]);
        assert_eq!(text, include_str!("chrome_golden.json").trim_end());
    }

    /// The integer timestamp against the float form it replaced: equal
    /// wherever it is used, and not beyond (from 10^15 ns on a few
    /// percent of the `q.rrr` texts are not the double's shortest form,
    /// so a fallback bound moved up fails here).
    #[test]
    fn micros_matches_the_float_form() {
        const BOUND: u64 = 10u64.pow(15);
        let mut cases: Vec<u64> = (0..200_000).collect();
        for exp in 1..20 {
            let p = 10u64.pow(exp);
            cases.extend(p - 2_000.min(p)..p + 2_000);
        }
        cases.extend(BOUND - 100_000..BOUND + 100_000);
        let mut seed = 24;
        for _ in 0..100_000 {
            let bits = crate::splitmix64(&mut seed);
            // Up to 2^50 at every magnitude, then the decade past the
            // bound.
            cases.push(bits >> 14);
            cases.push(bits >> (14 + bits % 50));
            cases.push(BOUND + bits % (9 * BOUND));
        }
        let (mut out, mut reference) = (String::new(), String::new());
        for nanos in cases {
            out.clear();
            reference.clear();
            Obj::open(&mut out).micros(k!("ts"), SimTime::from_nanos(nanos));
            Obj::open(&mut reference).float(k!("ts"), nanos as f64 / 1000.0);
            assert_eq!(out, reference, "{nanos} ns");
        }
    }

    #[test]
    fn output_parses_and_is_stable() {
        let log = every_kind_log();
        let a = chrome_trace_string(log.iter(), &[vec![0, 1]]);
        let b = chrome_trace_string(&log.merged(), &[vec![0, 1]]);
        assert_eq!(a, b);
        assert!(parsed(&log, &[]).get("traceEvents").as_array().is_some());
    }
}
