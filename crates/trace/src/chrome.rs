//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Mapping: `pid` = node, `tid` = worker proc on that node (instants
//! without a worker use tid 0). Task executions become "X" complete
//! events paired from started/completed; everything else becomes an "i"
//! instant carrying its payload in `args`. Timestamps are virtual
//! nanoseconds converted to the format's microseconds, so the output is
//! bitwise-identical across runs, hosts, and thread counts.
//!
//! The text is written event by event into one `String` — no document
//! tree is built — in exactly the compact form `tlb_json::Value` would
//! serialise to, so `parse(&text).to_string_compact() == text`.

use crate::event::{Event, EventKind, TaskKey};
use std::collections::HashMap;
use std::fmt::Write as _;
use tlb_des::SimTime;
use tlb_json::{write_escaped, write_f64};

/// Global-track pid used for solver / iteration instants: the `-1` that
/// [`Event::csv_fields`] gives an event with no node.
const GLOBAL_PID: i64 = -1;

fn micros(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1000.0
}

/// One JSON object being written into `out`: `{"key":value,...}`, keys
/// in call order, numbers and strings in `tlb-json`'s formats.
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
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        write_escaped(self.key(key), v);
        self
    }

    fn int(&mut self, key: &str, v: impl Into<i64>) -> &mut Self {
        let _ = write!(self.key(key), "{}", v.into());
        self
    }

    fn float(&mut self, key: &str, v: f64) -> &mut Self {
        write_f64(self.key(key), v);
        self
    }

    fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// `"key":[...]`, each item written by `each`.
    fn array<T>(
        &mut self,
        key: &str,
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

    fn counts(&mut self, key: &str, vs: &[usize]) -> &mut Self {
        self.array(key, vs, |out, v| {
            let _ = write!(out, "{v}");
        })
    }

    fn floats(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        self.array(key, vs, |out, &v| write_f64(out, v))
    }

    /// `"key":{...}`, filled by `fill`.
    fn object(&mut self, key: &str, fill: impl FnOnce(&mut Obj)) -> &mut Self {
        let mut inner = Obj::open(self.key(key));
        fill(&mut inner);
        inner.close();
        self
    }

    /// The three fields that identify a task.
    fn task(&mut self, key: &TaskKey) -> &mut Self {
        self.int("iteration", key.iteration)
            .int("apprank", key.apprank)
            .int("task", key.task)
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
        ev.str("name", name).str("ph", "M").int("pid", pid);
        if let Some(tid) = tid {
            ev.int("tid", tid);
        }
        ev.object("args", |a| {
            a.str("name", label);
        });
        ev.close();
    }

    /// An "i" instant on track `(pid, tid)` with the payload of `kind`
    /// in `args`.
    fn instant(&mut self, name: &str, at: SimTime, pid: i64, tid: i64, kind: &EventKind) {
        let mut ev = self.event();
        ev.str("name", name)
            .str("ph", "i")
            .float("ts", micros(at))
            .int("pid", pid)
            .int("tid", tid)
            .str("s", "t")
            .object("args", |a| write_args(a, kind));
        ev.close();
    }
}

/// Write the `args` payload of the instant that `kind` exports as.
fn write_args(a: &mut Obj, kind: &EventKind) {
    match kind {
        // Exported as paired "X" slices, never as instants.
        EventKind::TaskStarted { .. } | EventKind::TaskCompleted { .. } => a,
        EventKind::TaskCreated { key, cost } => a.task(key).float("cost_s", *cost),
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
            .str("reason", reason.name())
            .int("chosen_node", *chosen_node)
            .int("home_queued", *home_queued)
            .int("home_owned", *home_owned)
            .int("chosen_queued", *chosen_queued)
            .int("chosen_owned", *chosen_owned),
        EventKind::TaskOffloaded {
            key,
            from_node,
            to_node,
            stolen,
        } => a
            .task(key)
            .int("from_node", *from_node)
            .int("to_node", *to_node)
            .bool("stolen", *stolen),
        EventKind::LewiBorrow { core, owner, .. } => a.int("core", *core).int("owner", *owner),
        EventKind::LewiReclaim { core, borrower, .. } => {
            a.int("core", *core).int("borrower", *borrower)
        }
        EventKind::DromTransfer { core, from, .. } => a.int("core", *core).int("from", *from),
        EventKind::DromOwnership { counts, .. } => a.counts("counts", counts),
        EventKind::TalpWindow { busy, .. } => a.floats("busy_core_s", busy),
        EventKind::SolverInvoked(rec) => a
            .floats("demand", &rec.demand)
            .counts("cores", &rec.cores)
            .int("simplex_iterations", rec.simplex_iterations as i64)
            .float("objective", rec.objective)
            .float("modelled_cost_us", micros(rec.modelled_cost)),
        EventKind::HelperSpawned { apprank, .. } => a.int("apprank", *apprank),
        EventKind::IterationEnd { iteration } => a.int("iteration", *iteration),
        EventKind::StragglerStart { factor, .. } => a.float("factor", *factor),
        EventKind::StragglerEnd { .. } => a,
        EventKind::WorkerKilled {
            apprank, requeued, ..
        } => a.int("apprank", *apprank).int("requeued", *requeued),
        EventKind::MessageDropped { key, attempt, .. } => a.task(key).int("attempt", *attempt),
        EventKind::MessageFailover { key, attempts, .. } => a.task(key).int("attempts", *attempts),
        EventKind::SolverOutage { active } => a.bool("active", *active),
        EventKind::SolverFallback { reason } => a.str("reason", reason.name()),
        EventKind::PortfolioSolve(rec) => a
            .array("candidates", &rec.candidates, |out, c| {
                let mut o = Obj::open(out);
                o.str("strategy", c.name)
                    .float("score", c.score)
                    .float("cost_s", c.cost_s)
                    .bool("timed_out", c.timed_out);
                o.close();
            })
            .float("budget_s", rec.budget_s),
        EventKind::PortfolioPick {
            name, score, raced, ..
        } => a
            .str("strategy", name)
            .float("score", *score)
            .int("raced", *raced),
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
    let mut doc = Doc {
        out: String::from("{\"traceEvents\":["),
        events: 0,
    };
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
                let name = format!("a{}.i{}.t{}", key.apprank, key.iteration, key.task);
                let mut x = doc.event();
                x.str("name", &name)
                    .str("ph", "X")
                    .float("ts", micros(start))
                    .float("dur", micros(ev.at.saturating_sub(start)))
                    .int("pid", *node)
                    .int("tid", *proc)
                    .object("args", |a| {
                        a.task(key).bool("stolen", stolen);
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
                let decision;
                let (name, pid) = match kind {
                    EventKind::SchedDecision {
                        reason, home_node, ..
                    } => {
                        decision = format!("decision:{}", reason.name());
                        (decision.as_str(), *home_node as i64)
                    }
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
        use crate::event::{
            DecisionReason, FallbackReason, PortfolioCandidate, PortfolioRecord, SolverRecord,
        };
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
            EventKind::SolverFallback { .. } => {
                EventKind::PortfolioSolve(Box::new(PortfolioRecord {
                    candidates: vec![
                        PortfolioCandidate {
                            strategy: 0,
                            name: "simplex",
                            score: 0.5,
                            cost_s: 0.057,
                            timed_out: false,
                        },
                        PortfolioCandidate {
                            strategy: 2,
                            name: "greedy",
                            score: -1.0,
                            cost_s: f64::INFINITY,
                            timed_out: true,
                        },
                    ],
                    budget_s: 0.1,
                }))
            }
            EventKind::PortfolioSolve(..) => EventKind::PortfolioPick {
                strategy: 0,
                name: "simplex",
                score: 0.5,
                raced: 2,
            },
            EventKind::PortfolioPick { .. } => return None,
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

    #[test]
    fn output_parses_and_is_stable() {
        let log = every_kind_log();
        let a = chrome_trace_string(log.iter(), &[vec![0, 1]]);
        let b = chrome_trace_string(&log.merged(), &[vec![0, 1]]);
        assert_eq!(a, b);
        assert!(parsed(&log, &[]).get("traceEvents").as_array().is_some());
    }
}
