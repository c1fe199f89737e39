//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Mapping: `pid` = node, `tid` = worker proc on that node (instants
//! without a worker use tid 0). Task executions become "X" complete
//! events paired from started/completed; everything else becomes an "i"
//! instant carrying its payload in `args`. Timestamps are virtual
//! nanoseconds converted to the format's microseconds, so the output is
//! bitwise-identical across runs, hosts, and thread counts.
//!
//! The text is appended as bytes, event by event, into one `Vec<u8>` —
//! no document tree is built — in exactly the compact form
//! `tlb_json::Value` would serialise to, so
//! `parse(&text).to_string_compact() == text`. What a byte costs: the
//! fixed fragments of an event, keys with their quotes and colons, are
//! byte literals (`{"name":"`, `","ph":"i","ts":`, `,"args":{`, …), so
//! one copy writes a run of them; every name is a plain identifier
//! written between two quotes as it is; integers and the `f64` payloads
//! go through `tlb-json`'s `#[inline]` byte kernels (`write_i64`,
//! `write_f64`), so their digits are written in place; and a timestamp
//! is written from its integer nanoseconds ([`micros`]: at most 15
//! significant digits, hence already the double's shortest form). Nothing
//! is checked for UTF-8 on the way: every byte is ASCII or copied from
//! a `&str`.
//!
//! [`chrome_trace`] returns the document; [`write_chrome_trace`] also
//! streams it, a chunk at a time, into an `io::Write` ([`spill`]).

use crate::event::{Event, EventKind, TaskKey};
use std::collections::HashMap;
use std::io::{self, Write};
use tlb_des::SimTime;
use tlb_json::{write_f64, write_i64};

/// Global-track pid used for solver / iteration instants: the `-1` that
/// [`Event::csv_fields`] gives an event with no node.
const GLOBAL_PID: i64 = -1;

/// Bytes a streamed export gathers before it hands them to its writer.
pub const EXPORT_CHUNK: usize = 1 << 16;

/// Called by an exporter after each whole event or row it appended to
/// `out`: with a `sink`, `out` is written into it and emptied once it
/// holds [`EXPORT_CHUNK`] bytes; without one, `out` is the whole
/// document and keeps growing.
#[inline]
pub fn spill(out: &mut Vec<u8>, sink: &mut Option<&mut dyn Write>) -> io::Result<()> {
    if let Some(sink) = sink {
        if out.len() >= EXPORT_CHUNK {
            sink.write_all(out)?;
            out.clear();
        }
    }
    Ok(())
}

/// The byte writer an event is appended through. Each method appends
/// one fragment and returns the writer, so an event reads as the text
/// it writes.
struct Out<'a>(&'a mut Vec<u8>);

impl Out<'_> {
    /// A fixed fragment of the format.
    #[inline]
    fn lit(&mut self, fragment: &'static str) -> &mut Self {
        self.0.extend_from_slice(fragment.as_bytes());
        self
    }

    /// A name the format quotes but never escapes: every name written is
    /// a plain identifier (an event kind, a reason, a key).
    #[inline]
    fn name(&mut self, name: &str) -> &mut Self {
        debug_assert!(name.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'));
        self.0.extend_from_slice(name.as_bytes());
        self
    }

    #[inline]
    fn int(&mut self, v: impl Into<i64>) -> &mut Self {
        write_i64(self.0, v.into());
        self
    }

    #[inline]
    fn float(&mut self, v: f64) -> &mut Self {
        write_f64(self.0, v);
        self
    }

    #[inline]
    fn micros(&mut self, t: SimTime) -> &mut Self {
        micros(self.0, t);
        self
    }

    fn bool(&mut self, v: bool) -> &mut Self {
        self.lit(if v { "true" } else { "false" })
    }

    /// `[a,b,...]`, each item written by `each`.
    fn array<T: Copy>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, T)) -> &mut Self {
        self.lit("[");
        for (i, &item) in items.iter().enumerate() {
            if i > 0 {
                self.lit(",");
            }
            each(self, item);
        }
        self.lit("]")
    }

    fn counts(&mut self, vs: &[usize]) -> &mut Self {
        self.array(vs, |out, v| {
            out.int(v as i64);
        })
    }

    fn floats(&mut self, vs: &[f64]) -> &mut Self {
        self.array(vs, |out, v| {
            out.float(v);
        })
    }

    /// `"iteration":I,"apprank":A,"task":T`, the fields that identify a
    /// task.
    #[inline]
    fn task(&mut self, key: &TaskKey) -> &mut Self {
        self.lit(r#""iteration":"#)
            .int(key.iteration)
            .lit(r#","apprank":"#)
            .int(key.apprank)
            .lit(r#","task":"#)
            .int(key.task)
    }
}

/// Append `t` in the format's microseconds, as `write_f64` would write
/// `nanos as f64 / 1000.0`, from the integer: `q.rrr`, trailing zeros
/// trimmed down to `q.0`. Equal below 10^15 ns (see the module doc);
/// from there on a few values in a hundred differ, so the float form it
/// is.
#[inline]
fn micros(out: &mut Vec<u8>, t: SimTime) {
    let nanos = t.as_nanos();
    if nanos >= 10u64.pow(15) {
        write_f64(out, nanos as f64 / 1000.0);
        return;
    }
    write_i64(out, (nanos / 1000) as i64);
    let r = nanos % 1000;
    let frac = [
        b'.',
        b'0' + (r / 100) as u8,
        b'0' + (r / 10 % 10) as u8,
        b'0' + (r % 10) as u8,
    ];
    let kept = if frac[3] != b'0' {
        4
    } else if frac[2] != b'0' {
        3
    } else {
        2
    };
    out.extend_from_slice(&frac[..kept]);
}

/// Write the `args` payload of the instant that `kind` exports as.
fn write_args(a: &mut Out, kind: &EventKind) {
    match kind {
        // Exported as paired "X" slices, never as instants.
        EventKind::TaskStarted { .. } | EventKind::TaskCompleted { .. } => a,
        EventKind::TaskCreated { key, cost } => a.task(key).lit(r#","cost_s":"#).float(*cost),
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
            .lit(r#","reason":""#)
            .name(reason.name())
            .lit(r#"","chosen_node":"#)
            .int(*chosen_node)
            .lit(r#","home_queued":"#)
            .int(*home_queued)
            .lit(r#","home_owned":"#)
            .int(*home_owned)
            .lit(r#","chosen_queued":"#)
            .int(*chosen_queued)
            .lit(r#","chosen_owned":"#)
            .int(*chosen_owned),
        EventKind::TaskOffloaded {
            key,
            from_node,
            to_node,
            stolen,
        } => a
            .task(key)
            .lit(r#","from_node":"#)
            .int(*from_node)
            .lit(r#","to_node":"#)
            .int(*to_node)
            .lit(r#","stolen":"#)
            .bool(*stolen),
        EventKind::LewiBorrow { core, owner, .. } => a
            .lit(r#""core":"#)
            .int(*core)
            .lit(r#","owner":"#)
            .int(*owner),
        EventKind::LewiReclaim { core, borrower, .. } => a
            .lit(r#""core":"#)
            .int(*core)
            .lit(r#","borrower":"#)
            .int(*borrower),
        EventKind::DromTransfer { core, from, .. } => {
            a.lit(r#""core":"#).int(*core).lit(r#","from":"#).int(*from)
        }
        EventKind::DromOwnership { counts, .. } => a.lit(r#""counts":"#).counts(counts),
        EventKind::TalpWindow { busy, .. } => a.lit(r#""busy_cores":"#).floats(busy),
        EventKind::SolverInvoked(rec) => a
            .lit(r#""demand":"#)
            .floats(&rec.demand)
            .lit(r#","cores":"#)
            .counts(&rec.cores)
            .lit(r#","simplex_iterations":"#)
            .int(rec.simplex_iterations as i64)
            .lit(r#","objective":"#)
            .float(rec.objective)
            .lit(r#","modelled_cost_us":"#)
            .micros(rec.modelled_cost),
        EventKind::HelperSpawned { apprank, .. } => a.lit(r#""apprank":"#).int(*apprank),
        EventKind::IterationEnd { iteration } => a.lit(r#""iteration":"#).int(*iteration),
        EventKind::StragglerStart { factor, .. } => a.lit(r#""factor":"#).float(*factor),
        EventKind::StragglerEnd { .. } => a,
        EventKind::WorkerKilled {
            apprank, requeued, ..
        } => a
            .lit(r#""apprank":"#)
            .int(*apprank)
            .lit(r#","requeued":"#)
            .int(*requeued),
        EventKind::MessageDropped { key, attempt, .. } => {
            a.task(key).lit(r#","attempt":"#).int(*attempt)
        }
        EventKind::MessageFailover { key, attempts, .. } => {
            a.task(key).lit(r#","attempts":"#).int(*attempts)
        }
        EventKind::SolverOutage { active } => a.lit(r#""active":"#).bool(*active),
        EventKind::SolverFallback { reason } => {
            a.lit(r#""reason":""#).name(reason.name()).lit(r#"""#)
        }
    };
}

/// The Chrome trace-event JSON document for `events` (which must come in
/// the canonical merged order, as [`TraceLog::iter`](crate::TraceLog::iter)
/// yields them), serialised compactly — the canonical on-disk form used
/// by the bitwise-identity checks. `worker_apprank[node][proc]` labels
/// the per-worker tracks; it may be empty, in which case only the events
/// themselves are emitted.
pub fn chrome_trace<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    worker_apprank: &[Vec<usize>],
) -> Vec<u8> {
    let events = events.into_iter();
    // One reservation: `trace.chrome_bytes_per_event` is 136 in the ledger
    // (a start and an end share one slice), an instant runs to 250.
    let mut out = Vec::with_capacity(32 + events.size_hint().0 * 144);
    write_chrome_trace(events, worker_apprank, &mut out, None)
        .expect("appending to memory cannot fail");
    out
}

/// Append [`chrome_trace`]'s document to `out`, handing it to `sink`
/// chunk by chunk if there is one ([`spill`]); the bytes left in `out`
/// at the end are the document's tail, which the caller writes.
pub fn write_chrome_trace<'a>(
    events: impl IntoIterator<Item = &'a Event>,
    worker_apprank: &[Vec<usize>],
    out: &mut Vec<u8>,
    mut sink: Option<&mut dyn Write>,
) -> io::Result<()> {
    out.extend_from_slice(br#"{"traceEvents":["#);
    // Every event but the first opens with the comma that separates it
    // from the one before.
    let mut sep = "{";
    // Track metadata first: one process per node plus the global track.
    if !worker_apprank.is_empty() {
        Out(out)
            .lit(sep)
            .lit(r#""name":"process_name","ph":"M","pid":"#)
            .int(GLOBAL_PID)
            .lit(r#","args":{"name":"global"}}"#);
        sep = ",{";
        for (node, workers) in worker_apprank.iter().enumerate() {
            Out(out)
                .lit(sep)
                .lit(r#""name":"process_name","ph":"M","pid":"#)
                .int(node as i64)
                .lit(r#","args":{"name":"node "#)
                .int(node as i64)
                .lit(r#""}}"#);
            for (proc, &apprank) in workers.iter().enumerate() {
                Out(out)
                    .lit(r#",{"name":"thread_name","ph":"M","pid":"#)
                    .int(node as i64)
                    .lit(r#","tid":"#)
                    .int(proc as i64)
                    .lit(r#","args":{"name":"proc "#)
                    .int(proc as i64)
                    .lit(" (apprank ")
                    .int(apprank as i64)
                    .lit(r#")"}}"#);
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
                continue;
            }
            EventKind::TaskCompleted { key, node, proc } => {
                let (start, snode, sproc, stolen) =
                    open.remove(key).unwrap_or((ev.at, *node, *proc, false));
                debug_assert_eq!((snode, sproc), (*node, *proc));
                Out(out)
                    .lit(sep)
                    .lit(r#""name":"a"#)
                    .int(key.apprank)
                    .lit(".i")
                    .int(key.iteration)
                    .lit(".t")
                    .int(key.task)
                    .lit(r#"","ph":"X","ts":"#)
                    .micros(start)
                    .lit(r#","dur":"#)
                    .micros(ev.at.saturating_sub(start))
                    .lit(r#","pid":"#)
                    .int(*node)
                    .lit(r#","tid":"#)
                    .int(*proc)
                    .lit(r#","args":{"#)
                    .task(key)
                    .lit(r#","stolen":"#)
                    .bool(stolen)
                    .lit("}}");
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
                let mut a = Out(out);
                a.lit(sep)
                    .lit(r#""name":""#)
                    .name(name)
                    .lit(r#"","ph":"i","ts":"#)
                    .micros(ev.at)
                    .lit(r#","pid":"#)
                    .int(pid)
                    .lit(r#","tid":"#)
                    .int(proc.max(0))
                    .lit(r#","s":"t","args":{"#);
                write_args(&mut a, kind);
                a.lit("}}");
            }
        }
        sep = ",{";
        spill(out, &mut sink)?;
    }
    out.extend_from_slice(b"]}");
    Ok(())
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

    fn text(log: &TraceLog, worker_apprank: &[Vec<usize>]) -> String {
        String::from_utf8(chrome_trace(log.iter(), worker_apprank)).expect("chrome trace is UTF-8")
    }

    fn parsed(log: &TraceLog, worker_apprank: &[Vec<usize>]) -> Value {
        tlb_json::parse(&text(log, worker_apprank)).expect("chrome trace must be valid JSON")
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
        let text = text(&every_kind_log(), &[vec![0, 1], vec![1]]);
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
        let (mut out, mut reference) = (Vec::new(), Vec::new());
        for nanos in cases {
            out.clear();
            reference.clear();
            micros(&mut out, SimTime::from_nanos(nanos));
            write_f64(&mut reference, nanos as f64 / 1000.0);
            assert_eq!(out, reference, "{nanos} ns");
        }
    }

    #[test]
    fn output_parses_and_is_stable() {
        let log = every_kind_log();
        let a = chrome_trace(log.iter(), &[vec![0, 1]]);
        let b = chrome_trace(&log.merged(), &[vec![0, 1]]);
        assert_eq!(a, b);
        assert!(parsed(&log, &[]).get("traceEvents").as_array().is_some());
    }
}
