//! Trace export and post-processing: CSV for external plotting, and the
//! derived statistics (utilisation, offload breakdown) the paper reads
//! off its Paraver timelines.

use crate::Trace;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use tlb_des::SimTime;
use tlb_json::write_i64;
use tlb_trace::{spill, EXPORT_CHUNK};

/// Append `t` in seconds as `{:.9}` of [`SimTime::as_secs_f64`] prints
/// it, from the integer: the seconds, a point, nine zero-padded digits.
/// Below 2^52 ns the double is off by under half a unit of the ninth
/// decimal, so `{:.9}` rounds it back to exactly these digits; from
/// there on the `fmt` form it is.
#[inline]
fn write_secs(out: &mut Vec<u8>, t: SimTime) {
    let nanos = t.as_nanos();
    if nanos >= 1 << 52 {
        write!(out, "{:.9}", t.as_secs_f64()).expect("writing into a Vec cannot fail");
        return;
    }
    write_i64(out, (nanos / 1_000_000_000) as i64);
    let (mut frac, mut r) = (*b".000000000", nanos % 1_000_000_000);
    for digit in frac[1..].iter_mut().rev() {
        *digit += (r % 10) as u8;
        r /= 10;
    }
    out.extend_from_slice(&frac);
}

/// Append `v` as `{}` prints an `f64`. The values of a trace are mostly
/// counts, and an integral double below 2^53 prints as that integer
/// (`-0.0` as `-0`); anything else goes through `fmt`.
#[inline]
fn write_value(out: &mut Vec<u8>, v: f64) {
    if v.fract() == 0.0 && v.abs() < (1u64 << 53) as f64 {
        if v.is_sign_negative() {
            out.push(b'-');
        }
        write_i64(out, v.abs() as i64);
    } else {
        write!(out, "{v}").expect("writing into a Vec cannot fail");
    }
}

/// One row `kind,node,proc,apprank,time_s,value`.
#[inline]
fn write_row(out: &mut Vec<u8>, kind: &str, ids: [i64; 3], at: SimTime, value: f64) {
    out.extend_from_slice(kind.as_bytes());
    for id in ids {
        out.push(b',');
        write_i64(out, id);
    }
    out.push(b',');
    write_secs(out, at);
    out.push(b',');
    write_value(out, value);
    out.push(b'\n');
}

/// Append [`trace_to_csv`]'s rows to `out`, handing them to `sink`
/// chunk by chunk if there is one ([`spill`]).
fn write_csv(trace: &Trace, out: &mut Vec<u8>, mut sink: Option<&mut dyn Write>) -> io::Result<()> {
    out.extend_from_slice(b"kind,node,proc,apprank,time_s,value\n");
    for (kind, timelines) in [("busy", &trace.busy), ("owned", &trace.owned)] {
        for (node, workers) in timelines.iter().enumerate() {
            for (proc, tl) in workers.iter().enumerate() {
                let apprank = trace.worker_apprank[node][proc];
                let ids = [node as i64, proc as i64, apprank as i64];
                for s in tl.samples() {
                    write_row(out, kind, ids, s.at, s.value);
                    spill(out, &mut sink)?;
                }
            }
        }
    }
    // Fields that do not apply to a row carry a `-1` sentinel rather than
    // an empty string, so numeric CSV readers never see mixed dtypes.
    for (node, tl) in trace.node_busy.iter().enumerate() {
        for s in tl.samples() {
            write_row(out, "node_busy", [node as i64, -1, -1], s.at, s.value);
            spill(out, &mut sink)?;
        }
    }
    for (i, t) in trace.iteration_ends.iter().enumerate() {
        write_row(out, "iteration_end", [-1; 3], *t, i as f64);
        spill(out, &mut sink)?;
    }
    for ev in trace.log.iter() {
        let (kind, node, proc, apprank, value) = ev.csv_fields();
        write_row(out, kind, [node, proc, apprank], ev.at, value);
        spill(out, &mut sink)?;
    }
    Ok(())
}

/// Export every worker timeline as long-format CSV:
/// `kind,node,proc,apprank,time_s,value` — one row per sample, directly
/// loadable by pandas/R/gnuplot. The bytes are ASCII.
pub fn trace_to_csv(trace: &Trace) -> Vec<u8> {
    let workers = trace.busy.iter().chain(&trace.owned).flatten();
    let samples = workers.chain(&trace.node_busy).map(|tl| tl.samples().len());
    let rows = samples.sum::<usize>() + trace.iteration_ends.len() + trace.log.len();
    // One reservation: a row is a kind name, three small ids, a time and
    // a value, 40 bytes or so.
    let mut out = Vec::with_capacity(64 + rows * 48);
    write_csv(trace, &mut out, None).expect("appending to memory cannot fail");
    out
}

/// Export the structured event log as Chrome trace-event JSON (one
/// process track per node, one thread per worker; loadable in Perfetto
/// or `chrome://tracing`). The bytes are UTF-8 JSON text.
pub fn trace_to_chrome(trace: &Trace) -> Vec<u8> {
    tlb_trace::chrome_trace(trace.log.iter(), &trace.worker_apprank)
}

/// Create `path` and stream into it what `write` appends to its buffer,
/// which never holds more than a chunk and a row or event beyond it.
fn save(
    path: &Path,
    write: impl FnOnce(&mut Vec<u8>, Option<&mut dyn Write>) -> io::Result<()>,
) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    let mut buf = Vec::with_capacity(2 * EXPORT_CHUNK);
    write(&mut buf, Some(&mut file))?;
    file.write_all(&buf)?;
    file.flush()
}

/// Write [`trace_to_chrome`]'s bytes to a file, a chunk at a time.
pub fn save_trace_chrome(trace: &Trace, path: &Path) -> io::Result<()> {
    save(path, |buf, sink| {
        tlb_trace::write_chrome_trace(trace.log.iter(), &trace.worker_apprank, buf, sink)
    })
}

/// Write [`trace_to_csv`]'s bytes to a file, a chunk at a time.
pub fn save_trace_csv(trace: &Trace, path: &Path) -> io::Result<()> {
    save(path, |buf, sink| write_csv(trace, buf, sink))
}

/// How much work (core·seconds) each apprank executed on each node over a
/// window — the quantitative version of the paper's coloured trace bands,
/// and the source of the "executed away from home" numbers.
pub fn work_matrix(trace: &Trace, from: SimTime, to: SimTime, appranks: usize) -> Vec<Vec<f64>> {
    let nodes = trace.busy.len();
    let mut matrix = vec![vec![0.0; nodes]; appranks];
    for (node, workers) in trace.busy.iter().enumerate() {
        for (proc, tl) in workers.iter().enumerate() {
            let apprank = trace.worker_apprank[node][proc];
            if apprank < appranks {
                matrix[apprank][node] += tl.integral(from, to);
            }
        }
    }
    matrix
}

/// Fraction of total executed work that ran away from each apprank's home
/// node, given the home mapping (`home[a]` = apprank a's home node).
pub fn away_fraction(matrix: &[Vec<f64>], home: &[usize]) -> f64 {
    let mut total = 0.0;
    let mut away = 0.0;
    for (a, row) in matrix.iter().enumerate() {
        for (n, w) in row.iter().enumerate() {
            total += w;
            if n != home[a] {
                away += w;
            }
        }
    }
    if total <= 0.0 {
        0.0
    } else {
        away / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_core::ProcessLayout;
    use tlb_expander::{generate_circulant, ExpanderConfig};

    fn sample_trace() -> Trace {
        let g = generate_circulant(&ExpanderConfig::new(2, 2, 2), &[1]).unwrap();
        let layout = ProcessLayout::new(&g, 4);
        let mut t = Trace::new(&layout, Some(tlb_trace::TraceConfig::all()));
        // Node 0: apprank 0 busy on 3 cores for 2 s, apprank 1's helper 1
        // core for 1 s.
        t.record_busy(SimTime::ZERO, 0, 0, 3);
        t.record_busy(SimTime::ZERO, 0, 1, 1);
        t.record_busy(SimTime::from_secs(1), 0, 1, 0);
        t.record_busy(SimTime::from_secs(2), 0, 0, 0);
        t.record_node_busy(SimTime::ZERO, 0, 4);
        t.record_node_busy(SimTime::from_secs(1), 0, 3);
        t.record_node_busy(SimTime::from_secs(2), 0, 0);
        t.record_node_busy(SimTime::ZERO, 1, 0);
        t.record_owned(SimTime::ZERO, 0, 0, 3);
        t.record_owned(SimTime::ZERO, 0, 1, 1);
        t.mark_iteration_end(SimTime::from_secs(2));
        t
    }

    fn csv_text(t: &Trace) -> String {
        String::from_utf8(trace_to_csv(t)).expect("CSV export is ASCII")
    }

    fn chrome_text(t: &Trace) -> String {
        String::from_utf8(trace_to_chrome(t)).expect("Chrome export is UTF-8")
    }

    #[test]
    fn csv_has_all_kinds_and_parses() {
        let t = sample_trace();
        let csv = csv_text(&t);
        assert!(csv.starts_with("kind,node,proc,apprank,time_s,value"));
        for kind in ["busy,", "owned,", "node_busy,", "iteration_end,"] {
            assert!(csv.contains(kind), "missing {kind} rows");
        }
        // Every data row has 6 comma-separated fields.
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 6, "bad row: {line}");
        }
    }

    #[test]
    fn work_matrix_and_away_fraction() {
        let t = sample_trace();
        let m = work_matrix(&t, SimTime::ZERO, SimTime::from_secs(2), 2);
        // Apprank 0 did 6 core·s on node 0 (home); apprank 1 did 1 core·s
        // on node 0 (away from its home node 1).
        assert!((m[0][0] - 6.0).abs() < 1e-9);
        assert!((m[1][0] - 1.0).abs() < 1e-9);
        let away = away_fraction(&m, &[0, 1]);
        assert!((away - 1.0 / 7.0).abs() < 1e-9, "away {away}");
    }

    #[test]
    fn away_fraction_empty_is_zero() {
        assert_eq!(away_fraction(&[vec![0.0, 0.0]], &[0]), 0.0);
    }

    /// The two number writers of a CSV row against the `fmt` forms they
    /// replaced, on both sides of each one's fallback bound.
    #[test]
    fn csv_numbers_match_the_fmt_forms() {
        let mut rng = tlb_rng::Rng::seed_from_u64(24);
        let mut times: Vec<u64> = (0..2_000)
            .chain((1 << 52) - 1_000..(1 << 52) + 1_000)
            .collect();
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.75,
            1e300,
            f64::NAN,
            f64::INFINITY,
        ];
        values.extend([-1.0, 0.0, 1.0, 2.0].map(|d| (1u64 << 53) as f64 + d));
        for exp in 1..20 {
            times.extend(10u64.pow(exp) - 1..=10u64.pow(exp) + 1);
        }
        for _ in 0..50_000 {
            let bits = rng.next_u64();
            times.extend([bits >> 12, bits >> (bits % 64)]);
            let v = f64::from_bits(bits);
            values.extend([v, v.trunc(), (bits as i32) as f64, (bits >> 10) as f64]);
        }
        let mut out = Vec::new();
        for nanos in times {
            out.clear();
            let t = SimTime::from_nanos(nanos);
            write_secs(&mut out, t);
            assert_eq!(
                out,
                format!("{:.9}", t.as_secs_f64()).as_bytes(),
                "{nanos} ns"
            );
        }
        for v in values {
            out.clear();
            write_value(&mut out, v);
            assert_eq!(out, format!("{v}").as_bytes(), "{:#x}", v.to_bits());
        }
    }

    fn push_task_pair(t: &mut Trace) {
        push_task(t, 3, SimTime::ZERO);
    }

    /// Task `task` of apprank 0 runs on worker 0 of node 0 from `at` for
    /// one second.
    fn push_task(t: &mut Trace, task: u32, at: SimTime) {
        use tlb_trace::{EventKind, TaskKey, TraceLog};
        let key = TaskKey {
            iteration: 0,
            apprank: 0,
            task,
        };
        t.log.push(
            TraceLog::node_stream(0),
            at,
            EventKind::TaskStarted {
                key,
                node: 0,
                proc: 0,
                stolen: false,
            },
        );
        t.log.push(
            TraceLog::node_stream(0),
            at + SimTime::from_secs(1),
            EventKind::TaskCompleted {
                key,
                node: 0,
                proc: 0,
            },
        );
    }

    #[test]
    fn csv_uses_sentinels_and_includes_event_rows() {
        let mut t = sample_trace();
        push_task_pair(&mut t);
        let csv = csv_text(&t);
        // Rows without a proc/apprank carry -1, never an empty field.
        assert!(csv.contains("node_busy,0,-1,-1,"), "{csv}");
        assert!(csv.contains("iteration_end,-1,-1,-1,"), "{csv}");
        // Structured events join the same long format.
        assert!(csv.contains("task_started,0,0,0,"), "{csv}");
        assert!(csv.contains("task_completed,0,0,0,"), "{csv}");
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 6, "bad row: {line}");
            assert!(!line.contains(",,"), "empty field in: {line}");
        }
    }

    #[test]
    fn chrome_export_round_trips() {
        let mut t = sample_trace();
        push_task_pair(&mut t);
        let s = chrome_text(&t);
        let doc = tlb_json::parse(&s).expect("chrome export must parse");
        let events = doc.get("traceEvents").as_array().unwrap();
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").as_str() == Some("X"))
            .collect();
        assert_eq!(x.len(), 1, "one complete event per started/completed pair");
        assert_eq!(x[0].get("dur").as_f64(), Some(1_000_000.0));
        // One process_name per node plus the global track.
        let procs = events
            .iter()
            .filter(|e| {
                e.get("ph").as_str() == Some("M") && e.get("name").as_str() == Some("process_name")
            })
            .count();
        assert_eq!(procs, 1 + t.worker_apprank.len());
        // The file is the bytes in memory, on a trace of one chunk and
        // on one of several.
        assert_saved_equals_memory(&t, "trace.json", save_trace_chrome, trace_to_chrome);
        let big = many_tasks();
        assert!(trace_to_chrome(&big).len() > 4 * EXPORT_CHUNK);
        assert_saved_equals_memory(&big, "big.json", save_trace_chrome, trace_to_chrome);
    }

    /// The sample trace plus 3,000 one-second tasks: exports of several
    /// [`EXPORT_CHUNK`]s.
    fn many_tasks() -> Trace {
        let mut t = sample_trace();
        for task in 0..3_000 {
            push_task(&mut t, task, SimTime::from_millis(u64::from(task)));
        }
        t
    }

    /// `save` writes to a file exactly what `to_bytes` returns.
    fn assert_saved_equals_memory(
        t: &Trace,
        file: &str,
        save: fn(&Trace, &Path) -> io::Result<()>,
        to_bytes: fn(&Trace) -> Vec<u8>,
    ) {
        let dir = std::env::temp_dir().join("tlb_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        save(t, &path).unwrap();
        assert!(std::fs::read(&path).unwrap() == to_bytes(t), "{file}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_trace_exports_headers_only() {
        let g = generate_circulant(&ExpanderConfig::new(2, 2, 2), &[1]).unwrap();
        let layout = ProcessLayout::new(&g, 4);
        let t = Trace::new(&layout, None);
        assert_eq!(csv_text(&t), "kind,node,proc,apprank,time_s,value\n");
        let doc = tlb_json::parse(&chrome_text(&t)).unwrap();
        let events = doc.get("traceEvents").as_array().unwrap();
        assert!(!events.is_empty(), "track metadata still present");
        for e in events {
            assert_eq!(e.get("ph").as_str(), Some("M"), "non-metadata event");
        }
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        assert_saved_equals_memory(&sample_trace(), "trace.csv", save_trace_csv, trace_to_csv);
        let big = many_tasks();
        assert!(trace_to_csv(&big).len() > 2 * EXPORT_CHUNK);
        assert_saved_equals_memory(&big, "big.csv", save_trace_csv, trace_to_csv);
    }
}
