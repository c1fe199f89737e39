//! Trace export and post-processing: CSV for external plotting, and the
//! derived statistics (utilisation, offload breakdown) the paper reads
//! off its Paraver timelines.

use crate::Trace;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use tlb_des::SimTime;

/// Export every worker timeline as long-format CSV:
/// `kind,node,proc,apprank,time_s,value` — one row per sample, directly
/// loadable by pandas/R/gnuplot.
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut out = String::from("kind,node,proc,apprank,time_s,value\n");
    let mut emit =
        |kind: &str, node: usize, proc: usize, apprank: usize, tl: &tlb_des::Timeline| {
            for s in tl.samples() {
                let _ = writeln!(
                    out,
                    "{kind},{node},{proc},{apprank},{:.9},{}",
                    s.at.as_secs_f64(),
                    s.value
                );
            }
        };
    for (node, workers) in trace.busy.iter().enumerate() {
        for (proc, tl) in workers.iter().enumerate() {
            emit("busy", node, proc, trace.worker_apprank[node][proc], tl);
        }
    }
    for (node, workers) in trace.owned.iter().enumerate() {
        for (proc, tl) in workers.iter().enumerate() {
            emit("owned", node, proc, trace.worker_apprank[node][proc], tl);
        }
    }
    // Fields that do not apply to a row carry a `-1` sentinel rather than
    // an empty string, so numeric CSV readers never see mixed dtypes.
    for (node, tl) in trace.node_busy.iter().enumerate() {
        for s in tl.samples() {
            let _ = writeln!(
                out,
                "node_busy,{node},-1,-1,{:.9},{}",
                s.at.as_secs_f64(),
                s.value
            );
        }
    }
    for (i, t) in trace.iteration_ends.iter().enumerate() {
        let _ = writeln!(out, "iteration_end,-1,-1,-1,{:.9},{i}", t.as_secs_f64());
    }
    for ev in trace.log.iter() {
        let (kind, node, proc, apprank, value) = ev.csv_fields();
        let _ = writeln!(
            out,
            "{kind},{node},{proc},{apprank},{:.9},{value}",
            ev.at.as_secs_f64()
        );
    }
    out
}

/// Export the structured event log as Chrome trace-event JSON (one
/// process track per node, one thread per worker; loadable in Perfetto
/// or `chrome://tracing`).
pub fn trace_to_chrome(trace: &Trace) -> String {
    tlb_trace::chrome_trace_string(trace.log.iter(), &trace.worker_apprank)
}

/// Write [`trace_to_chrome`] to a file.
pub fn save_trace_chrome(trace: &Trace, path: &Path) -> io::Result<()> {
    std::fs::write(path, trace_to_chrome(trace))
}

/// Write [`trace_to_csv`] to a file.
pub fn save_trace_csv(trace: &Trace, path: &Path) -> io::Result<()> {
    std::fs::write(path, trace_to_csv(trace))
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

    #[test]
    fn csv_has_all_kinds_and_parses() {
        let t = sample_trace();
        let csv = trace_to_csv(&t);
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

    fn push_task_pair(t: &mut Trace) {
        use tlb_trace::{EventKind, TaskKey, TraceLog};
        let key = TaskKey {
            iteration: 0,
            apprank: 0,
            task: 3,
        };
        t.log.push(
            TraceLog::node_stream(0),
            SimTime::ZERO,
            EventKind::TaskStarted {
                key,
                node: 0,
                proc: 0,
                stolen: false,
            },
        );
        t.log.push(
            TraceLog::node_stream(0),
            SimTime::from_secs(1),
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
        let csv = trace_to_csv(&t);
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
        let s = trace_to_chrome(&t);
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
        // Disk round-trip is byte-identical.
        let dir = std::env::temp_dir().join("tlb_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        save_trace_chrome(&t, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), s);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disabled_trace_exports_headers_only() {
        let g = generate_circulant(&ExpanderConfig::new(2, 2, 2), &[1]).unwrap();
        let layout = ProcessLayout::new(&g, 4);
        let t = Trace::new(&layout, None);
        assert_eq!(trace_to_csv(&t), "kind,node,proc,apprank,time_s,value\n");
        let doc = tlb_json::parse(&trace_to_chrome(&t)).unwrap();
        let events = doc.get("traceEvents").as_array().unwrap();
        assert!(!events.is_empty(), "track metadata still present");
        for e in events {
            assert_eq!(e.get("ph").as_str(), Some("M"), "non-metadata event");
        }
    }

    #[test]
    fn csv_roundtrip_to_disk() {
        let t = sample_trace();
        let dir = std::env::temp_dir().join("tlb_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        save_trace_csv(&t, &path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, trace_to_csv(&t));
        std::fs::remove_file(&path).ok();
    }
}
