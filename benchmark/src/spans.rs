//! Harness spans: intervals the benchmark records around its own calls
//! into the library's public functions. Nothing inside the library is
//! instrumented — a span is two `Instant::now()` calls and a `Vec` push
//! on the harness side — so the per-layer numbers are an outside view.
//!
//! Spans stay in memory while a workload runs and are written to
//! `benchmark/out/spans_<workload>.json` when it ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use tlb_json::Value;

/// Identifier of a recorded span (its index in the recorder).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub usize);

/// One closed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `cluster.execute`.
    pub name: &'static str,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
}

/// Per-name totals derived from a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of that name.
    pub count: u64,
    /// Sum of their durations.
    pub total_s: f64,
    /// Sum of their self times (duration minus the part covered by
    /// child spans).
    pub self_s: f64,
}

/// Collects spans from any thread. Disabled recorders drop everything,
/// which is how the untraced end-to-end pass runs the same code.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the recorder was created.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Record a closed interval; returns its id (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start_s: f64,
        end_s: f64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("a span recorder holder panicked mid-push");
        spans.push(Span {
            name,
            start_s,
            end_s,
            parent,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span recorder holder panicked mid-push")
            .clone()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals (clipped to the span), so overlapping
/// children — two client threads under one load phase — are not
/// subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(SpanId(p)) = span.parent {
            if p < spans.len() {
                let parent = &spans[p];
                let lo = span.start_s.max(parent.start_s);
                let hi = span.end_s.min(parent.end_s);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.end_s - span.start_s - covered).max(0.0)
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_s) in spans.iter().zip(selfs) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_s += span.end_s - span.start_s;
        entry.self_s += self_s;
    }
    out
}

/// The spans file: per-name totals first (what a reader wants), then
/// every span as `[name, start_s, end_s, parent]`.
pub fn to_json(workload: &str, spans: &[Span]) -> Value {
    let totals = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            Value::object(vec![
                ("name", name.into()),
                ("count", t.count.into()),
                ("total_s", t.total_s.into()),
                ("self_s", t.self_s.into()),
            ])
        })
        .collect();
    let rows = spans
        .iter()
        .map(|s| {
            Value::Array(vec![
                s.name.into(),
                s.start_s.into(),
                s.end_s.into(),
                match s.parent {
                    Some(SpanId(p)) => p.into(),
                    None => Value::Null,
                },
            ])
        })
        .collect();
    Value::object(vec![
        ("workload", workload.into()),
        ("by_name", Value::Array(totals)),
        (
            "columns",
            Value::Array(vec![
                "name".into(),
                "start_s".into(),
                "end_s".into(),
                "parent".into(),
            ]),
        ),
        ("spans", Value::Array(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent: parent.map(SpanId),
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = vec![
            span("op", 0.0, 10.0, None),
            span("execute", 1.0, 7.0, Some(0)),
            span("solver", 2.0, 3.0, Some(1)),
            span("export", 7.0, 9.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![2.0, 5.0, 1.0, 2.0]);
        let by = totals_by_name(&spans);
        assert_eq!(by["op"].total_s, 10.0);
        assert_eq!(by["op"].self_s, 2.0);
        assert_eq!(by["execute"].count, 1);
    }

    #[test]
    fn overlapping_children_are_a_union_not_a_sum() {
        // Two client threads under one load phase, overlapping 2..4, and
        // a child that sticks out past the parent's end.
        let spans = vec![
            span("load", 0.0, 6.0, None),
            span("client", 1.0, 4.0, Some(0)),
            span("client", 2.0, 5.0, Some(0)),
            span("client", 5.5, 8.0, Some(0)),
        ];
        let selfs = self_times(&spans);
        // covered: [1,5] ∪ [5.5,6] = 4.5
        assert!((selfs[0] - 1.5).abs() < 1e-12);
        assert_eq!(selfs[1], 3.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.record("x", 0.0, 1.0, None), None);
        assert!(rec.snapshot().is_empty());
        let on = Recorder::new(true);
        let id = on.record("a", 0.0, 1.0, None);
        assert_eq!(id, Some(SpanId(0)));
        on.record("b", 0.2, 0.4, id);
        assert_eq!(on.snapshot()[1].parent, Some(SpanId(0)));
        assert!(on.now_s() >= 0.0);
    }
}
