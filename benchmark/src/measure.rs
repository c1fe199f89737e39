//! The timed loop every workload shares, and the reduction of its
//! samples to the end-to-end figures.

use std::time::Instant;

use crate::spans::{Recorder, Span};
use crate::stats::{self, Op, Rank, SLICE_S};

/// Samples of one closed loop (one thread's, or several merged).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Every completed operation, in start order.
    pub ops: Vec<Op>,
    /// Whether the harness recorded spans around that operation.
    pub traced: Vec<bool>,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Samples {
    /// Operations attempted: completed plus failed.
    pub fn attempted(&self) -> u64 {
        (self.ops.len() + self.failures.len()) as u64
    }

    /// Merge per-client samples into one start-ordered set.
    pub fn merge(parts: Vec<Samples>) -> Samples {
        let mut rows: Vec<(Op, bool)> = Vec::new();
        let mut failures = Vec::new();
        for part in parts {
            rows.extend(part.ops.into_iter().zip(part.traced));
            failures.extend(part.failures);
        }
        rows.sort_by(|a, b| {
            a.0.start_s
                .partial_cmp(&b.0.start_s)
                .expect("timings are never NaN")
        });
        let (ops, traced) = rows.into_iter().unzip();
        Samples {
            ops,
            traced,
            failures,
        }
    }

    /// The samples for which `keep(index)` holds (warm-only, cold-only).
    pub fn filter(&self, keep: impl Fn(usize) -> bool) -> Samples {
        let idx: Vec<usize> = (0..self.ops.len()).filter(|&i| keep(i)).collect();
        Samples {
            ops: idx.iter().map(|&i| self.ops[i]).collect(),
            traced: idx.iter().map(|&i| self.traced[i]).collect(),
            failures: Vec::new(),
        }
    }
}

/// Run `op` back to back (a closed loop: the next starts when the last
/// returns) until `seconds` have passed since `origin` and at least
/// `min_ops` completed. `op` is told whether to record harness spans
/// for this repetition and returns the seconds it measured for itself,
/// so untimed preparation (cloning an input) stays out of the figure.
///
/// With `rec` enabled every second operation records spans; the others
/// run bare, and the difference is the harness's own tracing overhead.
pub fn run_for(
    rec: &Recorder,
    origin: Instant,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(bool) -> Result<f64, String>,
) -> Samples {
    let mut out = Samples::default();
    let mut n = 0usize;
    loop {
        let start_s = origin.elapsed().as_secs_f64();
        if start_s >= seconds && out.ops.len() >= min_ops {
            break;
        }
        // A loop that only fails must still end.
        if start_s >= seconds && n >= min_ops.max(1) * 4 {
            break;
        }
        let record = rec.enabled() && n.is_multiple_of(2);
        n += 1;
        match op(record) {
            Ok(dur_s) => {
                out.ops.push(Op { start_s, dur_s });
                out.traced.push(record);
            }
            Err(message) => out.failures.push(message),
        }
    }
    out
}

/// The end-to-end figures of one loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median latency over the quiet slices, milliseconds.
    pub p50_ms: f64,
    /// Work units per second over the quiet slices.
    pub per_s: f64,
    /// Operations in the quiet slices.
    pub kept: usize,
    /// Median of all operations over the quiet median (1.0 = quiet).
    pub noise_ratio: f64,
}

/// Reduce a closed loop of `clients` connections, each operation worth
/// `units` work units (points of a sweep pass, 1 for a submission).
///
/// Latency is the median over the slices with the quietest medians.
/// Throughput is taken over the slices with the lowest *mean* latency
/// (the busiest slices) as `clients × kept × units ÷ Σ kept latencies`:
/// with zero think time each client completes one operation per
/// latency, and the formula needs no slice-boundary bookkeeping.
pub fn summarize(samples: &Samples, clients: usize, units: f64) -> Summary {
    let kept = stats::quiet_durations(&samples.ops, SLICE_S);
    let busiest = stats::quiet_ops(&samples.ops, SLICE_S, Rank::Mean);
    let busy: f64 = busiest.iter().map(|&i| samples.ops[i].dur_s).sum();
    Summary {
        p50_ms: stats::median(&kept) * 1e3,
        per_s: if busy > 0.0 {
            clients as f64 * busiest.len() as f64 * units / busy
        } else {
            0.0
        },
        kept: kept.len(),
        noise_ratio: stats::host_noise_ratio(&samples.ops, SLICE_S),
    }
}

/// Latency quantile `q` over the quiet slices, milliseconds.
pub fn quiet_quantile_ms(samples: &Samples, q: f64) -> f64 {
    let kept = stats::sorted(&stats::quiet_durations(&samples.ops, SLICE_S));
    stats::quantile(&kept, q) * 1e3
}

/// Harness tracing overhead in percent: each operation that recorded
/// spans against the bare operation right after it (they alternate, so
/// a pair shares host conditions); the median of the pair ratios.
pub fn trace_overhead_pct(samples: &Samples) -> f64 {
    let ratios: Vec<f64> = samples
        .ops
        .windows(2)
        .zip(samples.traced.windows(2))
        .filter(|(ops, traced)| traced[0] && !traced[1] && ops[1].dur_s > 0.0)
        .map(|(ops, _)| ops[0].dur_s / ops[1].dur_s)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        100.0 * (stats::median(&ratios) - 1.0)
    }
}

/// Quiet median, in seconds, of the spans called `name`.
pub fn span_median_s(spans: &[Span], name: &str) -> f64 {
    let ops: Vec<Op> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| Op {
            start_s: s.start_s,
            dur_s: s.end_s - s.start_s,
        })
        .collect();
    stats::quiet_median(&ops, SLICE_S)
}

/// Timings of a workload's set-up, taken at several moments of the run.
///
/// A set-up phase lasts well under a second, and the host's slow periods
/// last several: timed only at the start, all repetitions land in one
/// mode and `setup_s` reads 1.45× too high on one run in four. So the
/// set-up is repeated before the measured phase ([`Setups::repeat`]) and
/// again during or after it ([`Setups::time`]), and the quietest fifth of
/// all the repetitions is kept, as for any other latency.
#[derive(Debug, Default)]
pub struct Setups {
    ops: Vec<Op>,
}

impl Setups {
    /// No repetitions yet.
    pub fn new() -> Self {
        Setups::default()
    }

    /// Time one repetition of the set-up and hand back its product.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let product = setup();
        self.ops.push(Op {
            // Every repetition is a slice of its own (see `quiet_s`).
            start_s: self.ops.len() as f64,
            dur_s: start.elapsed().as_secs_f64(),
        });
        product
    }

    /// Repeat the set-up at least `min_times`, then until half a second
    /// has gone into it (at most 200 times): a millisecond set-up is
    /// repeated until the figure is steady, a slow one no more than it
    /// must be. Each product is dropped before the next repetition is
    /// timed; the last is handed back for the measured phase.
    pub fn repeat<T>(&mut self, min_times: usize, mut setup: impl FnMut() -> T) -> T {
        let began = Instant::now();
        let mut last = None;
        let mut n = 0;
        while n < min_times.max(1) || (began.elapsed().as_secs_f64() < 0.5 && n < 200) {
            drop(last.take());
            last = Some(self.time(&mut setup));
            n += 1;
        }
        last.expect("at least one set-up ran")
    }

    /// `setup_s`: the median over the quietest fifth of the repetitions.
    pub fn quiet_s(&self) -> f64 {
        stats::quiet_median(&self.ops, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_runs_min_ops_alternates_tracing_and_counts_failures() {
        let rec = Recorder::new(true);
        let mut calls = 0;
        let s = run_for(&rec, Instant::now(), 0.0, 6, |record| {
            calls += 1;
            assert_eq!(record, (calls - 1) % 2 == 0);
            if calls == 2 {
                Err("boom".into())
            } else {
                Ok(0.001)
            }
        });
        assert_eq!(s.ops.len(), 6);
        assert_eq!(s.failures, vec!["boom".to_string()]);
        assert_eq!(s.attempted(), 7);
        let off = Recorder::new(false);
        let s = run_for(&off, Instant::now(), 0.0, 3, |record| {
            assert!(!record);
            Ok(0.001)
        });
        assert!(s.traced.iter().all(|t| !t));
    }

    #[test]
    fn a_loop_that_only_fails_still_ends() {
        let rec = Recorder::new(false);
        let s = run_for(&rec, Instant::now(), 0.0, 3, |_| Err("no".into()));
        assert!(s.ops.is_empty());
        assert_eq!(s.failures.len(), 12);
    }

    #[test]
    fn closed_loop_throughput_scales_with_clients_and_units() {
        let ops: Vec<Op> = (0..30)
            .map(|i| Op {
                start_s: i as f64 * 0.1,
                dur_s: 0.1,
            })
            .collect();
        let s = Samples {
            traced: vec![false; ops.len()],
            ops,
            failures: vec![],
        };
        let one = summarize(&s, 1, 1.0);
        assert!((one.p50_ms - 100.0).abs() < 1e-9);
        assert!((one.per_s - 10.0).abs() < 1e-9);
        assert!((summarize(&s, 2, 25.0).per_s - 500.0).abs() < 1e-6);
        assert_eq!(one.kept, 10);
        assert!((one.noise_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn setup_repeats_and_keeps_the_last_product() {
        let mut setups = Setups::new();
        let mut n = 0;
        let last = setups.repeat(5, || {
            n += 1;
            n
        });
        assert_eq!(last, 200, "a trivial set-up repeats to the cap");
        let mut slow = 0;
        let last = setups.repeat(2, || {
            std::thread::sleep(std::time::Duration::from_millis(300));
            slow += 1;
            slow
        });
        assert_eq!(last, 2, "a slow set-up stops at its minimum");
        // 202 repetitions, 41 kept: all of them the trivial kind.
        assert!(setups.quiet_s() < 0.1);
        assert_eq!(setups.time(|| 7), 7);
    }

    #[test]
    fn overhead_is_the_median_ratio_of_adjacent_pairs() {
        // traced, bare, traced, bare ...: traced ops 2 % slower.
        let ops: Vec<Op> = (0..20)
            .map(|i| Op {
                start_s: i as f64,
                dur_s: if i % 2 == 0 { 1.02 } else { 1.0 },
            })
            .collect();
        let s = Samples {
            traced: (0..20).map(|i| i % 2 == 0).collect(),
            ops,
            failures: vec![],
        };
        assert!((trace_overhead_pct(&s) - 2.0).abs() < 1e-9);
        assert_eq!(trace_overhead_pct(&Samples::default()), 0.0);
    }
}
