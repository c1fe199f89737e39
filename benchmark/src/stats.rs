//! Order statistics, and the quiet-slice filter that makes a timing
//! repeat on a host whose speed changes from second to second.
//!
//! The sandbox this ledger was sized on is a 2-vCPU VM with a slow
//! mode: for seconds at a time — sometimes for most of a run — every
//! instruction stream runs 1.45–1.6× slower (a co-tenant on the
//! sibling hardware thread). A plain median over a run then lands in
//! either mode and swings by ±25 % run to run — wider than any
//! regression bound worth having. So a run is cut into slices, the
//! slices are ranked by their median latency, the quietest fifth is
//! kept, and medians / percentiles / throughput are computed over the
//! operations in the kept slices only. On a quiet host the kept fifth
//! is simply a fifth of the run.

/// One timed operation: when it started (seconds since the measured
/// phase began) and how long it took.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Op {
    /// Start, seconds since the phase began.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
}

/// Slice length of the quiet filter, in seconds. Shorter than the
/// host's slow periods (seconds), long enough that a slice of a serve
/// workload holds hundreds of submissions.
pub const SLICE_S: f64 = 0.5;

/// Share of slices kept by the quiet filter.
pub const KEEP_SHARE: f64 = 0.2;

/// Sort ascending; timings are never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Quantile `q` in `[0, 1]` of an ascending slice, by linear
/// interpolation between the two closest ranks (so `q = 0.5` of an even
/// count is the mean of the two middle values). Empty input gives 0.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
        }
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them — the rule the acceptance driver applies to ten run results, so
/// `compare` and the ledger table apply the same one. Fewer than two
/// values give that value three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let scaled = i * (ld + 1);
        let j = (scaled / 4).clamp(1, ld - 1);
        let delta = scaled as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median: the spread
/// the acceptance criteria are written in.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest of p99 / p95 / p90 / p75 / p50 that still has at least
/// ten samples beyond it among `n` samples.
pub fn tail_quantile(n: usize) -> f64 {
    // Whole percents: `n × (1 − 0.9)` is 9.999… in floating point.
    [99usize, 95, 90, 75]
        .into_iter()
        .find(|pct| n * (100 - pct) >= 1000)
        .map_or(0.5, |pct| pct as f64 / 100.0)
}

/// What ranks a slice as quiet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rank {
    /// The median duration of its operations: for latency figures.
    Median,
    /// The mean duration of its operations, which is the inverse of
    /// the slice's throughput: for throughput figures, where a mix of
    /// short and long operations is governed by the long ones.
    Mean,
}

/// Indices of the operations in the quietest [`KEEP_SHARE`] of slices.
///
/// Operations are grouped by `floor(start / slice_s)`; an operation
/// longer than a slice is a group of its own. Groups are ranked by
/// `rank` over the durations of their operations (ties by time order)
/// and the best `ceil(groups × KEEP_SHARE)` are kept.
pub fn quiet_ops(ops: &[Op], slice_s: f64, rank: Rank) -> Vec<usize> {
    let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let slot = (op.start_s / slice_s).floor().max(0.0) as u64;
        match groups.last_mut() {
            Some((s, members)) if *s == slot => members.push(i),
            _ => groups.push((slot, vec![i])),
        }
    }
    let mut ranked: Vec<(f64, usize)> = groups
        .iter()
        .enumerate()
        .map(|(g, (_, members))| {
            let durs: Vec<f64> = members.iter().map(|&i| ops[i].dur_s).collect();
            let score = match rank {
                Rank::Median => median(&durs),
                Rank::Mean => durs.iter().sum::<f64>() / durs.len() as f64,
            };
            (score, g)
        })
        .collect();
    ranked.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let keep = ((groups.len() as f64) * KEEP_SHARE).ceil() as usize;
    let mut kept: Vec<usize> = ranked
        .iter()
        .take(keep)
        .flat_map(|&(_, g)| groups[g].1.iter().copied())
        .collect();
    kept.sort_unstable();
    kept
}

/// Durations of the operations in the slices with the quietest medians.
pub fn quiet_durations(ops: &[Op], slice_s: f64) -> Vec<f64> {
    quiet_ops(ops, slice_s, Rank::Median)
        .into_iter()
        .map(|i| ops[i].dur_s)
        .collect()
}

/// Median duration over the quiet slices; the estimator behind every
/// `*_p50_*` and `setup_s` figure.
pub fn quiet_median(ops: &[Op], slice_s: f64) -> f64 {
    median(&quiet_durations(ops, slice_s))
}

/// Ratio of the median slice to the median of the kept slices: 1.0 on a
/// quiet host, ~1.4 when the run straddled the host's slow mode.
pub fn host_noise_ratio(ops: &[Op], slice_s: f64) -> f64 {
    let all: Vec<f64> = ops.iter().map(|o| o.dur_s).collect();
    let quiet = quiet_median(ops, slice_s);
    if quiet > 0.0 {
        median(&all) / quiet
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_select_the_documented_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), 0.99);
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(3), 0.5);
    }

    #[test]
    fn quiet_filter_keeps_the_fast_slices_whole() {
        // Six 1 s slices of ten ops; slices 1 and 4 are fast.
        let mut ops = Vec::new();
        for slice in 0..6 {
            let dur = if slice == 1 || slice == 4 {
                0.010
            } else {
                0.015
            };
            for k in 0..10 {
                ops.push(Op {
                    start_s: slice as f64 + k as f64 * 0.1,
                    dur_s: dur,
                });
            }
        }
        let kept = quiet_ops(&ops, 1.0, Rank::Median);
        assert_eq!(kept.len(), 20);
        assert!(kept.iter().all(|&i| ops[i].dur_s == 0.010));
        assert_eq!(quiet_median(&ops, 1.0), 0.010);
        assert!((host_noise_ratio(&ops, 1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mean_rank_follows_the_long_operations_of_a_mix() {
        // Three slices of five 1 ms ops plus one long op each; the long
        // op is what differs. Medians tie; means do not.
        let mut ops = Vec::new();
        for (slice, long) in [0.050, 0.030, 0.040].into_iter().enumerate() {
            for k in 0..5 {
                ops.push(Op {
                    start_s: slice as f64 + k as f64 * 0.01,
                    dur_s: 0.001,
                });
            }
            ops.push(Op {
                start_s: slice as f64 + 0.5,
                dur_s: long,
            });
        }
        let kept = quiet_ops(&ops, 1.0, Rank::Mean);
        assert_eq!(kept, (6..12).collect::<Vec<_>>());
        assert_eq!(
            quiet_ops(&ops, 1.0, Rank::Median),
            (0..6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn long_ops_are_slices_of_their_own() {
        // 2 s ops against 0.5 s slices: nine groups, two kept.
        let durs = [2.0, 2.9, 2.1, 3.0, 2.2, 2.8, 2.05, 3.1, 2.7];
        let mut start = 0.0;
        let ops: Vec<Op> = durs
            .iter()
            .map(|&d| {
                let op = Op {
                    start_s: start,
                    dur_s: d,
                };
                start += d;
                op
            })
            .collect();
        assert_eq!(quiet_durations(&ops, 0.5), vec![2.0, 2.05]);
        assert_eq!(quiet_median(&ops, 0.5), 2.025);
    }
}
