//! Piecewise-constant time series used to record traces (busy cores, owned
//! cores, node imbalance) exactly as the paper's Paraver timelines do.

use crate::SimTime;

/// One step of a piecewise-constant series: `value` holds from `at` until
/// the next sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineSample {
    /// Virtual time at which the value took effect.
    pub at: SimTime,
    /// The recorded value.
    pub value: f64,
}

/// A piecewise-constant `f64` time series with time-weighted queries.
///
/// Samples must be appended in non-decreasing time order; appending a sample
/// at the same instant as the previous one overwrites it (the series records
/// the value that *held*, not transient intermediate states within an
/// event).
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    samples: Vec<TimelineSample>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Record that the series takes `value` from time `at` onwards.
    ///
    /// # Panics
    /// Panics if `at` precedes the last recorded sample.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.samples.last_mut() {
            assert!(at >= last.at, "timeline samples must be time-ordered");
            if at == last.at {
                last.value = value;
                return;
            }
            if last.value == value {
                return; // run-length compression: value unchanged
            }
        }
        self.samples.push(TimelineSample { at, value });
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[TimelineSample] {
        &self.samples
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Value holding at time `t` (the last sample at or before `t`), or
    /// `None` if `t` precedes the first sample.
    pub fn value_at(&self, t: SimTime) -> Option<f64> {
        match self.samples.binary_search_by(|s| s.at.cmp(&t)) {
            Ok(i) => Some(self.samples[i].value),
            Err(0) => None,
            Err(i) => Some(self.samples[i - 1].value),
        }
    }

    /// Time-weighted integral of the series over `[from, to)`. Before the
    /// first sample the series is treated as zero.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(to >= from, "integral over reversed interval");
        if self.samples.is_empty() || to == from {
            return 0.0;
        }
        let mut acc = 0.0;
        // Iterate segments [s[i].at, s[i+1].at) clipped to [from, to).
        for (i, s) in self.samples.iter().enumerate() {
            let seg_start = s.at;
            let seg_end = self
                .samples
                .get(i + 1)
                .map(|n| n.at)
                .unwrap_or(SimTime::MAX);
            let lo = seg_start.max(from);
            let hi = seg_end.min(to);
            if hi > lo {
                acc += s.value * (hi - lo).as_secs_f64();
            }
            if seg_end >= to {
                break;
            }
        }
        acc
    }

    /// Time-weighted mean over `[from, to)`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span == 0.0 {
            return 0.0;
        }
        self.integral(from, to) / span
    }

    /// Time-weighted mean over `[from, to)`, degrading to the
    /// *instantaneous* value at `to` when the window has zero width.
    ///
    /// [`Timeline::mean`] returns 0.0 for zero-width windows, which is
    /// the wrong answer for trailing-window resampling (a window that
    /// collapses at `t = 0`, or a zero-length window anywhere, should
    /// report the value that holds at `t`, not pretend the series is
    /// idle). Callers that sample with `from = t - window` should use
    /// this instead of widening the window artificially.
    pub fn mean_or_instant(&self, from: SimTime, to: SimTime) -> f64 {
        if to == from {
            self.value_at(to).unwrap_or(0.0)
        } else {
            self.mean(from, to)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(points: &[(u64, f64)]) -> Timeline {
        let mut t = Timeline::new();
        for &(ms, v) in points {
            t.record(SimTime::from_millis(ms), v);
        }
        t
    }

    #[test]
    fn value_at_steps() {
        let t = tl(&[(0, 1.0), (10, 3.0), (20, 2.0)]);
        assert_eq!(t.value_at(SimTime::ZERO), Some(1.0));
        assert_eq!(t.value_at(SimTime::from_millis(9)), Some(1.0));
        assert_eq!(t.value_at(SimTime::from_millis(10)), Some(3.0));
        assert_eq!(t.value_at(SimTime::from_millis(25)), Some(2.0));
    }

    #[test]
    fn value_before_first_sample_is_none() {
        let t = tl(&[(10, 3.0)]);
        assert_eq!(t.value_at(SimTime::from_millis(5)), None);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut t = Timeline::new();
        t.record(SimTime::from_millis(5), 1.0);
        t.record(SimTime::from_millis(5), 7.0);
        assert_eq!(t.samples().len(), 1);
        assert_eq!(t.value_at(SimTime::from_millis(5)), Some(7.0));
    }

    #[test]
    fn unchanged_value_is_compressed() {
        let t = tl(&[(0, 2.0), (10, 2.0), (20, 3.0)]);
        assert_eq!(t.samples().len(), 2);
    }

    #[test]
    fn integral_and_mean() {
        // 1.0 for 10ms, then 3.0 for 10ms: integral = 0.01 + 0.03 = 0.04
        let t = tl(&[(0, 1.0), (10, 3.0)]);
        let integral = t.integral(SimTime::ZERO, SimTime::from_millis(20));
        assert!((integral - 0.04).abs() < 1e-12);
        let mean = t.mean(SimTime::ZERO, SimTime::from_millis(20));
        assert!((mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn integral_clips_to_window() {
        let t = tl(&[(0, 2.0), (100, 4.0)]);
        // Window [50ms, 150ms): 50ms of 2.0 + 50ms of 4.0 = 0.1 + 0.2
        let integral = t.integral(SimTime::from_millis(50), SimTime::from_millis(150));
        assert!((integral - 0.3).abs() < 1e-12);
    }

    #[test]
    fn integral_before_first_sample_is_zero() {
        let t = tl(&[(100, 5.0)]);
        assert_eq!(t.integral(SimTime::ZERO, SimTime::from_millis(100)), 0.0);
    }

    #[test]
    fn mean_or_instant_zero_width_returns_instantaneous() {
        let t = tl(&[(0, 4.0), (10, 2.0)]);
        // Plain mean collapses to 0.0 on zero-width windows...
        assert_eq!(t.mean(SimTime::ZERO, SimTime::ZERO), 0.0);
        // ...mean_or_instant reports the value that holds there.
        assert_eq!(t.mean_or_instant(SimTime::ZERO, SimTime::ZERO), 4.0);
        let at = SimTime::from_millis(15);
        assert_eq!(t.mean_or_instant(at, at), 2.0);
        // Before the first sample the series is zero.
        let empty = Timeline::new();
        assert_eq!(empty.mean_or_instant(SimTime::ZERO, SimTime::ZERO), 0.0);
        // Non-degenerate windows match the plain mean.
        let from = SimTime::ZERO;
        let to = SimTime::from_millis(20);
        assert_eq!(t.mean_or_instant(from, to), t.mean(from, to));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_record_panics() {
        let mut t = Timeline::new();
        t.record(SimTime::from_millis(10), 1.0);
        t.record(SimTime::from_millis(5), 2.0);
    }
}
