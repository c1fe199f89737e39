//! Small statistics helpers used by the load-measurement machinery.

use crate::SimTime;

/// Accumulates core·seconds of busy time, the quantity both DROM policies in
/// the paper use as their load estimate ("average number of busy cores").
///
/// The integral is maintained incrementally: call [`BusyIntegral::set`] each
/// time the number of busy cores changes, then query the windowed average.
#[derive(Clone, Debug)]
pub struct BusyIntegral {
    /// Accumulated core·seconds up to `last_change`.
    integral: f64,
    /// Busy-core count holding since `last_change`.
    current: f64,
    last_change: SimTime,
    /// Window start used by `take_window`.
    window_start: SimTime,
    window_base: f64,
}

impl Default for BusyIntegral {
    fn default() -> Self {
        Self::new()
    }
}

impl BusyIntegral {
    /// A fresh accumulator at time zero with zero busy cores.
    pub fn new() -> Self {
        BusyIntegral {
            integral: 0.0,
            current: 0.0,
            last_change: SimTime::ZERO,
            window_start: SimTime::ZERO,
            window_base: 0.0,
        }
    }

    /// Record that from time `at` onward, `busy` cores are busy.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous update.
    pub fn set(&mut self, at: SimTime, busy: f64) {
        assert!(at >= self.last_change, "busy integral updated out of order");
        self.integral += self.current * (at - self.last_change).as_secs_f64();
        self.current = busy;
        self.last_change = at;
    }

    /// The busy-core count currently holding.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Total core·seconds accumulated from time zero to `now`.
    pub fn total(&self, now: SimTime) -> f64 {
        assert!(now >= self.last_change);
        self.integral + self.current * (now - self.last_change).as_secs_f64()
    }

    /// Average busy cores over the current measurement window, then restart
    /// the window at `now`. This is the quantity the local-convergence
    /// policy samples each period.
    pub fn take_window(&mut self, now: SimTime) -> f64 {
        let span = (now - self.window_start).as_secs_f64();
        let total = self.total(now);
        let avg = if span > 0.0 {
            (total - self.window_base) / span
        } else {
            self.current
        };
        self.window_start = now;
        self.window_base = total;
        avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_integral_accumulates() {
        let mut b = BusyIntegral::new();
        b.set(SimTime::ZERO, 4.0);
        b.set(SimTime::from_secs(1), 2.0);
        // 4 cores for 1s + 2 cores for 1s = 6 core·s
        assert!((b.total(SimTime::from_secs(2)) - 6.0).abs() < 1e-12);
        assert_eq!(b.current(), 2.0);
    }

    #[test]
    fn window_average_resets() {
        let mut b = BusyIntegral::new();
        b.set(SimTime::ZERO, 4.0);
        let avg = b.take_window(SimTime::from_secs(2));
        assert!((avg - 4.0).abs() < 1e-12);
        b.set(SimTime::from_secs(3), 0.0);
        // Window [2s,4s): 1s at 4.0 + 1s at 0.0 → avg 2.0
        let avg = b.take_window(SimTime::from_secs(4));
        assert!((avg - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_span_window_returns_current() {
        let mut b = BusyIntegral::new();
        b.set(SimTime::ZERO, 3.0);
        assert_eq!(b.take_window(SimTime::ZERO), 3.0);
    }
}
