//! TALP: Tracking Application Live Performance (paper §3.3).
//!
//! TALP measures each process's useful compute time; the quantity the
//! paper's allocation policies consume is the *time-averaged number of
//! busy cores* per worker process (§5.4.1: "each worker measures its
//! average number of busy cores, i.e., the average number of cores
//! executing tasks or runtime code except the idle loop").

use tlb_des::{BusyIntegral, SimTime};

/// Per-process busy-core accounting for the workers of one node.
#[derive(Clone, Debug)]
pub struct Talp {
    per_proc: Vec<BusyIntegral>,
}

impl Talp {
    /// Accounting for `procs` worker processes, all idle at time zero.
    pub fn new(procs: usize) -> Self {
        Talp {
            per_proc: (0..procs).map(|_| BusyIntegral::new()).collect(),
        }
    }

    /// Number of tracked processes.
    pub fn procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Record that process `proc` is busy on `cores` cores from `at`.
    pub fn set_busy(&mut self, proc: usize, at: SimTime, cores: usize) {
        self.per_proc[proc].set(at, cores as f64);
    }

    /// Average busy cores of every process, restarting all windows.
    pub fn take_all_windows(&mut self, now: SimTime) -> Vec<f64> {
        self.per_proc
            .iter_mut()
            .map(|b| b.take_window(now))
            .collect()
    }

    /// Total busy core·seconds of `proc` since the start.
    pub fn total(&self, proc: usize, now: SimTime) -> f64 {
        self.per_proc[proc].total(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_average_busy_cores() {
        let mut t = Talp::new(2);
        t.set_busy(0, SimTime::ZERO, 4);
        t.set_busy(1, SimTime::ZERO, 0);
        t.set_busy(0, SimTime::from_secs(1), 2);
        let w = t.take_all_windows(SimTime::from_secs(2));
        assert!((w[0] - 3.0).abs() < 1e-12);
        assert_eq!(w[1], 0.0);
        // Next window starts fresh.
        t.set_busy(0, SimTime::from_secs(3), 0);
        let w = t.take_all_windows(SimTime::from_secs(4));
        assert!((w[0] - 1.0).abs() < 1e-12); // 1s at 2 cores, 1s at 0
        assert_eq!(w[1], 0.0);
    }

    #[test]
    fn total_counts_busy_core_seconds_since_the_start() {
        let mut t = Talp::new(1);
        t.set_busy(0, SimTime::ZERO, 4);
        assert!((t.total(0, SimTime::from_secs(2)) - 8.0).abs() < 1e-12);
        t.set_busy(0, SimTime::from_secs(2), 0);
        t.take_all_windows(SimTime::from_secs(3)); // windows leave it be
        assert!((t.total(0, SimTime::from_secs(4)) - 8.0).abs() < 1e-12);
    }
}
