//! Simulation results.

use crate::{FaultStats, Trace};
use tlb_des::SimTime;

/// The outcome of one cluster simulation.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total virtual execution time.
    pub makespan: SimTime,
    /// Duration of each iteration (taskwait-to-taskwait, including the
    /// trailing barrier).
    pub iteration_times: Vec<SimTime>,
    /// Tasks that executed on a helper rank (away from home).
    pub offloaded_tasks: usize,
    /// All tasks executed.
    pub total_tasks: usize,
    /// DES events processed.
    pub events: u64,
    /// Times the global solver ran.
    pub solver_runs: usize,
    /// Virtual time charged to global solver invocations in total.
    pub solver_time: SimTime,
    /// Helper ranks spawned at run time (dynamic work spreading; 0 for
    /// static configurations).
    pub spawned_helpers: usize,
    /// TALP-style parallel efficiency: useful busy core·seconds divided
    /// by `makespan × total physical cores` (the end-of-run report the
    /// paper's TALP module produces, §3.3).
    pub parallel_efficiency: f64,
    /// Fault/recovery accounting; all zeros when no faults were injected.
    pub faults: FaultStats,
    /// Recorded timelines.
    pub trace: Trace,
}

impl SimReport {
    /// Mean iteration time in seconds (excluding the first `skip`
    /// warm-up iterations, as the paper's steady-state measurements do).
    pub fn mean_iteration_secs(&self, skip: usize) -> f64 {
        let tail = &self.iteration_times[skip.min(self.iteration_times.len())..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().map(|t| t.as_secs_f64()).sum::<f64>() / tail.len() as f64
    }

    /// Fraction of tasks that were offloaded.
    pub fn offload_fraction(&self) -> f64 {
        if self.total_tasks == 0 {
            0.0
        } else {
            self.offloaded_tasks as f64 / self.total_tasks as f64
        }
    }
}
