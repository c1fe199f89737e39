//! A digest of a run's *simulated* statistics, so two commits (or two
//! repetitions) can be told apart by what they simulated, not by how
//! long the host took.
//!
//! Deliberately leaves out `SimReport::events`: the number of DES events
//! is an implementation detail a speed-up may legitimately change
//! (fewer futile steal probes, batched ticks) while every simulated
//! result stays bit-identical. Digests are printed, never pinned in a
//! file — a change that means to alter simulated behaviour must not
//! have to edit the benchmark.

use tlb_cluster::SimReport;

/// 64-bit FNV-1a, fed little-endian words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in one word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Digest of one simulation's results: makespan, every iteration time,
/// task and offload counts, solver runs, efficiency (by bit pattern)
/// and the fault accounting.
pub fn report_digest(report: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.word(report.makespan.as_nanos());
    h.word(report.iteration_times.len() as u64);
    for t in &report.iteration_times {
        h.word(t.as_nanos());
    }
    h.word(report.total_tasks as u64);
    h.word(report.offloaded_tasks as u64);
    h.word(report.solver_runs as u64);
    h.word(report.solver_time.as_nanos());
    h.word(report.spawned_helpers as u64);
    h.word(report.parallel_efficiency.to_bits());
    let f = &report.faults;
    for v in [
        f.injected,
        f.recovered,
        f.absorbed,
        f.workers_killed,
        f.tasks_requeued,
        f.messages_dropped,
        f.message_failovers,
        f.solver_fallbacks,
    ] {
        h.word(v as u64);
    }
    h.finish()
}

/// Digest of a text artefact (a sweep report, a served report).
pub fn text_digest(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_cluster::{ClusterSim, RunSpec, SpecWorkload, TaskSpec};
    use tlb_core::{BalanceConfig, DromPolicy, Platform, Preset};

    fn small_run() -> SimReport {
        let mk = |n: usize| (0..n).map(|_| TaskSpec::compute(0.050)).collect();
        let wl = SpecWorkload::iterated(vec![mk(60), mk(20)], 2);
        let platform = Platform::homogeneous(2, 4);
        let cfg = BalanceConfig::preset(Preset::Offload {
            degree: 2,
            drom: DromPolicy::Global,
        });
        ClusterSim::execute(RunSpec::new(&platform, &cfg, wl)).expect("small run executes")
    }

    #[test]
    fn same_report_same_digest_and_events_do_not_count() {
        let a = small_run();
        let b = small_run();
        assert_eq!(report_digest(&a), report_digest(&b));
        let mut fewer_events = a.clone();
        fewer_events.events = a.events / 2;
        assert_eq!(report_digest(&a), report_digest(&fewer_events));
    }

    #[test]
    fn any_simulated_statistic_changes_the_digest() {
        let a = small_run();
        let base = report_digest(&a);
        let mut m = a.clone();
        m.offloaded_tasks += 1;
        assert_ne!(report_digest(&m), base);
        let mut m = a.clone();
        m.parallel_efficiency = f64::from_bits(a.parallel_efficiency.to_bits() ^ 1);
        assert_ne!(report_digest(&m), base);
        let mut m = a.clone();
        m.faults.injected += 1;
        assert_ne!(report_digest(&m), base);
        assert_eq!(text_digest("abc"), text_digest("abc"));
        assert_ne!(text_digest("abc"), text_digest("abd"));
    }
}
