//! MicroPP workload generation for the cluster simulation.

use std::sync::Arc;

use tlb_cluster::{SpecWorkload, TaskSpec};
use tlb_rng::Rng;

/// Parameters of a MicroPP-style run.
#[derive(Clone, Debug)]
pub struct MicroPpConfig {
    /// Number of appranks (weak scaling: subproblem count is per rank).
    pub appranks: usize,
    /// Micro-scale subproblems (Gauss points) per rank per iteration.
    pub subproblems_per_rank: usize,
    /// Subproblems batched into one offloadable task.
    pub subproblems_per_task: usize,
    /// Cost of one linear subproblem in seconds: a model constant
    /// (0.001 s by default), not measured on any host.
    pub linear_secs: f64,
    /// Cost ratio non-linear / linear (Newton steps × CG growth): a model
    /// constant (8.0 by default) that no run derives.
    pub nonlinear_ratio: f64,
    /// Per-rank non-linear fraction is drawn as
    /// `lo + (hi-lo)·u^gamma`, u ~ U(0,1): the material-zone mix that
    /// makes some ranks much heavier than others.
    pub fraction_lo: f64,
    /// Upper end of the non-linear fraction range.
    pub fraction_hi: f64,
    /// Skew exponent (`gamma > 1` pushes most ranks towards `lo`).
    pub gamma: f64,
    /// Timesteps.
    pub iterations: usize,
    /// Bytes of macro-strain input per task (transferred on offload).
    pub bytes_per_task: usize,
    /// RNG seed.
    pub seed: u64,
    /// Explicit per-rank non-linear fractions (overrides the random
    /// draw); used by trace experiments that need a controlled profile.
    pub fractions_override: Option<Vec<f64>>,
}

impl MicroPpConfig {
    /// Defaults tuned to the paper's imbalance regime. Measured with
    /// Eq. 2 (`tlb_core::imbalance`) on iteration 0 of the default draw,
    /// the rank imbalance is 2.94 at 64 appranks (Fig. 6(b) at 32
    /// nodes), 2.99 at 16 and 3.17 at 32.
    pub fn new(appranks: usize) -> Self {
        MicroPpConfig {
            appranks,
            subproblems_per_rank: 4000,
            subproblems_per_task: 5,
            linear_secs: 0.001,
            nonlinear_ratio: 8.0,
            fraction_lo: 0.02,
            fraction_hi: 0.90,
            gamma: 3.5,
            iterations: 8,
            bytes_per_task: 64 * 1024,
            seed: 7,
            fractions_override: None,
        }
    }
}

/// Per-rank non-linear fractions (deterministic in the seed).
pub(crate) fn rank_fractions(cfg: &MicroPpConfig) -> Vec<f64> {
    if let Some(f) = &cfg.fractions_override {
        assert_eq!(f.len(), cfg.appranks, "override length mismatch");
        return f.clone();
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    (0..cfg.appranks)
        .map(|_| {
            let u: f64 = rng.f64_unit();
            cfg.fraction_lo + (cfg.fraction_hi - cfg.fraction_lo) * u.powf(cfg.gamma)
        })
        .collect()
}

/// Build the MicroPP workload: every task solves a batch of subproblems,
/// a per-task binomial draw of which are non-linear according to the
/// rank's material fraction.
pub fn micropp_workload(cfg: &MicroPpConfig) -> SpecWorkload {
    assert!(cfg.subproblems_per_task > 0, "empty task batches");
    assert!(
        cfg.fraction_lo <= cfg.fraction_hi && cfg.fraction_hi <= 1.0,
        "bad fraction range"
    );
    let fractions = rank_fractions(cfg);
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xC0FF_EE00_DEAD_BEEF);
    let nl_secs = cfg.linear_secs * cfg.nonlinear_ratio;
    let tasks_per_rank = cfg.subproblems_per_rank / cfg.subproblems_per_task;

    let mut iterations = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let per_rank: Vec<Arc<[TaskSpec]>> = fractions
            .iter()
            .map(|&f| {
                (0..tasks_per_rank)
                    .map(|_| {
                        let n_nl = (0..cfg.subproblems_per_task)
                            .filter(|_| rng.f64_unit() < f)
                            .count();
                        let n_lin = cfg.subproblems_per_task - n_nl;
                        let dur = n_lin as f64 * cfg.linear_secs + n_nl as f64 * nl_secs;
                        TaskSpec::with_bytes(dur, cfg.bytes_per_task)
                    })
                    .collect()
            })
            .collect();
        iterations.push(per_rank);
    }
    SpecWorkload::shared(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_cluster::Workload;
    use tlb_core::imbalance;

    #[test]
    fn workload_is_imbalanced_but_bounded() {
        // 16 appranks: inside the MicroPP regime. 64 appranks (Fig. 6(b)
        // at 32 nodes × 2): the Eq. 2 value `MicroPpConfig::new` states,
        // ±5 %.
        for (appranks, band) in [(16, 1.5..4.5), (64, 2.94 * 0.95..2.94 * 1.05)] {
            let wl = micropp_workload(&MicroPpConfig::new(appranks));
            let work = wl.rank_work(0);
            let imb = imbalance(&work);
            assert!(
                band.contains(&imb),
                "{appranks} appranks: rank imbalance {imb} outside {band:?}: {work:?}"
            );
        }
    }

    #[test]
    fn weak_scaling_keeps_per_rank_work() {
        let w8: f64 = micropp_workload(&MicroPpConfig::new(8))
            .rank_work(0)
            .iter()
            .sum();
        let w32: f64 = micropp_workload(&MicroPpConfig::new(32))
            .rank_work(0)
            .iter()
            .sum();
        let per8 = w8 / 8.0;
        let per32 = w32 / 32.0;
        let ratio = per32 / per8;
        assert!(
            (0.7..1.3).contains(&ratio),
            "weak scaling drifted: {per8} vs {per32}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = MicroPpConfig::new(4);
        let a = micropp_workload(&cfg);
        let b = micropp_workload(&cfg);
        assert_eq!(a.rank_work(0), b.rank_work(0));
    }

    #[test]
    fn task_count_and_shape() {
        let cfg = MicroPpConfig::new(4);
        let mut wl = micropp_workload(&cfg);
        assert_eq!(wl.iterations(), cfg.iterations);
        assert_eq!(wl.tasks(0, 0).len(), 800);
        let t = &wl.tasks(1, 0)[0];
        assert!(t.offloadable);
        assert_eq!(t.bytes, cfg.bytes_per_task);
        // Every task costs at least the all-linear batch.
        assert!(t.duration >= cfg.subproblems_per_task as f64 * cfg.linear_secs - 1e-12);
    }

    #[test]
    fn iterations_vary_but_rank_profile_persists() {
        // The heavy ranks stay heavy across iterations (material zones do
        // not move), even though per-task draws differ.
        let cfg = MicroPpConfig::new(8);
        let wl = micropp_workload(&cfg);
        let w0 = wl.rank_work(0);
        let w1 = wl.rank_work(cfg.iterations - 1);
        let hottest0 = w0
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let hottest1 = w1
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(hottest0, hottest1, "hot rank moved between iterations");
    }
}
