//! The synthetic benchmark (paper §6.2): configurable application
//! imbalance.
//!
//! Every iteration each apprank creates `100 × cores-per-apprank` tasks of
//! mean duration 50 ms. Task durations are uniform within a rank but
//! differ across ranks to meet the target imbalance (Eq. 2):
//! the worst-case rank's tasks last `50 ms × imbalance`, and the other
//! ranks' durations are drawn uniformly over the space of values
//! respecting the constraints (mean over ranks = 50 ms, all durations
//! non-negative, none above the worst case).

use std::sync::Arc;

use tlb_cluster::{SpecWorkload, TaskSpec};
use tlb_core::Platform;
use tlb_rng::Rng;

/// Parameters of the synthetic benchmark.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Number of appranks.
    pub appranks: usize,
    /// Target imbalance (Eq. 2), `1.0 ..= appranks as f64`.
    pub imbalance: f64,
    /// Which rank receives the worst-case (maximum) load. The slow-node
    /// sweep (Fig. 10) points this at the slow node's rank — or away from
    /// it for the "slow node has least work" side.
    pub max_rank: usize,
    /// Rank whose load is forced to the minimum of the distribution
    /// (used for the left half of Fig. 10: slow node has *least* work).
    /// `None` lets all non-max ranks be drawn uniformly.
    pub min_rank: Option<usize>,
    /// Tasks per core per iteration (paper: 100).
    pub tasks_per_core: usize,
    /// Mean task duration in seconds (paper: 0.050).
    pub mean_task_secs: f64,
    /// Iterations to run.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's defaults for a given shape and imbalance.
    pub fn new(appranks: usize, imbalance: f64) -> Self {
        SyntheticConfig {
            appranks,
            imbalance,
            max_rank: 0,
            min_rank: None,
            tasks_per_core: 100,
            mean_task_secs: 0.050,
            iterations: 4,
            seed: 42,
        }
    }
}

/// Per-rank mean load factors (mean 1.0, max = `imbalance` at `max_rank`).
///
/// Exposed for tests and for the perfect-balance reference computation.
pub fn rank_factors(cfg: &SyntheticConfig) -> Vec<f64> {
    let r = cfg.appranks;
    let imb = cfg.imbalance;
    assert!(r >= 1, "need at least one rank");
    assert!(
        (1.0..=r as f64).contains(&imb),
        "imbalance {imb} outside [1, {r}]"
    );
    assert!(cfg.max_rank < r, "max_rank out of range");
    if r == 1 || (imb - 1.0).abs() < 1e-12 {
        return vec![1.0; r];
    }
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut f = vec![0.0f64; r];
    f[cfg.max_rank] = imb;
    // The rest must sum to (r - imb), each within [0, imb]. Draw uniform
    // and rescale; clamp-and-redistribute a few times to respect the cap.
    let others: Vec<usize> = (0..r)
        .filter(|&i| i != cfg.max_rank && Some(i) != cfg.min_rank)
        .collect();
    let mut budget = r as f64 - imb;
    if let Some(mr) = cfg.min_rank {
        assert!(mr != cfg.max_rank, "min_rank equals max_rank");
        // Force the minimum rank towards the bottom of the feasible range:
        // a small load, one tenth of the per-rank average of the budget.
        let share = (budget / (r - 1) as f64) * 0.1;
        f[mr] = share;
        budget -= share;
    }
    if others.is_empty() {
        return f;
    }
    let draws: Vec<f64> = others.iter().map(|_| rng.range_f64(0.2, 1.8)).collect();
    let sum: f64 = draws.iter().sum();
    for (i, &rank) in others.iter().enumerate() {
        f[rank] = draws[i] / sum * budget;
    }
    // Enforce the cap f <= imb (possible with extreme imbalances).
    for _ in 0..8 {
        let mut excess = 0.0;
        let mut room = 0.0;
        for &rank in &others {
            if f[rank] > imb {
                excess += f[rank] - imb;
                f[rank] = imb;
            } else {
                room += imb - f[rank];
            }
        }
        if excess <= 1e-12 || room <= 0.0 {
            break;
        }
        for &rank in &others {
            if f[rank] < imb {
                f[rank] += excess * (imb - f[rank]) / room;
            }
        }
    }
    debug_assert!((f.iter().sum::<f64>() - r as f64).abs() < 1e-6);
    f
}

/// Build the synthetic workload for a platform (tasks per rank follow from
/// the machine shape: `tasks_per_core × cores-per-apprank`).
pub fn synthetic_workload(cfg: &SyntheticConfig, platform: &Platform) -> SpecWorkload {
    assert_eq!(
        cfg.appranks % platform.nodes,
        0,
        "appranks must divide over nodes"
    );
    let per_node = cfg.appranks / platform.nodes;
    let cores_per_rank = platform.cores_per_node / per_node;
    let tasks_per_rank = cfg.tasks_per_core * cores_per_rank;
    let factors = rank_factors(cfg);
    let per_rank: Vec<Arc<[TaskSpec]>> = factors
        .iter()
        .map(|&f| {
            let dur = cfg.mean_task_secs * f;
            (0..tasks_per_rank)
                .map(|_| TaskSpec::compute(dur))
                .collect()
        })
        .collect();
    SpecWorkload::shared(vec![per_rank; cfg.iterations])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_cluster::Workload;
    use tlb_core::imbalance;

    #[test]
    fn factors_hit_target_imbalance() {
        for &imb in &[1.0, 1.5, 2.0, 3.0, 4.0] {
            let cfg = SyntheticConfig::new(8, imb);
            let f = rank_factors(&cfg);
            assert_eq!(f.len(), 8);
            let measured = imbalance(&f);
            assert!(
                (measured - imb).abs() < 1e-6,
                "target {imb}, measured {measured}: {f:?}"
            );
            assert!((f.iter().sum::<f64>() - 8.0).abs() < 1e-6);
            assert!(f.iter().all(|&x| x >= 0.0 && x <= imb + 1e-9));
        }
    }

    #[test]
    fn balanced_case_is_uniform() {
        let cfg = SyntheticConfig::new(4, 1.0);
        assert_eq!(rank_factors(&cfg), vec![1.0; 4]);
    }

    #[test]
    fn max_rank_is_respected() {
        let mut cfg = SyntheticConfig::new(4, 3.0);
        cfg.max_rank = 2;
        let f = rank_factors(&cfg);
        assert!((f[2] - 3.0).abs() < 1e-12);
        assert!(f.iter().enumerate().all(|(i, &x)| i == 2 || x <= 3.0));
    }

    #[test]
    fn min_rank_gets_least() {
        let mut cfg = SyntheticConfig::new(8, 2.0);
        cfg.max_rank = 1;
        cfg.min_rank = Some(5);
        let f = rank_factors(&cfg);
        let min = f.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((f[5] - min).abs() < 1e-12, "{f:?}");
    }

    #[test]
    fn extreme_imbalance_all_on_one() {
        let cfg = SyntheticConfig::new(4, 4.0);
        let f = rank_factors(&cfg);
        assert!((f[0] - 4.0).abs() < 1e-9);
        assert!(f[1..].iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SyntheticConfig::new(16, 2.5);
        assert_eq!(rank_factors(&cfg), rank_factors(&cfg));
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        assert_ne!(rank_factors(&cfg), rank_factors(&cfg2));
    }

    #[test]
    fn workload_shape_matches_paper() {
        // 8 ranks on 8 nodes with 4 cores: 100 tasks/core → 400 per rank.
        let cfg = SyntheticConfig::new(8, 2.0);
        let p = tlb_core::Platform::homogeneous(8, 4);
        let wl = synthetic_workload(&cfg, &p);
        assert_eq!(wl.appranks(), 8);
        assert_eq!(wl.iterations(), 4);
        let work = wl.rank_work(0);
        // Total per iteration = ranks × tasks × mean = 8 × 400 × 0.05.
        let total: f64 = work.iter().sum();
        assert!((total - 160.0).abs() < 1e-6, "total {total}");
        let measured = imbalance(&work);
        assert!((measured - 2.0).abs() < 1e-6);
    }

    #[test]
    fn two_appranks_per_node_halves_tasks() {
        let cfg = SyntheticConfig::new(8, 1.5);
        let p = tlb_core::Platform::homogeneous(4, 8);
        let mut wl = synthetic_workload(&cfg, &p);
        // 8 cores / 2 ranks per node = 4 cores per rank → 400 tasks.
        assert_eq!(wl.tasks(0, 0).len(), 400);
        // One rank per node would get all 8 cores → 800 tasks.
        let cfg1 = SyntheticConfig::new(4, 1.5);
        let mut wl1 = synthetic_workload(&cfg1, &p);
        assert_eq!(wl1.tasks(0, 0).len(), 800);
    }
}
