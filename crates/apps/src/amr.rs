//! AMR-style time-varying imbalance: the hot ranks move mid-run.
//!
//! Adaptive mesh refinement concentrates work wherever the solution is
//! currently interesting, and that region *moves* — so the load
//! distribution over ranks shifts every few timesteps ("Lightweight
//! Task Offloading Exploiting MPI Wait Times for Parallel Adaptive
//! Mesh Refinement", PAPERS.md). The static synthetic benchmark can
//! never distinguish a policy that adapts from one that merely finds a
//! good static allocation; this workload can.
//!
//! The model keeps the synthetic benchmark's invariants — per-iteration
//! total work is constant, per-rank factors have mean 1.0 and peak
//! `imbalance` — but re-draws the factor vector every `phase_iterations`
//! iterations with the hot rank advanced by a seed-derived stride, so
//! the peak walks around the rank space while everything stays a
//! deterministic function of the seed.

use std::sync::Arc;
use tlb_cluster::{TaskSpec, Workload};
use tlb_core::Platform;
use tlb_rng::Rng;

use crate::synthetic::{rank_factors, SyntheticConfig};

/// Parameters of the AMR-style time-varying benchmark.
#[derive(Clone, Debug)]
pub struct AmrConfig {
    /// Number of appranks.
    pub appranks: usize,
    /// Target imbalance (Eq. 2) of every phase's factor vector.
    pub imbalance: f64,
    /// Iterations between refinement phases: how long the hot region
    /// stays put before it moves.
    pub phase_iterations: usize,
    /// Tasks per core per iteration (paper: 100).
    pub tasks_per_core: usize,
    /// Mean task duration in seconds (paper: 0.050).
    pub mean_task_secs: f64,
    /// Iterations to run.
    pub iterations: usize,
    /// RNG seed: drives the hot-rank walk and every phase's draw.
    pub seed: u64,
}

impl AmrConfig {
    /// Defaults matching the synthetic benchmark, with the hot region
    /// moving every other iteration.
    pub fn new(appranks: usize, imbalance: f64) -> Self {
        AmrConfig {
            appranks,
            imbalance,
            phase_iterations: 2,
            tasks_per_core: 100,
            mean_task_secs: 0.050,
            iterations: 4,
            seed: 42,
        }
    }
}

/// The AMR workload: per-iteration task lists whose imbalance pattern
/// shifts at phase boundaries. Implements [`Workload`] directly (unlike
/// the synthetic benchmark's fixed `SpecWorkload`) because the tasks of
/// iteration `i` depend on `i`.
pub struct AmrWorkload {
    cfg: AmrConfig,
    tasks_per_rank: usize,
    /// Factor vector of the phase whose tasks we are currently
    /// emitting, rebuilt lazily at phase boundaries.
    phase: usize,
    factors: Vec<f64>,
}

/// Build the AMR workload for a platform (tasks per rank follow from
/// the machine shape, exactly like the synthetic benchmark).
pub fn amr_workload(cfg: &AmrConfig, platform: &Platform) -> AmrWorkload {
    assert_eq!(
        cfg.appranks % platform.nodes,
        0,
        "appranks must divide over nodes"
    );
    assert!(cfg.phase_iterations >= 1, "phase_iterations must be >= 1");
    let per_node = cfg.appranks / platform.nodes;
    let cores_per_rank = platform.cores_per_node / per_node;
    let tasks_per_rank = cfg.tasks_per_core * cores_per_rank;
    let factors = phase_factors(cfg, 0);
    AmrWorkload {
        cfg: cfg.clone(),
        tasks_per_rank,
        phase: 0,
        factors,
    }
}

/// The factor vector of one refinement phase: hot rank advanced by a
/// seed-derived stride each phase, everything re-drawn under a
/// phase-distinct seed, invariants (mean 1.0, peak = imbalance)
/// preserved by `rank_factors`.
pub fn phase_factors(cfg: &AmrConfig, phase: usize) -> Vec<f64> {
    // The stride is drawn once from the seed and kept coprime-ish with
    // the rank count by construction (any stride in 1..appranks visits
    // several distinct ranks before cycling; exact coverage is not
    // required, movement is).
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xa3a5_u64);
    let start = (rng.next_u64() % cfg.appranks.max(1) as u64) as usize;
    let stride = 1 + (rng.next_u64() % cfg.appranks.max(2) as u64 / 2) as usize;
    let mut syn = SyntheticConfig::new(cfg.appranks, cfg.imbalance);
    syn.max_rank = (start + phase * stride) % cfg.appranks.max(1);
    syn.tasks_per_core = cfg.tasks_per_core;
    syn.mean_task_secs = cfg.mean_task_secs;
    syn.iterations = cfg.iterations;
    // Distinct draw per phase so the *shape* around the peak changes
    // too, not just the peak's position.
    syn.seed = cfg
        .seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(phase as u64));
    rank_factors(&syn)
}

impl AmrWorkload {
    /// Nominal per-iteration work in core·seconds — constant across
    /// phases because every phase's factors sum to `appranks`, so the
    /// perfect-balance bound is well defined for the whole run.
    pub fn iteration_work(&self) -> f64 {
        self.cfg.appranks as f64 * self.tasks_per_rank as f64 * self.cfg.mean_task_secs
    }

    /// The factor vector governing one iteration (exposed for tests).
    pub fn factors_at(&self, iteration: usize) -> Vec<f64> {
        phase_factors(&self.cfg, iteration / self.cfg.phase_iterations)
    }
}

impl Workload for AmrWorkload {
    fn appranks(&self) -> usize {
        self.cfg.appranks
    }

    fn iterations(&self) -> usize {
        self.cfg.iterations
    }

    fn tasks(&mut self, rank: usize, iteration: usize) -> Arc<[TaskSpec]> {
        let phase = iteration / self.cfg.phase_iterations;
        if phase != self.phase || self.factors.is_empty() {
            self.factors = phase_factors(&self.cfg, phase);
            self.phase = phase;
        }
        let dur = self.cfg.mean_task_secs * self.factors[rank];
        (0..self.tasks_per_rank)
            .map(|_| TaskSpec::compute(dur))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_core::imbalance;

    fn fixture() -> (AmrConfig, Platform) {
        let mut cfg = AmrConfig::new(8, 2.5);
        cfg.iterations = 8;
        (cfg, Platform::homogeneous(8, 4))
    }

    #[test]
    fn every_phase_meets_the_imbalance_target() {
        let (cfg, p) = fixture();
        let wl = amr_workload(&cfg, &p);
        for iter in 0..cfg.iterations {
            let f = wl.factors_at(iter);
            let measured = imbalance(&f);
            assert!(
                (measured - cfg.imbalance).abs() < 1e-6,
                "iteration {iter}: target {}, measured {measured}",
                cfg.imbalance
            );
            assert!((f.iter().sum::<f64>() - 8.0).abs() < 1e-6);
        }
    }

    #[test]
    fn hot_rank_moves_between_phases() {
        let (cfg, p) = fixture();
        let wl = amr_workload(&cfg, &p);
        let peak = |f: &[f64]| {
            f.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0
        };
        let p0 = peak(&wl.factors_at(0));
        let p2 = peak(&wl.factors_at(2));
        let p4 = peak(&wl.factors_at(4));
        assert!(
            p0 != p2 || p2 != p4,
            "hot rank never moved: {p0}, {p2}, {p4}"
        );
        // Within a phase the pattern is stable.
        assert_eq!(wl.factors_at(0), wl.factors_at(1));
    }

    #[test]
    fn per_iteration_work_is_constant() {
        let (cfg, p) = fixture();
        let mut wl = amr_workload(&cfg, &p);
        let total_at = |wl: &mut AmrWorkload, iter: usize| -> f64 {
            (0..8)
                .map(|r| wl.tasks(r, iter).iter().map(|t| t.duration).sum::<f64>())
                .sum()
        };
        let t0 = total_at(&mut wl, 0);
        let t3 = total_at(&mut wl, 3);
        assert!((t0 - t3).abs() < 1e-9, "work drifted: {t0} vs {t3}");
        assert!((t0 - wl.iteration_work()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed_and_random_access() {
        let (cfg, p) = fixture();
        let mut a = amr_workload(&cfg, &p);
        let mut b = amr_workload(&cfg, &p);
        // Query b out of order: the lazy phase cache must not leak
        // earlier state into later answers.
        let b5 = b.tasks(3, 5);
        let a5 = a.tasks(3, 5);
        assert_eq!(a5.len(), b5.len());
        assert!(a5
            .iter()
            .zip(b5.iter())
            .all(|(x, y)| (x.duration - y.duration).abs() < 1e-12));
        let mut cfg2 = cfg.clone();
        cfg2.seed = 43;
        let mut c = amr_workload(&cfg2, &p);
        let c0: f64 = c.tasks(0, 0).iter().map(|t| t.duration).sum();
        let a0: f64 = a.tasks(0, 0).iter().map(|t| t.duration).sum();
        assert!((c0 - a0).abs() > 1e-12 || cfg2.seed == cfg.seed);
    }
}
