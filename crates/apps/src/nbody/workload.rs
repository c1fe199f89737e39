//! The n-body workload for the cluster simulation.

use crate::nbody::{orb_partition, Body};
use tlb_cluster::{TaskSpec, Workload};
use tlb_rng::Rng;

/// Parameters of the simulated n-body run.
#[derive(Clone, Debug)]
pub struct NBodyConfig {
    /// Total bodies across all ranks.
    pub bodies: usize,
    /// Appranks.
    pub appranks: usize,
    /// Bodies per force task (the blocking of the `calculate_forces`
    /// task in the paper's Fig. 3).
    pub bodies_per_task: usize,
    /// Seconds of compute per body per `log2(total bodies)`: a model
    /// constant (1 µs by default), not measured on any host.
    pub force_cost: f64,
    /// Timesteps.
    pub iterations: usize,
    /// Bytes shipped per body when a task is offloaded (positions +
    /// masses in and forces back).
    pub bytes_per_body: usize,
    /// Fraction of bodies in a dense Plummer-like core (the rest fill a
    /// uniform halo). Dense regions have deeper octrees, so their force
    /// tasks cost more per body — the load imbalance ORB cannot see,
    /// because it equalises *counts*.
    pub core_fraction: f64,
    /// Exponent of the density→cost law (0 disables density effects).
    pub density_exponent: f64,
    /// RNG seed for positions and per-step drift.
    pub seed: u64,
}

impl NBodyConfig {
    /// Defaults sized so one iteration is a few hundred ms per rank.
    pub fn new(bodies: usize, appranks: usize) -> Self {
        NBodyConfig {
            bodies,
            appranks,
            bodies_per_task: 256,
            force_cost: 1e-6,
            iterations: 8,
            bytes_per_body: 48,
            core_fraction: 0.6,
            density_exponent: 0.15,
            seed: 99,
        }
    }
}

/// 30-bit Morton (Z-order) code of a position in [-1.5, 1.5]³.
fn morton(pos: &[f64; 3]) -> u64 {
    let spread = |mut v: u64| {
        v &= 0x3FF;
        v = (v | (v << 20)) & 0x000F_0000_00FF;
        v = (v | (v << 10)) & 0x000F_00F0_0F00_F00F;
        v = (v | (v << 4)) & 0x00C3_0C30_C30C_30C3;
        v = (v | (v << 2)) & 0x0249_2492_4924_9249;
        v
    };
    let q = |x: f64| -> u64 { (((x + 1.5) / 3.0).clamp(0.0, 0.999) * 1024.0) as u64 };
    spread(q(pos[0])) | (spread(q(pos[1])) << 1) | (spread(q(pos[2])) << 2)
}

/// The workload: holds real body positions, partitions them with ORB
/// every timestep, and emits one force task per body block. Task cost
/// follows Barnes–Hut's `n log n`: `force_cost × block × log2(total)`.
///
/// ORB equalises *counts*; it never learns that a node is slow — the
/// paper's point in §7.1. Positions drift a little each step so the
/// partition genuinely recomputes.
pub struct NBodyWorkload {
    cfg: NBodyConfig,
    bodies: Vec<Body>,
    assignment: Vec<usize>,
    rng: Rng,
}

impl NBodyWorkload {
    /// Build with a clustered distribution: a Gaussian core holding
    /// `core_fraction` of the bodies inside a uniform halo cube.
    pub fn new(cfg: NBodyConfig) -> Self {
        assert!(cfg.bodies >= cfg.appranks, "fewer bodies than ranks");
        let mut rng = Rng::seed_from_u64(cfg.seed);
        let n_core = (cfg.bodies as f64 * cfg.core_fraction) as usize;
        let gauss = |rng: &mut Rng| {
            // Box–Muller from two uniforms.
            let u1: f64 = rng.range_f64(1e-12, 1.0);
            let u2: f64 = rng.f64_unit();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let bodies: Vec<Body> = (0..cfg.bodies)
            .map(|i| {
                let pos = if i < n_core {
                    // Off-centre dense core: a centred cluster would be
                    // split evenly by ORB's median planes and hide the
                    // density imbalance entirely.
                    [
                        -0.55 + 0.12 * gauss(&mut rng),
                        -0.55 + 0.12 * gauss(&mut rng),
                        -0.55 + 0.12 * gauss(&mut rng),
                    ]
                } else {
                    [
                        rng.range_f64(-1.0, 1.0),
                        rng.range_f64(-1.0, 1.0),
                        rng.range_f64(-1.0, 1.0),
                    ]
                };
                Body {
                    pos,
                    vel: [0.0; 3],
                    mass: rng.range_f64(0.5, 2.0),
                }
            })
            .collect();
        let assignment = orb_partition(&bodies, cfg.appranks);
        NBodyWorkload {
            cfg,
            bodies,
            assignment,
            rng,
        }
    }

    /// Bodies currently assigned to `rank`.
    pub fn rank_count(&self, rank: usize) -> usize {
        self.assignment.iter().filter(|&&r| r == rank).count()
    }

    /// Cost multiplier of a block of bodies from its local density: deeper
    /// octree ⇒ more interactions per body. Density is measured against
    /// the global mean via the block's bounding-box volume.
    fn density_factor(&self, block: &[usize]) -> f64 {
        if self.cfg.density_exponent == 0.0 || block.len() < 2 {
            return 1.0;
        }
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for &i in block {
            for d in 0..3 {
                lo[d] = lo[d].min(self.bodies[i].pos[d]);
                hi[d] = hi[d].max(self.bodies[i].pos[d]);
            }
        }
        let vol: f64 = (0..3).map(|d| (hi[d] - lo[d]).max(1e-6)).product();
        let density = block.len() as f64 / vol;
        let global_density = self.cfg.bodies as f64 / 8.0; // cube volume 2³
        (density / global_density)
            .powf(self.cfg.density_exponent)
            .clamp(0.4, 4.0)
    }
}

impl Workload for NBodyWorkload {
    fn appranks(&self) -> usize {
        self.cfg.appranks
    }

    fn iterations(&self) -> usize {
        self.cfg.iterations
    }

    fn tasks(&mut self, rank: usize, _iteration: usize) -> Vec<TaskSpec> {
        let mut mine: Vec<usize> = (0..self.bodies.len())
            .filter(|&i| self.assignment[i] == rank)
            .collect();
        if mine.is_empty() {
            return Vec::new();
        }
        // Blocks must be spatially coherent (the real code blocks the
        // octree traversal): order by Morton code before chunking.
        mine.sort_by_key(|&i| morton(&self.bodies[i].pos));
        let log_n = (self.cfg.bodies.max(2) as f64).log2();
        mine.chunks(self.cfg.bodies_per_task)
            .map(|block| {
                let factor = self.density_factor(block);
                TaskSpec::with_bytes(
                    self.cfg.force_cost * block.len() as f64 * log_n * factor,
                    block.len() * self.cfg.bytes_per_body,
                )
            })
            .collect()
    }

    fn end_iteration(&mut self, _iteration: usize, _rank_seconds: &[f64]) {
        // Drift positions slightly (a cheap surrogate for the integrator)
        // and re-run ORB, as the application does every timestep.
        for b in self.bodies.iter_mut() {
            for d in 0..3 {
                b.pos[d] += self.rng.range_f64(-0.01, 0.01);
            }
        }
        self.assignment = orb_partition(&self.bodies, self.cfg.appranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_get_equal_counts() {
        let wl = NBodyWorkload::new(NBodyConfig::new(4096, 8));
        for r in 0..8 {
            assert_eq!(wl.rank_count(r), 512);
        }
    }

    #[test]
    fn tasks_cover_all_bodies() {
        let mut wl = NBodyWorkload::new(NBodyConfig::new(4000, 4));
        let specs = wl.tasks(0, 0);
        let total_bytes: usize = specs.iter().map(|t| t.bytes).sum();
        assert_eq!(total_bytes, 1000 * 48);
        // 1000 bodies in blocks of 256 → 3 full + 1 remainder task.
        assert_eq!(specs.len(), 4);
    }

    #[test]
    fn counts_balanced_but_work_is_not() {
        // ORB equalises counts exactly; with a clustered distribution the
        // dense-core ranks cost more per body, so *work* is imbalanced —
        // the gap the paper's runtime closes (Fig. 6c).
        let mut wl = NBodyWorkload::new(NBodyConfig::new(8192, 8));
        let counts: Vec<usize> = (0..8).map(|r| wl.rank_count(r)).collect();
        assert!(counts.iter().all(|&c| c == 1024), "counts {counts:?}");
        let work: Vec<f64> = (0..8)
            .map(|r| wl.tasks(r, 0).iter().map(|t| t.duration).sum())
            .collect();
        let imb = tlb_core::imbalance(&work);
        assert!(imb > 1.05, "density cost should imbalance work: {imb}");
        assert!(imb < 2.0, "imbalance implausibly large: {imb}");
    }

    #[test]
    fn uniform_distribution_work_is_balanced() {
        let mut cfg = NBodyConfig::new(8192, 8);
        cfg.core_fraction = 0.0;
        cfg.density_exponent = 0.0;
        let mut wl = NBodyWorkload::new(cfg);
        let work: Vec<f64> = (0..8)
            .map(|r| wl.tasks(r, 0).iter().map(|t| t.duration).sum())
            .collect();
        let imb = tlb_core::imbalance(&work);
        assert!(imb < 1.01, "uniform ORB should balance work: {imb}");
    }

    #[test]
    fn repartition_keeps_balance_after_drift() {
        let mut wl = NBodyWorkload::new(NBodyConfig::new(2048, 4));
        for it in 0..3 {
            wl.end_iteration(it, &[0.0; 4]);
        }
        let counts: Vec<usize> = (0..4).map(|r| wl.rank_count(r)).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max - min <= 2, "counts {counts:?}");
    }

    #[test]
    fn cost_model_follows_nlogn() {
        let mut c_small = NBodyConfig::new(1024, 1);
        let mut c_large = NBodyConfig::new(4096, 1);
        // Disable the density law so the pure n·log n scaling is visible.
        for c in [&mut c_small, &mut c_large] {
            c.core_fraction = 0.0;
            c.density_exponent = 0.0;
        }
        let mut small = NBodyWorkload::new(c_small);
        let mut large = NBodyWorkload::new(c_large);
        let ws: f64 = small.tasks(0, 0).iter().map(|t| t.duration).sum();
        let wl_: f64 = large.tasks(0, 0).iter().map(|t| t.duration).sum();
        // 4x bodies, log factor 12/10 → expect ratio 4 × 1.2 = 4.8.
        let ratio = wl_ / ws;
        assert!((4.6..5.0).contains(&ratio), "ratio {ratio}");
    }
}
