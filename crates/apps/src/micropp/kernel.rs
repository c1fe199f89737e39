//! The real micro-scale FE compute kernel.
//!
//! The hot paths — the stencil apply, the CG dot products, and the vector
//! updates — can run on a [`Pool`] via [`MicroProblem::solve_on`]. All
//! parallel arithmetic uses fixed chunk boundaries and in-order partial
//! combination (see [`crate::par`]), so the solve is bitwise identical
//! whether it runs serially or on any number of threads.

use crate::par::{det_dot, for_each_range, SendPtr};
use std::time::Instant;
use tlb_smprt::Pool;

/// Result of solving one subproblem.
#[derive(Clone, Copy, Debug)]
pub struct SolveStats {
    /// Total CG iterations across all Newton steps.
    pub cg_iterations: usize,
    /// Newton steps executed (1 for linear subproblems).
    pub newton_steps: usize,
    /// Final residual norm.
    pub residual: f64,
}

/// One micro-scale subproblem: a 3-dof-per-node displacement field on an
/// `n × n × n` hex grid. The operator is an elasticity-like stencil —
/// a vector Laplacian plus a component-coupling term scaled by the
/// material stiffness — which has the same memory/compute character as a
/// small assembled FE stiffness without storing the matrix.
///
/// Linear subproblems do one CG solve; non-linear ones emulate a Newton
/// loop: several CG solves with a stiffness updated from the previous
/// displacement (a softening law), which is where MicroPP's extra cost
/// per non-linear Gauss point comes from.
#[derive(Clone, Debug)]
pub struct MicroProblem {
    n: usize,
    /// Material stiffness multiplier (updated by Newton steps).
    stiffness: f64,
    /// Applied macro-strain driving the right-hand side.
    strain: f64,
    nonlinear: bool,
}

impl MicroProblem {
    /// A subproblem on an `n³` grid. `nonlinear` selects the Newton path.
    pub fn new(n: usize, nonlinear: bool) -> Self {
        assert!(n >= 2, "grid must have at least 2 points per dimension");
        MicroProblem {
            n,
            stiffness: 1.0,
            strain: 1e-3,
            nonlinear,
        }
    }

    /// Degrees of freedom (3 per grid point).
    pub fn dofs(&self) -> usize {
        3 * self.n * self.n * self.n
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize, c: usize) -> usize {
        3 * ((x * self.n + y) * self.n + z) + c
    }

    #[inline]
    fn is_boundary(&self, x: usize, y: usize, z: usize) -> bool {
        let n = self.n;
        x == 0 || y == 0 || z == 0 || x == n - 1 || y == n - 1 || z == n - 1
    }

    /// y = A·x for the elasticity-like stencil. Interior points couple to
    /// their 6 interior neighbours per component plus a cross-component
    /// term; boundary points are Dirichlet, eliminated from interior rows
    /// (identity rows plus zero off-diagonal coupling) so the operator is
    /// symmetric — a requirement of CG.
    #[cfg(test)]
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.apply_with(x, y, None);
    }

    /// [`MicroProblem::apply`] parallelised over the outer `ix` index:
    /// each `ix` plane writes a disjoint contiguous block of `3n²` output
    /// values, so the planes can run on any threads in any order and the
    /// result is identical to the serial sweep.
    fn apply_with(&self, x: &[f64], y: &mut [f64], pool: Option<&Pool>) {
        let n = self.n;
        let k = self.stiffness;
        debug_assert_eq!(x.len(), self.dofs());
        debug_assert_eq!(y.len(), self.dofs());
        let yp = SendPtr::new(y.as_mut_ptr());
        // Value of a neighbour as the eliminated-Dirichlet operator sees
        // it: zero on the boundary.
        let v = |ix: usize, iy: usize, iz: usize, c: usize| -> f64 {
            if self.is_boundary(ix, iy, iz) {
                0.0
            } else {
                x[self.idx(ix, iy, iz, c)]
            }
        };
        let plane = |ix: usize| {
            for iy in 0..n {
                for iz in 0..n {
                    let boundary = self.is_boundary(ix, iy, iz);
                    for c in 0..3 {
                        let i = self.idx(ix, iy, iz, c);
                        // SAFETY: index `i` lies in plane `ix`'s disjoint
                        // output block; `y` outlives the parallel region.
                        let out = unsafe { &mut *yp.get().add(i) };
                        if boundary {
                            *out = x[i];
                            continue;
                        }
                        let centre = x[i];
                        let nb = v(ix - 1, iy, iz, c)
                            + v(ix + 1, iy, iz, c)
                            + v(ix, iy - 1, iz, c)
                            + v(ix, iy + 1, iz, c)
                            + v(ix, iy, iz - 1, c)
                            + v(ix, iy, iz + 1, c);
                        // Cross-component coupling (Poisson-ratio-like);
                        // both components share the interior status, so the
                        // coupling block is symmetric.
                        let other = x[self.idx(ix, iy, iz, (c + 1) % 3)]
                            + x[self.idx(ix, iy, iz, (c + 2) % 3)];
                        *out = k * (6.0 * centre - nb) + 0.1 * k * other;
                    }
                }
            }
        };
        match pool {
            Some(p) if n >= 4 => p.parallel_for(n, 1, plane),
            _ => (0..n).for_each(plane),
        }
    }

    /// Right-hand side from the applied macro strain: a body-force-like
    /// load over interior points, component 0.
    fn rhs(&self) -> Vec<f64> {
        let mut b = vec![0.0; self.dofs()];
        let n = self.n;
        for ix in 1..n - 1 {
            for iy in 1..n - 1 {
                for iz in 1..n - 1 {
                    b[self.idx(ix, iy, iz, 0)] = self.strain;
                }
            }
        }
        b
    }

    /// Unpreconditioned CG on the stencil operator. Every reduction uses
    /// fixed-chunk in-order partial sums ([`det_dot`]), so the iterate
    /// sequence is bitwise identical for any thread count.
    fn cg(
        &self,
        b: &[f64],
        x: &mut [f64],
        tol: f64,
        max_iters: usize,
        pool: Option<&Pool>,
    ) -> (usize, f64) {
        let dofs = self.dofs();
        let mut r = vec![0.0; dofs];
        let mut ax = vec![0.0; dofs];
        self.apply_with(x, &mut ax, pool);
        {
            let rp = SendPtr::new(r.as_mut_ptr());
            for_each_range(pool, dofs, |lo, hi| {
                // SAFETY: ranges are disjoint; `r` outlives the region.
                for i in lo..hi {
                    unsafe { *rp.get().add(i) = b[i] - ax[i] };
                }
            });
        }
        let mut p = r.clone();
        let mut rr: f64 = det_dot(pool, &r, &r);
        let b_norm = det_dot(pool, b, b).sqrt().max(1e-30);
        let mut ap = vec![0.0; dofs];
        for it in 0..max_iters {
            if rr.sqrt() / b_norm < tol {
                return (it, rr.sqrt());
            }
            self.apply_with(&p, &mut ap, pool);
            let pap: f64 = det_dot(pool, &p, &ap);
            if pap.abs() < 1e-300 {
                return (it, rr.sqrt());
            }
            let alpha = rr / pap;
            {
                let xp = SendPtr::new(x.as_mut_ptr());
                let rp = SendPtr::new(r.as_mut_ptr());
                for_each_range(pool, dofs, |lo, hi| {
                    // SAFETY: ranges are disjoint; both vectors outlive
                    // the region.
                    for i in lo..hi {
                        unsafe {
                            *xp.get().add(i) += alpha * p[i];
                            *rp.get().add(i) -= alpha * ap[i];
                        }
                    }
                });
            }
            let rr_new: f64 = det_dot(pool, &r, &r);
            let beta = rr_new / rr;
            rr = rr_new;
            {
                let pp = SendPtr::new(p.as_mut_ptr());
                for_each_range(pool, dofs, |lo, hi| {
                    // SAFETY: ranges are disjoint; `p` outlives the region.
                    for (i, &rv) in (lo..hi).zip(&r[lo..hi]) {
                        unsafe { *pp.get().add(i) = rv + beta * *pp.get().add(i) };
                    }
                });
            }
        }
        (max_iters, rr.sqrt())
    }

    /// Solve the subproblem serially; real compute, no shortcuts.
    pub fn solve(&mut self) -> SolveStats {
        self.solve_with(None)
    }

    /// Solve the subproblem with the hot loops spread over `pool`'s
    /// active workers. Bitwise identical to [`MicroProblem::solve`].
    pub fn solve_on(&mut self, pool: &Pool) -> SolveStats {
        self.solve_with(Some(pool))
    }

    fn solve_with(&mut self, pool: Option<&Pool>) -> SolveStats {
        let tol = 1e-8;
        let max_cg = 50 * self.n;
        let b = self.rhs();
        let mut x = vec![0.0; self.dofs()];
        if !self.nonlinear {
            let (iters, res) = self.cg(&b, &mut x, tol, max_cg, pool);
            return SolveStats {
                cg_iterations: iters,
                newton_steps: 1,
                residual: res,
            };
        }
        // Newton loop: soften the stiffness from the displacement norm
        // (a damage-like law) and re-solve until the update stalls.
        let mut total_cg = 0;
        let mut steps = 0;
        let mut res = 0.0;
        for _ in 0..4 {
            steps += 1;
            let (iters, r) = self.cg(&b, &mut x, tol, max_cg, pool);
            total_cg += iters;
            res = r;
            let norm: f64 = det_dot(pool, &x, &x).sqrt();
            let new_stiffness = 1.0 / (1.0 + 5.0 * norm);
            if (new_stiffness - self.stiffness).abs() < 1e-6 {
                break;
            }
            self.stiffness = new_stiffness;
        }
        SolveStats {
            cg_iterations: total_cg,
            newton_steps: steps,
            residual: res,
        }
    }
}

/// Measured linear/non-linear subproblem costs on the host machine.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Seconds per linear subproblem.
    pub linear_secs: f64,
    /// Seconds per non-linear subproblem.
    pub nonlinear_secs: f64,
}

impl Calibration {
    /// Cost ratio non-linear / linear.
    pub fn ratio(&self) -> f64 {
        self.nonlinear_secs / self.linear_secs.max(1e-12)
    }
}

/// Run both kernel variants `reps` times on an `n³` grid and measure
/// their mean cost: the measured inputs to the cluster simulation.
pub fn calibrate(n: usize, reps: usize) -> Calibration {
    assert!(reps > 0, "need at least one repetition");
    let time = |nonlinear: bool| -> f64 {
        let start = Instant::now();
        for _ in 0..reps {
            let mut p = MicroProblem::new(n, nonlinear);
            let stats = p.solve();
            std::hint::black_box(stats.residual);
        }
        start.elapsed().as_secs_f64() / reps as f64
    };
    Calibration {
        linear_secs: time(false),
        nonlinear_secs: time(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_solve_converges() {
        let mut p = MicroProblem::new(6, false);
        let stats = p.solve();
        assert_eq!(stats.newton_steps, 1);
        assert!(stats.cg_iterations > 0);
        assert!(
            stats.residual < 1e-6,
            "CG failed to converge: residual {}",
            stats.residual
        );
    }

    #[test]
    fn nonlinear_costs_more() {
        let mut lin = MicroProblem::new(6, false);
        let mut non = MicroProblem::new(6, true);
        let sl = lin.solve();
        let sn = non.solve();
        assert!(sn.newton_steps > 1);
        assert!(
            sn.cg_iterations > sl.cg_iterations,
            "nonlinear {} vs linear {} CG iterations",
            sn.cg_iterations,
            sl.cg_iterations
        );
    }

    #[test]
    fn solution_is_nontrivial_and_finite() {
        let p = MicroProblem::new(5, false);
        let b = p.rhs();
        let mut x = vec![0.0; p.dofs()];
        let (_, res) = p.cg(&b, &mut x, 1e-8, 500, None);
        assert!(res.is_finite());
        let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm > 0.0, "zero solution for nonzero load");
        // Dirichlet boundary stays put.
        assert_eq!(x[p.idx(0, 2, 2, 0)], 0.0);
    }

    #[test]
    fn operator_is_symmetric() {
        // CG requires a symmetric operator: check x·(A y) == y·(A x) on
        // random vectors.
        let p = MicroProblem::new(4, false);
        let mut rng = tlb_rng::Rng::seed_from_u64(7);
        let dofs = p.dofs();
        for _ in 0..5 {
            let x: Vec<f64> = (0..dofs).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let y: Vec<f64> = (0..dofs).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut ax = vec![0.0; dofs];
            let mut ay = vec![0.0; dofs];
            p.apply(&x, &mut ax);
            p.apply(&y, &mut ay);
            let xay: f64 = x.iter().zip(&ay).map(|(a, b)| a * b).sum();
            let yax: f64 = y.iter().zip(&ax).map(|(a, b)| a * b).sum();
            assert!(
                (xay - yax).abs() < 1e-9 * xay.abs().max(1.0),
                "asymmetric operator: {xay} vs {yax}"
            );
        }
    }

    #[test]
    fn solve_bitwise_identical_across_thread_counts() {
        // The acceptance bar for the parallel kernels: the full Newton/CG
        // solve — every dot product, axpy, and stencil apply — produces
        // the exact same bits at 1, 2, 4 and 8 threads as serially.
        let serial = {
            let mut p = MicroProblem::new(8, true);
            p.solve()
        };
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut p = MicroProblem::new(8, true);
            let stats = p.solve_on(&pool);
            assert_eq!(
                stats.cg_iterations, serial.cg_iterations,
                "{threads} threads"
            );
            assert_eq!(stats.newton_steps, serial.newton_steps, "{threads} threads");
            assert_eq!(
                stats.residual.to_bits(),
                serial.residual.to_bits(),
                "residual differs at {threads} threads"
            );
            assert_eq!(
                p.stiffness.to_bits(),
                {
                    let mut q = MicroProblem::new(8, true);
                    q.solve();
                    q.stiffness.to_bits()
                },
                "final Newton stiffness differs at {threads} threads"
            );
        }
    }

    #[test]
    fn cg_solution_vector_bitwise_identical_across_thread_counts() {
        let p = MicroProblem::new(7, false);
        let b = p.rhs();
        let mut x_ref = vec![0.0; p.dofs()];
        p.cg(&b, &mut x_ref, 1e-8, 500, None);
        for threads in [1usize, 2, 8] {
            let pool = Pool::new(threads);
            let mut x = vec![0.0; p.dofs()];
            p.cg(&b, &mut x, 1e-8, 500, Some(&pool));
            assert!(
                x.iter()
                    .zip(&x_ref)
                    .all(|(a, r)| a.to_bits() == r.to_bits()),
                "CG iterate differs at {threads} threads"
            );
        }
    }

    #[test]
    fn calibration_measures_positive_costs() {
        // Grid 6³ with a few reps: large enough that the nonlinear/linear
        // wall-clock ratio is robust to scheduler noise in parallel tests.
        let c = calibrate(6, 3);
        assert!(c.linear_secs > 0.0);
        assert!(c.nonlinear_secs > 0.0);
        assert!(
            c.ratio() > 1.0,
            "nonlinear should cost more (ratio {})",
            c.ratio()
        );
    }
}
