//! Dense two-phase simplex with Bland's anti-cycling rule.
//!
//! Solves `min c·x` subject to `A x {≤,=,≥} b` and `x ≥ 0`. Designed for
//! the small, dense allocation programs this project generates (hundreds of
//! rows/columns); no sparsity or revised-simplex machinery is needed at
//! that scale, and a tableau implementation is easy to audit.
//!
//! Pricing runs in row order: the reduced costs start as
//! `cost[..col_limit]`, and each row whose basic cost `cb` is nonzero
//! subtracts `cb · a[i][..col_limit]` in one contiguous pass. Every column
//! gets the operations, in the order, that walking it down the rows gave
//! it, so every entering column is bit-identical to that walk's. An
//! `in_basis` mask replaces searching the basis.

use std::fmt;

/// Relation of one constraint row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `a·x <= b`
    Le,
    /// `a·x == b`
    Eq,
    /// `a·x >= b`
    Ge,
}

/// One linear constraint `coeffs · x  rel  rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Sparse coefficient list: `(variable index, coefficient)`.
    pub coeffs: Vec<(usize, f64)>,
    /// The relation.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// Errors from LP construction or solving.
#[derive(Clone, Debug, PartialEq)]
pub enum LpError {
    /// No feasible point satisfies the constraints.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// A constraint references a variable outside `0..num_vars`.
    BadVariable { var: usize, num_vars: usize },
    /// Iteration limit hit (should not occur with Bland's rule; indicates
    /// numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::BadVariable { var, num_vars } => {
                write!(f, "variable {var} out of range (num_vars = {num_vars})")
            }
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal LP solution.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal variable values (length `num_vars`).
    pub x: Vec<f64>,
    /// Optimal objective value `c·x`.
    pub objective: f64,
    /// Simplex pivots performed across both phases.
    pub iterations: usize,
}

/// A linear program under construction: `min c·x, A x {≤,=,≥} b, x ≥ 0`.
#[derive(Clone, Debug, Default)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// A program over `num_vars` non-negative variables with zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Set the objective coefficient of variable `var` (minimisation).
    pub fn set_objective(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.num_vars, "objective variable out of range");
        self.objective[var] = coeff;
        self
    }

    /// Add a constraint; sparse coefficients, later duplicates summed.
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (usize, f64)>,
        rel: Relation,
        rhs: f64,
    ) -> &mut Self {
        self.constraints.push(Constraint {
            coeffs: coeffs.into_iter().collect(),
            rel,
            rhs,
        });
        self
    }

    /// Solve by two-phase dense simplex.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        for c in &self.constraints {
            for &(v, _) in &c.coeffs {
                if v >= self.num_vars {
                    return Err(LpError::BadVariable {
                        var: v,
                        num_vars: self.num_vars,
                    });
                }
            }
        }
        Tableau::build(self).solve(&self.objective)
    }
}

const EPS: f64 = 1e-9;

/// Dense simplex tableau in equality standard form with slack/artificial
/// columns appended after the structural variables.
struct Tableau {
    /// rows × cols coefficient matrix (cols = structural + slack + artificial).
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    /// Basis variable per row.
    basis: Vec<usize>,
    /// `in_basis[j]`: column `j` is some row's basis variable.
    in_basis: Vec<bool>,
    structural: usize,
    cols: usize,
    artificial_start: usize,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Tableau {
        let rows = lp.constraints.len();
        let structural = lp.num_vars;
        // Count slack/surplus and artificial columns.
        let mut n_slack = 0;
        let mut n_artificial = 0;
        for c in &lp.constraints {
            // Rows are normalised to b >= 0 first; the effective relation
            // after normalisation decides the columns.
            let rel = if c.rhs < 0.0 { flip(c.rel) } else { c.rel };
            match rel {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_artificial += 1;
                }
                Relation::Eq => n_artificial += 1,
            }
        }
        let cols = structural + n_slack + n_artificial;
        let artificial_start = structural + n_slack;

        let mut a = vec![vec![0.0; cols]; rows];
        let mut b = vec![0.0; rows];
        let mut basis = vec![usize::MAX; rows];
        let mut slack_idx = structural;
        let mut art_idx = artificial_start;

        for (i, c) in lp.constraints.iter().enumerate() {
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            let rel = if c.rhs < 0.0 { flip(c.rel) } else { c.rel };
            for &(v, coeff) in &c.coeffs {
                a[i][v] += sign * coeff;
            }
            b[i] = sign * c.rhs;
            match rel {
                Relation::Le => {
                    a[i][slack_idx] = 1.0;
                    basis[i] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    a[i][slack_idx] = -1.0; // surplus
                    slack_idx += 1;
                    a[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
                Relation::Eq => {
                    a[i][art_idx] = 1.0;
                    basis[i] = art_idx;
                    art_idx += 1;
                }
            }
        }
        let mut in_basis = vec![false; cols];
        for &j in &basis {
            in_basis[j] = true;
        }
        Tableau {
            a,
            b,
            basis,
            in_basis,
            structural,
            cols,
            artificial_start,
        }
    }

    fn solve(mut self, objective: &[f64]) -> Result<LpSolution, LpError> {
        let mut iterations = 0;
        // Phase 1: minimise the sum of artificial variables.
        if self.artificial_start < self.cols {
            let mut phase1 = vec![0.0; self.cols];
            for c in phase1.iter_mut().skip(self.artificial_start) {
                *c = 1.0;
            }
            let obj1 = self.run_phase(&phase1, self.cols, &mut iterations)?;
            if obj1 > 1e-7 {
                return Err(LpError::Infeasible);
            }
            self.drive_out_artificials(&mut iterations);
        }
        // Phase 2: minimise the real objective over structural + slack only.
        let mut phase2 = vec![0.0; self.cols];
        phase2[..self.structural].copy_from_slice(&objective[..self.structural]);
        let obj = self.run_phase(&phase2, self.artificial_start, &mut iterations)?;
        let mut x = vec![0.0; self.structural];
        for (row, &bv) in self.basis.iter().enumerate() {
            if bv < self.structural {
                x[bv] = self.b[row];
            }
        }
        Ok(LpSolution {
            x,
            objective: obj,
            iterations,
        })
    }

    /// Run primal simplex minimising `cost`, allowing entering columns only
    /// in `0..col_limit`. Returns the optimal objective value.
    fn run_phase(
        &mut self,
        cost: &[f64],
        col_limit: usize,
        iterations: &mut usize,
    ) -> Result<f64, LpError> {
        let rows = self.a.len();
        // Reduced costs require the objective row in terms of the current
        // basis: z_j - c_j. Maintain implicitly: compute y = c_B B^-1 via
        // the tableau (the tableau is kept in B^-1 A form).
        let max_iters = 50 * (rows + self.cols).max(100);
        // Dantzig's rule is fast on these allocation programs but can cycle
        // forever on degenerate vertices (Beale's example). Watch the
        // objective: after STALL_LIMIT pivots without strict improvement,
        // switch to Bland's rule — which provably terminates — and stay on
        // it until the objective moves again.
        const STALL_LIMIT: usize = 16;
        let mut stalled = 0usize;
        let mut bland = false;
        let mut last_obj = f64::INFINITY;
        loop {
            *iterations += 1;
            if *iterations > max_iters {
                return Err(LpError::IterationLimit);
            }
            let current: f64 = (0..rows).map(|i| cost[self.basis[i]] * self.b[i]).sum();
            if current < last_obj - EPS {
                last_obj = current;
                stalled = 0;
                bland = false;
            } else {
                stalled += 1;
                if stalled >= STALL_LIMIT {
                    bland = true;
                }
            }
            let entering = self.price(cost, col_limit, bland);
            #[cfg(test)]
            let entering = tests::reference_pricing(self, cost, col_limit, bland, entering);
            let Some(enter) = entering else {
                // Optimal: compute objective.
                let mut obj = 0.0;
                for i in 0..rows {
                    obj += cost[self.basis[i]] * self.b[i];
                }
                return Ok(obj);
            };
            // Ratio test (Bland ties: lowest basis index).
            let mut leave = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..rows {
                let aij = self.a[i][enter];
                if aij > EPS {
                    let ratio = self.b[i] / aij;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l: usize| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(leave, enter);
        }
    }

    /// The entering column for `cost` among `0..col_limit`: Dantzig's
    /// (most negative reduced cost, first on ties) normally, the lowest
    /// index with a negative one under Bland.
    fn price(&self, cost: &[f64], col_limit: usize, bland: bool) -> Option<usize> {
        // Reduced cost of column j: c_j - sum_i c_basis[i] * a[i][j],
        // accumulated row by row.
        let mut rc = cost[..col_limit].to_vec();
        for (row, &bv) in self.a.iter().zip(&self.basis) {
            let cb = cost[bv];
            if cb != 0.0 {
                for (r, &a) in rc.iter_mut().zip(&row[..col_limit]) {
                    *r -= cb * a;
                }
            }
        }
        let mut entering = None;
        let mut best_rc = -EPS;
        for (j, &r) in rc.iter().enumerate() {
            if r < best_rc && !self.in_basis[j] {
                if bland {
                    return Some(j);
                }
                best_rc = r;
                entering = Some(j);
            }
        }
        entering
    }

    /// After phase 1, replace any artificial variable still (degenerately)
    /// in the basis with a structural/slack column, or drop the row if it
    /// is redundant.
    fn drive_out_artificials(&mut self, iterations: &mut usize) {
        let rows = self.a.len();
        for i in 0..rows {
            if self.basis[i] >= self.artificial_start {
                debug_assert!(self.b[i].abs() <= 1e-7, "artificial basic at nonzero value");
                if let Some(j) = (0..self.artificial_start).find(|&j| self.a[i][j].abs() > EPS) {
                    *iterations += 1;
                    self.pivot(i, j);
                }
                // else: the row is all-zero over real columns → redundant
                // constraint; leaving the artificial basic at value 0 is
                // harmless for phase 2 since its cost coefficient is 0.
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let rows = self.a.len();
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS, "pivot on (near-)zero element");
        let inv = 1.0 / piv;
        for v in self.a[row].iter_mut() {
            *v *= inv;
        }
        self.b[row] *= inv;
        for i in 0..rows {
            if i == row {
                continue;
            }
            let factor = self.a[i][col];
            if factor.abs() <= EPS {
                self.a[i][col] = 0.0;
                continue;
            }
            let (head, tail) = self.a.split_at_mut(row.max(i));
            let (src, dst) = if i < row {
                (&tail[0], &mut head[i])
            } else {
                (&head[row], &mut tail[0])
            };
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d -= factor * s;
            }
            self.b[i] -= factor * self.b[row];
            self.a[i][col] = 0.0; // exact zero to stop drift
        }
        #[cfg(test)]
        tests::PIVOTS.with(|p| p.borrow_mut().push((row, col)));
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
    }
}

fn flip(rel: Relation) -> Relation {
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{allocation_program, AllocationProblem};
    use std::cell::{Cell, RefCell};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    thread_local! {
        /// Every `(row, col)` pivot of this thread, in order.
        pub(super) static PIVOTS: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
        /// Enter the column the reference pricing picks instead.
        static COLUMN_ORDER: Cell<bool> = const { Cell::new(false) };
    }

    /// Under `COLUMN_ORDER`, the entering column of the pricing this
    /// module had before the row-order pass: each column walked down the
    /// rows after a linear search of the basis. Otherwise `picked`.
    pub(super) fn reference_pricing(
        t: &Tableau,
        cost: &[f64],
        col_limit: usize,
        bland: bool,
        picked: Option<usize>,
    ) -> Option<usize> {
        if !COLUMN_ORDER.with(Cell::get) {
            return picked;
        }
        let mut entering = None;
        let mut best_rc = -EPS;
        for j in 0..col_limit {
            if t.basis.contains(&j) {
                continue;
            }
            let mut rc = cost[j];
            for i in 0..t.a.len() {
                let cb = cost[t.basis[i]];
                if cb != 0.0 {
                    rc -= cb * t.a[i][j];
                }
            }
            if rc < best_rc {
                if bland {
                    entering = Some(j);
                    break;
                }
                best_rc = rc;
                entering = Some(j);
            }
        }
        entering
    }

    /// `lp` solved with the reference or the row-order pricing, and the
    /// pivots it made.
    fn solve_logged(
        lp: &LinearProgram,
        column_order: bool,
    ) -> (Result<LpSolution, LpError>, Vec<(usize, usize)>) {
        COLUMN_ORDER.with(|c| c.set(column_order));
        PIVOTS.with(|p| p.borrow_mut().clear());
        let result = lp.solve();
        COLUMN_ORDER.with(|c| c.set(false));
        (result, PIVOTS.with(|p| p.take()))
    }

    /// Row-order pricing makes the pivots, iterations and bits of the
    /// reference pricing on `lp`.
    fn assert_pricing_unchanged(lp: &LinearProgram, what: &str) {
        let (want, want_pivots) = solve_logged(lp, true);
        let (got, got_pivots) = solve_logged(lp, false);
        assert_eq!(got_pivots, want_pivots, "{what}: pivots");
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.iterations, want.iterations, "{what}: iterations");
                let bits = |s: &LpSolution| s.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{what}: x");
                assert_eq!(
                    got.objective.to_bits(),
                    want.objective.to_bits(),
                    "{what}: objective"
                );
            }
            (got, want) => assert_eq!(got.err(), want.err(), "{what}: outcome"),
        }
    }

    /// A random allocation problem: `nodes` nodes, 1–3 appranks per node,
    /// each on its home plus up to three distinct random helpers, random,
    /// all-zero or single-hot work, and some slow nodes.
    fn random_allocation(rng: &mut tlb_rng::Rng, nodes: usize) -> AllocationProblem {
        let per = rng.range_usize(1, 4);
        let degree = rng.range_usize(1, nodes.min(4) + 1);
        let appranks = nodes * per;
        let adjacency: Vec<Vec<usize>> = (0..appranks)
            .map(|a| {
                let mut adj = vec![a / per];
                while adj.len() < degree {
                    let n = rng.range_usize(0, nodes);
                    if !adj.contains(&n) {
                        adj.push(n);
                    }
                }
                adj[1..].sort_unstable();
                adj
            })
            .collect();
        let hot = rng.range_usize(0, appranks);
        let work = match rng.range_u64(0, 4) {
            0 => vec![0.0; appranks],
            1 => (0..appranks)
                .map(|a| if a == hot { 100.0 } else { 0.0 })
                .collect(),
            _ => (0..appranks).map(|_| rng.range_f64(0.0, 60.0)).collect(),
        };
        let mut workers = vec![0; nodes];
        adjacency.iter().flatten().for_each(|&n| workers[n] += 1);
        AllocationProblem {
            work,
            adjacency,
            node_cores: workers.iter().map(|w| w + rng.range_usize(0, 24)).collect(),
            node_speed: (0..nodes)
                .map(|_| if rng.chance(0.2) { 0.6 } else { 1.0 })
                .collect(),
            keep_local_incentive: 1e-6,
        }
    }

    #[test]
    fn row_order_pricing_replays_column_order_pivots() {
        let mut rng = tlb_rng::Rng::seed_from_u64(0x51_3c7);
        for case in 0..200 {
            // Mostly small shapes, every twentieth up to 64 nodes.
            let nodes = if case % 20 == 0 {
                rng.range_usize(17, 65)
            } else {
                rng.range_usize(2, 17)
            };
            let p = random_allocation(&mut rng, nodes);
            let (lp, _) = allocation_program(&p);
            assert_pricing_unchanged(&lp, &format!("case {case} ({nodes} nodes)"));
        }
        // And the hand-built programs below: degenerate, Beale's cycle
        // (which switches to Bland's rule), redundant rows.
        let mut degenerate = LinearProgram::new(2);
        degenerate.set_objective(0, -1.0).set_objective(1, -1.0);
        degenerate.add_constraint([(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        degenerate.add_constraint([(0, 1.0)], Relation::Le, 1.0);
        degenerate.add_constraint([(1, 1.0)], Relation::Le, 1.0);
        degenerate.add_constraint([(0, 2.0), (1, 1.0)], Relation::Le, 2.0);
        let mut beale = LinearProgram::new(4);
        beale
            .set_objective(0, -0.75)
            .set_objective(1, 150.0)
            .set_objective(2, -0.02)
            .set_objective(3, 6.0);
        beale.add_constraint(
            [(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        beale.add_constraint(
            [(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        beale.add_constraint([(2, 1.0)], Relation::Le, 1.0);
        let mut redundant = LinearProgram::new(2);
        redundant.set_objective(0, 1.0);
        redundant.add_constraint([(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        redundant.add_constraint([(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        for (lp, what) in [
            (degenerate, "degenerate"),
            (beale, "beale"),
            (redundant, "redundant"),
        ] {
            assert_pricing_unchanged(&lp, what);
        }
    }

    #[test]
    fn textbook_maximisation() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  → x=2, y=6, obj=36.
        // As minimisation of -(3x+5y).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -3.0).set_objective(1, -5.0);
        lp.add_constraint([(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint([(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint([(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 10, x <= 4 → x=4, y=6, obj=16.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0).set_objective(1, 2.0);
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint([(0, 1.0)], Relation::Le, 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 16.0);
        assert_close(s.x[0], 4.0);
    }

    #[test]
    fn ge_constraints_phase1() {
        // min 2x + 3y s.t. x + y >= 5, x >= 1 → x=5? No: cost of x is
        // lower, so x=5,y=0 gives 10; check x>=1 satisfied.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 2.0).set_objective(1, 3.0);
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Ge, 5.0);
        lp.add_constraint([(0, 1.0)], Relation::Ge, 1.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 10.0);
        assert_close(s.x[0], 5.0);
    }

    #[test]
    fn negative_rhs_normalised() {
        // min x s.t. -x <= -3  (i.e. x >= 3) → x=3.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint([(0, -1.0)], Relation::Le, -3.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let mut lp = LinearProgram::new(1);
        lp.add_constraint([(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint([(0, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x with only x >= 0.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint([(0, 1.0)], Relation::Ge, 0.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bad_variable_reported() {
        let mut lp = LinearProgram::new(1);
        lp.add_constraint([(3, 1.0)], Relation::Le, 1.0);
        assert!(matches!(
            lp.solve().unwrap_err(),
            LpError::BadVariable {
                var: 3,
                num_vars: 1
            }
        ));
    }

    #[test]
    fn degenerate_program_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0).set_objective(1, -1.0);
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        lp.add_constraint([(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint([(1, 1.0)], Relation::Le, 1.0);
        lp.add_constraint([(0, 2.0), (1, 1.0)], Relation::Le, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -1.0);
    }

    #[test]
    fn min_max_work_split() {
        // The allocation pattern in miniature: spread work 9 (apprank 0,
        // nodes {0,1}) and 3 (apprank 1, node {1}) over two 1-core nodes.
        // Variables: w00, w01, w11, t. min t s.t.
        //   w00 + w01 = 9; w11 = 3; w00 <= t; w01 + w11 <= t.
        let (w00, w01, w11, t) = (0, 1, 2, 3);
        let mut lp = LinearProgram::new(4);
        lp.set_objective(t, 1.0);
        lp.add_constraint([(w00, 1.0), (w01, 1.0)], Relation::Eq, 9.0);
        lp.add_constraint([(w11, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint([(w00, 1.0), (t, -1.0)], Relation::Le, 0.0);
        lp.add_constraint([(w01, 1.0), (w11, 1.0), (t, -1.0)], Relation::Le, 0.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 6.0); // perfect split: 6 / 6
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 twice (redundant) plus objective.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn beale_cycling_instance_terminates_at_optimum() {
        // Beale's classic example cycles forever under pure Dantzig
        // pivoting; the stall-triggered switch to Bland's rule must break
        // the cycle and land on the optimum −0.05 at x = (0.04, 0, 1, 0).
        let mut lp = LinearProgram::new(4);
        lp.set_objective(0, -0.75)
            .set_objective(1, 150.0)
            .set_objective(2, -0.02)
            .set_objective(3, 6.0);
        lp.add_constraint(
            [(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            [(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint([(2, 1.0)], Relation::Le, 1.0);
        let s = lp.solve().expect("Beale's example is bounded and feasible");
        assert_close(s.objective, -0.05);
        assert_close(s.x[0], 0.04);
        assert_close(s.x[2], 1.0);
    }

    #[test]
    fn heavily_degenerate_vertex_terminates() {
        // Every constraint is active at the optimum (1,1,1)/redundant —
        // maximal opportunity for zero-progress pivots. Must return the
        // optimum, never IterationLimit.
        let mut lp = LinearProgram::new(3);
        for v in 0..3 {
            lp.set_objective(v, -1.0);
            lp.add_constraint([(v, 1.0)], Relation::Le, 1.0);
            lp.add_constraint([(v, 2.0)], Relation::Le, 2.0);
        }
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Le, 2.0);
        lp.add_constraint([(1, 1.0), (2, 1.0)], Relation::Le, 2.0);
        lp.add_constraint([(0, 1.0), (2, 1.0)], Relation::Le, 2.0);
        lp.add_constraint([(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 3.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -3.0);
    }

    #[test]
    fn unbounded_after_nontrivial_phase1() {
        // Phase 1 must pivot to reach feasibility (x + y >= 2), then
        // phase 2 discovers the objective −x − y has no floor. The
        // structured error must come back, not a panic or a spin.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, -1.0).set_objective(1, -1.0);
        lp.add_constraint([(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        lp.add_constraint([(0, 1.0), (1, -1.0)], Relation::Le, 5.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn random_lps_match_bruteforce_vertices() {
        // 2-variable random LPs: compare against brute-force over
        // constraint-intersection vertices.
        let mut rng = tlb_rng::Rng::seed_from_u64(99);
        for _case in 0..200 {
            let n_cons = rng.range_usize(2, 6);
            let mut lp = LinearProgram::new(2);
            let c = [rng.range_f64(0.1, 2.0), rng.range_f64(0.1, 2.0)];
            lp.set_objective(0, c[0]).set_objective(1, c[1]);
            let mut cons: Vec<(f64, f64, f64)> = Vec::new();
            for _ in 0..n_cons {
                // a x + b y >= r with a,b >= 0 keeps the LP feasible+bounded.
                let (a, b, r) = (
                    rng.range_f64(0.0, 2.0),
                    rng.range_f64(0.0, 2.0),
                    rng.range_f64(0.5, 4.0),
                );
                if a + b < 0.1 {
                    continue;
                }
                lp.add_constraint([(0, a), (1, b)], Relation::Ge, r);
                cons.push((a, b, r));
            }
            if cons.is_empty() {
                continue;
            }
            let s = lp.solve().unwrap();
            // Brute force: candidate vertices are pairwise intersections
            // plus axis intercepts.
            let mut best = f64::INFINITY;
            let mut candidates: Vec<(f64, f64)> = Vec::new();
            for &(a, b, r) in &cons {
                if a > 1e-12 {
                    candidates.push((r / a, 0.0));
                }
                if b > 1e-12 {
                    candidates.push((0.0, r / b));
                }
            }
            for i in 0..cons.len() {
                for j in i + 1..cons.len() {
                    let (a1, b1, r1) = cons[i];
                    let (a2, b2, r2) = cons[j];
                    let det = a1 * b2 - a2 * b1;
                    if det.abs() > 1e-9 {
                        let x = (r1 * b2 - r2 * b1) / det;
                        let y = (a1 * r2 - a2 * r1) / det;
                        candidates.push((x, y));
                    }
                }
            }
            for (x, y) in candidates {
                if x < -1e-9 || y < -1e-9 {
                    continue;
                }
                if cons.iter().all(|&(a, b, r)| a * x + b * y >= r - 1e-6) {
                    best = best.min(c[0] * x + c[1] * y);
                }
            }
            assert!(
                (s.objective - best).abs() < 1e-4,
                "simplex {} vs brute force {best}",
                s.objective
            );
        }
    }
}
