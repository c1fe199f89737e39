//! The global core-allocation program (paper §5.4.2) and its two solvers.
//!
//! Minimise `max_a (total work on apprank a) / (total cores on a)` subject
//! to per-node capacity, the expander adjacency, and ≥ 1 core per worker.
//! The paper formulates this for CVXOPT; we use the equivalent *work-split*
//! LP: variables `w[a][k]` give the work of apprank `a` executed on its
//! `k`-th adjacent node, and `t` bounds every node's load-per-core:
//!
//! ```text
//!   min  t + δ · Σ offloaded w            (δ tiny: prefer-local tiebreak)
//!   s.t. Σ_k w[a][k] = work_a                       (all work placed)
//!        Σ_a pen(a,n) · w[a][n] ≤ t · cores_n · speed_n    (node load)
//!        w ≥ 0
//! ```
//!
//! `pen(a,n) = 1 + 1e-6` for offloaded work — the paper's keep-local
//! incentive; the explicit δ term additionally selects, among the many
//! optimal bases, the one that *minimises task offloading* (paper Fig. 5b).
//!
//! The same program is solved by parametric bisection on `t`, where each
//! feasibility test is a max-flow problem. Both solvers agree to within the
//! bisection tolerance; the `figures` binary's `solver_table` times both.

#![allow(clippy::needless_range_loop)] // index loops touch several arrays at once
use crate::maxflow::FlowNetwork;
use crate::simplex::{LinearProgram, LpError, Relation};

/// An instance of the core allocation program.
#[derive(Clone, Debug)]
pub struct AllocationProblem {
    /// Estimated work per apprank (busy-core·seconds over the measurement
    /// window). Non-negative.
    pub work: Vec<f64>,
    /// `adjacency[a]` = nodes where apprank `a` has a worker; element 0 is
    /// the home node (the expander graph rows).
    pub adjacency: Vec<Vec<usize>>,
    /// Physical cores per node.
    pub node_cores: Vec<usize>,
    /// Relative speed per node (1.0 = nominal; 0.6 models the 1.8 GHz
    /// Nord3 nodes against 3.0 GHz peers).
    pub node_speed: Vec<f64>,
    /// The keep-local work penalty; the paper uses `1e-6`.
    pub keep_local_incentive: f64,
}

impl AllocationProblem {
    /// A problem over homogeneous nodes at speed 1.0.
    pub fn new(
        work: Vec<f64>,
        adjacency: Vec<Vec<usize>>,
        cores_per_node: usize,
        nodes: usize,
    ) -> Self {
        AllocationProblem {
            work,
            adjacency,
            node_cores: vec![cores_per_node; nodes],
            node_speed: vec![1.0; nodes],
            keep_local_incentive: 1e-6,
        }
    }

    /// Number of appranks.
    pub fn appranks(&self) -> usize {
        self.work.len()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.node_cores.len()
    }

    /// Workers (apprank, adjacency slot) hosted on each node.
    fn workers_per_node(&self) -> Vec<usize> {
        let mut count = vec![0usize; self.nodes()];
        for adj in &self.adjacency {
            for &n in adj {
                count[n] += 1;
            }
        }
        count
    }

    /// Validate shape and feasibility of the ≥1-core-per-worker rule.
    pub fn validate(&self) -> Result<(), LpError> {
        assert_eq!(
            self.work.len(),
            self.adjacency.len(),
            "work/adjacency length mismatch"
        );
        assert_eq!(
            self.node_cores.len(),
            self.node_speed.len(),
            "cores/speed length mismatch"
        );
        for (a, adj) in self.adjacency.iter().enumerate() {
            assert!(!adj.is_empty(), "apprank {a} has no nodes");
            for &n in adj {
                assert!(n < self.nodes(), "apprank {a} adjacent to bogus node {n}");
            }
        }
        assert!(self.work.iter().all(|w| *w >= 0.0), "negative work");
        for (n, &workers) in self.workers_per_node().iter().enumerate() {
            if workers > self.node_cores[n] {
                // More worker processes than cores: the DLB minimum of one
                // owned core each cannot be honoured.
                return Err(LpError::Infeasible);
            }
        }
        Ok(())
    }
}

/// Solution of the allocation program.
#[derive(Clone, Debug)]
pub struct AllocationSolution {
    /// Optimal `max_a work_a / cores_a` bound (continuous relaxation).
    pub objective: f64,
    /// `work_share[a][k]` = work of apprank `a` placed on `adjacency[a][k]`.
    pub work_share: Vec<Vec<f64>>,
    /// `cores[a][k]` = integer cores owned by apprank `a`'s worker on
    /// `adjacency[a][k]`; every worker owns ≥ 1 and node sums equal the
    /// node capacities.
    pub cores: Vec<Vec<usize>>,
    /// Simplex pivot count that produced this solution (0 for the flow
    /// solver and the degenerate no-work paths) — surfaced in traces to
    /// ground the §5.4.2 solver-cost model in observed effort.
    pub iterations: usize,
}

impl AllocationSolution {
    /// Total work each node would execute under the continuous split.
    pub fn node_load(&self, problem: &AllocationProblem) -> Vec<f64> {
        let mut load = vec![0.0; problem.nodes()];
        for (a, shares) in self.work_share.iter().enumerate() {
            for (k, &w) in shares.iter().enumerate() {
                load[problem.adjacency[a][k]] += w;
            }
        }
        load
    }
}

/// Solve via the paper's LP (simplex): core counts are the variables.
///
/// Formulation (§5.4.2): with measured work `W_a` constant, minimising
/// `max_a W_a / cores_a` equals maximising `z = 1/t` in
///
/// ```text
///   max  z + δ·Σ home x                     (δ tiny: prefer-local)
///   s.t. Σ_k speed(n(a,k)) · x[a][k] ≥ z · W_a          (per apprank)
///        Σ_{workers on n} x = cores_n                     (per node)
///        x[a][k] ≥ 1                                  (DLB minimum)
/// ```
///
/// The `x ≥ 1` floor is part of the LP (substituted as `x = 1 + x'`,
/// `x' ≥ 0`), so the optimum already accounts for every helper's reserved
/// core — the property that keeps hot appranks from being skimmed by
/// post-hoc rounding. The keep-local incentive counts home cores as
/// marginally more valuable, which minimises task offloading among the
/// many optimal allocations (paper Fig. 5b).
pub fn solve_lp(problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
    problem.validate()?;
    if problem.work.iter().sum::<f64>() <= 0.0 {
        // No work anywhere: z would be unbounded.
        return Ok(idle_solution(problem));
    }
    let (lp, edge_of) = allocation_program(problem);
    let z_var = lp.num_vars() - 1;
    let sol = lp.solve()?;
    let z = sol.x[z_var];
    // Continuous core targets (floor added back).
    let x_cont: Vec<Vec<f64>> = edge_of
        .iter()
        .map(|row| row.iter().map(|&v| 1.0 + sol.x[v].max(0.0)).collect())
        .collect();
    // Implied work split for reporting: W_a spread over workers in
    // proportion to their effective (speed-scaled) cores.
    let work_share: Vec<Vec<f64>> = problem
        .adjacency
        .iter()
        .enumerate()
        .map(|(a, adj)| {
            let eff: Vec<f64> = adj
                .iter()
                .zip(&x_cont[a])
                .map(|(&n, &x)| x * problem.node_speed[n])
                .collect();
            let total: f64 = eff.iter().sum();
            eff.iter()
                .map(|e| {
                    if total > 0.0 {
                        problem.work[a] * e / total
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let cores = integerize_cores(problem, &x_cont);
    let objective = if z > 1e-12 {
        1.0 / z
    } else {
        // No work anywhere: the load bound is zero.
        0.0
    };
    Ok(AllocationSolution {
        objective,
        work_share,
        cores,
        iterations: sol.iterations,
    })
}

/// The LP [`solve_lp`] solves for a problem with some work: the program
/// and `edge_of[a][k]`, the variable of apprank `a`'s `k`-th worker (the
/// last variable is `z`).
pub(crate) fn allocation_program(problem: &AllocationProblem) -> (LinearProgram, Vec<Vec<usize>>) {
    let appranks = problem.appranks();
    // Variable layout: x' edges first (in adjacency order), then z.
    let mut edge_of = Vec::with_capacity(appranks); // edge_of[a][k] = var index
    let mut next = 0usize;
    for adj in &problem.adjacency {
        let row: Vec<usize> = (next..next + adj.len()).collect();
        next += adj.len();
        edge_of.push(row);
    }
    let z_var = next;
    let mut lp = LinearProgram::new(next + 1);

    let total_cores: f64 = problem.node_cores.iter().sum::<usize>() as f64;
    // Maximise z; among optima prefer home cores (minimise offloading).
    let delta = problem.keep_local_incentive / (total_cores + 1.0);
    lp.set_objective(z_var, -1.0);
    for (a, adj) in problem.adjacency.iter().enumerate() {
        for k in 1..adj.len() {
            lp.set_objective(edge_of[a][k], delta);
        }
    }
    // Per apprank: effective cores ≥ z · W_a, i.e.
    //   Σ_k speed·(1 + x'[a][k]) - z·W_a ≥ 0.
    for (a, adj) in problem.adjacency.iter().enumerate() {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(adj.len() + 1);
        let mut base = 0.0;
        for (k, &n) in adj.iter().enumerate() {
            let speed = problem.node_speed[n];
            coeffs.push((edge_of[a][k], speed));
            base += speed; // the floor core of each worker
        }
        coeffs.push((z_var, -problem.work[a]));
        lp.add_constraint(coeffs, Relation::Ge, -base);
    }
    // Per node: Σ x' = cores_n - workers_n (full ownership).
    let workers = problem.workers_per_node();
    for n in 0..problem.nodes() {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for (a, adj) in problem.adjacency.iter().enumerate() {
            for (k, &node) in adj.iter().enumerate() {
                if node == n {
                    coeffs.push((edge_of[a][k], 1.0));
                }
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        lp.add_constraint(
            coeffs,
            Relation::Eq,
            (problem.node_cores[n] - workers[n]) as f64,
        );
    }
    (lp, edge_of)
}

/// Largest-remainder integerisation of continuous per-worker core targets,
/// lifted to the ≥ 1 floor, with exact node sums.
pub fn integerize_cores(problem: &AllocationProblem, x_cont: &[Vec<f64>]) -> Vec<Vec<usize>> {
    round_by_node(problem, |_, workers| {
        workers
            .iter()
            .map(|&(a, k)| x_cont[a][k].max(1.0))
            .collect()
    })
}

/// The allocation when no apprank has work: nothing to place, and each
/// node's cores split evenly over its workers.
fn idle_solution(problem: &AllocationProblem) -> AllocationSolution {
    let work_share: Vec<Vec<f64>> = problem
        .adjacency
        .iter()
        .map(|adj| vec![0.0; adj.len()])
        .collect();
    let cores = round_cores(problem, &work_share);
    AllocationSolution {
        objective: 0.0,
        work_share,
        cores,
        iterations: 0,
    }
}

/// Round every node's continuous core targets with [`largest_remainder`]
/// (one-core floor, node sum exact): `quotas(n, workers)` gives the
/// targets of node `n`'s `(apprank, slot)` workers, listed by apprank
/// then slot.
fn round_by_node<F>(problem: &AllocationProblem, quotas: F) -> Vec<Vec<usize>>
where
    F: Fn(usize, &[(usize, usize)]) -> Vec<f64>,
{
    let mut by_node: Vec<Vec<(usize, usize)>> = vec![Vec::new(); problem.nodes()];
    for (a, adj) in problem.adjacency.iter().enumerate() {
        for (k, &n) in adj.iter().enumerate() {
            by_node[n].push((a, k));
        }
    }
    let mut cores: Vec<Vec<usize>> = problem
        .adjacency
        .iter()
        .map(|adj| vec![0usize; adj.len()])
        .collect();
    for (n, workers) in by_node.iter().enumerate() {
        let split = largest_remainder(&quotas(n, workers), 1, problem.node_cores[n]);
        for (&(a, k), c) in workers.iter().zip(split) {
            cores[a][k] = c;
        }
    }
    cores
}

/// Round continuous `quotas` to whole units that sum to exactly `total`,
/// by the largest-remainder method — the one rounding every core split
/// in the workspace goes through.
///
/// Each entry starts at its quota's floor, raised to `floor` and capped
/// at `total`. Entries are ranked by remainder (quota minus that start;
/// largest first, ties to the lower index). A deficit is handed out one
/// unit at a time in rank order, cycling if needed; an excess is
/// reclaimed one unit at a time from the smallest remainder up, cycling,
/// never taking an entry below `floor`.
///
/// # Panics
/// Panics if a quota is NaN or `floor * quotas.len() > total`.
pub fn largest_remainder(quotas: &[f64], floor: usize, total: usize) -> Vec<usize> {
    assert!(floor * quotas.len() <= total, "floors exceed the total");
    let mut out: Vec<usize> = quotas
        .iter()
        .map(|&q| (q.floor() as usize).max(floor).min(total))
        .collect();
    let remainder: Vec<f64> = quotas
        .iter()
        .zip(&out)
        .map(|(&q, &c)| q - c as f64)
        .collect();
    let mut order: Vec<usize> = (0..quotas.len()).collect();
    order.sort_by(|&i, &j| {
        remainder[j]
            .partial_cmp(&remainder[i])
            .expect("quotas are not NaN")
            .then(i.cmp(&j))
    });
    let mut assigned: usize = out.iter().sum();
    for &i in order.iter().cycle() {
        if assigned >= total {
            break;
        }
        out[i] += 1;
        assigned += 1;
    }
    for &i in order.iter().rev().cycle() {
        if assigned <= total {
            break;
        }
        if out[i] > floor {
            out[i] -= 1;
            assigned -= 1;
        }
    }
    out
}

/// Solve via bisection on `t` with a max-flow feasibility oracle.
///
/// `tol` is the relative bisection tolerance on `t` (e.g. `1e-6`).
pub fn solve_flow(problem: &AllocationProblem, tol: f64) -> Result<AllocationSolution, LpError> {
    problem.validate()?;
    let appranks = problem.appranks();
    let nodes = problem.nodes();
    let total_work: f64 = problem.work.iter().sum();

    if total_work <= 0.0 {
        return Ok(idle_solution(problem));
    }

    // Vertices: 0 = source, 1..=A appranks, A+1..=A+N nodes, last = sink.
    let source = 0;
    let sink = 1 + appranks + nodes;
    let apprank_v = |a: usize| 1 + a;
    let node_v = |n: usize| 1 + appranks + n;

    let min_eff_cap = (0..nodes)
        .map(|n| problem.node_cores[n] as f64 * problem.node_speed[n])
        .fold(f64::INFINITY, f64::min);
    let mut lo = 0.0f64;
    let mut hi = total_work / min_eff_cap.max(1e-12) + 1.0;

    let feasible = |t: f64| -> Option<FlowNetwork> {
        let mut net = FlowNetwork::new(sink + 1);
        for a in 0..appranks {
            net.add_edge(source, apprank_v(a), problem.work[a]);
        }
        for (a, adj) in problem.adjacency.iter().enumerate() {
            for &n in adj {
                net.add_edge(apprank_v(a), node_v(n), f64::INFINITY);
            }
        }
        for n in 0..nodes {
            let cap = t * problem.node_cores[n] as f64 * problem.node_speed[n];
            net.add_edge(node_v(n), sink, cap);
        }
        let flow = net.max_flow(source, sink);
        (flow >= total_work * (1.0 - 1e-9) - 1e-9).then_some(net)
    };

    if feasible(hi).is_none() {
        return Err(LpError::Infeasible);
    }
    let mut best_net = None;
    for _ in 0..100 {
        if (hi - lo) <= tol * hi {
            break;
        }
        let mid = 0.5 * (lo + hi);
        match feasible(mid) {
            Some(net) => {
                hi = mid;
                best_net = Some(net);
            }
            None => lo = mid,
        }
    }
    let net = match best_net {
        Some(n) => n,
        None => feasible(hi).ok_or(LpError::Infeasible)?,
    };

    // Recover work shares from edge flows. Edge handles were added in
    // order: A source edges, then the adjacency edges in order.
    let mut work_share: Vec<Vec<f64>> = Vec::with_capacity(appranks);
    let mut handle = appranks; // skip source edges
    for adj in &problem.adjacency {
        let mut row = Vec::with_capacity(adj.len());
        for _ in adj {
            row.push(net.flow_on(handle));
            handle += 1;
        }
        work_share.push(row);
    }
    // Flow does not know the keep-local preference; fold offloaded work
    // back home wherever home has slack at the achieved bound `hi`.
    let mut node_load = vec![0.0; nodes];
    for (a, adj) in problem.adjacency.iter().enumerate() {
        for (k, &n) in adj.iter().enumerate() {
            node_load[n] += work_share[a][k];
        }
    }
    for (a, adj) in problem.adjacency.iter().enumerate() {
        let home = adj[0];
        let cap = hi * problem.node_cores[home] as f64 * problem.node_speed[home];
        for k in 1..adj.len() {
            let slack = (cap - node_load[home]).max(0.0);
            if slack <= 0.0 {
                break;
            }
            let pull = work_share[a][k].min(slack);
            if pull > 0.0 {
                work_share[a][k] -= pull;
                work_share[a][0] += pull;
                node_load[home] += pull;
                node_load[adj[k]] -= pull;
            }
        }
    }

    let cores = round_cores(problem, &work_share);
    Ok(AllocationSolution {
        objective: hi,
        work_share,
        cores,
        iterations: 0,
    })
}

/// Round a continuous work split to integer core ownership.
///
/// Per node: every hosted worker gets 1 core (the DLB minimum), and the
/// remaining cores are distributed proportionally to the workers' work
/// shares by [`largest_remainder`]. Deterministic: remainder ties break
/// towards the lower (apprank, slot) pair.
pub fn round_cores(problem: &AllocationProblem, work_share: &[Vec<f64>]) -> Vec<Vec<usize>> {
    round_by_node(problem, |n, workers| {
        let cap = problem.node_cores[n];
        let total: f64 = workers.iter().map(|&(a, k)| work_share[a][k]).sum();
        // Continuous targets proportional to work over the FULL capacity,
        // then lift every worker to the one-core DLB minimum by
        // waterfilling: fix the sub-minimum workers at exactly 1 core and
        // re-share the remaining capacity among the rest. (A naive
        // "1 + proportional-over-spare" scheme would skim
        // `workers/capacity` off the busiest worker — with 8 workers on a
        // 48-core node that is a 17% under-allocation of the hot rank.)
        let mut want: Vec<f64> = if total > 0.0 {
            workers
                .iter()
                .map(|&(a, k)| work_share[a][k] / total * cap as f64)
                .collect()
        } else {
            vec![cap as f64 / workers.len() as f64; workers.len()]
        };
        let mut fixed = vec![false; workers.len()];
        loop {
            let mut changed = false;
            for (i, w) in want.iter_mut().enumerate() {
                if !fixed[i] && *w < 1.0 {
                    *w = 1.0;
                    fixed[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let reserved: f64 = fixed.iter().filter(|&&f| f).count() as f64;
            let free_cap = cap as f64 - reserved;
            let free_share: f64 = workers
                .iter()
                .enumerate()
                .filter(|(i, _)| !fixed[*i])
                .map(|(_, &(a, k))| work_share[a][k])
                .sum();
            if free_share <= 0.0 {
                break;
            }
            for (i, &(a, k)) in workers.iter().enumerate() {
                if !fixed[i] {
                    want[i] = work_share[a][k] / free_share * free_cap;
                }
            }
        }
        want
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_adjacency(appranks: usize, nodes: usize, degree: usize) -> Vec<Vec<usize>> {
        let per = appranks / nodes;
        (0..appranks)
            .map(|a| {
                let home = a / per;
                let mut adj = vec![home];
                let mut extra: Vec<usize> = (1..degree).map(|s| (home + s) % nodes).collect();
                extra.sort_unstable();
                adj.extend(extra);
                adj
            })
            .collect()
    }

    #[test]
    fn degenerate_zero_work_and_single_node_adjacency() {
        // Regression: appranks with zero measured work and an apprank
        // confined to a single node (adjacency of length 1) must still
        // yield a valid allocation — every worker keeps its one-core
        // floor and every node's cores are fully assigned.
        let p = AllocationProblem {
            work: vec![0.0, 0.0, 4.0],
            adjacency: vec![vec![0, 1], vec![1], vec![2, 0]],
            node_cores: vec![4, 4, 4],
            node_speed: vec![1.0; 3],
            keep_local_incentive: 1e-6,
        };
        for s in [solve_lp(&p).unwrap(), solve_flow(&p, 1e-6).unwrap()] {
            let mut node_total = vec![0usize; 3];
            for (a, row) in s.cores.iter().enumerate() {
                assert_eq!(row.len(), p.adjacency[a].len());
                for (k, &c) in row.iter().enumerate() {
                    assert!(c >= 1, "apprank {a} slot {k} below the DLB floor");
                    node_total[p.adjacency[a][k]] += c;
                }
            }
            assert_eq!(node_total, vec![4, 4, 4]);
        }
    }

    #[test]
    fn balanced_load_stays_home() {
        let p = AllocationProblem::new(vec![10.0, 10.0], ring_adjacency(2, 2, 2), 4, 2);
        let s = solve_lp(&p).unwrap();
        // Helpers stay at the one-core DLB floor; homes take the rest.
        assert_eq!(s.cores, vec![vec![3, 1], vec![3, 1]]);
        assert!((s.objective - 10.0 / 4.0).abs() < 1e-4);
        // The only "offloaded" work is what the mandatory floor cores
        // would execute (one of each rank's four effective cores).
        let offloaded: f64 = s
            .work_share
            .iter()
            .map(|row| row[1..].iter().sum::<f64>())
            .sum();
        assert!(offloaded <= 2.0 * 2.5 + 1e-6);
    }

    #[test]
    fn imbalanced_load_spreads() {
        // Apprank 0 has 3x the work; with full connectivity the optimum is
        // an even node load: t = 16 / 8 = 2.
        let p = AllocationProblem::new(vec![12.0, 4.0], ring_adjacency(2, 2, 2), 4, 2);
        let s = solve_lp(&p).unwrap();
        assert!(
            (s.objective - 2.0).abs() < 1e-4,
            "objective {}",
            s.objective
        );
        let load = s.node_load(&p);
        assert!((load[0] - 8.0).abs() < 1e-3 && (load[1] - 8.0).abs() < 1e-3);
        // The hot apprank owns three times the cores of the light one.
        let c0: usize = s.cores[0].iter().sum();
        let c1: usize = s.cores[1].iter().sum();
        assert_eq!((c0, c1), (6, 2), "cores {:?}", s.cores);
    }

    #[test]
    fn adjacency_constrains_spreading() {
        // 4 nodes, degree 1 (no offloading): apprank 0's hot node cannot
        // shed work, t = its own ratio.
        let adj = vec![vec![0], vec![1], vec![2], vec![3]];
        let p = AllocationProblem::new(vec![40.0, 1.0, 1.0, 1.0], adj, 4, 4);
        let s = solve_lp(&p).unwrap();
        assert!((s.objective - 10.0).abs() < 1e-3);
    }

    #[test]
    fn slow_node_gets_less_work() {
        let mut p = AllocationProblem::new(vec![6.0, 6.0], ring_adjacency(2, 2, 2), 4, 2);
        p.node_speed = vec![1.0, 0.5]; // node 1 half speed
        let s = solve_lp(&p).unwrap();
        let load = s.node_load(&p);
        // Effective capacities 4 and 2 → loads 8 and 4, t = 2.
        assert!(
            (s.objective - 2.0).abs() < 1e-3,
            "objective {}",
            s.objective
        );
        assert!((load[0] - 8.0).abs() < 1e-2, "load {load:?}");
    }

    #[test]
    fn infeasible_when_workers_exceed_cores() {
        // 4 workers per node but only 2 cores.
        let p = AllocationProblem::new(vec![1.0; 4], ring_adjacency(4, 2, 2), 2, 2);
        assert_eq!(solve_lp(&p).unwrap_err(), LpError::Infeasible);
        assert_eq!(solve_flow(&p, 1e-6).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn flow_matches_lp_objective_when_floors_slack() {
        // With plenty of cores per node and a moderate imbalance the
        // one-core floors do not bind, and the floor-aware LP equals the
        // flow relaxation. (The hot rank must need fewer cores than its
        // adjacent nodes can give after reserving the floors.)
        let p =
            AllocationProblem::new(vec![20.0, 12.0, 12.0, 16.0], ring_adjacency(4, 4, 2), 16, 4);
        let lp = solve_lp(&p).unwrap();
        let fl = solve_flow(&p, 1e-7).unwrap();
        assert!(
            (lp.objective - fl.objective).abs() < 1e-4 * lp.objective.max(1.0),
            "lp {} vs flow {}",
            lp.objective,
            fl.objective
        );
    }

    #[test]
    fn lp_exceeds_flow_when_floors_bind() {
        // Small nodes: the helper floors steal capacity the hot rank
        // needs, so the floor-aware optimum is strictly worse than the
        // flow relaxation (which ignores ownership floors).
        let p = AllocationProblem::new(vec![30.0, 10.0, 5.0, 15.0], ring_adjacency(4, 4, 2), 8, 4);
        let lp = solve_lp(&p).unwrap();
        let fl = solve_flow(&p, 1e-7).unwrap();
        assert!(
            fl.objective < lp.objective,
            "flow {} vs lp {}",
            fl.objective,
            lp.objective
        );
        // Hot rank capped at 14 cores (7 + 7 after floors): t = 30/14.
        assert!(
            (lp.objective - 30.0 / 14.0).abs() < 1e-3,
            "lp {}",
            lp.objective
        );
    }

    #[test]
    fn flow_zero_work_is_graceful() {
        let p = AllocationProblem::new(vec![0.0, 0.0], ring_adjacency(2, 2, 2), 4, 2);
        let s = solve_flow(&p, 1e-6).unwrap();
        assert_eq!(s.objective, 0.0);
        // Cores still fully owned: 4 per node.
        let mut per_node = vec![0usize; 2];
        for (cores, adj) in s.cores.iter().zip(&p.adjacency) {
            for (&c, &n) in cores.iter().zip(adj) {
                per_node[n] += c;
                assert!(c >= 1);
            }
        }
        assert_eq!(per_node, vec![4, 4]);
    }

    #[test]
    fn rounding_conserves_cores_and_minimum() {
        let p = AllocationProblem::new(vec![100.0, 1.0, 1.0, 1.0], ring_adjacency(4, 4, 3), 48, 4);
        let s = solve_lp(&p).unwrap();
        let mut per_node = vec![0usize; 4];
        for (cores, adj) in s.cores.iter().zip(&p.adjacency) {
            for (&c, &n) in cores.iter().zip(adj) {
                assert!(c >= 1, "worker below DLB minimum");
                per_node[n] += c;
            }
        }
        assert_eq!(per_node, vec![48; 4]);
    }

    #[test]
    fn hot_apprank_gets_most_cores() {
        let p = AllocationProblem::new(vec![100.0, 1.0], ring_adjacency(2, 2, 2), 48, 2);
        let s = solve_lp(&p).unwrap();
        // Apprank 0's home worker should own nearly all of node 0.
        assert!(s.cores[0][0] > 40, "home cores {:?}", s.cores[0]);
        // And its helper on node 1 should own most of node 1 too.
        assert!(s.cores[0][1] > 40, "helper cores {:?}", s.cores[0]);
    }

    #[test]
    fn keep_local_tiebreak_prefers_home() {
        // Perfectly balanced 4-apprank case with degree 3: unlimited
        // optimal splits exist; the tiebreak must keep every helper at
        // the mandatory one-core floor and give homes the rest.
        let p = AllocationProblem::new(vec![8.0; 4], ring_adjacency(4, 4, 3), 8, 4);
        let s = solve_lp(&p).unwrap();
        for (a, cores) in s.cores.iter().enumerate() {
            for (k, &c) in cores.iter().enumerate().skip(1) {
                assert_eq!(c, 1, "apprank {a} helper {k} above floor: {:?}", s.cores);
            }
            assert_eq!(cores[0], 6, "apprank {a} home cores: {:?}", s.cores);
        }
    }

    #[test]
    fn random_instances_lp_flow_agree() {
        let mut rng = tlb_rng::Rng::seed_from_u64(1234);
        for case in 0..40 {
            let nodes = rng.range_usize(2, 7);
            let per = rng.range_usize(1, 3);
            let appranks = nodes * per;
            let degree = rng.range_usize(1, nodes.min(3) + 1);
            let cores = rng.range_usize((per * degree).max(2), 16);
            let work: Vec<f64> = (0..appranks).map(|_| rng.range_f64(0.0, 50.0)).collect();
            let p =
                AllocationProblem::new(work, ring_adjacency(appranks, nodes, degree), cores, nodes);
            let lp = solve_lp(&p).unwrap();
            let fl = solve_flow(&p, 1e-7).unwrap();
            // Flow ignores the ownership floors, so it is a relaxation:
            // never worse than the floor-aware LP.
            assert!(
                fl.objective <= lp.objective + 1e-3 * lp.objective.max(1e-6),
                "case {case}: flow {} above lp {}",
                fl.objective,
                lp.objective
            );
            // And the LP's integer cores are always a valid ownership.
            let mut per_node = vec![0usize; p.nodes()];
            for (cores, adj) in lp.cores.iter().zip(&p.adjacency) {
                for (&c, &n) in cores.iter().zip(adj) {
                    assert!(c >= 1, "case {case}: worker below floor");
                    per_node[n] += c;
                }
            }
            assert_eq!(per_node, p.node_cores, "case {case}: node sums");
        }
    }
}
