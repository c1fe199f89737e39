//! The two DROM core-allocation policies (paper §5.4).

#![allow(clippy::needless_range_loop)] // index loops touch several arrays at once
use crate::{GlobalSolverKind, Platform, ProcessLayout};
use tlb_expander::BipartiteGraph;
use tlb_linprog::{solve_flow, solve_lp, AllocationProblem, AllocationSolution, LpError};

/// The local convergence policy (§5.4.1): on each node, independently,
/// set every worker's core ownership proportional to its average number
/// of busy cores over the last measurement window, with the DLB minimum
/// of one core each. No communication beyond the node.
pub struct LocalPolicy;

impl LocalPolicy {
    /// Compute new ownership counts for one node.
    ///
    /// `busy[i]` is worker `i`'s average busy cores; `current[i]` its
    /// present ownership (returned unchanged when no work was measured,
    /// so an idle node does not thrash). The result sums to `cores` and
    /// every entry is ≥ 1.
    pub fn ownership(cores: usize, busy: &[f64], current: &[usize]) -> Vec<usize> {
        assert_eq!(busy.len(), current.len(), "busy/current length mismatch");
        let workers = busy.len();
        assert!(workers > 0 && cores >= workers, "infeasible node shape");
        let total: f64 = busy.iter().sum();
        if total <= 1e-12 {
            return current.to_vec();
        }
        // One guaranteed core each; the rest proportional to busy share by
        // largest remainder (deterministic tie-break on index).
        let spare = cores - workers;
        let mut counts = vec![1usize; workers];
        let mut assigned = 0usize;
        let mut rema: Vec<(f64, usize)> = Vec::with_capacity(workers);
        for (i, &b) in busy.iter().enumerate() {
            let share = b / total * spare as f64;
            let whole = share.floor() as usize;
            counts[i] += whole;
            assigned += whole;
            rema.push((share - whole as f64, i));
        }
        rema.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        for &(_, i) in rema.iter().take(spare - assigned) {
            counts[i] += 1;
        }
        debug_assert_eq!(counts.iter().sum::<usize>(), cores);
        counts
    }
}

/// The global solver policy (§5.4.2): every period, gather each apprank's
/// total measured work and solve the min-max allocation program over the
/// entire expander graph.
pub struct GlobalPolicy {
    problem: AllocationProblem,
    /// `dead[a][k]`: the worker at slot `k` of apprank `a` has died.
    /// Dead slots are excluded from every solve and pinned to zero cores,
    /// so their node's capacity redistributes among the survivors. The
    /// slots stay in the adjacency to keep `(apprank, slot)` indices
    /// aligned with [`ProcessLayout`].
    dead: Vec<Vec<bool>>,
}

impl GlobalPolicy {
    /// Build the policy for a given expander graph and platform.
    pub fn new(graph: &BipartiteGraph, platform: &Platform) -> Self {
        let adjacency: Vec<Vec<usize>> = (0..graph.appranks())
            .map(|a| graph.nodes_of(a).to_vec())
            .collect();
        let dead = adjacency.iter().map(|adj| vec![false; adj.len()]).collect();
        GlobalPolicy {
            problem: AllocationProblem {
                work: vec![0.0; graph.appranks()],
                adjacency,
                node_cores: vec![platform.cores_per_node; platform.nodes],
                node_speed: platform.node_speed.clone(),
                keep_local_incentive: 1e-6,
            },
            dead,
        }
    }

    /// Mark the worker at `slot` of `apprank` dead. Home workers
    /// (slot 0) cannot die — the apprank itself would be gone.
    pub fn retire_worker(&mut self, apprank: usize, slot: usize) {
        assert!(slot != 0, "home worker cannot be retired");
        self.dead[apprank][slot] = true;
    }

    fn has_dead(&self) -> bool {
        self.dead.iter().any(|row| row.iter().any(|&d| d))
    }

    /// Solve for ownership given per-apprank work estimates (busy
    /// core·seconds summed over the apprank's workers).
    pub fn allocate(
        &mut self,
        work: &[f64],
        kind: GlobalSolverKind,
    ) -> Result<AllocationSolution, LpError> {
        // A single solver is a portfolio of size 1: the same entry point
        // serves both paths, so dead-worker masking behaves identically.
        self.allocate_with(work, |problem| match kind {
            GlobalSolverKind::Simplex => solve_lp(problem),
            GlobalSolverKind::Flow => solve_flow(problem, 1e-6),
        })
    }

    /// Solve for ownership with a caller-supplied solver (the portfolio
    /// engine, or anything else mapping an [`AllocationProblem`] to an
    /// [`AllocationSolution`]). Handles the dead-worker masking exactly
    /// like [`GlobalPolicy::allocate`]: the solver only ever sees living
    /// workers, and the returned solution is re-expanded with zeros at
    /// dead slots so `(apprank, slot)` indices stay layout-aligned.
    pub fn allocate_with<F>(
        &mut self,
        work: &[f64],
        solve: F,
    ) -> Result<AllocationSolution, LpError>
    where
        F: FnOnce(&AllocationProblem) -> Result<AllocationSolution, LpError>,
    {
        assert_eq!(work.len(), self.problem.work.len(), "work vector length");
        self.problem.work.copy_from_slice(work);
        if !self.has_dead() {
            return solve(&self.problem);
        }
        // Solve over the living workers only, then re-expand the solution
        // with zeros at dead slots so indices stay layout-aligned.
        let sub = AllocationProblem {
            work: work.to_vec(),
            adjacency: self
                .problem
                .adjacency
                .iter()
                .zip(&self.dead)
                .map(|(adj, dead)| {
                    adj.iter()
                        .zip(dead)
                        .filter(|&(_, &d)| !d)
                        .map(|(&n, _)| n)
                        .collect()
                })
                .collect(),
            node_cores: self.problem.node_cores.clone(),
            node_speed: self.problem.node_speed.clone(),
            keep_local_incentive: self.problem.keep_local_incentive,
        };
        let sol = solve(&sub)?;
        let mut work_share = Vec::with_capacity(self.dead.len());
        let mut cores = Vec::with_capacity(self.dead.len());
        for (a, dead) in self.dead.iter().enumerate() {
            let mut ws = vec![0.0; dead.len()];
            let mut cs = vec![0usize; dead.len()];
            let mut j = 0;
            for (k, &d) in dead.iter().enumerate() {
                if !d {
                    ws[k] = sol.work_share[a][j];
                    cs[k] = sol.cores[a][j];
                    j += 1;
                }
            }
            work_share.push(ws);
            cores.push(cs);
        }
        Ok(AllocationSolution {
            objective: sol.objective,
            work_share,
            cores,
            iterations: sol.iterations,
        })
    }

    /// Re-arrange a solution's per-(apprank, slot) core counts into
    /// per-node ownership vectors aligned with
    /// [`ProcessLayout::workers_on`], ready for `NodeDlb::set_ownership`.
    pub fn ownership_by_node(
        &self,
        layout: &ProcessLayout,
        solution: &AllocationSolution,
    ) -> Vec<Vec<usize>> {
        layout.counts_by_node(&solution.cores)
    }

    /// The underlying problem (for benches that measure solver scaling).
    pub fn problem(&self) -> &AllocationProblem {
        &self.problem
    }

    /// Update one node's speed (DVFS event); subsequent solves use it.
    pub fn set_node_speed(&mut self, node: usize, speed: f64) {
        assert!(speed > 0.0, "speed must be positive");
        self.problem.node_speed[node] = speed;
    }

    /// Register a dynamically spawned helper edge: apprank `a` may now
    /// own cores on `node` (paper §5.2 future work).
    pub fn add_edge(&mut self, apprank: usize, node: usize) {
        assert!(node < self.problem.nodes(), "node out of range");
        assert!(
            !self.problem.adjacency[apprank].contains(&node),
            "edge already present"
        );
        self.problem.adjacency[apprank].push(node);
        self.dead[apprank].push(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_expander::{generate_circulant, ExpanderConfig};

    #[test]
    fn local_proportional_split() {
        // 8 cores, two workers, busy 3:1 → 6 and 2? One guaranteed each,
        // 6 spare split 4.5/1.5 → 4+1=5? largest remainder: 4.5 → 4, 1.5
        // → 1, one leftover goes to the larger remainder (0.5 each, tie →
        // lower index): [1+5, 1+1] = [6, 2].
        let counts = LocalPolicy::ownership(8, &[3.0, 1.0], &[4, 4]);
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert_eq!(counts, vec![6, 2]);
    }

    #[test]
    fn local_keeps_minimum_one() {
        let counts = LocalPolicy::ownership(4, &[10.0, 0.0, 0.0], &[2, 1, 1]);
        assert_eq!(counts, vec![2, 1, 1]);
    }

    #[test]
    fn local_idle_node_keeps_current() {
        let counts = LocalPolicy::ownership(8, &[0.0, 0.0], &[5, 3]);
        assert_eq!(counts, vec![5, 3]);
    }

    #[test]
    fn local_converges_under_iteration() {
        // Iterating the policy on a fixed busy profile is a fixed point
        // after the first application.
        let busy = [7.0, 2.0, 1.0];
        let first = LocalPolicy::ownership(16, &busy, &[6, 5, 5]);
        let second = LocalPolicy::ownership(16, &busy, &first);
        assert_eq!(first, second);
        assert_eq!(first.iter().sum::<usize>(), 16);
    }

    #[test]
    fn global_policy_end_to_end() {
        let g = generate_circulant(&ExpanderConfig::new(4, 4, 2), &[1]).unwrap();
        let platform = Platform::homogeneous(4, 8);
        let layout = ProcessLayout::new(&g, 8);
        let mut policy = GlobalPolicy::new(&g, &platform);
        let sol = policy
            .allocate(&[30.0, 2.0, 2.0, 2.0], GlobalSolverKind::Simplex)
            .unwrap();
        let per_node = policy.ownership_by_node(&layout, &sol);
        // Every node fully owned, every worker ≥ 1 core.
        for (n, counts) in per_node.iter().enumerate() {
            assert_eq!(counts.iter().sum::<usize>(), 8, "node {n}");
            assert!(counts.iter().all(|&c| c >= 1));
        }
        // Apprank 0 is hot: its helper worker on node 1 should own most of
        // node 1 (slot 1 of apprank 0).
        let helper_node = g.nodes_of(0)[1];
        let helper_proc = layout.proc_of(0, 1);
        assert!(
            per_node[helper_node][helper_proc] >= 4,
            "hot helper owns {} cores",
            per_node[helper_node][helper_proc]
        );
    }

    #[test]
    fn dead_worker_excluded_and_cores_redistributed() {
        let g = generate_circulant(&ExpanderConfig::new(4, 4, 2), &[1]).unwrap();
        let platform = Platform::homogeneous(4, 8);
        let layout = ProcessLayout::new(&g, 8);
        let mut policy = GlobalPolicy::new(&g, &platform);
        let work = [30.0, 2.0, 2.0, 2.0];
        policy.retire_worker(0, 1); // kill apprank 0's (hot) helper
        for kind in [GlobalSolverKind::Simplex, GlobalSolverKind::Flow] {
            let sol = policy.allocate(&work, kind).unwrap();
            assert_eq!(sol.cores[0][1], 0, "dead slot pinned to zero");
            assert_eq!(sol.work_share[0][1], 0.0);
            let per_node = policy.ownership_by_node(&layout, &sol);
            for (n, counts) in per_node.iter().enumerate() {
                assert_eq!(counts.iter().sum::<usize>(), 8, "node {n}: {counts:?}");
            }
            // The dead helper's proc owns nothing; every survivor ≥ 1.
            let dead_node = g.nodes_of(0)[1];
            let dead_proc = layout.proc_of(0, 1);
            assert_eq!(per_node[dead_node][dead_proc], 0);
            for (n, counts) in per_node.iter().enumerate() {
                for (p, &c) in counts.iter().enumerate() {
                    if (n, p) != (dead_node, dead_proc) {
                        assert!(c >= 1, "living worker node {n} proc {p} starved");
                    }
                }
            }
        }
    }

    #[test]
    fn global_flow_matches_simplex_shape() {
        let g = generate_circulant(&ExpanderConfig::new(4, 4, 3), &[1, 2]).unwrap();
        let platform = Platform::homogeneous(4, 8);
        let mut policy = GlobalPolicy::new(&g, &platform);
        let work = [20.0, 5.0, 5.0, 10.0];
        let a = policy.allocate(&work, GlobalSolverKind::Simplex).unwrap();
        let b = policy.allocate(&work, GlobalSolverKind::Flow).unwrap();
        assert!((a.objective - b.objective).abs() < 1e-3 * a.objective);
    }
}
