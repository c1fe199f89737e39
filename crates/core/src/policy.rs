//! The two DROM core-allocation policies (paper §5.4), and the global
//! allocation program read off the worker table.

use crate::{GlobalSolverKind, Platform, ProcessLayout};
use tlb_expander::BipartiteGraph;
use tlb_linprog::{largest_remainder, AllocationProblem, AllocationSolution, LpError};
use tlb_portfolio::Strategy;

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
        // One guaranteed core each; the rest proportional to busy share.
        let spare = cores - workers;
        let quotas: Vec<f64> = busy.iter().map(|&b| b / total * spare as f64).collect();
        largest_remainder(&quotas, 0, spare)
            .into_iter()
            .map(|c| c + 1)
            .collect()
    }
}

/// The global solver policy (§5.4.2) on a fixed expander graph: every
/// period, gather each apprank's total measured work and solve the
/// min-max allocation program over the entire graph. The simulator,
/// whose helpers may die mid-run, solves [`allocate_living`] on its
/// worker table instead; this is the same program for a graph whose
/// workers all live.
pub struct GlobalPolicy {
    problem: AllocationProblem,
}

impl GlobalPolicy {
    /// Build the policy for a given expander graph and platform.
    ///
    /// # Panics
    /// Panics if some node hosts more workers than cores, as
    /// [`ProcessLayout::new`] does.
    pub fn new(graph: &BipartiteGraph, platform: &Platform) -> Self {
        let layout = ProcessLayout::new(graph, platform.cores_per_node);
        let work = vec![0.0; graph.appranks()];
        GlobalPolicy {
            problem: allocation_problem(&layout, platform, &work),
        }
    }

    /// Solve for ownership given per-apprank work estimates (busy
    /// core·seconds summed over the apprank's workers).
    pub fn allocate(
        &mut self,
        work: &[f64],
        kind: GlobalSolverKind,
    ) -> Result<AllocationSolution, LpError> {
        assert_eq!(work.len(), self.problem.work.len(), "work vector length");
        self.problem.work.copy_from_slice(work);
        Strategy::from(kind).solve(&self.problem)
    }

    /// The underlying problem (for benches that measure solver scaling).
    pub fn problem(&self) -> &AllocationProblem {
        &self.problem
    }
}

/// The global allocation program (§5.4.2) for demand `work` over the
/// living workers of `layout` on `platform` — the one place an
/// [`AllocationProblem`] is built from worker placement. Row `a` of the
/// adjacency lists the nodes of apprank `a`'s living workers in slot
/// order, home first; every node offers all its cores at its current
/// speed.
pub fn allocation_problem(
    layout: &ProcessLayout,
    platform: &Platform,
    work: &[f64],
) -> AllocationProblem {
    let alive = layout.alive();
    let adjacency = layout
        .placement()
        .iter()
        .map(|placed| {
            placed
                .iter()
                .filter(|&&(node, proc)| alive[node][proc])
                .map(|&(node, _)| node)
                .collect()
        })
        .collect();
    AllocationProblem {
        node_speed: platform.node_speed.clone(),
        ..AllocationProblem::new(
            work.to_vec(),
            adjacency,
            platform.cores_per_node,
            platform.nodes,
        )
    }
}

/// Solve [`allocation_problem`] with `strategy` and re-expand the
/// solution to slot order: a retired worker gets zero work and zero
/// cores, so `(apprank, slot)` indices stay those of
/// [`ProcessLayout::placement`].
pub fn allocate_living(
    layout: &ProcessLayout,
    platform: &Platform,
    work: &[f64],
    strategy: Strategy,
) -> Result<AllocationSolution, LpError> {
    let mut sol = strategy.solve(&allocation_problem(layout, platform, work))?;
    let alive = layout.alive();
    let rows = sol.work_share.iter_mut().zip(&mut sol.cores);
    for (placed, (work_share, cores)) in layout.placement().iter().zip(rows) {
        // Slots before `k` are already in place, so a dead slot's zero
        // goes in at `k` itself.
        for (k, &(node, proc)) in placed.iter().enumerate() {
            if !alive[node][proc] {
                work_share.insert(k, 0.0);
                cores.insert(k, 0);
            }
        }
    }
    Ok(sol)
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
        let per_node = layout.counts_by_node(&sol.cores);
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
        let mut layout = ProcessLayout::new(&g, 8);
        let work = [30.0, 2.0, 2.0, 2.0];
        layout.retire(0, 1); // kill apprank 0's (hot) helper
        for strategy in Strategy::ALL {
            let sol = allocate_living(&layout, &platform, &work, strategy).unwrap();
            assert_eq!(sol.cores[0][1], 0, "dead slot pinned to zero");
            assert_eq!(sol.work_share[0][1], 0.0);
            let per_node = layout.counts_by_node(&sol.cores);
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

/// The largest-remainder routines that `tlb_linprog::largest_remainder`
/// replaced, kept verbatim as reference models (`LocalPolicy::ownership`,
/// `integerize_cores`, `round_cores`, the strategies' own split and
/// `ProcessLayout`'s even split of a node among its mains), and a seeded
/// test that every caller of the kernel still returns exactly what its
/// routine returned.
#[cfg(test)]
mod rounding_reference {
    #![allow(clippy::needless_range_loop)]
    use super::LocalPolicy;
    use crate::{ProcessLayout, WorkerRef};
    use tlb_expander::{generate_circulant, ExpanderConfig};
    use tlb_linprog::AllocationProblem;
    use tlb_portfolio::Strategy;
    use tlb_rng::Rng;

    /// `ProcessLayout::new`'s initial ownership of one node's workers.
    fn initial_ownership(ws: &[WorkerRef], cores_per_node: usize) -> Vec<usize> {
        let mains = ws.iter().filter(|w| w.is_main()).count();
        let helpers = ws.len() - mains;
        let for_mains = cores_per_node - helpers;
        let per_main = for_mains.checked_div(mains).unwrap_or(0);
        let mut extra = for_mains.checked_rem(mains).unwrap_or(0);
        let counts = ws
            .iter()
            .map(|w| {
                if w.is_main() {
                    let c = per_main + usize::from(extra > 0);
                    extra = extra.saturating_sub(1);
                    c
                } else {
                    1
                }
            })
            .collect();
        counts
    }

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

    pub fn integerize_cores(problem: &AllocationProblem, x_cont: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let nodes = problem.nodes();
        let mut cores: Vec<Vec<usize>> = problem
            .adjacency
            .iter()
            .map(|adj| vec![0usize; adj.len()])
            .collect();
        let mut by_node: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes];
        for (a, adj) in problem.adjacency.iter().enumerate() {
            for (k, &n) in adj.iter().enumerate() {
                by_node[n].push((a, k));
            }
        }
        for n in 0..nodes {
            let workers = &by_node[n];
            if workers.is_empty() {
                continue;
            }
            let cap = problem.node_cores[n];
            let mut assigned = 0usize;
            let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(workers.len());
            for (i, &(a, k)) in workers.iter().enumerate() {
                let want = x_cont[a][k].max(1.0);
                let whole = (want.floor() as usize).max(1).min(cap);
                cores[a][k] = whole;
                assigned += whole;
                remainders.push((want - whole as f64, i));
            }
            remainders.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));
            // Hand out any deficit; reclaim any excess from the smallest
            // remainders (never below the one-core floor).
            let mut idx = 0;
            while assigned < cap {
                let (a, k) = workers[remainders[idx % remainders.len()].1];
                cores[a][k] += 1;
                assigned += 1;
                idx += 1;
            }
            let mut idx = remainders.len();
            while assigned > cap {
                idx = if idx == 0 {
                    remainders.len() - 1
                } else {
                    idx - 1
                };
                let (a, k) = workers[remainders[idx].1];
                if cores[a][k] > 1 {
                    cores[a][k] -= 1;
                    assigned -= 1;
                }
            }
            debug_assert_eq!(
                workers.iter().map(|&(a, k)| cores[a][k]).sum::<usize>(),
                cap,
                "node {n} core sum mismatch"
            );
        }
        cores
    }

    pub fn round_cores(problem: &AllocationProblem, work_share: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let nodes = problem.nodes();
        let mut cores: Vec<Vec<usize>> = problem
            .adjacency
            .iter()
            .map(|adj| vec![0usize; adj.len()])
            .collect();

        // Index workers by node.
        let mut by_node: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes]; // (apprank, slot)
        for (a, adj) in problem.adjacency.iter().enumerate() {
            for (k, &n) in adj.iter().enumerate() {
                by_node[n].push((a, k));
            }
        }

        for n in 0..nodes {
            let workers = &by_node[n];
            if workers.is_empty() {
                continue;
            }
            let cap = problem.node_cores[n];
            assert!(
                cap >= workers.len(),
                "node {n}: {} workers exceed {cap} cores",
                workers.len()
            );
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
            // Largest-remainder rounding of the continuous targets, keeping
            // every worker at ≥ 1 core and the node sum exact.
            let mut assigned = 0usize;
            let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(workers.len());
            for (i, &(a, k)) in workers.iter().enumerate() {
                let whole = (want[i].floor() as usize).max(1);
                cores[a][k] = whole;
                assigned += whole;
                remainders.push((want[i] - whole as f64, i));
            }
            remainders.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap().then(x.1.cmp(&y.1)));
            let mut left = cap - assigned;
            for &(_, i) in &remainders {
                if left == 0 {
                    break;
                }
                let (a, k) = workers[i];
                cores[a][k] += 1;
                left -= 1;
            }
            debug_assert_eq!(
                workers.iter().map(|&(a, k)| cores[a][k]).sum::<usize>(),
                cap,
                "node {n} core sum mismatch"
            );
        }
        cores
    }

    fn largest_remainder(total: usize, weights: &[f64]) -> Vec<usize> {
        let sum: f64 = weights.iter().sum();
        let quotas: Vec<f64> = if sum > 0.0 {
            weights.iter().map(|w| total as f64 * w / sum).collect()
        } else {
            vec![total as f64 / weights.len().max(1) as f64; weights.len()]
        };
        let mut out: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
        let mut left = total - out.iter().sum::<usize>();
        let mut order: Vec<usize> = (0..weights.len()).collect();
        order.sort_by(|&i, &j| {
            let (ri, rj) = (quotas[i] - quotas[i].floor(), quotas[j] - quotas[j].floor());
            rj.partial_cmp(&ri).unwrap().then(i.cmp(&j))
        });
        for &i in &order {
            if left == 0 {
                break;
            }
            out[i] += 1;
            left -= 1;
        }
        out
    }

    /// A draw that hits the rounding edge cases: zeros, ties from a small
    /// palette, and free values in `[0, scale)`.
    fn draw(rng: &mut Rng, scale: f64) -> f64 {
        match rng.range_usize(0, 4) {
            0 => 0.0,
            1 => scale * [0.25, 0.5, 1.0][rng.range_usize(0, 3)],
            _ => rng.range_f64(0.0, scale),
        }
    }

    /// `n` values in one of four shapes: mixed draws, all equal, all
    /// zero, or free.
    fn values(rng: &mut Rng, n: usize, scale: f64) -> Vec<f64> {
        match rng.range_usize(0, 4) {
            0 => (0..n).map(|_| draw(rng, scale)).collect(),
            1 => vec![rng.range_f64(0.0, scale); n],
            2 => vec![0.0; n],
            _ => (0..n).map(|_| rng.range_f64(0.0, scale)).collect(),
        }
    }

    /// A random feasible problem: every apprank's home and helpers are
    /// distinct random nodes, so some nodes host no home apprank, and
    /// every node has at least one core per worker.
    fn problem(rng: &mut Rng) -> AllocationProblem {
        let nodes = rng.range_usize(1, 5);
        let appranks = rng.range_usize(1, 9);
        let adjacency: Vec<Vec<usize>> = (0..appranks)
            .map(|_| {
                let mut order: Vec<usize> = (0..nodes).collect();
                rng.shuffle(&mut order);
                order.truncate(rng.range_usize(1, nodes + 1));
                order
            })
            .collect();
        let busiest = (0..nodes)
            .map(|n| adjacency.iter().flatten().filter(|&&m| m == n).count())
            .max()
            .unwrap();
        let cores = busiest.max(1) + rng.range_usize(0, 12);
        let work = values(rng, appranks, 40.0);
        AllocationProblem::new(work, adjacency, cores, nodes)
    }

    /// `(apprank, slot)` of the workers on `node`, by apprank then slot.
    fn workers_on(p: &AllocationProblem, node: usize) -> Vec<(usize, usize)> {
        (0..p.appranks())
            .flat_map(|a| {
                p.adjacency[a]
                    .iter()
                    .enumerate()
                    .filter(move |&(_, &m)| m == node)
                    .map(move |(k, _)| (a, k))
            })
            .collect()
    }

    /// What the local strategy assigned with the retired
    /// split: home appranks share a node's spare cores by work, and a
    /// node with no home apprank splits them evenly over its helpers.
    fn local_cores(p: &AllocationProblem) -> Vec<Vec<usize>> {
        let mut cores: Vec<Vec<usize>> = p.adjacency.iter().map(|adj| vec![1; adj.len()]).collect();
        for n in 0..p.nodes() {
            let workers = workers_on(p, n);
            let spare = p.node_cores[n] - workers.len();
            let home: Vec<usize> = (0..p.appranks())
                .filter(|&a| p.adjacency[a][0] == n)
                .collect();
            if !home.is_empty() {
                let weights: Vec<f64> = home.iter().map(|&a| p.work[a]).collect();
                for (&a, extra) in home.iter().zip(largest_remainder(spare, &weights)) {
                    cores[a][0] += extra;
                }
            } else if !workers.is_empty() {
                let even = largest_remainder(spare, &vec![1.0; workers.len()]);
                for (&(a, k), extra) in workers.iter().zip(even) {
                    cores[a][k] += extra;
                }
            }
        }
        cores
    }

    #[test]
    fn kernel_callers_match_the_routines_they_replace() {
        let root = Rng::seed_from_u64(0x5eed_4e11);
        for case in 0..2500u64 {
            let mut rng = root.split_u64(case);

            let workers = rng.range_usize(1, 9);
            let cores = workers + rng.range_usize(0, 40);
            let busy = values(&mut rng, workers, 6.0);
            let current: Vec<usize> = (0..workers)
                .map(|i| cores / workers + usize::from(i < cores % workers))
                .collect();
            assert_eq!(
                LocalPolicy::ownership(cores, &busy, &current),
                ownership(cores, &busy, &current),
                "case {case}: LocalPolicy::ownership"
            );

            let p = problem(&mut rng);
            let cap = p.node_cores[0] as f64;
            let x_cont: Vec<Vec<f64>> = p
                .adjacency
                .iter()
                .map(|adj| {
                    adj.iter()
                        .map(|_| match rng.range_usize(0, 4) {
                            0 => rng.range_f64(0.0, 1.0),
                            1 => rng.range_f64(cap, 2.0 * cap),
                            2 => [1.5, 2.5][rng.range_usize(0, 2)],
                            _ => rng.range_f64(1.0, cap + 1.0),
                        })
                        .collect()
                })
                .collect();
            assert_eq!(
                tlb_linprog::allocation::integerize_cores(&p, &x_cont),
                integerize_cores(&p, &x_cont),
                "case {case}: integerize_cores"
            );

            let shares: Vec<Vec<f64>> = p
                .adjacency
                .iter()
                .map(|adj| values(&mut rng, adj.len(), 20.0))
                .collect();
            assert_eq!(
                tlb_linprog::round_cores(&p, &shares),
                round_cores(&p, &shares),
                "case {case}: round_cores"
            );

            let local = Strategy::Local.solve(&p).unwrap();
            assert_eq!(local.cores, local_cores(&p), "case {case}: local_converge");
            let idle = AllocationProblem {
                work: vec![0.0; p.appranks()],
                ..p.clone()
            };
            let mut even: Vec<Vec<usize>> =
                p.adjacency.iter().map(|adj| vec![1; adj.len()]).collect();
            for n in 0..p.nodes() {
                let workers = workers_on(&p, n);
                let spare = p.node_cores[n] - workers.len();
                for (&(a, k), extra) in workers
                    .iter()
                    .zip(largest_remainder(spare, &vec![1.0; workers.len()]))
                {
                    even[a][k] += extra;
                }
            }
            let greedy = Strategy::Greedy.solve(&idle).unwrap();
            assert_eq!(greedy.cores, even, "case {case}: greedy_waterfill, no work");
            // With no work the LP split each node evenly through
            // `integerize_cores`; it now shares the flow solver's path.
            let per_node: Vec<usize> = (0..p.nodes()).map(|n| workers_on(&p, n).len()).collect();
            let split: Vec<Vec<f64>> = p
                .adjacency
                .iter()
                .map(|adj| {
                    adj.iter()
                        .map(|&n| p.node_cores[n] as f64 / per_node[n] as f64)
                        .collect()
                })
                .collect();
            assert_eq!(
                tlb_linprog::solve_lp(&idle).unwrap().cores,
                integerize_cores(&idle, &split),
                "case {case}: solve_lp, no work"
            );

            let nodes = rng.range_usize(1, 7);
            let degree = rng.range_usize(1, nodes + 1);
            let per_node = rng.range_usize(1, 4);
            let shape = ExpanderConfig::new(nodes * per_node, nodes, degree);
            let strides: Vec<usize> = (1..degree).collect();
            let graph = generate_circulant(&shape, &strides).unwrap();
            let cores = per_node * degree + rng.range_usize(0, 30);
            let layout = ProcessLayout::new(&graph, cores);
            for n in 0..nodes {
                assert_eq!(
                    layout.initial_ownership(n),
                    initial_ownership(layout.workers_on(n), cores),
                    "case {case}: ProcessLayout initial ownership of node {n}"
                );
            }
        }
    }
}
