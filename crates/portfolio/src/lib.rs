//! `tlb-portfolio`: the allocation strategies behind the DROM global
//! policy (paper §5.4.2), and a deterministic race over them that only
//! measurements call.
//!
//! The paper solves one LP every `global_period`. [`Strategy::solve`] is
//! the one strategy → solver table: the simulator's global tick and
//! `GlobalPolicy::allocate` dispatch the configured solver (simplex or
//! parametric max-flow) through it. Two heuristics sit beside them: a
//! greedy water-filling rule and the per-node local-convergence split.
//!
//! [`PortfolioEngine`] races a set of strategies on one problem and keeps
//! the best answer. No simulated run races: the engine stays because the
//! wall-clock `solver_table` figure and the benchmark harness time one
//! race beside the single solvers.
//!
//! 1. **Determinism.** Every strategy is a pure function of the
//!    [`AllocationProblem`], run inline on the caller in priority order,
//!    and the winner is selected by `(score, fixed strategy priority)`.
//! 2. **Shared objective.** Every candidate is scored with
//!    `max_a work_a / (speed-weighted cores of a)` minus the paper's
//!    `1e-6` non-offloaded-core incentive as tiebreak. Lower is better;
//!    the LP's own objective is *not* trusted across strategies because
//!    each solver reports a different relaxation.
//! 3. **Budgeted.** Each strategy has a deterministic modelled cost in
//!    virtual seconds (operation counts times [`COST_PER_OP`]); a
//!    candidate whose cost exceeds the budget counts as a timeout and is
//!    discarded.

#![forbid(unsafe_code)]

use tlb_des::SimTime;
use tlb_linprog::{
    largest_remainder, solve_flow, solve_lp, AllocationProblem, AllocationSolution, LpError,
};

/// Bisection tolerance handed to the parametric max-flow solver by
/// [`Strategy::solve`], the one place any solver is dispatched from.
pub const FLOW_TOL: f64 = 1e-6;

/// Virtual seconds charged per modelled elementary solver operation.
/// Calibrated so a 64-node simplex solve lands in the tens of
/// milliseconds, matching the §5.4.2 cost table (~57 ms at 32 nodes).
pub const COST_PER_OP: f64 = 150e-9;

/// One allocation strategy. Declaration order is the fixed race
/// priority: earlier variants win score ties.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// The paper's LP solved by two-phase simplex (`solve_lp`).
    Simplex,
    /// Parametric bisection over max-flow feasibility tests (`solve_flow`).
    Flow,
    /// Greedy water-filling: grant spare cores one at a time to the
    /// currently most-loaded apprank (new in this crate).
    Greedy,
    /// Local convergence: keep all work home, split each node's cores
    /// among its home appranks proportional to work (the simulator's
    /// fallback rule expressed as a strategy).
    Local,
}

impl Strategy {
    /// All strategies, in priority order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Simplex,
        Strategy::Flow,
        Strategy::Greedy,
        Strategy::Local,
    ];

    /// Number of strategies.
    pub const COUNT: usize = Self::ALL.len();

    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Simplex => "simplex",
            Strategy::Flow => "flow",
            Strategy::Greedy => "greedy",
            Strategy::Local => "local",
        }
    }

    /// Solve `problem` with this strategy: the one strategy → solver
    /// table, shared by the race, `GlobalPolicy::allocate` and the
    /// simulator's global tick.
    pub fn solve(self, problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
        match self {
            Strategy::Simplex => solve_lp(problem),
            Strategy::Flow => solve_flow(problem, FLOW_TOL),
            Strategy::Greedy => greedy_waterfill(problem),
            Strategy::Local => local_converge(problem),
        }
    }
}

/// What a [`PortfolioEngine`] races.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioConfig {
    /// Strategies to race, kept sorted in priority order, no duplicates.
    pub strategies: Vec<Strategy>,
    /// Virtual-time budget per race; a strategy whose modelled cost
    /// exceeds it counts as a timeout and its answer is discarded.
    pub budget: SimTime,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            strategies: Strategy::ALL.to_vec(),
            budget: SimTime::from_millis(250),
        }
    }
}

impl PortfolioConfig {
    /// Check internal consistency (non-empty, sorted-unique strategies,
    /// positive budget).
    pub fn validate(&self) -> Result<(), String> {
        if self.strategies.is_empty() {
            return Err("portfolio needs at least one strategy".to_string());
        }
        for pair in self.strategies.windows(2) {
            if pair[0] >= pair[1] {
                return Err("portfolio strategies must be unique and in priority order".to_string());
            }
        }
        if self.budget <= SimTime::ZERO {
            return Err("portfolio budget must be positive".to_string());
        }
        Ok(())
    }
}

/// The racing engine. Its only mutable state is the win count per
/// strategy.
pub struct PortfolioEngine {
    config: PortfolioConfig,
    wins: [usize; Strategy::COUNT],
}

impl PortfolioEngine {
    /// Build an engine for a valid `config`.
    pub fn new(config: PortfolioConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(PortfolioEngine {
            config,
            wins: [0; Strategy::COUNT],
        })
    }

    /// Races won so far, indexed in [`Strategy::ALL`] order.
    pub fn wins(&self) -> &[usize; Strategy::COUNT] {
        &self.wins
    }

    /// Race the configured strategies on `problem` and return the
    /// answer that wins by `(score, priority)`. Errors with the first
    /// failure when no strategy produced a valid answer within budget.
    pub fn solve(&mut self, problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
        // The race, in priority order: each strategy is a pure function
        // of `problem`, and its modelled cost — not the order it ran in —
        // decides whether its answer counts.
        let mut best: Option<(f64, Strategy, AllocationSolution)> = None;
        let mut first_err: Option<LpError> = None;
        for &s in &self.config.strategies {
            let result = s.solve(problem);
            let iterations = result.as_ref().map_or(0, |sol| sol.iterations);
            let answer = if modelled_cost(s, problem, iterations) > self.config.budget {
                Err(LpError::IterationLimit)
            } else {
                result.and_then(|sol| {
                    if valid_solution(problem, &sol) {
                        Ok(sol)
                    } else {
                        Err(LpError::Infeasible)
                    }
                })
            };
            match answer {
                Ok(sol) => {
                    let sc = score(problem, &sol);
                    // Strict `<` keeps the earliest (highest-priority)
                    // strategy on ties.
                    if best.as_ref().is_none_or(|(b, _, _)| sc < *b) {
                        best = Some((sc, s, sol));
                    }
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let Some((_, winner, solution)) = best else {
            return Err(first_err.unwrap_or(LpError::Infeasible));
        };
        self.wins[winner as usize] += 1;
        Ok(solution)
    }
}

/// Deterministic virtual cost of one strategy attempt: elementary
/// operation counts scaled by [`COST_PER_OP`]. Wall-clock never enters.
fn modelled_cost(s: Strategy, problem: &AllocationProblem, iterations: usize) -> SimTime {
    let edges: usize = problem.adjacency.iter().map(|adj| adj.len()).sum();
    let sweep = problem.appranks() + problem.nodes() + edges;
    let ops = match s {
        // Each simplex pivot touches the full tableau row set.
        Strategy::Simplex => iterations.max(1) * sweep,
        // ~64 bisection steps, each a graph-sweeping max-flow check.
        Strategy::Flow => 64 * (sweep + 2),
        // One pass per granted core plus the final share computation.
        Strategy::Greedy => problem.node_cores.iter().sum::<usize>() + sweep,
        // A single proportional split per node.
        Strategy::Local => sweep,
    };
    SimTime::from_secs_f64(ops as f64 * COST_PER_OP)
}

/// The shared race objective: `max_a work_a / (speed-weighted cores
/// of a)`, minus the paper's keep-local incentive scaled by the fraction
/// of home-owned cores — the same `δ = incentive / (total_cores + 1)`
/// tiebreak the LP applies. Lower is better. `INFINITY` marks an apprank
/// with work but no capacity (an invalid allocation).
fn score(problem: &AllocationProblem, sol: &AllocationSolution) -> f64 {
    let mut load: f64 = 0.0;
    let mut home_cores = 0usize;
    for (a, cores) in sol.cores.iter().enumerate() {
        let eff = effective_cores(problem, a, cores);
        home_cores += cores[0];
        if problem.work[a] > 0.0 {
            if eff <= 0.0 {
                return f64::INFINITY;
            }
            load = load.max(problem.work[a] / eff);
        }
    }
    let total: f64 = problem.node_cores.iter().sum::<usize>() as f64;
    load - problem.keep_local_incentive * home_cores as f64 / (total + 1.0)
}

/// Structural feasibility of a candidate: shapes match the adjacency,
/// every worker keeps its ≥ 1 DLB core, and no node is oversubscribed.
fn valid_solution(problem: &AllocationProblem, sol: &AllocationSolution) -> bool {
    if sol.cores.len() != problem.appranks() || sol.work_share.len() != problem.appranks() {
        return false;
    }
    let mut used = vec![0usize; problem.nodes()];
    for (a, cores) in sol.cores.iter().enumerate() {
        if cores.len() != problem.adjacency[a].len()
            || sol.work_share[a].len() != problem.adjacency[a].len()
        {
            return false;
        }
        for (&c, &n) in cores.iter().zip(&problem.adjacency[a]) {
            if c == 0 {
                return false;
            }
            used[n] += c;
        }
    }
    used.iter()
        .zip(&problem.node_cores)
        .all(|(&u, &cap)| u <= cap)
}

/// Speed-weighted cores of apprank `a` under the per-slot `cores`.
fn effective_cores(problem: &AllocationProblem, a: usize, cores: &[usize]) -> f64 {
    cores
        .iter()
        .zip(&problem.adjacency[a])
        .map(|(&c, &n)| c as f64 * problem.node_speed[n])
        .sum()
}

/// The 1-core DLB floor for every worker, and the cores each node has
/// left over it.
fn floor_cores(problem: &AllocationProblem) -> (Vec<Vec<usize>>, Vec<usize>) {
    let cores = problem
        .adjacency
        .iter()
        .map(|adj| vec![1usize; adj.len()])
        .collect();
    let mut free = problem.node_cores.clone();
    for &n in problem.adjacency.iter().flatten() {
        free[n] -= 1; // validate() guarantees this cannot underflow
    }
    (cores, free)
}

/// Add node `n`'s `spare` cores to its workers in even shares.
fn spread_evenly(problem: &AllocationProblem, cores: &mut [Vec<usize>], n: usize, spare: usize) {
    let workers: Vec<(usize, usize)> = (0..problem.appranks())
        .flat_map(|a| {
            problem.adjacency[a]
                .iter()
                .enumerate()
                .filter(move |&(_, &m)| m == n)
                .map(move |(k, _)| (a, k))
        })
        .collect();
    for (&(a, k), extra) in workers.iter().zip(split(spare, &vec![1.0; workers.len()])) {
        cores[a][k] += extra;
    }
}

/// Split `total` units proportional to `weights` by
/// [`largest_remainder`] (ties to the lower index). All-zero weights
/// split evenly.
fn split(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let quotas: Vec<f64> = if sum > 0.0 {
        weights.iter().map(|w| total as f64 * w / sum).collect()
    } else {
        vec![total as f64 / weights.len().max(1) as f64; weights.len()]
    };
    largest_remainder(&quotas, 0, total)
}

/// Greedy water-filling (this crate's own heuristic): after the 1-core
/// DLB floor, grant the remaining cores one at a time to the apprank with
/// the highest current load `work_a / eff_a` (ties to the lower apprank),
/// placing each core on its first adjacent node with free capacity (home
/// first). Work splits proportional to the resulting effective cores.
fn greedy_waterfill(problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
    problem.validate()?;
    let appranks = problem.appranks();
    let (mut cores, mut free) = floor_cores(problem);
    let eff = |cores: &[Vec<usize>], a: usize| effective_cores(problem, a, &cores[a]);
    let total_work: f64 = problem.work.iter().sum();
    let spare: usize = free.iter().sum();
    if total_work <= 0.0 {
        // Nothing to balance: split each node's spare cores evenly over
        // its workers (mirrors the LP's no-work path).
        for (n, &spare_n) in free.iter().enumerate() {
            spread_evenly(problem, &mut cores, n, spare_n);
        }
    } else {
        for _ in 0..spare {
            // Most-loaded apprank that still has somewhere to grow.
            let mut pick: Option<(f64, usize)> = None;
            for a in 0..appranks {
                if !problem.adjacency[a].iter().any(|&n| free[n] > 0) {
                    continue;
                }
                let load = problem.work[a] / eff(&cores, a);
                if pick.as_ref().is_none_or(|&(best, _)| load > best) {
                    pick = Some((load, a));
                }
            }
            let Some((_, a)) = pick else { break };
            let k = problem.adjacency[a]
                .iter()
                .position(|&n| free[n] > 0)
                .expect("picked apprank has free capacity");
            cores[a][k] += 1;
            free[problem.adjacency[a][k]] -= 1;
        }
    }
    let mut objective: f64 = 0.0;
    let mut work_share = Vec::with_capacity(appranks);
    for a in 0..appranks {
        let e = eff(&cores, a);
        if problem.work[a] > 0.0 {
            objective = objective.max(problem.work[a] / e);
        }
        work_share.push(
            cores[a]
                .iter()
                .zip(&problem.adjacency[a])
                .map(|(&c, &n)| problem.work[a] * (c as f64 * problem.node_speed[n]) / e)
                .collect(),
        );
    }
    Ok(AllocationSolution {
        objective,
        work_share,
        cores,
        iterations: 0,
    })
}

/// Local convergence as a strategy: all work stays home; each
/// node splits its spare cores among its *home* appranks proportional to
/// their work (largest remainder, ties low); helpers keep the 1-core
/// floor. Mirrors `LocalPolicy` but runs on an [`AllocationProblem`].
fn local_converge(problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
    problem.validate()?;
    let appranks = problem.appranks();
    let (mut cores, free) = floor_cores(problem);
    for (n, &spare_n) in free.iter().enumerate() {
        if spare_n == 0 {
            continue;
        }
        let home: Vec<usize> = (0..appranks)
            .filter(|&a| problem.adjacency[a][0] == n)
            .collect();
        if !home.is_empty() {
            let weights: Vec<f64> = home.iter().map(|&a| problem.work[a]).collect();
            for (&a, extra) in home.iter().zip(split(spare_n, &weights)) {
                cores[a][0] += extra;
            }
        } else {
            // No home apprank (possible in dead-node sub-problems): split
            // evenly over whatever helpers live here.
            spread_evenly(problem, &mut cores, n, spare_n);
        }
    }
    let mut objective: f64 = 0.0;
    let work_share: Vec<Vec<f64>> = (0..appranks)
        .map(|a| {
            let mut share = vec![0.0; problem.adjacency[a].len()];
            share[0] = problem.work[a];
            share
        })
        .collect();
    for (a, cores_a) in cores.iter().enumerate() {
        if problem.work[a] <= 0.0 {
            continue;
        }
        objective = objective.max(problem.work[a] / effective_cores(problem, a, cores_a));
    }
    Ok(AllocationSolution {
        objective,
        work_share,
        cores,
        iterations: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `appranks` over `nodes`, each apprank homed at `a % nodes` with
    /// `degree - 1` helper nodes following in a ring.
    fn ring_problem(
        appranks: usize,
        nodes: usize,
        degree: usize,
        cores: usize,
    ) -> AllocationProblem {
        let adjacency: Vec<Vec<usize>> = (0..appranks)
            .map(|a| (0..degree).map(|s| (a + s) % nodes).collect())
            .collect();
        let mut rng = tlb_rng::Rng::seed_from_u64(11 + appranks as u64);
        let work = (0..appranks).map(|_| rng.range_f64(1.0, 40.0)).collect();
        AllocationProblem::new(work, adjacency, cores, nodes)
    }

    #[test]
    fn greedy_and_local_produce_valid_allocations() {
        for &(appranks, nodes, degree, cores) in &[
            (4usize, 2usize, 2usize, 8usize),
            (8, 4, 3, 16),
            (6, 3, 1, 12),
        ] {
            let p = ring_problem(appranks, nodes, degree, cores);
            for solver in [greedy_waterfill, local_converge] {
                let sol = solver(&p).unwrap();
                assert!(valid_solution(&p, &sol));
                assert!(score(&p, &sol).is_finite());
                // Every node's cores fully distributed.
                let mut used = vec![0usize; nodes];
                for (a, cs) in sol.cores.iter().enumerate() {
                    for (&c, &n) in cs.iter().zip(&p.adjacency[a]) {
                        used[n] += c;
                    }
                }
                assert_eq!(used, p.node_cores, "all cores assigned");
                // Work is conserved.
                for (a, shares) in sol.work_share.iter().enumerate() {
                    let sum: f64 = shares.iter().sum();
                    assert!((sum - p.work[a]).abs() < 1e-9 * p.work[a].max(1.0));
                }
            }
        }
    }

    #[test]
    fn greedy_handles_zero_work() {
        let mut p = ring_problem(4, 2, 2, 8);
        p.work = vec![0.0; 4];
        let sol = greedy_waterfill(&p).unwrap();
        assert!(valid_solution(&p, &sol));
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn winner_never_scores_worse_than_any_strategy() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::default()).unwrap();
        for size in [(4, 2, 2, 8), (8, 4, 3, 48), (12, 6, 4, 48)] {
            let p = ring_problem(size.0, size.1, size.2, size.3);
            let won = score(&p, &engine.solve(&p).unwrap());
            for s in Strategy::ALL {
                let Ok(sol) = s.solve(&p) else { continue };
                if valid_solution(&p, &sol) {
                    let sc = score(&p, &sol);
                    assert!(won <= sc + 1e-12, "winner ({won}) vs {} ({sc})", s.name());
                }
            }
        }
    }

    #[test]
    fn tiny_budget_times_everything_out() {
        let tiny = PortfolioConfig {
            budget: SimTime::from_nanos(1),
            ..PortfolioConfig::default()
        };
        let mut engine = PortfolioEngine::new(tiny).unwrap();
        let p = ring_problem(4, 2, 2, 8);
        assert!(matches!(engine.solve(&p), Err(LpError::IterationLimit)));
        assert_eq!(engine.wins(), &[0; Strategy::COUNT]);

        let zero = PortfolioConfig {
            budget: SimTime::ZERO,
            ..PortfolioConfig::default()
        };
        assert!(PortfolioEngine::new(zero).is_err());
        let twice = vec![Strategy::Simplex, Strategy::Simplex];
        let twice = PortfolioConfig {
            strategies: twice,
            ..PortfolioConfig::default()
        };
        assert!(twice.validate().is_err());
    }

    #[test]
    fn every_race_crowns_one_winner() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::default()).unwrap();
        for i in 0..5 {
            let p = ring_problem(4 + i, 2, 2, 16);
            engine.solve(&p).unwrap();
        }
        assert_eq!(engine.wins().iter().sum::<usize>(), 5);
    }
}
