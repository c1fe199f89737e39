//! `tlb-portfolio`: a deterministic racing solver portfolio for the DROM
//! global allocation policy (paper §5.4.2).
//!
//! The paper solves one LP every `global_period`; this repository carries
//! several independent ways to compute a core allocation (simplex LP,
//! parametric max-flow, a per-node local-convergence rule) plus a greedy
//! water-filling heuristic added here. No single strategy dominates across
//! workloads, so the portfolio races a configurable subset on every global
//! tick under a shared *virtual-time* budget, scores each feasible answer
//! with one objective, and keeps the best.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every strategy is a pure function of the
//!    [`AllocationProblem`], run inline on the caller in priority order,
//!    and the winner is selected by `(score, fixed strategy priority)`.
//!    The race is concurrent in *virtual* time only (its cost model,
//!    below); no run touches a thread pool.
//! 2. **Shared objective.** Every candidate is scored with
//!    `max_a work_a / (speed-weighted cores of a)` minus the paper's
//!    `1e-6` non-offloaded-core incentive as tiebreak ([`score`]). Lower
//!    is better; the LP's own objective is *not* trusted across strategies
//!    because each solver reports a different relaxation.
//! 3. **Budgeted.** Each strategy has a deterministic modelled cost in
//!    virtual seconds ([`modelled_cost`]); a candidate whose cost exceeds
//!    the budget counts as a timeout and is discarded. The race as a whole
//!    costs `max_s min(cost_s, budget)` — concurrent-race semantics.
//! 4. **Degradable.** Fault injection can disable individual strategies
//!    (solver-outage windows); the portfolio keeps racing whatever is
//!    left, and only when *nothing* is runnable does the caller fall back
//!    to the PR 3 degradation ladder.

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

/// One allocation strategy. Declaration order is the fixed portfolio
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
    /// among its home appranks proportional to work (the PR 3 fallback
    /// expressed as a first-class strategy).
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

    /// Stable numeric code (the priority index), used in trace events.
    pub fn code(self) -> u32 {
        self as u32
    }

    /// Lower-case name used by `--portfolio` and trace events.
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
    /// simulator's single-solver path.
    pub fn solve(self, problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
        match self {
            Strategy::Simplex => solve_lp(problem),
            Strategy::Flow => solve_flow(problem, FLOW_TOL),
            Strategy::Greedy => greedy_waterfill(problem),
            Strategy::Local => local_converge(problem),
        }
    }

    /// Parse a strategy name as accepted by `--portfolio`.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        match s {
            "simplex" => Ok(Strategy::Simplex),
            "flow" => Ok(Strategy::Flow),
            "greedy" => Ok(Strategy::Greedy),
            "local" => Ok(Strategy::Local),
            other => Err(format!(
                "unknown strategy '{other}' (expected simplex, flow, greedy or local)"
            )),
        }
    }
}

/// Portfolio configuration, carried inside `BalanceConfig`.
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
    /// Parse a `--portfolio` spec: `all` or a comma list of strategy
    /// names. Examples: `all`, `simplex,greedy`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = PortfolioConfig::default();
        let rest = spec.trim();
        if rest.is_empty() {
            return Err("empty --portfolio spec (try 'all')".to_string());
        }
        if rest != "all" {
            let mut strategies = Vec::new();
            for part in rest.split(',') {
                let s = Strategy::parse(part.trim()).map_err(|e| {
                    format!("{e}; a portfolio is 'all' or a comma list of strategies")
                })?;
                if strategies.contains(&s) {
                    return Err(format!("duplicate strategy '{}'", s.name()));
                }
                strategies.push(s);
            }
            strategies.sort(); // priority order
            cfg.strategies = strategies;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Builder: override the race budget.
    pub fn with_budget(mut self, budget: SimTime) -> Self {
        self.budget = budget;
        self
    }

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

    /// True if `s` is part of the raced set.
    pub fn enabled(&self, s: Strategy) -> bool {
        self.strategies.contains(&s)
    }
}

/// Per-strategy accounting, exposed in `SimReport` and bench JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StrategyStats {
    /// Races this strategy took part in.
    pub attempts: usize,
    /// Races it won.
    pub wins: usize,
    /// Attempts that returned `LpError::Infeasible`.
    pub infeasible: usize,
    /// Attempts that returned any other error or an invalid solution.
    pub errors: usize,
    /// Attempts whose modelled cost exceeded the budget.
    pub timeouts: usize,
    /// Total modelled virtual solve cost, capped at the budget per race.
    pub virtual_cost: SimTime,
}

/// Whole-portfolio accounting.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PortfolioStats {
    /// Portfolio races run.
    pub solves: usize,
    /// Races in which no strategy produced a feasible answer in budget.
    pub no_winner: usize,
    /// Per-strategy stats, indexed by [`Strategy::code`].
    pub per_strategy: [StrategyStats; Strategy::COUNT],
}

impl PortfolioStats {
    /// Stats row for one strategy.
    pub fn of(&self, s: Strategy) -> &StrategyStats {
        &self.per_strategy[s.code() as usize]
    }
}

/// One raced strategy's outcome, kept for tracing.
#[derive(Clone, Debug)]
pub struct CandidateSummary {
    pub strategy: Strategy,
    /// Shared score ([`score`]); `None` when the strategy failed or timed
    /// out.
    pub score: Option<f64>,
    /// Modelled virtual cost of this attempt (uncapped).
    pub cost: SimTime,
    pub timed_out: bool,
}

/// A successful portfolio race.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning allocation.
    pub solution: AllocationSolution,
    pub winner: Strategy,
    /// The winner's shared score.
    pub score: f64,
    /// All raced candidates in priority order.
    pub candidates: Vec<CandidateSummary>,
    /// Virtual cost of the race: `max_s min(cost_s, budget)`.
    pub race_cost: SimTime,
}

/// The racing engine. All mutable state is deterministic accounting
/// (stats, fault masks).
pub struct PortfolioEngine {
    config: PortfolioConfig,
    /// Nesting count of active fault-injected outages per strategy.
    fault_disabled: [usize; Strategy::COUNT],
    stats: PortfolioStats,
}

impl PortfolioEngine {
    /// Build an engine for a valid `config`.
    pub fn new(config: PortfolioConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(PortfolioEngine {
            config,
            fault_disabled: [0; Strategy::COUNT],
            stats: PortfolioStats::default(),
        })
    }

    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    pub fn stats(&self) -> &PortfolioStats {
        &self.stats
    }

    /// Mark the start of a fault-injected outage of `s` (nests).
    pub fn disable_strategy(&mut self, s: Strategy) {
        self.fault_disabled[s.code() as usize] += 1;
    }

    /// Mark the end of a fault-injected outage of `s`.
    pub fn enable_strategy(&mut self, s: Strategy) {
        let slot = &mut self.fault_disabled[s.code() as usize];
        *slot = slot.saturating_sub(1);
    }

    /// True while any outage window covering `s` is active.
    pub fn is_fault_disabled(&self, s: Strategy) -> bool {
        self.fault_disabled[s.code() as usize] > 0
    }

    /// Strategies that would be raced on the next solve: the configured
    /// ones not under a fault-injected outage.
    pub fn runnable(&self) -> Vec<Strategy> {
        self.config
            .strategies
            .iter()
            .copied()
            .filter(|&s| !self.is_fault_disabled(s))
            .collect()
    }

    /// Race the runnable strategies on `problem` and pick the winner by
    /// `(score, priority)`. Errors when nothing is runnable or nothing
    /// produced a feasible answer within budget.
    pub fn solve(&mut self, problem: &AllocationProblem) -> Result<PortfolioOutcome, LpError> {
        let runnable = self.runnable();
        self.stats.solves += 1;
        if runnable.is_empty() {
            self.stats.no_winner += 1;
            return Err(LpError::Infeasible);
        }

        // The race, in priority order: each strategy is a pure function
        // of `problem`, and its modelled cost — not the order it ran in —
        // decides whether its answer counts.
        let budget = self.config.budget;
        let mut candidates = Vec::with_capacity(runnable.len());
        let mut best: Option<(f64, usize, AllocationSolution)> = None;
        let mut first_err: Option<LpError> = None;
        let mut race_cost = SimTime::ZERO;
        for (i, &s) in runnable.iter().enumerate() {
            let (result, cost) = run_strategy(s, problem);
            let stat = &mut self.stats.per_strategy[s.code() as usize];
            stat.attempts += 1;
            let charged = cost.min(budget);
            stat.virtual_cost += charged;
            race_cost = race_cost.max(charged);
            let timed_out = cost > budget;
            let mut summary = CandidateSummary {
                strategy: s,
                score: None,
                cost,
                timed_out,
            };
            if timed_out {
                stat.timeouts += 1;
                first_err.get_or_insert(LpError::IterationLimit);
            } else {
                match result {
                    Err(LpError::Infeasible) => {
                        stat.infeasible += 1;
                        first_err.get_or_insert(LpError::Infeasible);
                    }
                    Err(e) => {
                        stat.errors += 1;
                        first_err.get_or_insert(e);
                    }
                    Ok(sol) => {
                        if !valid_solution(problem, &sol) {
                            stat.errors += 1;
                            first_err.get_or_insert(LpError::Infeasible);
                        } else {
                            let sc = score(problem, &sol);
                            summary.score = Some(sc);
                            // Strict `<` keeps the earliest (highest-
                            // priority) strategy on ties.
                            if best.as_ref().is_none_or(|(b, _, _)| sc < *b) {
                                best = Some((sc, i, sol));
                            }
                        }
                    }
                }
            }
            candidates.push(summary);
        }

        let Some((win_score, win_idx, solution)) = best else {
            self.stats.no_winner += 1;
            return Err(first_err.unwrap_or(LpError::Infeasible));
        };
        let winner = runnable[win_idx];
        self.stats.per_strategy[winner.code() as usize].wins += 1;
        Ok(PortfolioOutcome {
            solution,
            winner,
            score: win_score,
            candidates,
            race_cost,
        })
    }
}

/// Run one strategy and model its virtual cost.
fn run_strategy(
    s: Strategy,
    problem: &AllocationProblem,
) -> (Result<AllocationSolution, LpError>, SimTime) {
    let result = s.solve(problem);
    let iterations = result.as_ref().map(|sol| sol.iterations).unwrap_or(0);
    (result, modelled_cost(s, problem, iterations))
}

/// Deterministic virtual cost of one strategy attempt: elementary
/// operation counts scaled by [`COST_PER_OP`]. Wall-clock never enters.
pub fn modelled_cost(s: Strategy, problem: &AllocationProblem, iterations: usize) -> SimTime {
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

/// The shared portfolio objective: `max_a work_a / (speed-weighted cores
/// of a)`, minus the paper's keep-local incentive scaled by the fraction
/// of home-owned cores — the same `δ = incentive / (total_cores + 1)`
/// tiebreak the LP applies. Lower is better. `INFINITY` marks an apprank
/// with work but no capacity (an invalid allocation).
pub fn score(problem: &AllocationProblem, sol: &AllocationSolution) -> f64 {
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

/// Greedy water-filling (the portfolio's own heuristic): after the 1-core
/// DLB floor, grant the remaining cores one at a time to the apprank with
/// the highest current load `work_a / eff_a` (ties to the lower apprank),
/// placing each core on its first adjacent node with free capacity (home
/// first). Work splits proportional to the resulting effective cores.
pub fn greedy_waterfill(problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
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

/// Local convergence as a portfolio strategy: all work stays home; each
/// node splits its spare cores among its *home* appranks proportional to
/// their work (largest remainder, ties low); helpers keep the 1-core
/// floor. Mirrors `LocalPolicy` but runs on an [`AllocationProblem`].
pub fn local_converge(problem: &AllocationProblem) -> Result<AllocationSolution, LpError> {
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
    fn strategy_codes_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Ok(s));
        }
        assert!(Strategy::parse("cplex").is_err());
    }

    #[test]
    fn config_parse_variants() {
        let all = PortfolioConfig::parse("all").unwrap();
        assert_eq!(all.strategies, Strategy::ALL.to_vec());

        let two = PortfolioConfig::parse("greedy,simplex").unwrap();
        assert_eq!(two.strategies, vec![Strategy::Simplex, Strategy::Greedy]);

        let err = PortfolioConfig::parse("adaptive:all").unwrap_err();
        assert!(err.contains("'all' or a comma list"), "{err}");
        assert!(err.contains("simplex, flow, greedy or local"), "{err}");

        assert!(PortfolioConfig::parse("").is_err());
        assert!(PortfolioConfig::parse("simplex,simplex").is_err());
        assert!(PortfolioConfig::parse("cplex").is_err());
        assert!(PortfolioConfig::default()
            .with_budget(SimTime::ZERO)
            .validate()
            .is_err());
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
    fn winner_never_scores_worse_than_any_candidate() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::default()).unwrap();
        for size in [(4, 2, 2, 8), (8, 4, 3, 48), (12, 6, 4, 48)] {
            let p = ring_problem(size.0, size.1, size.2, size.3);
            let out = engine.solve(&p).unwrap();
            for c in &out.candidates {
                if let Some(sc) = c.score {
                    assert!(
                        out.score <= sc + 1e-12,
                        "winner {} ({}) vs {} ({sc})",
                        out.winner.name(),
                        out.score,
                        c.strategy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn tiny_budget_times_everything_out() {
        let cfg = PortfolioConfig::default().with_budget(SimTime::from_nanos(1));
        let mut engine = PortfolioEngine::new(cfg).unwrap();
        let p = ring_problem(4, 2, 2, 8);
        assert!(matches!(engine.solve(&p), Err(LpError::IterationLimit)));
        let stats = engine.stats();
        assert_eq!(stats.no_winner, 1);
        for s in Strategy::ALL {
            assert_eq!(stats.of(s).timeouts, 1);
        }
    }

    #[test]
    fn fault_disable_degrades_then_recovers() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::default()).unwrap();
        let p = ring_problem(4, 2, 2, 8);
        for s in Strategy::ALL {
            engine.disable_strategy(s);
        }
        assert_eq!(engine.runnable(), vec![]);
        assert!(engine.solve(&p).is_err());
        engine.enable_strategy(Strategy::Greedy);
        let out = engine.solve(&p).unwrap();
        assert_eq!(out.winner, Strategy::Greedy);
        for s in Strategy::ALL {
            engine.enable_strategy(s);
        }
        assert_eq!(engine.runnable().len(), Strategy::COUNT);
    }

    #[test]
    fn stats_account_every_attempt() {
        let mut engine = PortfolioEngine::new(PortfolioConfig::default()).unwrap();
        for i in 0..5 {
            let p = ring_problem(4 + i, 2, 2, 16);
            engine.solve(&p).unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.solves, 5);
        let wins: usize = Strategy::ALL.iter().map(|&s| stats.of(s).wins).sum();
        assert_eq!(wins, 5);
        for s in Strategy::ALL {
            let st = stats.of(s);
            assert_eq!(st.attempts, 5);
            assert!(st.virtual_cost > SimTime::ZERO);
            assert_eq!(st.timeouts + st.infeasible + st.errors, 0);
        }
    }
}
