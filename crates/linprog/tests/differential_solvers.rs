//! Differential test: the simplex LP and the parametric max-flow solver
//! answer the *same* min-max question and must agree on the optimum.
//!
//! Two knobs make exact agreement meaningful:
//!
//! * `keep_local_incentive = 0.0` — the δ tiebreak perturbs the LP's
//!   reported objective away from the pure min-max value, so it is
//!   switched off.
//! * instances keep the `x ≥ 1` DLB floors slack (plenty of cores per
//!   node, narrowly spread work), because the flow solver is a
//!   floor-free relaxation: where floors bind the LP is legitimately
//!   above the flow bound and the two are *not* comparable at 1e-9.
//!
//! On a mismatch the instance is shrunk — work entries zeroed, helper
//! edges dropped — while the disagreement persists, and the minimal
//! failing instance is reported.

use tlb_linprog::{solve_flow, solve_lp, AllocationProblem};
use tlb_rng::Rng;

/// Bisection tolerance for the flow solver: tight enough that its
/// truncation error is far below the agreement threshold.
const TIGHT_TOL: f64 = 1e-12;

/// Agreement demanded between the two solvers. The flow solver's
/// feasibility check carries an internal ~1e-9 *relative* slack, so the
/// instances keep objectives at O(10⁻²) — the slack is then ~1e-11 and
/// 1e-9 is a strict absolute bound.
const AGREE: f64 = 1e-9;

fn ring_adjacency(appranks: usize, nodes: usize, degree: usize) -> Vec<Vec<usize>> {
    let per = appranks / nodes;
    (0..appranks)
        .map(|a| {
            let home = a / per;
            let mut adj = vec![home];
            let mut extra: Vec<usize> = (1..degree).map(|s| (home + s) % nodes).collect();
            extra.sort_unstable();
            extra.dedup();
            adj.extend(extra.into_iter().filter(|&n| n != home));
            adj
        })
        .collect()
}

/// A floors-slack instance: 32 cores per node dwarf the ≤ 8 floor cores,
/// and work within a ±10 % band keeps every worker's continuous optimum
/// well above one core (the continuous allocation is scale-invariant in
/// the work, so the small magnitudes only shrink the objective, not the
/// shape).
fn slack_instance(rng: &mut Rng) -> AllocationProblem {
    let nodes = rng.range_usize(2, 7);
    let per = rng.range_usize(1, 3);
    let degree = rng.range_usize(2, 5).min(nodes);
    let appranks = nodes * per;
    let work: Vec<f64> = (0..appranks).map(|_| rng.range_f64(0.5, 0.6)).collect();
    let mut p = AllocationProblem::new(work, ring_adjacency(appranks, nodes, degree), 32, nodes);
    for s in p.node_speed.iter_mut() {
        *s = rng.range_f64(0.8, 1.2);
    }
    p.keep_local_incentive = 0.0;
    p
}

/// Both solvers' objectives on `p`, or `None` if either errors (the
/// shrinker can produce degenerate instances; those are not mismatches).
fn objectives(p: &AllocationProblem) -> Option<(f64, f64)> {
    let lp = solve_lp(p).ok()?;
    let fl = solve_flow(p, TIGHT_TOL).ok()?;
    Some((lp.objective, fl.objective))
}

fn disagrees(p: &AllocationProblem) -> bool {
    match objectives(p) {
        Some((lp, fl)) => (lp - fl).abs() > AGREE,
        None => false,
    }
}

/// Shrink a failing instance: repeatedly zero one work entry or drop one
/// helper edge, keeping any reduction that preserves the disagreement,
/// until no single reduction does.
fn shrink(mut p: AllocationProblem) -> AllocationProblem {
    loop {
        let mut reduced = false;
        for a in 0..p.work.len() {
            if p.work[a] == 0.0 {
                continue;
            }
            let mut cand = p.clone();
            cand.work[a] = 0.0;
            if disagrees(&cand) {
                p = cand;
                reduced = true;
            }
        }
        for a in 0..p.adjacency.len() {
            if p.adjacency[a].len() <= 1 {
                continue;
            }
            let mut cand = p.clone();
            cand.adjacency[a].pop();
            if disagrees(&cand) {
                p = cand;
                reduced = true;
            }
        }
        if !reduced {
            return p;
        }
    }
}

#[test]
fn simplex_and_maxflow_agree_on_floors_slack_instances() {
    let root = Rng::seed_from_u64(0x11b_d1ff);
    for case in 0..128 {
        let mut rng = root.split_u64(case as u64);
        let p = slack_instance(&mut rng);
        let (lp, fl) = objectives(&p).expect("slack instances are solvable");
        if (lp - fl).abs() > AGREE {
            let min = shrink(p);
            let (mlp, mfl) = objectives(&min).unwrap();
            panic!(
                "case {case}: simplex {lp} vs max-flow {fl} \
                 (|Δ| = {:.3e} > {AGREE:.0e})\n\
                 minimal failing instance: {min:#?}\n\
                 minimal objectives: simplex {mlp} vs max-flow {mfl}",
                (lp - fl).abs()
            );
        }
    }
}

#[test]
fn agreement_holds_with_zero_and_single_hot_work() {
    // Edge shapes the random band misses: all-zero work (both solvers
    // define the optimum as 0) and one hot apprank on a fully connected
    // graph (bottleneck is the whole machine).
    let mut zero = AllocationProblem::new(vec![0.0; 4], ring_adjacency(4, 2, 2), 16, 2);
    zero.keep_local_incentive = 0.0;
    let (lp, fl) = objectives(&zero).unwrap();
    assert_eq!(lp, 0.0);
    assert_eq!(fl, 0.0);

    // One hot apprank carrying 10× its neighbour on a fully connected
    // graph: the bottleneck is the whole machine. The light rank keeps
    // enough work that its floor cores are useful, not binding (a truly
    // idle rank's forced floor cores consume capacity the relaxation
    // would hand to the hot rank — there the solvers legitimately
    // diverge).
    let mut hot = AllocationProblem::new(vec![2.0, 0.2], ring_adjacency(2, 2, 2), 32, 2);
    hot.keep_local_incentive = 0.0;
    let (lp, fl) = objectives(&hot).unwrap();
    assert!(
        (lp - fl).abs() <= AGREE,
        "hot instance: simplex {lp} vs max-flow {fl}"
    );
}
