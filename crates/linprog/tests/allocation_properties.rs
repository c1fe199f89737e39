//! Randomized tests for the core allocation program: bounds and invariants
//! that must hold for any instance. Seeded `tlb-rng` loops stand in for
//! proptest (no registry deps).

use tlb_linprog::{solve_flow, solve_lp, AllocationProblem};
use tlb_rng::Rng;

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

fn instance(rng: &mut Rng) -> AllocationProblem {
    let nodes = rng.range_usize(2, 8);
    let per = rng.range_usize(1, 3);
    let degree = rng.range_usize(1, 4).min(nodes);
    let cores = rng.range_usize(4, 24).max(per * degree + 1);
    let appranks = nodes * per;
    let work: Vec<f64> = (0..appranks).map(|_| rng.range_f64(0.0, 40.0)).collect();
    AllocationProblem::new(work, ring_adjacency(appranks, nodes, degree), cores, nodes)
}

const CASES: usize = 128;

/// The LP optimum respects its analytic lower bounds, and the integer
/// cores form a valid DROM state.
#[test]
fn lp_bounds_and_valid_cores() {
    let root = Rng::seed_from_u64(0x11b_0001);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let p = instance(&mut rng);
        let sol = solve_lp(&p).unwrap();
        let total_work: f64 = p.work.iter().sum();
        let total_cores: f64 = p.node_cores.iter().sum::<usize>() as f64;
        // Bound 1: machine-wide mean load.
        assert!(
            sol.objective >= total_work / total_cores - 1e-6,
            "case {case}"
        );
        // Bound 2: each apprank against everything it can reach.
        for (a, adj) in p.adjacency.iter().enumerate() {
            let reach: f64 = adj.iter().map(|&n| p.node_cores[n] as f64).sum();
            assert!(
                sol.objective >= p.work[a] / reach - 1e-6,
                "case {case} apprank {a}: objective {} below reach bound {}",
                sol.objective,
                p.work[a] / reach
            );
        }
        // Integer cores: node sums exact, every worker ≥ 1.
        let mut per_node = vec![0usize; p.nodes()];
        for (cores, adj) in sol.cores.iter().zip(&p.adjacency) {
            for (&c, &n) in cores.iter().zip(adj) {
                assert!(c >= 1, "case {case}");
                per_node[n] += c;
            }
        }
        assert_eq!(per_node, p.node_cores.clone(), "case {case}");
        // Work shares conserve each apprank's work.
        for (a, shares) in sol.work_share.iter().enumerate() {
            let s: f64 = shares.iter().sum();
            assert!(
                (s - p.work[a]).abs() < 1e-6 * p.work[a].max(1.0),
                "case {case} apprank {a}"
            );
        }
    }
}

/// The flow solver is a relaxation: never above the floor-aware LP.
#[test]
fn flow_lower_bounds_lp() {
    let root = Rng::seed_from_u64(0x11b_0002);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let p = instance(&mut rng);
        let lp = solve_lp(&p).unwrap();
        let fl = solve_flow(&p, 1e-7).unwrap();
        assert!(
            fl.objective <= lp.objective * (1.0 + 1e-4) + 1e-9,
            "case {case}: flow {} above lp {}",
            fl.objective,
            lp.objective
        );
    }
}

/// Scaling all work by a constant scales the objective linearly and
/// leaves the (integer) allocation essentially unchanged.
#[test]
fn objective_is_homogeneous() {
    let root = Rng::seed_from_u64(0x11b_0003);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let p = instance(&mut rng);
        let scale = rng.range_f64(0.5, 4.0);
        let base = solve_lp(&p).unwrap();
        let mut scaled = p.clone();
        for w in scaled.work.iter_mut() {
            *w *= scale;
        }
        let s = solve_lp(&scaled).unwrap();
        if base.objective > 1e-9 {
            assert!(
                (s.objective / base.objective - scale).abs() < 1e-4 * scale,
                "case {case}: scaled objective {} vs base {} * {scale}",
                s.objective,
                base.objective
            );
        }
    }
}

/// Adding work to one apprank never lowers the optimum (monotonicity).
#[test]
fn objective_is_monotone() {
    let root = Rng::seed_from_u64(0x11b_0004);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let p = instance(&mut rng);
        let extra = rng.range_f64(0.1, 20.0);
        let base = solve_lp(&p).unwrap();
        let mut more = p.clone();
        let a = rng.range_usize(0, more.work.len());
        more.work[a] += extra;
        let s = solve_lp(&more).unwrap();
        assert!(s.objective >= base.objective - 1e-6, "case {case}");
    }
}
