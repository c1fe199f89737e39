//! Randomized tests of the cluster runtime: for random workloads and
//! configurations, the simulation must terminate, complete every task,
//! respect physical bounds, and be deterministic. Seeded `tlb-rng` loops
//! stand in for proptest (no registry deps).

use tlb_cluster::{ClusterSim, RunSpec, SpecWorkload, TaskSpec};
use tlb_core::{BalanceConfig, DromPolicy, Platform, PolicySpec, Preset, StealGate, WorkSignal};
use tlb_rng::Rng;

#[derive(Clone, Debug)]
struct Shape {
    nodes: usize,
    per_node: usize,
    cores: usize,
    degree: usize,
    policy: &'static str,
    gate: StealGate,
    signal: WorkSignal,
}

fn gen_shape(rng: &mut Rng) -> Shape {
    let nodes = rng.range_usize(1, 5);
    let per_node = rng.range_usize(1, 3);
    // DROM flavour first, then LeWI: every paper policy is reachable.
    let drom = rng.range_u64(0, 3);
    let lewi = rng.chance(0.5);
    let policy = match (lewi, drom) {
        (false, 0) => "baseline",
        (true, 0) => "lewi",
        (false, 1) => "drom-local",
        (true, 1) => "lewi+drom-local",
        (false, _) => "drom-global",
        (true, _) => "lewi+drom-global",
    };
    let gate = if rng.chance(0.5) {
        StealGate::Owned
    } else {
        StealGate::Usable
    };
    let signal = if rng.chance(0.5) {
        WorkSignal::BusyPending
    } else {
        WorkSignal::CreatedWork
    };
    let degree = rng.range_usize(1, 4).min(nodes);
    // Enough cores for the one-core-per-worker floor.
    let cores = (degree * per_node).max(2) + 2;
    Shape {
        nodes,
        per_node,
        cores,
        degree,
        policy,
        gate,
        signal,
    }
}

// iterations × ranks × tasks(duration ms, offloadable)
fn gen_workload(rng: &mut Rng, ranks: usize) -> Vec<Vec<Vec<(u32, bool)>>> {
    let iterations = rng.range_usize(1, 4);
    (0..iterations)
        .map(|_| {
            (0..ranks)
                .map(|_| {
                    let tasks = rng.range_usize(0, 20);
                    (0..tasks)
                        .map(|_| (rng.range_u64(1, 60) as u32, rng.chance(0.5)))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn build(specs: &[Vec<Vec<(u32, bool)>>]) -> SpecWorkload {
    SpecWorkload::new(
        specs
            .iter()
            .map(|it| {
                it.iter()
                    .map(|tasks| {
                        tasks
                            .iter()
                            .map(|&(ms, off)| {
                                let d = ms as f64 / 1000.0;
                                if off {
                                    TaskSpec::compute(d)
                                } else {
                                    TaskSpec::pinned(d)
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect(),
    )
}

#[test]
fn simulation_always_completes_and_respects_bounds() {
    const CASES: usize = 48;
    let root = Rng::seed_from_u64(0xC105_0001);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let shape = gen_shape(&mut rng);
        let ranks = shape.nodes * shape.per_node;
        let specs = gen_workload(&mut rng, ranks);
        let wl = build(&specs);
        let platform = Platform::homogeneous(shape.nodes, shape.cores);
        let mut cfg = BalanceConfig {
            degree: shape.degree,
            policy: PolicySpec::named(shape.policy).unwrap(),
            steal_gate: shape.gate,
            work_signal: shape.signal,
            ..BalanceConfig::default()
        };
        cfg.global_period = tlb_des::SimTime::from_millis(200);
        cfg.local_period = tlb_des::SimTime::from_millis(50);

        let total_work: f64 = specs
            .iter()
            .flatten()
            .flatten()
            .map(|&(ms, _)| ms as f64 / 1000.0)
            .sum();
        let report = ClusterSim::execute(RunSpec::new(&platform, &cfg, wl.clone())).unwrap();

        // All tasks executed.
        let n_tasks: usize = specs.iter().flatten().map(|t| t.len()).sum();
        assert_eq!(report.total_tasks, n_tasks, "case {case}");
        assert_eq!(report.iteration_times.len(), specs.len(), "case {case}");

        // Physical lower bound: cannot beat work/capacity.
        let bound = total_work / platform.effective_capacity();
        assert!(
            report.makespan.as_secs_f64() >= bound - 1e-9,
            "case {case}: makespan {} below bound {bound}",
            report.makespan
        );
        // Sanity upper bound: serial execution on one core (plus barriers).
        assert!(
            report.makespan.as_secs_f64() <= total_work + 1.0,
            "case {case}: makespan {} above serial bound {total_work}",
            report.makespan
        );

        // Degree 1 or pinned-only tasks never offload.
        if shape.degree == 1 {
            assert_eq!(report.offloaded_tasks, 0, "case {case}");
        }

        // Determinism.
        let again = ClusterSim::execute(RunSpec::new(&platform, &cfg, wl)).unwrap();
        assert_eq!(report.makespan, again.makespan, "case {case}");
        assert_eq!(report.events, again.events, "case {case}");
        assert_eq!(report.offloaded_tasks, again.offloaded_tasks, "case {case}");
    }
}

/// More balancing never catastrophically hurts: the global policy's
/// makespan stays within 2x of the baseline for any workload (it is
/// usually far better; pathological graphs/overheads must not explode).
#[test]
fn balancing_is_never_catastrophic() {
    const CASES: usize = 48;
    let root = Rng::seed_from_u64(0xC105_0002);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let raw = gen_workload(&mut rng, 4);
        let platform = Platform::homogeneous(2, 6);
        let wl = build(&raw);
        let base = ClusterSim::execute(RunSpec::new(
            &platform,
            &BalanceConfig::preset(Preset::Baseline),
            wl.clone(),
        ))
        .unwrap()
        .makespan
        .as_secs_f64();
        let glob = ClusterSim::execute(RunSpec::new(
            &platform,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Global,
            }),
            wl,
        ))
        .unwrap()
        .makespan
        .as_secs_f64();
        assert!(
            glob <= base * 2.0 + 0.2,
            "case {case}: global {glob} vs baseline {base}"
        );
    }
}
