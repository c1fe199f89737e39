//! Integration tests for the policy stack and the workloads' ORB
//! partitioner.

use tlb::apps::nbody::{orb_partition, Body};
use tlb::cluster::{ClusterSim, RunSpec, SimReport, SpecWorkload, TaskSpec};
use tlb::core::{
    BalanceConfig, DromPolicy, GlobalPolicy, GlobalSolverKind, LocalPolicy, Platform, PolicySpec,
    Preset, ProcessLayout,
};
use tlb::expander::{BipartiteGraph, ExpanderConfig};

/// The global policy's per-node ownership vectors always feed cleanly
/// into DLB: node sums equal capacity and everyone owns ≥ 1 core.
#[test]
fn global_policy_drom_roundtrip() {
    let g = BipartiteGraph::generate(&ExpanderConfig::new(16, 8, 3).with_seed(5)).unwrap();
    let platform = Platform::homogeneous(8, 12);
    let layout = ProcessLayout::new(&g, 12);
    let mut policy = GlobalPolicy::new(&g, &platform);
    let work: Vec<f64> = (0..16).map(|a| 1.0 + (a as f64 * 2.7) % 9.0).collect();
    let sol = policy.allocate(&work, GlobalSolverKind::Simplex).unwrap();
    let per_node = layout.counts_by_node(&sol.cores);
    for (n, counts) in per_node.iter().enumerate() {
        assert_eq!(counts.iter().sum::<usize>(), 12, "node {n}");
        assert!(counts.iter().all(|&c| c >= 1), "node {n}: {counts:?}");
        // And DLB accepts them.
        let mut dlb = tlb::dlb::NodeDlb::with_counts(layout.initial_ownership(n), true);
        dlb.set_ownership(counts).expect("valid DROM update");
    }
}

/// Iterating local-policy updates from any start converges to a fixed
/// point that matches the busy profile.
#[test]
fn local_policy_fixed_point() {
    let busy = [9.0, 3.0, 0.5, 0.1];
    let mut counts = vec![4usize, 4, 4, 4];
    for _ in 0..5 {
        counts = LocalPolicy::ownership(16, &busy, &counts);
    }
    let again = LocalPolicy::ownership(16, &busy, &counts);
    assert_eq!(counts, again, "not a fixed point");
    assert_eq!(counts.iter().sum::<usize>(), 16);
    assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    assert!(counts[3] >= 1);
}

/// ORB round trip: every body lands on exactly one rank, and the rank
/// counts are equal.
#[test]
fn nbody_orb_and_forces_roundtrip() {
    let mut rng = tlb::core::rng::Rng::seed_from_u64(3);
    let bodies: Vec<Body> = (0..600)
        .map(|_| {
            Body::at(
                [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                ],
                1.0,
            )
        })
        .collect();
    let ranks = 4;
    let assign = orb_partition(&bodies, ranks);
    // Every body assigned exactly once, counts near-equal.
    let mut counts = vec![0usize; ranks];
    for &r in &assign {
        counts[r] += 1;
    }
    assert_eq!(counts.iter().sum::<usize>(), 600);
    assert!(counts.iter().all(|&c| c == 150));
}

/// An imbalanced four-apprank workload on four small nodes: enough
/// skew that every balancing layer (LeWI, DROM, offloading) has work
/// to do, small enough to run many configurations quickly.
fn imbalanced_workload() -> SpecWorkload {
    let mk = |n: usize| (0..n).map(|_| TaskSpec::compute(0.05)).collect();
    SpecWorkload::iterated(vec![mk(160), mk(60), mk(40), mk(20)], 4)
}

fn run_with(cfg: &BalanceConfig) -> SimReport {
    let platform = Platform::homogeneous(4, 4);
    ClusterSim::execute(RunSpec::new(&platform, cfg, imbalanced_workload())).unwrap()
}

/// Field-by-field bitwise comparison of two reports (`SimReport` has no
/// `PartialEq`; floats are compared by bit pattern on purpose).
fn assert_reports_identical(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.makespan, b.makespan, "{label}: makespan");
    assert_eq!(
        a.iteration_times, b.iteration_times,
        "{label}: iteration_times"
    );
    assert_eq!(
        a.offloaded_tasks, b.offloaded_tasks,
        "{label}: offloaded_tasks"
    );
    assert_eq!(a.total_tasks, b.total_tasks, "{label}: total_tasks");
    assert_eq!(a.events, b.events, "{label}: events");
    assert_eq!(a.solver_runs, b.solver_runs, "{label}: solver_runs");
    assert_eq!(a.solver_time, b.solver_time, "{label}: solver_time");
    assert_eq!(
        a.spawned_helpers, b.spawned_helpers,
        "{label}: spawned_helpers"
    );
    assert_eq!(
        a.parallel_efficiency.to_bits(),
        b.parallel_efficiency.to_bits(),
        "{label}: parallel_efficiency"
    );
}

/// One pinned report of [`run_with`]: times in nanoseconds,
/// `parallel_efficiency` by bit pattern.
struct Golden {
    makespan_ns: u64,
    iteration_ns: [u64; 4],
    offloaded_tasks: usize,
    events: u64,
    solver_runs: usize,
    solver_time_ns: u64,
    parallel_efficiency_bits: u64,
}

/// Every `Preset`, and the two LeWI-off DROM policies no preset names,
/// reproduces bit for bit the report the pre-registry `lewi` + `drom`
/// field pair produced for the same combination (captured at commit
/// ba94509, the last one that had those fields).
#[test]
fn presets_and_paper_policies_match_golden_reports() {
    let offload = |drom| BalanceConfig::preset(Preset::Offload { degree: 2, drom });
    let named = |policy| offload(DromPolicy::Off).with_policy(PolicySpec::named(policy).unwrap());
    let cases = [
        (
            "Baseline",
            BalanceConfig::preset(Preset::Baseline),
            Golden {
                makespan_ns: 8_000_016_000,
                iteration_ns: [2_000_004_000; 4],
                offloaded_tasks: 0,
                events: 2244,
                solver_runs: 0,
                solver_time_ns: 0,
                parallel_efficiency_bits: 0x3fdb_fffc_547a_4ff1,
            },
        ),
        (
            "NodeDlb",
            BalanceConfig::preset(Preset::NodeDlb),
            Golden {
                makespan_ns: 8_000_016_000,
                iteration_ns: [2_000_004_000; 4],
                offloaded_tasks: 0,
                events: 2325,
                solver_runs: 0,
                solver_time_ns: 0,
                parallel_efficiency_bits: 0x3fdb_fffc_547a_4ff1,
            },
        ),
        (
            "Offload/Off",
            offload(DromPolicy::Off),
            Golden {
                makespan_ns: 5_600_048_000,
                iteration_ns: [1_400_012_000; 4],
                offloaded_tasks: 472,
                events: 1252,
                solver_runs: 0,
                solver_time_ns: 0,
                parallel_efficiency_bits: 0x3fe4_0009_5cb9_7f5a,
            },
        ),
        (
            "Offload/Local",
            offload(DromPolicy::Local),
            Golden {
                makespan_ns: 5_150_064_000,
                iteration_ns: [1_300_008_000, 1_300_008_000, 1_250_040_000, 1_300_008_000],
                offloaded_tasks: 521,
                events: 1609,
                solver_runs: 0,
                solver_time_ns: 0,
                parallel_efficiency_bits: 0x3fe5_bf60_1196_1a0f,
            },
        ),
        (
            "Offload/Global",
            offload(DromPolicy::Global),
            Golden {
                makespan_ns: 5_200_116_000,
                iteration_ns: [1_400_012_000, 1_300_014_000, 1_250_048_000, 1_250_042_000],
                offloaded_tasks: 499,
                events: 1269,
                solver_runs: 2,
                solver_time_ns: 2_000_000,
                parallel_efficiency_bits: 0x3fe5_89d0_1d83_3987,
            },
        ),
        (
            "drom-local",
            named("drom-local"),
            Golden {
                makespan_ns: 5_950_074_000,
                iteration_ns: [1_600_004_000, 1_500_004_000, 1_500_036_000, 1_350_030_000],
                offloaded_tasks: 491,
                events: 1810,
                solver_runs: 0,
                solver_time_ns: 0,
                parallel_efficiency_bits: 0x3fe2_d2cc_a528_42ed,
            },
        ),
        (
            "drom-global",
            named("drom-global"),
            Golden {
                makespan_ns: 6_050_246_000,
                iteration_ns: [2_000_082_000, 1_350_058_000, 1_350_052_000, 1_350_054_000],
                offloaded_tasks: 426,
                events: 1271,
                solver_runs: 3,
                solver_time_ns: 3_000_000,
                parallel_efficiency_bits: 0x3fe2_830b_9bbf_486c,
            },
        ),
    ];
    for (label, cfg, want) in cases {
        let got = run_with(&cfg);
        assert_eq!(
            got.makespan.as_nanos(),
            want.makespan_ns,
            "{label}: makespan"
        );
        let iteration_ns: Vec<u64> = got.iteration_times.iter().map(|t| t.as_nanos()).collect();
        assert_eq!(iteration_ns, want.iteration_ns, "{label}: iteration_times");
        assert_eq!(
            got.offloaded_tasks, want.offloaded_tasks,
            "{label}: offloaded_tasks"
        );
        assert_eq!(got.total_tasks, 4 * 280, "{label}: total_tasks");
        assert_eq!(got.events, want.events, "{label}: events");
        assert_eq!(got.solver_runs, want.solver_runs, "{label}: solver_runs");
        assert_eq!(
            got.solver_time.as_nanos(),
            want.solver_time_ns,
            "{label}: solver_time"
        );
        assert_eq!(got.spawned_helpers, 0, "{label}: spawned_helpers");
        assert_eq!(
            got.parallel_efficiency.to_bits(),
            want.parallel_efficiency_bits,
            "{label}: parallel_efficiency"
        );
    }
}

/// The registry-new policies run end to end, deterministically, and
/// without ever invoking the LP solver.
#[test]
fn new_policies_run_deterministically_without_the_solver() {
    for policy in [
        "reactive-offload",
        "reactive-offload(hi=0.4,lo=0.2,unit=2)",
        "diffusion",
        "diffusion(alpha=0.25,order=2)",
    ] {
        let mut cfg = BalanceConfig::default().with_policy(PolicySpec::parse(policy).unwrap());
        cfg.degree = 2;
        let a = run_with(&cfg);
        let b = run_with(&cfg);
        assert_reports_identical(&a, &b, policy);
        assert_eq!(a.solver_runs, 0, "{policy}: must not touch the LP solver");
        assert_eq!(a.total_tasks, 4 * 280, "{policy}: all tasks completed");
    }
}
