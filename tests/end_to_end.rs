//! End-to-end integration tests across the workspace: the paper's
//! mechanisms working together through the public facade API.

use tlb::apps::micropp::{micropp_workload, MicroPpConfig};
use tlb::apps::nbody::{NBodyConfig, NBodyWorkload};
use tlb::apps::synthetic::{synthetic_workload, SyntheticConfig};
use tlb::cluster::{ClusterSim, RunSpec, SpecWorkload, TaskSpec};
use tlb::core::{imbalance, BalanceConfig, DromPolicy, Platform, Preset};

/// Degree-1 DLB cannot fix cross-node imbalance: execution time tracks
/// the imbalance metric linearly (the paper's Fig. 8 degree-1 line).
#[test]
fn degree_one_time_tracks_imbalance() {
    let platform = Platform::homogeneous(4, 4);
    let mut times = Vec::new();
    for &imb in &[1.0f64, 2.0, 3.0] {
        let mut cfg = SyntheticConfig::new(4, imb);
        cfg.iterations = 2;
        cfg.tasks_per_core = 20;
        let wl = synthetic_workload(&cfg, &platform);
        let r = ClusterSim::execute(RunSpec::new(
            &platform,
            &BalanceConfig::preset(Preset::NodeDlb),
            wl,
        ))
        .unwrap();
        times.push(r.mean_iteration_secs(0));
    }
    let r21 = times[1] / times[0];
    let r31 = times[2] / times[0];
    assert!((r21 - 2.0).abs() < 0.1, "imb 2 ratio {r21}");
    assert!((r31 - 3.0).abs() < 0.15, "imb 3 ratio {r31}");
}

/// Offloading with the global policy recovers most of the imbalance:
/// within 25% of perfect for imbalance 2.0 on 4 small nodes.
#[test]
fn offloading_approaches_perfect_balance() {
    let platform = Platform::homogeneous(4, 8);
    let mut cfg = SyntheticConfig::new(4, 2.0);
    cfg.iterations = 4;
    cfg.tasks_per_core = 50;
    let wl = synthetic_workload(&cfg, &platform);
    let perfect = wl.rank_work(0).iter().sum::<f64>() / platform.effective_capacity();
    let r = ClusterSim::execute(RunSpec::new(
        &platform,
        &BalanceConfig::preset(Preset::Offload {
            degree: 3,
            drom: DromPolicy::Global,
        }),
        wl,
    ))
    .unwrap();
    let t = r.mean_iteration_secs(2);
    assert!(
        t < 1.25 * perfect,
        "degree 3 at imbalance 2: {t} vs perfect {perfect}"
    );
}

/// The full config ladder is monotone on an imbalanced workload:
/// baseline ≥ LeWI-only ≥ global DROM (within tolerance).
#[test]
fn config_ladder_is_ordered() {
    let platform = Platform::homogeneous(2, 8);
    let heavy: Vec<TaskSpec> = (0..240).map(|_| TaskSpec::compute(0.02)).collect();
    let light: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.02)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 4);

    let run = |cfg: &BalanceConfig| {
        ClusterSim::execute(RunSpec::new(&platform, cfg, wl.clone()))
            .unwrap()
            .makespan
            .as_secs_f64()
    };
    let base = run(&BalanceConfig::preset(Preset::Baseline));
    let lewi = run(&BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Off,
    }));
    let glob = run(&BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    }));
    assert!(lewi <= base * 1.001, "LeWI {lewi} vs baseline {base}");
    assert!(glob <= lewi * 1.05, "global {glob} vs LeWI {lewi}");
    assert!(glob < base * 0.8, "global should clearly beat baseline");
}

/// MicroPP on a small machine: the generated workload is imbalanced, and
/// the global policy reduces time-to-solution against single-node DLB.
#[test]
fn micropp_reduction_vs_dlb() {
    let mut mcfg = MicroPpConfig::new(8);
    mcfg.iterations = 8;
    mcfg.subproblems_per_rank = 1000;
    let wl = micropp_workload(&mcfg);
    assert!(
        imbalance(&wl.rank_work(0)) > 1.3,
        "workload must be imbalanced"
    );
    let platform = Platform::mn4(4);
    // Iterations here are far shorter than the paper's, so tick DROM
    // proportionally faster (a config knob).
    let mut glob_cfg = BalanceConfig::preset(Preset::Offload {
        degree: 4,
        drom: DromPolicy::Global,
    });
    glob_cfg.global_period = tlb::des::SimTime::from_millis(200);
    let dlb = ClusterSim::execute(RunSpec::new(
        &platform,
        &BalanceConfig::preset(Preset::NodeDlb),
        wl.clone(),
    ))
    .unwrap()
    .mean_iteration_secs(2);
    let glob = ClusterSim::execute(RunSpec::new(&platform, &glob_cfg, wl))
        .unwrap()
        .mean_iteration_secs(2);
    assert!(
        glob < 0.85 * dlb,
        "global {glob} should be well below DLB {dlb}"
    );
}

/// n-body with a slow node: ORB alone leaves the slow node as the
/// bottleneck; offloading recovers a large share.
#[test]
fn nbody_slow_node_recovery() {
    let nodes = 4;
    let ranks = nodes * 2;
    let mk = || {
        let mut cfg = NBodyConfig::new(20_000 * ranks, ranks);
        cfg.force_cost = 4e-6;
        cfg.iterations = 8;
        NBodyWorkload::new(cfg)
    };
    let platform = Platform::nord3(nodes, &[0]);
    let base = ClusterSim::execute(RunSpec::new(
        &platform,
        &BalanceConfig::preset(Preset::Baseline),
        mk(),
    ))
    .unwrap()
    .mean_iteration_secs(2);
    // Iterations here are short, so let DROM react faster than the
    // paper's 2 s default (a config knob, not a code change).
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 3,
        drom: DromPolicy::Global,
    });
    cfg.global_period = tlb::des::SimTime::from_millis(500);
    let d3 = ClusterSim::execute(RunSpec::new(&platform, &cfg, mk()))
        .unwrap()
        .mean_iteration_secs(2);
    assert!(d3 < 0.8 * base, "degree 3 {d3} vs baseline {base}");
}

/// Simulation results are exactly reproducible for a fixed seed, and
/// change with the expander seed.
#[test]
fn reproducibility_and_seed_sensitivity() {
    let platform = Platform::homogeneous(4, 4);
    let mut cfg = SyntheticConfig::new(4, 2.0);
    cfg.iterations = 2;
    cfg.tasks_per_core = 20;
    let wl = synthetic_workload(&cfg, &platform);
    let bc = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let a = ClusterSim::execute(RunSpec::new(&platform, &bc, wl.clone())).unwrap();
    let b = ClusterSim::execute(RunSpec::new(&platform, &bc, wl.clone())).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    let c = ClusterSim::execute(RunSpec::new(&platform, &bc.clone().with_seed(99), wl)).unwrap();
    // A different graph may or may not change the makespan, but the run
    // must still complete all tasks.
    assert_eq!(c.total_tasks, a.total_tasks);
}

/// Traces account for every core: at any sampled instant the busy cores
/// per node never exceed the node size, and ownership sums to it.
#[test]
fn trace_core_accounting() {
    let platform = Platform::homogeneous(2, 4);
    let heavy: Vec<TaskSpec> = (0..120).map(|_| TaskSpec::compute(0.02)).collect();
    let light: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::compute(0.02)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 3);
    let r = ClusterSim::execute(
        RunSpec::new(
            &platform,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Global,
            }),
            wl,
        )
        .trace(true),
    )
    .unwrap();
    let end = r.makespan;
    for node in 0..2 {
        for i in 0..50 {
            let t = tlb::des::SimTime::from_nanos(end.as_nanos() * i / 49);
            let busy: f64 = (0..r.trace.busy[node].len())
                .map(|p| r.trace.busy[node][p].value_at(t).unwrap_or(0.0))
                .sum();
            assert!(busy <= 4.0 + 1e-9, "node {node} busy {busy} at {t}");
            let owned: f64 = (0..r.trace.owned[node].len())
                .map(|p| r.trace.owned[node][p].value_at(t).unwrap_or(0.0))
                .sum();
            assert!(
                (owned - 4.0).abs() < 1e-9,
                "node {node} ownership {owned} at {t}"
            );
        }
    }
}

/// Length and FNV-1a digest of an export.
fn digest(text: &[u8]) -> (usize, u64) {
    let fnv = text.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (text.len(), fnv)
}

/// The exports of a traced synthetic run shaped like the benchmark's
/// `trace_synth_4n` (4 MareNostrum-4 nodes, two appranks a node,
/// imbalance 2, `lewi+drom-global` at degree 4, seed 42) at 10 tasks a
/// core instead of 25: every family a global-policy run records — TALP
/// windows on each global tick included — held to pinned bytes.
#[test]
fn synthetic_4n_exports_the_pinned_bytes() {
    use tlb_trace::EventKind as K;
    let platform = Platform::mn4(4);
    let mut cfg = SyntheticConfig::new(8, 2.0);
    cfg.tasks_per_core = 10;
    let wl = synthetic_workload(&cfg, &platform);
    let balance = BalanceConfig::preset(Preset::Offload {
        degree: 4,
        drom: DromPolicy::Global,
    })
    .with_seed(42);
    let r = ClusterSim::execute(RunSpec::new(&platform, &balance, wl).trace(true)).unwrap();
    let log = &r.trace.log;
    assert_eq!(log.len(), 56_482);
    for (family, recorded) in [
        (
            "LeWI",
            log.count(|k| matches!(k, K::LewiBorrow { .. } | K::LewiReclaim { .. })),
        ),
        (
            "DROM",
            log.count(|k| matches!(k, K::DromOwnership { .. } | K::DromTransfer { .. })),
        ),
        ("solver", log.count(|k| matches!(k, K::SolverInvoked(..)))),
        ("TALP", log.count(|k| matches!(k, K::TalpWindow { .. }))),
    ] {
        assert!(recorded > 0, "no {family} event");
    }
    let chrome = tlb::cluster::trace_to_chrome(&r.trace);
    let csv = tlb::cluster::trace_to_csv(&r.trace);
    assert_eq!(
        [digest(&chrome), digest(&csv)],
        [
            (7_586_222, 0xb5e1_d6fc_0b62_538c),
            (2_305_795, 0xb9eb_38c0_d7ba_c032),
        ]
    );
}

/// The one app whose tasks declare accesses, so the one run that
/// exercises the dependency domain: a traced stencil (4 nodes of 8
/// cores, four strips with a 0.5–2.0 cost gradient, 16 blocks a strip)
/// under `lewi+drom-global` at degree 2, with a 100 ms global period so
/// ticks fire. Any change to a successor list or a released set moves
/// the schedule, hence these pins.
#[test]
fn stencil_exports_the_pinned_bytes() {
    use tlb::apps::stencil::{StencilConfig, StencilWorkload};
    use tlb_trace::EventKind as K;
    let platform = Platform::homogeneous(4, 8);
    let mut cfg = StencilConfig::new(4, 256, 128).with_gradient(0.5, 2.0);
    cfg.secs_per_row = 1e-3;
    let mut balance = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    })
    .with_seed(42);
    balance.global_period = tlb::des::SimTime::from_millis(100);
    let wl = StencilWorkload::new(cfg);
    let r = ClusterSim::execute(RunSpec::new(&platform, &balance, wl).trace(true)).unwrap();
    let ticks = r.trace.log.count(|k| matches!(k, K::TalpWindow { .. }));
    assert!(ticks > 0, "no global tick fired");
    let csv = tlb::cluster::trace_to_csv(&r.trace);
    assert_eq!(
        (r.makespan.as_nanos(), r.events, digest(&csv)),
        (385_824_000, 917, (110_645, 0x35cf_fdac_7595_1994))
    );
}
