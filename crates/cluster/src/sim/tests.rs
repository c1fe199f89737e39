//! Tests of the simulator as a whole, through `ClusterSim::execute`.

use super::{setup, ClusterSim, RunSpec, SimError};
use crate::{FaultPlan, FaultStats, SimReport, SpecWorkload, TaskSpec, Trace};
use tlb_core::{BalanceConfig, DromPolicy, Platform, Preset};
use tlb_des::SimTime;
use tlb_dlb::ProcId;
use tlb_trace::EventKind;

fn uniform(ranks: usize, tasks: usize, dur: f64, iters: usize) -> SpecWorkload {
    SpecWorkload::iterated(
        (0..ranks)
            .map(|_| (0..tasks).map(|_| TaskSpec::compute(dur)).collect())
            .collect(),
        iters,
    )
}

#[test]
fn single_node_packs_cores() {
    // 1 apprank, 1 node, 4 cores, 40 tasks of 0.1 s: 10 waves = 1 s.
    let wl = uniform(1, 40, 0.1, 1);
    let p = Platform::homogeneous(1, 4);
    let r = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    let secs = r.makespan.as_secs_f64();
    assert!((secs - 1.0).abs() < 1e-6, "makespan {secs}");
    assert_eq!(r.total_tasks, 40);
    assert_eq!(r.offloaded_tasks, 0);
}

#[test]
fn baseline_never_offloads() {
    let wl = uniform(2, 30, 0.05, 2);
    let p = Platform::homogeneous(2, 4);
    let r = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    assert_eq!(r.offloaded_tasks, 0);
    assert_eq!(r.iteration_times.len(), 2);
}

#[test]
fn imbalance_is_confined_without_offloading() {
    // Apprank 0 has 4x the work; without offloading its node is the
    // bottleneck: makespan ~= 4*20*0.05/4 = 1.0 s per iteration.
    let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 1);
    let p = Platform::homogeneous(2, 4);
    let r = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    let secs = r.makespan.as_secs_f64();
    assert!((secs - 1.0).abs() < 0.01, "makespan {secs}");
}

#[test]
fn offloading_spreads_imbalance() {
    let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 4);
    let p = Platform::homogeneous(2, 4);
    let base = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
    )
    .unwrap();
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let bal = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    assert!(
        bal.makespan.as_secs_f64() < 0.8 * base.makespan.as_secs_f64(),
        "balanced {} vs baseline {}",
        bal.makespan,
        base.makespan
    );
    assert!(bal.offloaded_tasks > 0);
}

#[test]
fn lewi_only_helps_but_less_than_drom() {
    let heavy: Vec<TaskSpec> = (0..120).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 4);
    let p = Platform::homogeneous(2, 4);
    let base = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
    )
    .unwrap();
    let lewi_cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Off,
    });
    let lewi = ClusterSim::execute(RunSpec::new(&p, &lewi_cfg, wl.clone()).trace(true)).unwrap();
    let drom = ClusterSim::execute(
        RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Global,
            }),
            wl,
        )
        .trace(true),
    )
    .unwrap();
    assert!(
        lewi.makespan < base.makespan,
        "LeWI {} vs baseline {}",
        lewi.makespan,
        base.makespan
    );
    assert!(
        drom.makespan <= lewi.makespan,
        "DROM {} vs LeWI {}",
        drom.makespan,
        lewi.makespan
    );
}

#[test]
fn pinned_tasks_never_offload() {
    let tasks: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::pinned(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![tasks.clone(), tasks], 2);
    let p = Platform::homogeneous(2, 4);
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    assert_eq!(r.offloaded_tasks, 0);
}

#[test]
fn slow_node_stretches_baseline() {
    let wl = uniform(2, 40, 0.05, 1);
    let fast = Platform::homogeneous(2, 4);
    let slow = Platform::homogeneous(2, 4).with_slowdown(1, 2.0);
    let rf = ClusterSim::execute(
        RunSpec::new(&fast, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
    )
    .unwrap();
    let rs = ClusterSim::execute(
        RunSpec::new(&slow, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    let ratio = rs.makespan.as_secs_f64() / rf.makespan.as_secs_f64();
    assert!((ratio - 2.0).abs() < 0.05, "slowdown ratio {ratio}");
}

#[test]
fn offloading_rescues_slow_node() {
    let wl = uniform(2, 80, 0.05, 4);
    let p = Platform::homogeneous(2, 4).with_slowdown(1, 3.0);
    let base = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
    )
    .unwrap();
    let bal = ClusterSim::execute(
        RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Global,
            }),
            wl,
        )
        .trace(true),
    )
    .unwrap();
    assert!(
        bal.makespan.as_secs_f64() < 0.85 * base.makespan.as_secs_f64(),
        "balanced {} vs baseline {}",
        bal.makespan,
        base.makespan
    );
}

#[test]
fn deterministic_replay() {
    let heavy: Vec<TaskSpec> = (0..60).map(|_| TaskSpec::compute(0.02)).collect();
    let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.02)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 3);
    let p = Platform::homogeneous(2, 4);
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
    let b = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.offloaded_tasks, b.offloaded_tasks);
    assert_eq!(a.events, b.events);
}

#[test]
fn local_policy_runs_and_balances() {
    let heavy: Vec<TaskSpec> = (0..120).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 4);
    let p = Platform::homogeneous(2, 4);
    let base = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
    )
    .unwrap();
    let local = ClusterSim::execute(
        RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Local,
            }),
            wl,
        )
        .trace(true),
    )
    .unwrap();
    assert!(
        local.makespan.as_secs_f64() < 0.85 * base.makespan.as_secs_f64(),
        "local {} vs baseline {}",
        local.makespan,
        base.makespan
    );
}

#[test]
fn report_bookkeeping() {
    let wl = uniform(2, 10, 0.01, 3);
    let p = Platform::homogeneous(2, 4);
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    assert_eq!(r.total_tasks, 60);
    assert_eq!(r.iteration_times.len(), 3);
    assert_eq!(r.trace.iteration_ends.len(), 3);
    assert!(r.events > 0);
    assert!(r.mean_iteration_secs(0) > 0.0);
}

#[test]
fn region_dependencies_serialize_within_iteration() {
    use tlb_tasking::DataRegion;
    // 10 tasks chained through one region: even with 4 cores they
    // must run one after another → iteration = sum of durations.
    let r = DataRegion::new(0x1000, 64);
    let chain: Vec<TaskSpec> = (0..10)
        .map(|_| TaskSpec::compute(0.05).reads_writes(r))
        .collect();
    let wl = SpecWorkload::iterated(vec![chain], 1);
    let p = Platform::homogeneous(1, 4);
    let rep = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    let secs = rep.makespan.as_secs_f64();
    assert!((secs - 0.5).abs() < 1e-6, "chained makespan {secs}");
}

#[test]
fn producer_consumer_dependencies_respected() {
    use tlb_tasking::DataRegion;
    // One producer writes a buffer; 8 consumers read chunks. The
    // consumers can only start after the producer: makespan =
    // producer + ceil(8/4)*consumer.
    let buf = DataRegion::new(0x2000, 800);
    let mut tasks = vec![TaskSpec::compute(0.1).writes(buf)];
    for c in buf.chunks(8) {
        tasks.push(TaskSpec::compute(0.05).reads(c));
    }
    let wl = SpecWorkload::iterated(vec![tasks], 1);
    let p = Platform::homogeneous(1, 4);
    let rep = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    let secs = rep.makespan.as_secs_f64();
    assert!((secs - 0.2).abs() < 1e-6, "fan-out makespan {secs}");
}

#[test]
fn dependent_tasks_offload_too() {
    use tlb_tasking::DataRegion;
    // Independent chains (one per region) can spread across nodes
    // even though each chain is serial.
    let chains: Vec<TaskSpec> = (0..8)
        .flat_map(|k| {
            let r = DataRegion::new(0x1000 * (k + 1), 64);
            (0..6).map(move |_| TaskSpec::compute(0.05).reads_writes(r))
        })
        .collect();
    let wl = SpecWorkload::iterated(vec![chains, Vec::new()], 2);
    let p = Platform::homogeneous(2, 4);
    let base = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).trace(true),
    )
    .unwrap();
    let bal = ClusterSim::execute(
        RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Global,
            }),
            wl,
        )
        .trace(true),
    )
    .unwrap();
    assert!(
        bal.makespan < base.makespan,
        "offloading chains: {} vs {}",
        bal.makespan,
        base.makespan
    );
    assert!(bal.offloaded_tasks > 0);
}

#[test]
fn mpi_recv_waits_for_send_and_transfer() {
    use tlb_tasking::DataRegion;
    // Rank 0: compute 100 ms, then send 10 MB. Rank 1: recv, then a
    // compute that reads the received buffer.
    let buf = DataRegion::new(0x9000, 64);
    let r0 = vec![
        TaskSpec::compute(0.1).writes(DataRegion::new(0x100, 8)),
        TaskSpec::mpi_send(0.001, 1, 7, 10_000_000).reads(DataRegion::new(0x100, 8)),
    ];
    let r1 = vec![
        TaskSpec::mpi_recv(0.001, 0, 7).writes(buf),
        TaskSpec::compute(0.05).reads(buf),
    ];
    let wl = SpecWorkload::iterated(vec![r0, r1], 1);
    let mut p = Platform::homogeneous(2, 2);
    p.net_bandwidth = 1e9; // 10 MB at 1 GB/s = 10 ms on the wire
    let rep = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    // Critical path: 0.1 (compute) + 0.001 (pack) + 0.010 (wire)
    // + 0.001 (unpack) + 0.05 (consume) ≈ 0.162.
    let secs = rep.makespan.as_secs_f64();
    assert!((secs - 0.162).abs() < 0.002, "makespan {secs}");
}

#[test]
fn mpi_ping_pong_round_trip() {
    // Rank 0 sends to 1; rank 1 receives and replies; rank 0 receives.
    let r0 = vec![
        TaskSpec::mpi_send(0.001, 1, 1, 0),
        TaskSpec::mpi_recv(0.001, 1, 2),
    ];
    let r1 = vec![
        TaskSpec::mpi_recv(0.001, 0, 1).writes(tlb_tasking::DataRegion::new(0x10, 8)),
        TaskSpec::mpi_send(0.001, 0, 2, 0).reads(tlb_tasking::DataRegion::new(0x10, 8)),
    ];
    let wl = SpecWorkload::iterated(vec![r0, r1], 2);
    let p = Platform::homogeneous(2, 2);
    let rep = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    assert_eq!(rep.total_tasks, 8);
    // Two latencies + four task bodies per iteration, two iterations.
    assert!(rep.makespan.as_secs_f64() > 2.0 * 0.004);
}

#[test]
fn unmatched_recv_is_reported_not_hung() {
    let r0 = vec![TaskSpec::compute(0.01)];
    let r1 = vec![TaskSpec::mpi_recv(0.001, 0, 99)];
    let wl = SpecWorkload::iterated(vec![r0, r1], 1);
    let p = Platform::homogeneous(2, 2);
    match ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    ) {
        Err(SimError::Shape(msg)) => assert!(msg.contains("deadlock"), "{msg}"),
        other => panic!("expected deadlock error, got {other:?}"),
    }
}

#[test]
fn offloadable_mpi_task_rejected() {
    let mut bad = TaskSpec::mpi_send(0.001, 1, 1, 0);
    bad.offloadable = true;
    let wl = SpecWorkload::iterated(vec![vec![bad], vec![TaskSpec::mpi_recv(0.001, 0, 1)]], 1);
    let p = Platform::homogeneous(2, 2);
    let err = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap_err();
    match err {
        SimError::Shape(msg) => assert!(msg.contains("non-offloadable"), "{msg}"),
        other => panic!("expected Shape error, got {other}"),
    }
}

#[test]
fn throttle_window_slows_a_node_and_offloading_recovers() {
    // Balanced workload; node 1 throttles to one third speed midway and
    // stays there (the window outlasts the run).
    let wl = uniform(2, 120, 0.05, 8);
    let p = Platform::homogeneous(2, 4);
    let throttle = plan("straggler@3,node=1,slow=3,for=1e6", 0);
    let base = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl.clone()).faults(&throttle),
    )
    .unwrap();
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    cfg.global_period = SimTime::from_millis(500);
    let bal = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).faults(&throttle)).unwrap();
    // Without throttling both would take ~6s; with it the baseline's
    // later iterations stretch ~3x on node 1 while the balanced run
    // re-spreads the work.
    assert!(
        bal.makespan.as_secs_f64() < 0.8 * base.makespan.as_secs_f64(),
        "throttled: balanced {} vs baseline {}",
        bal.makespan,
        base.makespan
    );
    // And a throttle-free control shows the throttle really was the cause.
    let calm_base = ClusterSim::execute(RunSpec::new(
        &p,
        &BalanceConfig::preset(Preset::Baseline),
        wl,
    ))
    .unwrap();
    assert!(base.makespan.as_secs_f64() > 1.5 * calm_base.makespan.as_secs_f64());
}

#[test]
fn throttle_windows_are_deterministic() {
    // Node 0 runs at half speed from 200 ms to 500 ms.
    let wl = uniform(2, 40, 0.02, 3);
    let p = Platform::homogeneous(2, 4);
    let throttle = plan("straggler@0.2,node=0,slow=2,for=0.3", 0);
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).faults(&throttle)).unwrap();
    let b = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).faults(&throttle)).unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
}

#[test]
fn parallel_efficiency_reported() {
    // Perfectly parallel single-rank fill: efficiency near 1.
    let wl = uniform(1, 40, 0.1, 2);
    let p = Platform::homogeneous(1, 4);
    let r = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    assert!(
        r.parallel_efficiency > 0.95,
        "efficiency {}",
        r.parallel_efficiency
    );
    // Imbalanced baseline wastes the light node: efficiency well
    // below 1 and roughly total-work / (makespan * cores).
    let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 1);
    let p = Platform::homogeneous(2, 4);
    let r = ClusterSim::execute(
        RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true),
    )
    .unwrap();
    let expected = 5.0 / (r.makespan.as_secs_f64() * 8.0);
    assert!(
        (r.parallel_efficiency - expected).abs() < 0.02,
        "efficiency {} vs expected {expected}",
        r.parallel_efficiency
    );
}

#[test]
fn shape_errors_rejected() {
    let wl = uniform(3, 5, 0.01, 1);
    let p = Platform::homogeneous(2, 4);
    assert!(matches!(
        ClusterSim::execute(
            RunSpec::new(&p, &BalanceConfig::preset(Preset::Baseline), wl).trace(true)
        ),
        Err(SimError::Shape(_))
    ));
    // Degree too large for the cores.
    let wl = uniform(4, 5, 0.01, 1);
    let p = Platform::homogeneous(2, 4);
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Off,
    });
    cfg.degree = 2; // 2 appranks/node * degree 2 = 4 workers on 4 cores: ok
    assert!(ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).is_ok());
    cfg.degree = 3; // would need 6 workers > 4 cores... but degree 3 > nodes(2) anyway
    assert!(ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).is_err());
}

#[test]
fn perfect_balance_bound_respected() {
    // Makespan can never beat total_work / capacity.
    let heavy: Vec<TaskSpec> = (0..64).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..16).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 2);
    let total = wl.total_work();
    let p = Platform::homogeneous(2, 4);
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    let bound = total / 8.0;
    assert!(
        r.makespan.as_secs_f64() >= bound - 1e-9,
        "makespan {} below physical bound {bound}",
        r.makespan
    );
}

/// Holds a traced run's exports to the bytes recorded before the
/// exporters streamed and the counters were derived from events: the
/// counters dump (gauge values are wall-clock, so their names only),
/// then length and FNV-1a digest of the Chrome and CSV texts. The
/// Chrome text must also be canonical JSON: parsing and
/// re-serialising it changes no byte.
fn assert_exports(trace: &Trace, counters: &str, digests: [(usize, u64); 2]) {
    let chrome = crate::trace_to_chrome(trace);
    let text = std::str::from_utf8(&chrome).expect("Chrome export is UTF-8");
    let reparsed = tlb_json::parse(text).unwrap().to_string_compact();
    assert!(reparsed == text, "Chrome export is not canonical JSON");
    let gauges = trace.counters.sorted_gauges();
    let gauges: Vec<&str> = gauges.iter().map(|(name, _)| name.as_str()).collect();
    let counts = trace.counters.to_json().get("counters").to_string_compact();
    assert_eq!(format!("{counts} {}", gauges.join(",")), counters);
    let digest = |text: Vec<u8>| {
        let fnv = text.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        (text.len(), fnv)
    };
    let texts = [chrome, crate::trace_to_csv(trace)];
    assert_eq!(texts.map(digest), digests);
}

#[test]
fn trace_events_cover_task_lifecycle() {
    use std::collections::HashSet;
    use tlb_trace::EventKind as K;
    let heavy: Vec<TaskSpec> = (0..60).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 2);
    let p = Platform::homogeneous(2, 4);
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    cfg.global_period = SimTime::from_millis(500);
    let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
    let log = &r.trace.log;
    // Exactly one created/ready/started/completed per task.
    for pred in [
        (&|k: &K| matches!(k, K::TaskCreated { .. })) as &dyn Fn(&K) -> bool,
        &|k: &K| matches!(k, K::TaskReady { .. }),
        &|k: &K| matches!(k, K::TaskStarted { .. }),
        &|k: &K| matches!(k, K::TaskCompleted { .. }),
    ] {
        assert_eq!(log.count(pred), r.total_tasks);
    }
    let started: HashSet<_> = log
        .merged()
        .iter()
        .filter_map(|e| match &e.kind {
            K::TaskStarted { key, .. } => Some(*key),
            _ => None,
        })
        .collect();
    assert_eq!(started.len(), r.total_tasks, "duplicate start keys");
    // Every task got at least one scheduling decision; offloads and
    // iteration boundaries are recorded; the solver left a record.
    assert!(log.count(|k| matches!(k, K::SchedDecision { .. })) >= r.total_tasks);
    assert_eq!(
        log.count(|k| matches!(k, K::TaskOffloaded { .. })),
        r.offloaded_tasks
    );
    assert_eq!(log.count(|k| matches!(k, K::IterationEnd { .. })), 2);
    assert!(log.count(|k| matches!(k, K::SolverInvoked { .. })) >= 1);
    // Both DLB mechanisms left a record too.
    assert!(log.count(|k| matches!(k, K::LewiBorrow { .. })) >= 1);
    let drom = |k: &K| matches!(k, K::DromOwnership { .. } | K::DromTransfer { .. });
    assert!(log.count(drom) >= 1);
    // The Chrome export pairs every task into one complete slice.
    let phases = |trace: &Trace, ph: &str| {
        let chrome = crate::trace_to_chrome(trace);
        let doc = tlb_json::parse(std::str::from_utf8(&chrome).unwrap()).unwrap();
        let events = doc.get("traceEvents").as_array().unwrap();
        let with_ph = events.iter().filter(|e| e.get("ph").as_str() == Some(ph));
        (with_ph.count(), events.len())
    };
    assert_eq!(phases(&r.trace, "X").0, r.total_tasks);
    // Counters agree with the report's own bookkeeping.
    let c = &r.trace.counters;
    assert_eq!(c.count("tasks_started"), r.total_tasks as u64);
    assert_eq!(c.count("tasks_completed"), r.total_tasks as u64);
    assert_eq!(c.count("tasks_offloaded"), r.offloaded_tasks as u64);
    assert_eq!(c.count("solver_invocations"), r.solver_runs as u64);
    assert_eq!(c.count("iterations_completed"), 2);
    // And the exports are the bytes the parent of this exporter wrote.
    assert_exports(
        &r.trace,
        r#"{"drom_ownership_sets":2,"drom_transfers":2,"iterations_completed":2,"lewi_lends":48,"lewi_reclaims":15,"sched_decisions":141,"solver_invocations":1,"solver_simplex_iterations":5,"steal_attempts":192,"talp_windows":2,"tasks_completed":140,"tasks_created":140,"tasks_held":109,"tasks_offloaded":52,"tasks_ready":140,"tasks_started":140,"tasks_stolen":108} solver_modelled_ms,solver_wall_ms"#,
        [
            (123_020, 0x93f9_a10a_9c2c_47a3),
            (34_634, 0x44fa_33a3_224d_10dd),
        ],
    );
    // Disabled tracing records nothing at all.
    let off = ClusterSim::execute(RunSpec::new(&p, &cfg, wl)).unwrap();
    assert!(off.trace.log.is_empty());
    assert!(off.trace.counters.is_empty());
    let csv = crate::trace_to_csv(&off.trace);
    assert_eq!(csv.iter().filter(|&&b| b == b'\n').count(), 1);
    let (metadata, all) = phases(&off.trace, "M");
    assert_eq!(metadata, all, "a disabled trace exports metadata only");
}

#[test]
fn trace_event_stream_is_deterministic() {
    let heavy: Vec<TaskSpec> = (0..40).map(|_| TaskSpec::compute(0.02)).collect();
    let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.02)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 2);
    let p = Platform::homogeneous(2, 4);
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
    let b = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    assert_eq!(a.trace.log.merged(), b.trace.log.merged());
    assert_eq!(
        a.trace.counters.sorted_counts(),
        b.trace.counters.sorted_counts()
    );
}

#[test]
fn transfer_costs_are_charged() {
    // Huge payloads make offloading unattractive in time even though
    // the scheduler still sends tasks: makespan grows vs zero-byte.
    let mk = |bytes: usize| -> SpecWorkload {
        let heavy: Vec<TaskSpec> = (0..60).map(|_| TaskSpec::with_bytes(0.02, bytes)).collect();
        let light: Vec<TaskSpec> = (0..10).map(|_| TaskSpec::compute(0.02)).collect();
        SpecWorkload::iterated(vec![heavy, light], 2)
    };
    let mut p = Platform::homogeneous(2, 4);
    p.net_bandwidth = 1e8; // slow network to make the effect visible
    let cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    let small = ClusterSim::execute(RunSpec::new(&p, &cfg, mk(0)).trace(true)).unwrap();
    let big = ClusterSim::execute(RunSpec::new(&p, &cfg, mk(4_000_000)).trace(true)).unwrap();
    assert!(
        big.makespan > small.makespan,
        "transfer cost not charged: {} vs {}",
        big.makespan,
        small.makespan
    );
}

/// An imbalanced two-node workload under the global DROM policy; the
/// shape every fault test drives.
fn faulty_setup() -> (Platform, BalanceConfig, SpecWorkload) {
    let heavy: Vec<TaskSpec> = (0..80).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light], 4);
    let p = Platform::homogeneous(2, 4);
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    // Tick fast enough that mid-run fault windows cover solver runs.
    cfg.global_period = SimTime::from_millis(500);
    (p, cfg, wl)
}

/// A plan from its spec string, the one way to build one.
fn plan(spec: &str, seed: u64) -> FaultPlan {
    FaultPlan::parse(spec, seed).unwrap()
}

/// Every fault kind at once: a straggler burst, two kills, an outage
/// spanning global ticks, lossy sends with retries, a degraded link. The
/// spec is EXPERIMENTS.md's fault recipe, verbatim.
fn every_fault_kind() -> FaultPlan {
    plan(
        "straggler@0.4,node=1,slow=3,for=1;kill@0.6;kill@1.2,apprank=0,slot=1;outage@0.5,for=1.5;loss@0,for=3,rate=0.4,retries=3,backoff=0.002;delay@0,for=3,extra=0.001",
        42,
    )
}

fn run_plan(plan: &FaultPlan) -> SimReport {
    let (p, cfg, wl) = faulty_setup();
    ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true).faults(plan)).unwrap()
}

#[test]
fn empty_fault_plan_is_bitwise_identical() {
    let (p, cfg, wl) = faulty_setup();
    let a = ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap();
    let b = ClusterSim::execute(
        RunSpec::new(&p, &cfg, wl)
            .trace(true)
            .faults(&FaultPlan::none()),
    )
    .unwrap();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.iteration_times, b.iteration_times);
    assert_eq!(a.events, b.events);
    assert_eq!(a.offloaded_tasks, b.offloaded_tasks);
    assert_eq!(a.solver_runs, b.solver_runs);
    assert_eq!(b.faults, FaultStats::default());
    assert_eq!(a.trace.log.merged(), b.trace.log.merged());
    assert_eq!(
        a.trace.counters.sorted_counts(),
        b.trace.counters.sorted_counts()
    );
}

#[test]
fn solver_outage_falls_back_for_every_error_kind() {
    let (_, _, wl) = faulty_setup();
    let baseline = {
        let (p, cfg, _) = faulty_setup();
        ClusterSim::execute(RunSpec::new(&p, &cfg, wl.clone()).trace(true)).unwrap()
    };
    for error in ["iteration_limit", "infeasible", "unbounded"] {
        // The outage covers several global ticks in the middle of the
        // run; every covered tick must fall back, none may abort.
        let r = run_plan(&plan(&format!("outage@0.3,for=1,error={error}"), 7));
        assert!(
            r.faults.solver_fallbacks >= 1,
            "{error}: no fallback recorded"
        );
        assert_eq!(r.total_tasks, baseline.total_tasks, "{error}");
        assert_eq!(
            r.faults.injected,
            r.faults.recovered + r.faults.absorbed,
            "{error}: unaccounted faults"
        );
        // Degraded, never dead: the run completes in bounded time.
        assert!(
            r.makespan.as_secs_f64() < 10.0 * baseline.makespan.as_secs_f64(),
            "{error}: degradation unbounded"
        );
    }
}

#[test]
fn nested_outages_report_the_innermost_open_window() {
    // An `iteration_limit` window inside an `infeasible` one: ticks inside
    // both see the inner error, ticks after it closes the outer one's.
    let r = run_plan(&plan(
        "outage@0.4,for=2,error=infeasible; outage@0.9,for=0.5,error=iteration_limit",
        7,
    ));
    let reasons: Vec<(u64, &str)> = r
        .trace
        .log
        .merged()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::SolverFallback { reason } => {
                Some((e.at.as_nanos() / 1_000_000, reason.name()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        reasons,
        [
            (500, "infeasible"),
            (1000, "iteration_limit"),
            (1500, "infeasible"),
            (2000, "infeasible"),
        ]
    );
}

#[test]
fn killed_worker_hands_back_tasks_and_cores() {
    // Kill apprank 0's helper mid-run: its queued/in-flight tasks must
    // re-run at home and the run still completes every task.
    completes_exactly_once(&plan("kill@0.35,apprank=0,slot=1", 11), 1);
    // The same with every other fault kind firing around two kills;
    // each kind demonstrably fired, and the trace agrees with the stats.
    let r = completes_exactly_once(&every_fault_kind(), 2);
    let f = r.faults;
    assert!(f.tasks_requeued >= 1 && f.messages_dropped >= 1, "{f:?}");
    assert!(f.solver_fallbacks >= 1, "{f:?}");
    let count = |pred: fn(&EventKind) -> bool| r.trace.log.count(pred);
    assert_eq!(count(|k| matches!(k, EventKind::StragglerStart { .. })), 1);
    assert_eq!(count(|k| matches!(k, EventKind::StragglerEnd { .. })), 1);
    let killed = count(|k| matches!(k, EventKind::WorkerKilled { .. }));
    assert_eq!(killed, f.workers_killed);
    let fallbacks = count(|k| matches!(k, EventKind::SolverFallback { .. }));
    assert_eq!(fallbacks, f.solver_fallbacks);
}

fn completes_exactly_once(plan: &FaultPlan, kills: usize) -> SimReport {
    let r = run_plan(plan);
    assert_eq!(r.faults.workers_killed, kills);
    assert_eq!(r.total_tasks, 4 * 100);
    assert_eq!(r.iteration_times.len(), 4);
    assert_eq!(r.faults.injected, r.faults.recovered + r.faults.absorbed);
    // Exact-once: every created task completed exactly once.
    use std::collections::HashMap as Map;
    let mut completed: Map<(u32, u32, u32), usize> = Map::new();
    for ev in r.trace.log.merged() {
        if let EventKind::TaskCompleted { key, .. } = ev.kind {
            *completed
                .entry((key.iteration, key.apprank, key.task))
                .or_default() += 1;
        }
    }
    assert_eq!(completed.len(), r.total_tasks, "tasks lost");
    assert!(
        completed.values().all(|&c| c == 1),
        "a task ran more than once"
    );
    r
}

#[test]
fn seeded_kill_picks_deterministic_victim() {
    let plan = plan("kill@0.4", 5);
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_eq!(a.faults.workers_killed, 1);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.trace.log.merged(), b.trace.log.merged());
}

#[test]
fn straggler_burst_slows_run_then_recovers() {
    let clean = run_plan(&FaultPlan::none());
    let r = run_plan(&plan("straggler@0.2,node=0,slow=4,for=1", 3));
    assert!(
        r.makespan > clean.makespan,
        "straggler had no effect: {} vs {}",
        r.makespan,
        clean.makespan
    );
    assert_eq!(r.faults.injected, 1);
    assert_eq!(r.faults.recovered, 1);
    assert_eq!(r.total_tasks, clean.total_tasks);
}

#[test]
fn message_loss_retries_and_fails_over() {
    // Aggressive loss: most offload sends drop; with 2 retries many
    // fail over to the home rank. The run must still complete.
    let r = run_plan(&plan("loss@0,for=1e9,rate=0.9,retries=2,backoff=0.002", 17));
    assert!(r.faults.messages_dropped > 0, "no drops with rate 0.9");
    assert!(r.faults.message_failovers > 0, "no failovers with rate 0.9");
    assert_eq!(r.total_tasks, 4 * 100);
    assert_eq!(r.faults.injected, r.faults.recovered + r.faults.absorbed);
}

#[test]
fn faulty_run_exports_the_pinned_bytes() {
    // The same byte identity as in `trace_events_cover_task_lifecycle`,
    // on a run that fires the fault kinds too.
    let (p, cfg, wl) = faulty_setup();
    let plan = every_fault_kind();
    let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true).faults(&plan)).unwrap();
    assert_exports(
        &r.trace,
        r#"{"drom_ownership_sets":16,"drom_transfers":2,"fault_kills":2,"fault_messages_dropped":9,"fault_outages":1,"fault_stragglers":1,"fault_tasks_requeued":1,"fault_workers_killed":2,"iterations_completed":4,"lewi_lends":34,"lewi_reclaims":17,"sched_decisions":468,"solver_fallbacks":2,"solver_invocations":5,"solver_simplex_iterations":25,"steal_attempts":548,"talp_windows":14,"tasks_completed":400,"tasks_created":400,"tasks_held":350,"tasks_offloaded":42,"tasks_ready":400,"tasks_started":400,"tasks_stolen":282} solver_modelled_ms,solver_wall_ms"#,
        [
            (336_813, 0xb272_9c9a_637a_caff),
            (92_555, 0xdc55_93dc_fb09_0379),
        ],
    );
}

/// Rank 0's ready batches mix offloadable, pinned, `mpi_send` and
/// `mpi_recv` tasks well past the point where the rank saturates: 36 at
/// iteration start, and 16 readers of one region released together when
/// its writer completes. Rank 1 answers every message. Offload sends are
/// lossy enough to fail over home.
fn held_batch_run(traced: bool) -> SimReport {
    use tlb_tasking::DataRegion;
    let shared = DataRegion::new(0x1000, 64);
    let mut r0: Vec<TaskSpec> = (0..36u64)
        .map(|i| match i % 6 {
            1 => TaskSpec::pinned(0.01),
            3 => TaskSpec::mpi_send(0.001, 1, i, 1000),
            5 => TaskSpec::mpi_recv(0.001, 1, 100 + i),
            _ => TaskSpec::compute(0.02),
        })
        .collect();
    r0.push(TaskSpec::compute(0.03).writes(shared));
    r0.extend((0..16u64).map(|i| {
        let task = match i % 4 {
            1 => TaskSpec::pinned(0.01),
            3 if i % 8 == 3 => TaskSpec::mpi_send(0.001, 1, 200 + i, 1000),
            3 => TaskSpec::mpi_recv(0.001, 1, 300 + i),
            _ => TaskSpec::compute(0.02),
        };
        task.reads(shared)
    }));
    let mut r1: Vec<TaskSpec> = (0..8).map(|_| TaskSpec::compute(0.02)).collect();
    for t in &r0 {
        match t.mpi() {
            Some(crate::MpiOp::Send { tag, .. }) => r1.push(TaskSpec::mpi_recv(0.001, 0, tag)),
            Some(crate::MpiOp::Recv { tag, .. }) => {
                r1.push(TaskSpec::mpi_send(0.001, 0, tag, 1000))
            }
            None => {}
        }
    }
    let wl = SpecWorkload::iterated(vec![r0, r1], 2);
    let p = Platform::homogeneous(2, 4);
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 2,
        drom: DromPolicy::Global,
    });
    cfg.global_period = SimTime::from_millis(100);
    let plan = plan("loss@0,for=1e9,rate=0.5,retries=1,backoff=0.002", 23);
    ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(traced).faults(&plan)).unwrap()
}

#[test]
fn held_batches_export_the_pinned_bytes() {
    let r = held_batch_run(true);
    assert_eq!(r.total_tasks, 2 * (53 + 24));
    assert!(r.faults.message_failovers > 0, "{:?}", r.faults);
    // Some batch decided a pinned task after a Hold and held again after
    // it: on one stream at one instant, Queued, placed, Queued.
    let mut decisions: Vec<((u32, SimTime), bool)> = Vec::new();
    for e in r.trace.log.merged() {
        if let EventKind::SchedDecision { chosen_node, .. } = e.kind {
            decisions.push(((e.stream, e.at), chosen_node < 0));
        }
    }
    let mixed = decisions
        .windows(3)
        .any(|w| w.iter().all(|d| d.0 == w[0].0) && w[0].1 && !w[1].1 && w[2].1);
    assert!(mixed, "no batch placed a task between two holds");
    assert_exports(
        &r.trace,
        r#"{"drom_ownership_sets":4,"fault_message_failovers":6,"fault_messages_dropped":17,"fault_tasks_requeued":6,"iterations_completed":2,"lewi_lends":58,"lewi_reclaims":30,"sched_decisions":154,"solver_invocations":2,"solver_simplex_iterations":11,"steal_attempts":51,"talp_windows":4,"tasks_completed":154,"tasks_created":154,"tasks_held":25,"tasks_offloaded":34,"tasks_ready":154,"tasks_started":154,"tasks_stolen":25} solver_modelled_ms,solver_wall_ms"#,
        [
            (117_379, 0x97f4_b461_4a1a_26ea),
            (37_815, 0x12fd_6c1a_c4e5_5984),
        ],
    );
    // Recording changes nothing that is simulated.
    let u = held_batch_run(false);
    assert_eq!(u.makespan, r.makespan);
    assert_eq!(u.iteration_times, r.iteration_times);
    assert_eq!(u.events, r.events);
    assert_eq!(
        (
            u.offloaded_tasks,
            u.total_tasks,
            u.solver_runs,
            u.solver_time
        ),
        (
            r.offloaded_tasks,
            r.total_tasks,
            r.solver_runs,
            r.solver_time
        )
    );
    assert_eq!(u.faults, r.faults);
    assert_eq!(
        u.parallel_efficiency.to_bits(),
        r.parallel_efficiency.to_bits()
    );
}

/// One pinned report of a solver run: times in nanoseconds,
/// `parallel_efficiency` by bit pattern.
struct Golden {
    makespan_ns: u64,
    iteration_ns: [u64; 8],
    events: u64,
    solver_runs: usize,
    solver_time_ns: u64,
    workers_killed: usize,
    parallel_efficiency_bits: u64,
}

/// The worker table, DLB and the global solve see every death and every
/// speed change together: after a degree-3 run that slows a node with a
/// straggler burst and loses three helpers, table liveness equals DLB's
/// retired flags, every node's cores are all owned, and the report is
/// the one pinned below, bit for bit.
#[test]
fn table_and_dlb_agree_after_kills() {
    let heavy: Vec<TaskSpec> = (0..160).map(|_| TaskSpec::compute(0.05)).collect();
    let light: Vec<TaskSpec> = (0..20).map(|_| TaskSpec::compute(0.05)).collect();
    let wl = SpecWorkload::iterated(vec![heavy, light.clone(), light.clone(), light], 8);
    let p = Platform::homogeneous(4, 4);
    let plan = plan(
        "straggler@0.5,node=0,slow=3,for=1.5; kill@1; kill@1.6; kill@4",
        9,
    );
    let want = Golden {
        makespan_ns: 16_100_076_000,
        iteration_ns: [
            950_036_000,
            2_300_004_000,
            2_100_006_000,
            2_150_006_000,
            2_150_006_000,
            2_150_006_000,
            2_150_006_000,
            2_150_006_000,
        ],
        events: 2168,
        solver_runs: 53,
        solver_time_ns: 53_000_000,
        workers_killed: 3,
        parallel_efficiency_bits: 0x3fd6_db70_1e90_8e0e,
    };
    let mut cfg = BalanceConfig::preset(Preset::Offload {
        degree: 3,
        drom: DromPolicy::Global,
    });
    cfg.global_period = SimTime::from_millis(300);
    let spec = || RunSpec::new(&p, &cfg, wl.clone()).faults(&plan);
    let (state, _) = setup::simulate(spec()).unwrap();
    for node in 0..p.nodes {
        let dlb = &state.dlbs[node];
        let alive = &state.layout.alive()[node];
        assert_eq!(alive.len(), state.layout.workers_on(node).len());
        for (proc, &alive) in alive.iter().enumerate() {
            assert_eq!(
                alive,
                !dlb.is_retired(ProcId(proc)),
                "node {node} proc {proc}"
            );
        }
        let owned: usize = (0..alive.len()).map(|p| dlb.owned_count(ProcId(p))).sum();
        assert_eq!(owned, p.cores_per_node, "node {node}");
    }
    let got = ClusterSim::execute(spec()).unwrap();
    let iteration_ns: Vec<u64> = got.iteration_times.iter().map(|t| t.as_nanos()).collect();
    assert_eq!(got.makespan.as_nanos(), want.makespan_ns, "makespan");
    assert_eq!(iteration_ns, want.iteration_ns, "iteration_times");
    assert_eq!(got.events, want.events, "events");
    assert_eq!(got.solver_runs, want.solver_runs, "solver_runs");
    assert_eq!(
        got.solver_time.as_nanos(),
        want.solver_time_ns,
        "solver_time"
    );
    assert_eq!(
        got.faults.workers_killed, want.workers_killed,
        "workers_killed"
    );
    assert_eq!(
        got.parallel_efficiency.to_bits(),
        want.parallel_efficiency_bits,
        "parallel_efficiency"
    );
}

#[test]
fn global_ticks_record_talp_windows() {
    // `lewi+drom-global` has no local tick, so every TALP window in its
    // trace is a global tick's: one per node, stamped with the tick's
    // solve, in average busy cores per proc.
    let (p, cfg, wl) = faulty_setup();
    assert_eq!(cfg.policy.name(), "lewi+drom-global");
    let r = ClusterSim::execute(RunSpec::new(&p, &cfg, wl).trace(true)).unwrap();
    let mut ticks = Vec::new();
    let mut windows = Vec::new();
    for e in r.trace.log.merged() {
        match e.kind {
            EventKind::SolverInvoked(..) | EventKind::SolverFallback { .. } => ticks.push(e.at),
            EventKind::TalpWindow { node, busy } => windows.push((e.at, node, busy)),
            _ => {}
        }
    }
    assert!(ticks.len() >= 2, "{} global ticks", ticks.len());
    assert_eq!(windows.len(), p.nodes * ticks.len());
    windows.sort_by_key(|&(at, node, _)| (at, node));
    let mut busiest = 0.0f64;
    for (k, &at) in ticks.iter().enumerate() {
        for node in 0..p.nodes {
            let (when, of, busy) = &windows[k * p.nodes + node];
            assert_eq!((*when, *of), (at, node as u32));
            let cores: f64 = busy.iter().sum();
            assert!(
                cores <= p.cores_per_node as f64 + 1e-9,
                "{cores} busy cores"
            );
            busiest = busiest.max(cores);
        }
    }
    // The heavy node keeps its cores busy: a window reads close to the
    // node's 4 cores, not the 2 core·seconds a 0.5 s window integrates.
    assert!(busiest > 3.0, "busiest window {busiest}");
}
