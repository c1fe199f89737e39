//! Perf smoke test for the parallel hot paths: times each smprt-backed
//! kernel at 1/2/4/8 threads, checks that every parallel result is
//! *bitwise identical* to the serial one, and writes the measurements to
//! `BENCH_perf_smoke.json` at the repository root.
//!
//! Kernels:
//!
//! * `nbody-force`    — Barnes–Hut force pass over all bodies
//!   ([`Octree::accelerations`] on a [`Pool`]).
//! * `micropp-solve`  — one non-linear micro-scale FE solve (Newton + CG,
//!   all reductions deterministic; [`MicroProblem::solve_on`]).
//! * `expander-gen`   — candidate screening of the offloading graph
//!   ([`generate_with_workers`], scoped threads).
//! * `cluster-sim-step` — one synthetic-benchmark simulation. The
//!   discrete-event simulator is inherently serial (a single ordered
//!   event queue), so this is timed serially and reported as a baseline
//!   number only — no speedup claim.
//!
//! Usage: `perf_smoke [--quick]` (quick shrinks problem sizes for CI).

use std::path::PathBuf;
use std::time::Instant;
use tlb_apps::micropp::MicroProblem;
use tlb_apps::nbody::{Body, Octree};
use tlb_apps::{synthetic_workload, SyntheticConfig};
use tlb_bench::Effort;
use tlb_cluster::{ClusterSim, RunSpec};
use tlb_core::Platform;
use tlb_expander::{generate_with_workers, ExpanderConfig};
use tlb_json::Value;
use tlb_rng::Rng;
use tlb_smprt::Pool;
use tlb_trace::TraceConfig;

const THREADS: [usize; 4] = [1, 2, 4, 8];

struct KernelResult {
    name: &'static str,
    size: String,
    serial_ms: f64,
    ms_at: Vec<(usize, f64)>,
    identical: bool,
}

impl KernelResult {
    fn speedup_at(&self, threads: usize) -> f64 {
        self.ms_at
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|(_, ms)| self.serial_ms / ms)
            .unwrap_or(f64::NAN)
    }

    fn to_json(&self) -> Value {
        Value::object(vec![
            ("name", self.name.into()),
            ("size", self.size.as_str().into()),
            ("serial_ms", self.serial_ms.into()),
            (
                "ms_per_threads",
                Value::Object(
                    self.ms_at
                        .iter()
                        .map(|&(t, ms)| (t.to_string(), ms.into()))
                        .collect(),
                ),
            ),
            ("speedup_4t", self.speedup_at(4).into()),
            ("bitwise_identical", self.identical.into()),
        ])
    }
}

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn nbody_force(effort: Effort, reps: usize) -> KernelResult {
    let n = effort.pick(16_000, 4_000);
    let mut rng = Rng::seed_from_u64(0xBE7C_0001);
    let bodies: Vec<Body> = (0..n)
        .map(|_| {
            Body::at(
                [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                ],
                rng.range_f64(0.5, 2.0),
            )
        })
        .collect();
    let tree = Octree::build(&bodies, 0.5);
    let reference = tree.accelerations(&bodies, None);
    let serial_ms = time_ms(reps, || tree.accelerations(&bodies, None));
    let mut ms_at = Vec::new();
    let mut identical = true;
    for t in THREADS {
        let pool = Pool::new(t);
        let got = tree.accelerations(&bodies, Some(&pool));
        identical &= got
            .iter()
            .zip(&reference)
            .all(|(a, r)| (0..3).all(|d| a[d].to_bits() == r[d].to_bits()));
        ms_at.push((
            t,
            time_ms(reps, || tree.accelerations(&bodies, Some(&pool))),
        ));
    }
    KernelResult {
        name: "nbody-force",
        size: format!("{n} bodies, theta 0.5"),
        serial_ms,
        ms_at,
        identical,
    }
}

fn micropp_solve(effort: Effort, reps: usize) -> KernelResult {
    let n = effort.pick(24, 14);
    let solve_serial = || MicroProblem::new(n, true).solve();
    let reference = solve_serial();
    let serial_ms = time_ms(reps, solve_serial);
    let mut ms_at = Vec::new();
    let mut identical = true;
    for t in THREADS {
        let pool = Pool::new(t);
        let stats = MicroProblem::new(n, true).solve_on(&pool);
        identical &= stats.residual.to_bits() == reference.residual.to_bits()
            && stats.cg_iterations == reference.cg_iterations
            && stats.newton_steps == reference.newton_steps;
        ms_at.push((
            t,
            time_ms(reps, || MicroProblem::new(n, true).solve_on(&pool)),
        ));
    }
    KernelResult {
        name: "micropp-solve",
        size: format!("{n}^3 grid, nonlinear"),
        serial_ms,
        ms_at,
        identical,
    }
}

fn expander_gen(effort: Effort, reps: usize) -> KernelResult {
    let (appranks, nodes) = effort.pick((192, 96), (96, 48));
    let candidates = effort.pick(64, 32);
    let cfg = ExpanderConfig::new(appranks, nodes, 4)
        .with_seed(7)
        .with_candidates(candidates);
    let reference = generate_with_workers(&cfg, 1).unwrap();
    let serial_ms = time_ms(reps, || generate_with_workers(&cfg, 1).unwrap());
    let mut ms_at = Vec::new();
    let mut identical = true;
    for t in THREADS {
        let got = generate_with_workers(&cfg, t).unwrap();
        identical &= (0..appranks).all(|a| got.nodes_of(a) == reference.nodes_of(a));
        ms_at.push((t, time_ms(reps, || generate_with_workers(&cfg, t).unwrap())));
    }
    KernelResult {
        name: "expander-gen",
        size: format!("{appranks}x{nodes} d4, {candidates} candidates"),
        serial_ms,
        ms_at,
        identical,
    }
}

fn cluster_sim_step(effort: Effort, reps: usize) -> (f64, String) {
    let nodes = effort.pick(8, 4);
    let platform = Platform::mn4(nodes);
    let cfg = SyntheticConfig::new(nodes * 2, 2.0);
    let balance = tlb_bench::config("lewi+drom-global", 4.min(nodes));
    let ms = time_ms(reps, || {
        let wl = synthetic_workload(&cfg, &platform);
        ClusterSim::execute(RunSpec::new(&platform, &balance, wl)).unwrap()
    });
    (
        ms,
        format!(
            "{nodes} nodes, synthetic imbalance 2.0, degree {}",
            4.min(nodes)
        ),
    )
}

/// Time the same simulation at three instrumentation levels and grab the
/// counter registry from a fully traced run:
///
/// * `disabled_ms`  — no tracing at all (`RunSpec::trace(false)`);
/// * `timelines_ms` — Paraver-style timelines only, event families off;
/// * `events_ms`    — timelines plus the full structured event log.
///
/// The event stream carries virtual time only, so the events-vs-timelines
/// delta is buffering + counter bumps; the target is <3% but the hard
/// gate is deliberately loose (hosts running this smoke are noisy and
/// often single-core) — exact numbers land in the JSON.
fn trace_overhead(effort: Effort, reps: usize) -> (f64, f64, f64, Value, String) {
    let nodes = effort.pick(8, 4);
    let platform = Platform::mn4(nodes);
    let cfg = SyntheticConfig::new(nodes * 2, 2.0);
    let balance = tlb_bench::config("lewi+drom-global", 4.min(nodes));
    let run = |trace: bool, families: Option<TraceConfig>| {
        let wl = synthetic_workload(&cfg, &platform);
        let mut spec = RunSpec::new(&platform, &balance, wl).trace(trace);
        if let Some(f) = families {
            spec = spec.trace_families(f);
        }
        ClusterSim::execute(spec).unwrap()
    };
    let disabled_ms = time_ms(reps, || run(false, None));
    let timelines_ms = time_ms(reps, || run(true, Some(TraceConfig::off())));
    let events_ms = time_ms(reps, || run(true, None));
    let counters = run(true, None).trace.counters.to_json();
    (
        disabled_ms,
        timelines_ms,
        events_ms,
        counters,
        format!(
            "{nodes} nodes, synthetic imbalance 2.0, degree {}",
            4.min(nodes)
        ),
    )
}

/// Run the named parallel regions once on a profiling-enabled pool and
/// dump real wall-clock per `parallel_for` region plus the park/steal
/// counters.
fn pool_regions(effort: Effort) -> Value {
    let pool = Pool::new(4);
    pool.set_profiling(true);
    let n = effort.pick(8_000, 2_000);
    let mut rng = Rng::seed_from_u64(0xBE7C_0002);
    let bodies: Vec<Body> = (0..n)
        .map(|_| {
            Body::at(
                [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                ],
                rng.range_f64(0.5, 2.0),
            )
        })
        .collect();
    let tree = Octree::build(&bodies, 0.5);
    std::hint::black_box(tree.accelerations(&bodies, Some(&pool)));
    std::hint::black_box(MicroProblem::new(effort.pick(16, 10), true).solve_on(&pool));
    let prof = pool.profile();
    Value::object(vec![
        (
            "regions",
            Value::Array(
                prof.regions
                    .iter()
                    .map(|r| {
                        Value::object(vec![
                            ("name", r.name.as_str().into()),
                            ("calls", r.calls.into()),
                            ("indices", r.indices.into()),
                            ("wall_ms", (r.wall.as_secs_f64() * 1e3).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("malleability_parks", prof.malleability_parks.into()),
        ("idle_parks", prof.idle_parks.into()),
        ("steals", prof.steals.into()),
    ])
}

fn repo_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() {
    let effort = Effort::from_args();
    let reps = effort.pick(5, 3);
    let host = std::thread::available_parallelism().map_or(1, |v| v.get());

    println!("perf_smoke ({effort:?}, best of {reps}, host parallelism {host})");
    if host < 4 {
        println!(
            "note: only {host} core(s) visible — threads timeshare, so wall-clock \
             speedups are not meaningful on this host; the bitwise-identity checks are."
        );
    }
    let kernels = [
        nbody_force(effort, reps),
        micropp_solve(effort, reps),
        expander_gen(effort, reps),
    ];
    for k in &kernels {
        print!(
            "{:>14} [{}]: serial {:8.2} ms |",
            k.name, k.size, k.serial_ms
        );
        for &(t, ms) in &k.ms_at {
            print!(" {t}t {ms:8.2}");
        }
        println!(
            " | x{:.2} @4t | identical: {}",
            k.speedup_at(4),
            k.identical
        );
    }
    let (sim_ms, sim_size) = cluster_sim_step(effort, reps);
    println!("cluster-sim-step [{sim_size}]: {sim_ms:.2} ms (serial DES, baseline only)");

    let (disabled_ms, timelines_ms, events_ms, counters, trace_size) = trace_overhead(effort, reps);
    let overhead_pct = 100.0 * (events_ms - timelines_ms) / timelines_ms;
    println!(
        "trace-overhead [{trace_size}]: disabled {disabled_ms:.2} ms, timelines \
         {timelines_ms:.2} ms, +events {events_ms:.2} ms ({overhead_pct:+.1}%, target <3%)"
    );
    let regions = pool_regions(effort);
    for r in regions.get("regions").as_array().into_iter().flatten() {
        println!(
            "   pool region {:<16} {} calls, {} indices, {:.2} ms wall",
            r.get("name").as_str().unwrap_or("?"),
            r.get("calls").as_u64().unwrap_or(0),
            r.get("indices").as_u64().unwrap_or(0),
            r.get("wall_ms").as_f64().unwrap_or(0.0),
        );
    }

    let doc = Value::object(vec![
        ("bench", "perf_smoke".into()),
        ("quick", (effort == Effort::Quick).into()),
        ("host_parallelism", host.into()),
        (
            "threads",
            Value::Array(THREADS.iter().map(|&t| t.into()).collect()),
        ),
        (
            "kernels",
            Value::Array(kernels.iter().map(|k| k.to_json()).collect()),
        ),
        (
            "cluster_sim_step",
            Value::object(vec![
                ("size", sim_size.as_str().into()),
                ("ms", sim_ms.into()),
                (
                    "note",
                    "discrete-event simulator is inherently serial; no speedup claim".into(),
                ),
            ]),
        ),
        (
            "trace_overhead",
            Value::object(vec![
                ("size", trace_size.as_str().into()),
                ("disabled_ms", disabled_ms.into()),
                ("timelines_only_ms", timelines_ms.into()),
                ("with_events_ms", events_ms.into()),
                ("event_overhead_pct", overhead_pct.into()),
                ("target_pct", 3.0.into()),
            ]),
        ),
        ("counters", counters),
        ("pool_profile", regions),
    ]);
    let path = repo_root().join("BENCH_perf_smoke.json");
    std::fs::write(&path, doc.to_string_pretty()).expect("write BENCH_perf_smoke.json");
    println!("saved: {}", path.display());

    let mut failed = false;
    for k in &kernels {
        if !k.identical {
            eprintln!("FAIL: {} parallel output differs from serial", k.name);
            failed = true;
        }
    }
    // Loose hard gate on tracing overhead (noisy hosts): the precise
    // number is in the JSON; the 3% target is advisory, 50% is a bug.
    if events_ms > timelines_ms * 1.5 {
        eprintln!("FAIL: event-tracing overhead {overhead_pct:.1}% exceeds the 50% hard gate");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
