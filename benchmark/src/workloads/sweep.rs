//! `sweep_grid`: the scenario files under `benchmark/scenarios/`
//! through `tlb_sweep::run_sweep`.
//!
//! Two grids, 38 points: `grid_synth.json` (synthetic app, 4 ideal
//! nodes, 2 iterations, appranks/node {1,2} × degree {1,4} × all six
//! registry policies × seed {S}) and `grid_amr.json` (AMR app, 2 nodes,
//! 4 iterations, degree 2, seven policy specs of which two carry
//! parameters × seeds {S, S+1}). Points are small on purpose — many
//! short simulations is what a parameter study is, and it puts
//! `Scenario` parsing and expansion, `point_key`, `Pool::parallel_for`
//! sharding, `Cache::store/load`, `tlb-json`, `aggregate` and the policy
//! layer (`tlb_core::balance`) on the path, none of which shows in one
//! long run.
//!
//! An operation is one *cold* pass over both grids at `jobs = min(nproc,
//! 4)` into a fresh cache directory. The all-hits `resume` pass over a
//! filled cache — the simulator does nothing, cache loads and JSON do
//! everything — is checked on every run and timed in the per-layer pass
//! (`sweep.warm_pass_ms`, `sweep.warm_points_per_s`): it takes under a
//! millisecond of mostly file-system calls, and on the sizing host its
//! run-to-run spread (24 %) was as wide as any bound it could be given.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tlb_apps::{amr_workload, AmrConfig};
use tlb_core::{BalancePolicy, PolicySpec, SignalView};
use tlb_json::Value;
use tlb_smprt::Pool;
use tlb_sweep::{
    aggregate, point_key, point_key_input, run_point, run_sweep, Cache, Scenario, SweepOptions,
    SweepOutcome,
};

use super::{Ctx, Outcome};
use crate::digest::text_digest;
use crate::host;
use crate::measure::{run_for, summarize, Setups};
use crate::replay::{self, json_throughput, time_batches};
use crate::spans::Recorder;
use crate::stats;

const GRID_SYNTH: &str = include_str!("../../scenarios/grid_synth.json");
const GRID_AMR: &str = include_str!("../../scenarios/grid_amr.json");
/// Seconds of all-hits passes timed in the per-layer pass.
const WARM_SECONDS: f64 = 2.0;
/// Least set-ups timed before the measured phase; one more precedes
/// every operation.
const SETUP_REPEATS: usize = 15;

/// The two grids with the run's seed on their seed axes, as the text a
/// user would have in a scenario file, and parsed.
struct Grids {
    texts: Vec<String>,
    scenarios: Vec<Scenario>,
    points: usize,
}

fn seeded_text(template: &str, seeds: &[u64]) -> String {
    let mut sc = Scenario::from_json_str(template).expect("checked-in scenario parses");
    sc.axes.seed = seeds.to_vec();
    sc.to_json().to_string_pretty()
}

fn grids(seed: u64) -> Grids {
    let texts = vec![
        seeded_text(GRID_SYNTH, &[seed]),
        seeded_text(GRID_AMR, &[seed, seed + 1]),
    ];
    let scenarios: Vec<Scenario> = texts
        .iter()
        .map(|t| Scenario::from_json_str(t).expect("seeded scenario parses"))
        .collect();
    let points = scenarios.iter().map(|s| s.expand().len()).sum();
    Grids {
        texts,
        scenarios,
        points,
    }
}

/// One pass over both grids; the reports as text, and the accounting.
struct Pass {
    reports: Vec<String>,
    executed: usize,
    cache_hits: usize,
}

fn pass(
    ctx: &Ctx,
    grids: &Grids,
    dir: &Path,
    jobs: usize,
    resume: bool,
    record: bool,
) -> Result<(Pass, f64), String> {
    let opts = SweepOptions {
        jobs,
        resume,
        cache_dir: Some(dir.to_path_buf()),
    };
    let rec = &ctx.rec;
    let start = rec.now_s();
    let mut outcomes: Vec<SweepOutcome> = Vec::with_capacity(grids.scenarios.len());
    for sc in &grids.scenarios {
        let t = rec.now_s();
        outcomes.push(run_sweep(sc, &opts).map_err(|e| format!("sweep '{}': {e}", sc.name))?);
        if record {
            rec.record("sweep.run_sweep", t, rec.now_s(), None);
        }
    }
    let secs = rec.now_s() - start;
    Ok((
        Pass {
            reports: outcomes
                .iter()
                .map(|o| o.report.to_string_pretty())
                .collect(),
            executed: outcomes.iter().map(|o| o.stats.executed).sum(),
            cache_hits: outcomes.iter().map(|o| o.stats.cache_hits).sum(),
        },
        secs,
    ))
}

/// The paper's claim, checked on every synthetic point with degree ≥ 2:
/// LeWI + global DROM finishes sooner than no balancing.
fn global_beats_baseline(report: &Value) -> Result<(), String> {
    let points = report
        .get("points")
        .as_array()
        .ok_or("sweep report has no points")?;
    let makespan = |apn: usize, degree: usize, policy: &str| {
        points
            .iter()
            .find(|p| {
                p.get("appranks_per_node").as_usize() == Some(apn)
                    && p.get("degree").as_usize() == Some(degree)
                    && p.get("policy").as_str() == Some(policy)
            })
            .and_then(|p| p.get("makespan_s").as_f64())
    };
    let mut compared = 0;
    for p in points {
        let (Some(apn), Some(degree)) = (
            p.get("appranks_per_node").as_usize(),
            p.get("degree").as_usize(),
        ) else {
            return Err("point without appranks_per_node/degree".into());
        };
        if degree < 2 || p.get("policy").as_str() != Some("baseline") {
            continue;
        }
        let base = makespan(apn, degree, "baseline").ok_or("baseline makespan missing")?;
        let global =
            makespan(apn, degree, "lewi+drom-global").ok_or("lewi+drom-global point missing")?;
        if global >= base {
            return Err(format!(
                "lewi+drom-global ({global} s) does not beat baseline ({base} s) \
                 at appranks/node {apn}, degree {degree}"
            ));
        }
        compared += 1;
    }
    if compared == 0 {
        return Err("no degree >= 2 baseline point to compare".into());
    }
    Ok(())
}

fn reports_digest(reports: &[String]) -> u64 {
    text_digest(&reports.join("\n"))
}

/// Set-up of a cold pass: parse the scenario files and open a fresh
/// cache directory.
fn prepare(ctx: &Ctx) -> Result<(Grids, PathBuf), String> {
    let grids = grids(ctx.seed);
    let dir = ctx.scratch.fresh("cold");
    Cache::open(&dir).map_err(|e| format!("cache {}: {e}", dir.display()))?;
    Ok((grids, dir))
}

/// `sweep_grid`: cold passes.
pub fn run_grid(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let jobs = host::jobs();
    let mut setups = Setups::new();
    let mut first_op_s = 0.0;
    let prepared = setups
        .repeat(SETUP_REPEATS, || prepare(ctx))
        .and_then(|(grids, dir)| {
            let (reference, secs) = pass(ctx, &grids, &dir, jobs, false, false)?;
            first_op_s = secs;
            Ok((grids, dir, reference))
        });
    let (grids, first_dir, reference) = match prepared {
        Ok(p) => p,
        Err(e) => {
            out.check(false, || e);
            return out.finish(setups.quiet_s());
        }
    };
    out.digest = reports_digest(&reference.reports);
    out.check(reference.executed == grids.points, || {
        format!(
            "cold pass executed {} of {} points",
            reference.executed, grids.points
        )
    });
    match tlb_json::parse(&reference.reports[0]) {
        Ok(report) => {
            let claim = global_beats_baseline(&report);
            out.check(claim.is_ok(), || claim.unwrap_err());
        }
        Err(e) => out.check(false, || format!("sweep report is not JSON: {e}")),
    }

    let cpu_before = host::cpu_seconds();
    let mut last_dir: PathBuf = first_dir;
    let samples = run_for(&ctx.rec, Instant::now(), ctx.seconds, 6, |record| {
        let _ = std::fs::remove_dir_all(&last_dir);
        let (grids, dir) = setups.time(|| prepare(ctx))?;
        last_dir = dir;
        let (p, secs) = pass(ctx, &grids, &last_dir, jobs, false, record)?;
        if p.executed != grids.points || p.reports != reference.reports {
            return Err("cold pass differs from the first cold pass".into());
        }
        Ok(secs)
    });
    let cpu_s = host::cpu_seconds() - cpu_before;
    // A dozen passes per run: the tail is the median (see sim.rs).
    out.fold_loop(ctx, &samples, 1, grids.points as f64, 0.5, cpu_s);

    // A resumed pass over the last cold pass's cache runs nothing and
    // says the same thing, byte for byte.
    match pass(ctx, &grids, &last_dir, jobs, true, false) {
        Ok((warm, _)) => out.check(
            warm.executed == 0
                && warm.cache_hits == grids.points
                && warm.reports == reference.reports,
            || "warm resume pass executed points or changed the report".into(),
        ),
        Err(e) => out.check(false, || e),
    }
    out.notes.push(format!(
        "sweep_grid: {} points per pass at jobs {jobs}, reports digest {:016x}",
        grids.points, out.digest
    ));

    if ctx.trace() {
        out.layer.set("harness.first_op_ms", first_op_s * 1e3);
        let cold_s = out.e2e.get("op_p50_ms") / 1e3;
        out.layer.set("sweep.cold_pass_s", cold_s);
        let bare = Recorder::new(false);
        let warm = run_for(&bare, Instant::now(), WARM_SECONDS, 100, |_| {
            let (p, secs) = pass(ctx, &grids, &last_dir, jobs, true, false)?;
            if p.executed != 0 || p.reports != reference.reports {
                return Err("warm pass executed points or changed the report".into());
            }
            Ok(secs)
        });
        out.check(warm.failures.is_empty(), || warm.failures[0].clone());
        let w = summarize(&warm, 1, grids.points as f64);
        out.layer.set("sweep.warm_pass_ms", w.p50_ms);
        out.layer.set("sweep.warm_points_per_s", w.per_s);
        grid_layers(ctx, &grids, &reference, &last_dir, jobs, cold_s, &mut out);
    }
    out.finish(setups.quiet_s())
}

/// Scenario handling, keys, cache loads, aggregation and JSON, each
/// called directly.
fn warm_path_layers(grids: &Grids, reference: &Pass, dir: &Path, out: &mut Outcome) {
    let l = &mut out.layer;
    let per = |secs: f64, n: usize| secs * 1e6 / n.max(1) as f64;
    let parse_s = time_batches(7, || {
        for _ in 0..50 {
            for text in &grids.texts {
                black_box(Scenario::from_json_str(text).ok());
            }
        }
    });
    l.set("sweep.parse_us", per(parse_s, 50 * grids.texts.len()));
    let expand_s = time_batches(7, || {
        for _ in 0..50 {
            for sc in &grids.scenarios {
                black_box(sc.expand());
            }
        }
    });
    l.set("sweep.expand_us", per(expand_s, 50 * grids.scenarios.len()));
    let expanded: Vec<_> = grids.scenarios.iter().map(|sc| sc.expand()).collect();
    let key_s = time_batches(7, || {
        for _ in 0..20 {
            for (sc, points) in grids.scenarios.iter().zip(&expanded) {
                for p in points {
                    black_box(point_key(sc, p));
                }
            }
        }
    });
    l.set("sweep.point_key_us", per(key_s, 20 * grids.points));

    // Cache loads of every point, and the aggregation of what they give.
    let Ok(cache) = Cache::open(dir) else {
        return;
    };
    let keyed: Vec<Vec<(u64, Value)>> = grids
        .scenarios
        .iter()
        .zip(&expanded)
        .map(|(sc, points)| {
            points
                .iter()
                .map(|p| (point_key(sc, p), point_key_input(sc, p)))
                .collect()
        })
        .collect();
    let mut records: Vec<Vec<Value>> = Vec::new();
    let load_s = time_batches(7, || {
        records = keyed
            .iter()
            .map(|points| {
                points
                    .iter()
                    .filter_map(|(key, input)| cache.load(*key, input))
                    .collect()
            })
            .collect();
    });
    l.set("sweep.cache_load_us", per(load_s, grids.points));
    if records.iter().map(Vec::len).sum::<usize>() == grids.points {
        let agg_s = time_batches(7, || {
            for ((sc, points), recs) in grids.scenarios.iter().zip(&expanded).zip(&records) {
                black_box(aggregate(sc, points, recs.clone()));
            }
        });
        l.set("sweep.aggregate_ms", agg_s * 1e3);
    }
    if let Some((parse, write)) = json_throughput(&reference.reports[0]) {
        l.set("json.parse_mb_per_s", parse);
        l.set("json.write_mb_per_s", write);
    }
}

/// One global tick of the two solver-free policies over a seeded
/// two-node, two-process signal view; microseconds per tick.
fn balance_tick_us(seed: u64) -> f64 {
    const TICKS: usize = 20_000;
    let mut rng = tlb_rng::Rng::seed_from_u64(seed);
    let busy: Vec<Vec<f64>> = (0..2)
        .map(|_| (0..2).map(|_| rng.range_f64(0.2, 1.9)).collect())
        .collect();
    let work: Vec<f64> = (0..2).map(|_| rng.range_f64(4.0, 40.0)).collect();
    let placement = vec![vec![(0, 0), (1, 1)], vec![(1, 0), (0, 1)]];
    let ownership = vec![vec![12, 4], vec![12, 4]];
    let alive = vec![vec![true; 2]; 2];
    let node_speed = vec![1.0; 2];
    let view = SignalView {
        window_secs: 2.0,
        cores_per_node: 16,
        node_speed: &node_speed,
        work: &work,
        busy: &busy,
        placement: &placement,
        ownership: &ownership,
        alive: &alive,
    };
    let mut policies: Vec<Box<dyn BalancePolicy>> = ["reactive-offload", "diffusion"]
        .iter()
        .map(|name| {
            PolicySpec::named(name)
                .expect("registry policy")
                .instantiate()
        })
        .collect();
    let secs = time_batches(7, || {
        for _ in 0..TICKS {
            for policy in policies.iter_mut() {
                black_box(policy.on_global_tick(&view));
            }
        }
    });
    secs * 1e6 / (TICKS * policies.len()) as f64
}

/// The per-layer pass of `sweep_grid`.
fn grid_layers(
    ctx: &Ctx,
    grids: &Grids,
    reference: &Pass,
    cache_dir: &Path,
    jobs: usize,
    cold_s: f64,
    out: &mut Outcome,
) {
    warm_path_layers(grids, reference, cache_dir, out);

    // The harness's own serial pass: every point through `run_point`,
    // stored, and aggregated — the pieces of `run_sweep` one by one.
    let rec = &ctx.rec;
    let dir = ctx.scratch.fresh("serial");
    let Ok(cache) = Cache::open(&dir) else {
        out.check(false, || "cannot open the serial-pass cache".into());
        return;
    };
    let mut point_secs: Vec<f64> = Vec::with_capacity(grids.points);
    let mut store_secs = 0.0;
    let mut rebuilt: Vec<String> = Vec::new();
    for sc in &grids.scenarios {
        let points = sc.expand();
        let mut records = Vec::with_capacity(points.len());
        for p in &points {
            let t = rec.now_s();
            let record = match run_point(sc, p) {
                Ok(r) => r,
                Err(e) => {
                    out.check(false, || format!("run_point: {e}"));
                    return;
                }
            };
            let mid = rec.now_s();
            rec.record("sweep.run_point", t, mid, None);
            point_secs.push(mid - t);
            let stored = cache.store(point_key(sc, p), &point_key_input(sc, p), &record);
            let end = rec.now_s();
            rec.record("sweep.cache_store", mid, end, None);
            store_secs += end - mid;
            if let Err(e) = stored {
                out.check(false, || format!("cache store: {e}"));
                return;
            }
            records.push(record);
        }
        rebuilt.push(aggregate(sc, &points, records).to_string_pretty());
    }
    out.check(rebuilt == reference.reports, || {
        "run_point + aggregate by hand differs from run_sweep's report".into()
    });
    let sum: f64 = point_secs.iter().sum();
    let longest = point_secs.iter().cloned().fold(0.0, f64::max);
    let l = &mut out.layer;
    l.set("sweep.run_point_s_sum", sum);
    l.set(
        "sweep.cache_store_us",
        store_secs * 1e6 / grids.points as f64,
    );
    if cold_s > 0.0 {
        // Σ serial point time over what `jobs` threads had available.
        l.set("sweep.parallel_efficiency", sum / (jobs as f64 * cold_s));
        l.set("sweep.longest_point_share", longest / cold_s);
    }

    // One cold pass at jobs = 1: same bytes, and the serial rate.
    let dir1 = ctx.scratch.fresh("jobs1");
    match pass(ctx, grids, &dir1, 1, false, false) {
        Ok((p, secs)) => {
            let same = p.reports == reference.reports;
            out.check(same, || "jobs = 1 report differs from jobs = N".into());
            let l = &mut out.layer;
            l.set("sweep.jobs1_identical", f64::from(u8::from(same)));
            l.set("sweep.jobs1_points_per_s", grids.points as f64 / secs);
        }
        Err(e) => out.check(false, || e),
    }

    // tlb-smprt: what sharding 50 empty indices costs, and how often
    // this pool's workers parked or stole while doing it.
    let pool = Pool::new(jobs);
    let overhead_s = time_batches(7, || {
        for _ in 0..200 {
            pool.parallel_for(50, 1, |i| {
                black_box(i);
            });
        }
    });
    let profile = pool.profile();
    let l = &mut out.layer;
    l.set("smprt.parallel_for_overhead_us", overhead_s * 1e6 / 200.0);
    l.set("smprt.idle_parks", profile.idle_parks as f64);
    l.set("smprt.steals", profile.steals as f64);

    // Paid once per point: workload construction and the expander.
    let amr = &grids.scenarios[1];
    let platform = amr.platform();
    l.set(
        "apps.amr_build_ms",
        1e3 * time_batches(7, || {
            let mut cfg = AmrConfig::new(amr.nodes, amr.imbalance);
            cfg.iterations = amr.iterations;
            cfg.seed = ctx.seed;
            black_box(amr_workload(&cfg, &platform));
        }),
    );
    let synth = &grids.scenarios[0];
    let synth_platform = synth.platform();
    l.set(
        "apps.synthetic_build_ms",
        1e3 * time_batches(7, || {
            let mut cfg = tlb_apps::SyntheticConfig::new(synth.nodes, synth.imbalance);
            cfg.iterations = synth.iterations;
            cfg.seed = ctx.seed;
            black_box(tlb_apps::synthetic_workload(&cfg, &synth_platform));
        }),
    );
    l.set(
        "expander.generate_ms",
        replay::expander_generate_ms(synth.nodes, synth.nodes, 4, ctx.seed),
    );
    l.set("core.balance_tick_us", balance_tick_us(ctx.seed));
    l.set("cluster.execute_s", stats::median(&point_secs));
}
