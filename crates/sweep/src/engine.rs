//! Pool-sharded execution of an expanded scenario and the deterministic
//! aggregation of its per-point reports.

use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use tlb_cluster::{ClusterSim, FaultPlan, FaultStats, RunSpec, SimReport, Workload};
use tlb_core::Platform;
use tlb_json::Value;
use tlb_smprt::Pool;

use crate::cache::{point_key, point_key_input, Cache};
use crate::scenario::{Scenario, SweepApp, SweepPoint};

/// How to run a sweep.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Pool threads to shard points across (1 = fully serial). The
    /// report is bitwise identical at every level.
    pub jobs: usize,
    /// Reuse cached point results instead of re-executing them.
    pub resume: bool,
    /// Where cached point results live; `None` disables the cache
    /// entirely (nothing read, nothing written).
    pub cache_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            resume: false,
            cache_dir: None,
        }
    }
}

/// Execution accounting for one `run_sweep` call. Deliberately kept out
/// of the sweep report JSON: cache hits change *how* a number was
/// obtained, never the number, and the report must be byte-identical
/// between a fresh and a fully-cached run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Points in the expanded grid.
    pub points_total: usize,
    /// Points that ran a simulation.
    pub executed: usize,
    /// Points served from the cache.
    pub cache_hits: usize,
}

/// What `run_sweep` returns: the aggregate report plus accounting.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The sweep report (see the module docs for the layout). Identical
    /// across `jobs` levels and across fresh/cached execution.
    pub report: Value,
    /// Execution accounting.
    pub stats: SweepStats,
    /// Per-point cache keys, in expansion order (exposed so callers and
    /// tests can reason about cache identity without re-deriving it).
    pub keys: Vec<u64>,
}

/// Sweep failures: a scenario-level problem or the first failing point
/// (by expansion order, so the reported error is deterministic too).
#[derive(Clone, Debug)]
pub enum SweepError {
    /// The scenario itself is unusable (bad spec, cache I/O).
    Scenario(String),
    /// A point failed; `index` is its expansion position.
    Point {
        /// Expansion position of the failing point.
        index: usize,
        /// The underlying error.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Scenario(m) => write!(f, "{m}"),
            SweepError::Point { index, message } => write!(f, "point {index}: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Expand, execute (sharded over `opts.jobs` pool threads), and
/// aggregate a scenario.
///
/// Every point runs the ordinary single-threaded simulator; the pool
/// parallelism is purely *between* points, and aggregation happens
/// sequentially in expansion order afterwards — which is the whole
/// bitwise-determinism argument, there is nothing schedule-dependent to
/// hide.
pub fn run_sweep(scenario: &Scenario, opts: &SweepOptions) -> Result<SweepOutcome, SweepError> {
    scenario
        .validate()
        .map_err(|e| SweepError::Scenario(e.to_string()))?;
    let points = scenario.expand();
    let keys: Vec<u64> = points.iter().map(|p| point_key(scenario, p)).collect();
    let cache = match &opts.cache_dir {
        Some(dir) => Some(
            Cache::open(dir).map_err(|e| SweepError::Scenario(format!("cache {dir:?}: {e}")))?,
        ),
        None => None,
    };

    // One slot per point; slots are written exactly once each, then read
    // back sequentially. `bool` is "was a cache hit".
    type Slot = Mutex<Option<Result<(Value, bool), String>>>;
    let slots: Vec<Slot> = points.iter().map(|_| Mutex::new(None)).collect();
    let pool = Pool::new(opts.jobs.max(1));
    pool.parallel_for(points.len(), 1, |i| {
        let outcome = (|| {
            let key_input = point_key_input(scenario, &points[i]);
            if opts.resume {
                if let Some(cache) = &cache {
                    if let Some(value) = cache.load(keys[i], &key_input) {
                        return Ok((value, true));
                    }
                }
            }
            let value = run_point(scenario, &points[i])?;
            if let Some(cache) = &cache {
                cache
                    .store(keys[i], &key_input, &value)
                    .map_err(|e| format!("cache write: {e}"))?;
            }
            Ok((value, false))
        })();
        *slots[i].lock().unwrap() = Some(outcome);
    });

    let mut stats = SweepStats {
        points_total: points.len(),
        ..SweepStats::default()
    };
    let mut records = Vec::with_capacity(points.len());
    for (i, slot) in slots.into_iter().enumerate() {
        let outcome = slot
            .into_inner()
            .unwrap()
            .expect("parallel_for covers every index");
        match outcome {
            Ok((value, hit)) => {
                if hit {
                    stats.cache_hits += 1;
                } else {
                    stats.executed += 1;
                }
                records.push(value);
            }
            Err(message) => return Err(SweepError::Point { index: i, message }),
        }
    }

    let report = aggregate(scenario, &points, records);
    Ok(SweepOutcome {
        report,
        stats,
        keys,
    })
}

/// Run one grid point (untraced — sweeps measure results, not
/// timelines) and summarize it into the point's JSON record.
///
/// Public because the batch driver is not the only executor anymore:
/// the `tlb-serve` daemon runs single points on demand through exactly
/// this function, so a served record and a swept record are the same
/// bytes by construction.
pub fn run_point(scenario: &Scenario, point: &SweepPoint) -> Result<Value, String> {
    let (report, perfect) = simulate_point(scenario, point, &scenario.platform(), false)?;
    Ok(point_record(scenario, point, &report, perfect))
}

/// The one assembly of a run from a scenario point: config, fault plan
/// and workload built from `(scenario, point)`, executed on `platform`;
/// returns the report and the perfect-balance bound in seconds per
/// iteration. [`run_point`] passes the scenario's own platform; `tlb-run`
/// passes that platform with `--slow-node` applied and asks for a trace —
/// everything else of a single run and a sweep point is this function, so
/// the two cannot drift apart.
pub fn simulate_point(
    scenario: &Scenario,
    point: &SweepPoint,
    platform: &Platform,
    trace: bool,
) -> Result<(SimReport, f64), String> {
    let config = scenario.config(point).map_err(|e| e.to_string())?;
    let plan = match &scenario.faults {
        Some(spec) => FaultPlan::parse(spec, scenario.fault_seed)?,
        None => FaultPlan::none(),
    };
    let appranks = scenario.nodes * point.appranks_per_node;
    let (workload, per_iter_work) = build_workload(scenario, point, appranks, platform);
    let spec = RunSpec::new(platform, &config, workload)
        .trace(trace)
        .faults(&plan);
    let report = ClusterSim::execute(spec).map_err(|e| e.to_string())?;
    Ok((report, per_iter_work / platform.effective_capacity()))
}

/// Build the point's workload plus its nominal per-iteration work in
/// core·seconds (the numerator of the perfect-balance bound). The one
/// app table: sweep points, served points and single `tlb-run` runs all
/// construct their workload here, through [`simulate_point`].
fn build_workload(
    scenario: &Scenario,
    point: &SweepPoint,
    appranks: usize,
    platform: &Platform,
) -> (Box<dyn Workload>, f64) {
    match scenario.app {
        SweepApp::Synthetic => {
            let mut cfg = tlb_apps::synthetic::SyntheticConfig::new(appranks, scenario.imbalance);
            cfg.iterations = scenario.iterations;
            cfg.seed = point.seed;
            let wl = tlb_apps::synthetic::synthetic_workload(&cfg, platform);
            let work = wl.rank_work(0).iter().sum::<f64>();
            (Box::new(wl), work)
        }
        SweepApp::Micropp => {
            let mut cfg = tlb_apps::micropp::MicroPpConfig::new(appranks);
            cfg.iterations = scenario.iterations;
            cfg.seed = point.seed;
            let wl = tlb_apps::micropp::micropp_workload(&cfg);
            let work = wl.rank_work(0).iter().sum::<f64>();
            (Box::new(wl), work)
        }
        SweepApp::Nbody => {
            let mut cfg = tlb_apps::nbody::NBodyConfig::new(20_000 * appranks, appranks);
            cfg.iterations = scenario.iterations;
            cfg.force_cost = 2e-6;
            cfg.seed = point.seed;
            let mut probe = tlb_apps::nbody::NBodyWorkload::new(cfg.clone());
            let work: f64 = (0..appranks)
                .map(|r| probe.tasks(r, 0).iter().map(|t| t.duration).sum::<f64>())
                .sum();
            (Box::new(tlb_apps::nbody::NBodyWorkload::new(cfg)), work)
        }
        SweepApp::Stencil => {
            let mut cfg =
                tlb_apps::stencil::StencilConfig::new(appranks, 128, 128).with_gradient(0.5, 2.0);
            cfg.iterations = scenario.iterations;
            cfg.secs_per_row = 1e-3;
            let wl = tlb_apps::stencil::StencilWorkload::new(cfg.clone());
            let work: f64 = (0..appranks).map(|r| wl.rank_work(r)).sum();
            (Box::new(tlb_apps::stencil::StencilWorkload::new(cfg)), work)
        }
        SweepApp::Amr => {
            let mut cfg = tlb_apps::amr::AmrConfig::new(appranks, scenario.imbalance);
            cfg.iterations = scenario.iterations;
            cfg.seed = point.seed;
            let wl = tlb_apps::amr::amr_workload(&cfg, platform);
            let work = wl.iteration_work();
            (Box::new(wl), work)
        }
    }
}

/// One point's JSON record. Only virtual-time results appear here —
/// never wall-clock — so the record is a pure function of the point's
/// configuration. Deliberately *excludes* the expansion index: the
/// record (and therefore the cache entry) must be identical no matter
/// which scenario's grid a point was reached through, so overlapping
/// sweeps and the serve daemon share cache entries byte for byte.
/// [`aggregate`] re-attaches each record's index positionally.
fn point_record(
    scenario: &Scenario,
    point: &SweepPoint,
    report: &SimReport,
    perfect: f64,
) -> Value {
    let appranks = scenario.nodes * point.appranks_per_node;
    let mean_iteration = report.mean_iteration_secs(scenario.iterations / 3);
    let mut fields = vec![
        ("appranks_per_node", point.appranks_per_node.into()),
        ("degree", point.degree.into()),
        ("policy", point.policy.canonical().as_str().into()),
        ("seed", point.seed.into()),
        ("appranks", appranks.into()),
        ("makespan_s", report.makespan.as_secs_f64().into()),
        ("mean_iteration_s", mean_iteration.into()),
        ("perfect_bound_s", perfect.into()),
        (
            "balance_ratio",
            if perfect > 0.0 {
                (mean_iteration / perfect).into()
            } else {
                Value::Null
            },
        ),
        ("offloaded_tasks", report.offloaded_tasks.into()),
        ("total_tasks", report.total_tasks.into()),
        ("events", report.events.into()),
        ("solver_runs", report.solver_runs.into()),
        ("solver_time_s", report.solver_time.as_secs_f64().into()),
        ("spawned_helpers", report.spawned_helpers.into()),
        ("parallel_efficiency", report.parallel_efficiency.into()),
        (
            "iteration_times_s",
            Value::Array(
                report
                    .iteration_times
                    .iter()
                    .map(|t| t.as_secs_f64().into())
                    .collect(),
            ),
        ),
    ];
    if report.faults != FaultStats::default() {
        fields.push((
            "faults",
            Value::object(vec![
                ("injected", report.faults.injected.into()),
                ("recovered", report.faults.recovered.into()),
                ("absorbed", report.faults.absorbed.into()),
                ("solver_fallbacks", report.faults.solver_fallbacks.into()),
            ]),
        ));
    }
    if let Some(p) = &report.portfolio {
        fields.push((
            "portfolio",
            Value::object(vec![
                ("solves", p.solves.into()),
                ("no_winner", p.no_winner.into()),
            ]),
        ));
    }
    Value::object(fields)
}

/// The baseline reference degree: 1 when the axis includes it, else the
/// smallest degree swept (deterministic, documented in DESIGN.md §10).
fn baseline_degree(scenario: &Scenario) -> usize {
    if scenario.axes.degree.contains(&1) {
        1
    } else {
        *scenario.axes.degree.iter().min().unwrap_or(&1)
    }
}

fn get_f64(record: &Value, key: &str) -> f64 {
    record.get(key).as_f64().unwrap_or(f64::NAN)
}

/// Sequential aggregation in expansion order: attach speedup-vs-baseline
/// to every point, then fold per-axis tables and the per-policy
/// iteration-time series. Pure function of the ordered records — which
/// is why the `tlb-serve` daemon can call it on records gathered from
/// any mix of cache hits, deduped in-flight points, and fresh runs and
/// still reply with a report bitwise identical to an offline sweep.
pub fn aggregate(scenario: &Scenario, points: &[SweepPoint], records: Vec<Value>) -> Value {
    let base_degree = baseline_degree(scenario);
    // Baseline makespan per (appranks_per_node, seed).
    let baseline_of = |apn: usize, seed: u64| -> Option<f64> {
        points
            .iter()
            .position(|p| {
                p.policy.name() == "baseline"
                    && p.degree == base_degree
                    && p.appranks_per_node == apn
                    && p.seed == seed
            })
            .map(|i| get_f64(&records[i], "makespan_s"))
    };

    let mut points_json = Vec::with_capacity(records.len());
    let mut speedups: Vec<Option<f64>> = Vec::with_capacity(records.len());
    for (i, (point, record)) in points.iter().zip(&records).enumerate() {
        let speedup = baseline_of(point.appranks_per_node, point.seed).and_then(|base| {
            let own = get_f64(record, "makespan_s");
            (own > 0.0).then(|| base / own)
        });
        speedups.push(speedup);
        // The expansion index is positional, not part of the cached
        // record (see `point_record`); attach it here.
        let mut fields: Vec<(String, Value)> = vec![("index".into(), i.into())];
        fields.extend(record.as_object().cloned().unwrap_or_default());
        fields.push((
            "speedup_vs_baseline".into(),
            speedup.map_or(Value::Null, Value::from),
        ));
        points_json.push(Value::Object(fields));
    }

    // Per-axis tables: group sequentially, preserving first-seen order.
    let table = |key_of: &dyn Fn(&SweepPoint) -> Value| -> Value {
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let k = key_of(p).to_string_compact();
            match groups.iter_mut().find(|(g, _)| *g == k) {
                Some((_, idx)) => idx.push(i),
                None => groups.push((k, vec![i])),
            }
        }
        Value::Array(
            groups
                .into_iter()
                .map(|(k, idx)| {
                    let n = idx.len() as f64;
                    let mean = |field: &str| {
                        idx.iter()
                            .map(|&i| get_f64(&records[i], field))
                            .sum::<f64>()
                            / n
                    };
                    let best = idx
                        .iter()
                        .map(|&i| get_f64(&records[i], "makespan_s"))
                        .fold(f64::INFINITY, f64::min);
                    let sps: Vec<f64> = idx.iter().filter_map(|&i| speedups[i]).collect();
                    Value::object(vec![
                        ("key", tlb_json::parse(&k).unwrap_or(Value::Null)),
                        ("n", idx.len().into()),
                        ("mean_makespan_s", mean("makespan_s").into()),
                        ("best_makespan_s", best.into()),
                        ("mean_balance_ratio", mean("balance_ratio").into()),
                        (
                            "mean_speedup_vs_baseline",
                            if sps.is_empty() {
                                Value::Null
                            } else {
                                (sps.iter().sum::<f64>() / sps.len() as f64).into()
                            },
                        ),
                    ])
                })
                .collect(),
        )
    };

    // Per-policy mean iteration-time series (the imbalance-convergence
    // view: DROM policies should bend these curves down over time).
    let mut series: Vec<(String, Value)> = Vec::new();
    for policy in &scenario.axes.policy {
        let idx: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.policy == *policy)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let mut sums = vec![0.0f64; scenario.iterations];
        let mut counts = vec![0usize; scenario.iterations];
        for &i in &idx {
            if let Some(times) = records[i].get("iteration_times_s").as_array() {
                for (it, t) in times.iter().enumerate().take(scenario.iterations) {
                    sums[it] += t.as_f64().unwrap_or(0.0);
                    counts[it] += 1;
                }
            }
        }
        series.push((
            policy.canonical(),
            Value::Array(
                sums.iter()
                    .zip(&counts)
                    .map(|(&s, &c)| {
                        if c == 0 {
                            Value::Null
                        } else {
                            (s / c as f64).into()
                        }
                    })
                    .collect(),
            ),
        ));
    }

    Value::object(vec![
        (
            "schema_version",
            Value::Int(crate::scenario::SCHEMA_VERSION as i64),
        ),
        ("scenario", scenario.to_json()),
        ("points_total", points.len().into()),
        ("baseline_degree", base_degree.into()),
        ("points", Value::Array(points_json)),
        (
            "by_policy",
            table(&|p: &SweepPoint| p.policy.canonical().as_str().into()),
        ),
        ("by_degree", table(&|p: &SweepPoint| p.degree.into())),
        (
            "by_appranks_per_node",
            table(&|p: &SweepPoint| p.appranks_per_node.into()),
        ),
        ("per_policy_iteration_series", Value::Object(series)),
    ])
}
