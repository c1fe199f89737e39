//! `tlb-benchmark ledger`: every workload, one process each, several
//! seeds, and a results file; and `tlb-benchmark compare A B`, which
//! holds one results file against another by the ledger's own bounds.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use tlb_json::Value;

use crate::host;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// Options of a ledger run.
pub struct LedgerArgs {
    /// Runs per workload; run `i` uses seed `seed + i`.
    pub runs: usize,
    /// First seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Also make the per-layer pass (one traced run per workload).
    pub trace: bool,
    /// Only this workload.
    pub workload: Option<String>,
    /// Where the results file goes.
    pub out: PathBuf,
}

impl Default for LedgerArgs {
    fn default() -> Self {
        LedgerArgs {
            runs: 3,
            seed: 42,
            seconds: 20.0,
            trace: false,
            workload: None,
            out: host::out_dir().join("results.json"),
        }
    }
}

/// Parse `ledger` flags.
pub fn parse_ledger_args(args: &[String]) -> Result<LedgerArgs, String> {
    let mut a = LedgerArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--runs" => {
                a.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--runs takes an integer in 1..=100")?
            }
            "--seed" => a.seed = crate::seed_arg(&value()?)?,
            "--seconds" => a.seconds = crate::seconds_arg(&value()?)?,
            "--trace" => a.trace = true,
            "--workload" => a.workload = Some(crate::workload_arg(value()?)?),
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown ledger argument '{other}'")),
        }
    }
    Ok(a)
}

/// One (workload, metric) row of a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound; `None` for per-layer rows.
    pub bound: Option<f64>,
    /// One value per run.
    pub values: Vec<f64>,
}

impl Row {
    fn new(workload: &str, def: &MetricDef, values: Vec<f64>) -> Row {
        Row {
            workload: workload.to_string(),
            metric: def.name.to_string(),
            unit: def.unit.to_string(),
            better: def.better,
            bound: def.bound,
            values,
        }
    }

    /// First quartile, median, third quartile over the runs.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        stats::quartiles(&self.values)
    }

    fn to_json(&self) -> Value {
        let (q1, median, q3) = self.quartiles();
        Value::object(vec![
            ("workload", self.workload.as_str().into()),
            ("metric", self.metric.as_str().into()),
            ("unit", self.unit.as_str().into()),
            ("better", self.better.name().into()),
            ("bound", self.bound.map_or(Value::Null, Value::from)),
            ("n", self.values.len().into()),
            ("median", median.into()),
            ("q1", q1.into()),
            ("q3", q3.into()),
            (
                "values",
                Value::Array(self.values.iter().map(|&v| v.into()).collect()),
            ),
        ])
    }

    fn from_json(v: &Value) -> Option<Row> {
        Some(Row {
            workload: v.get("workload").as_str()?.to_string(),
            metric: v.get("metric").as_str()?.to_string(),
            unit: v.get("unit").as_str()?.to_string(),
            better: Better::parse(v.get("better").as_str()?)?,
            bound: v.get("bound").as_f64(),
            values: v
                .get("values")
                .as_array()?
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
        })
    }
}

/// Failure accounting of one workload over all its runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Failures {
    /// Workload name.
    pub workload: String,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (a failed operation also misses every bound).
    pub failed: u64,
}

impl Failures {
    /// Failed over attempted.
    pub fn fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The last line of a run's standard output, parsed.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines() {
        if line.starts_with("  VIOLATION") {
            println!("{workload} seed {seed}:{line}");
        }
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} seed {seed} printed nothing"))?;
    let doc = tlb_json::parse(last)
        .map_err(|e| format!("{workload} seed {seed}: last line is not JSON ({e})"))?;
    Ok(RunResult {
        correct: doc.get("correct").as_bool().unwrap_or(false) && output.status.success(),
        attempted: doc.get("attempted").as_u64().unwrap_or(0),
        failed: doc.get("failed").as_u64().unwrap_or(0),
        metrics: doc.get("metrics").clone(),
    })
}

fn metric_value(metrics: &Value, name: &str) -> f64 {
    metrics.get(name).get("value").as_f64().unwrap_or(0.0)
}

fn print_rows(rows: &[Row]) {
    for row in rows {
        let (q1, median, q3) = row.quartiles();
        // A per-layer zero means "this layer is not on that workload's
        // path"; leave those rows out of the table (they stay in the file).
        if row.bound.is_none() && row.values.iter().all(|&v| v == 0.0) {
            continue;
        }
        println!(
            "{:<15} {:<32} {:>14.6} {:<6} q1 {:<14.6} q3 {:<14.6} n {}",
            row.workload,
            row.metric,
            median,
            row.unit,
            q1,
            q3,
            row.values.len()
        );
    }
}

/// Run the ledger; `Ok(true)` when every run was correct.
pub fn run_ledger(args: &LedgerArgs) -> Result<bool, String> {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let cores = host::parallelism();
    println!(
        "ledger: {} workload(s) x {} run(s) x {} s, seeds {}.., host_parallelism {cores}{}",
        workloads.len(),
        args.runs,
        args.seconds,
        args.seed,
        if cores == 1 {
            " — a 1-core host: no figure here is a scaling result"
        } else {
            ""
        }
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<Failures> = Vec::new();
    let mut all_correct = true;
    for workload in workloads {
        let mut acc = Failures {
            workload: workload.to_string(),
            ..Failures::default()
        };
        let mut runs = Vec::with_capacity(args.runs);
        for i in 0..args.runs {
            let r = run_child(workload, args.seed + i as u64, args.seconds, false)?;
            all_correct &= r.correct;
            acc.attempted += r.attempted;
            acc.failed += r.failed;
            runs.push(r.metrics);
        }
        let first = rows.len();
        for def in &END_TO_END {
            let values = runs.iter().map(|m| metric_value(m, def.name)).collect();
            rows.push(Row::new(workload, def, values));
        }
        if args.trace {
            let r = run_child(workload, args.seed, args.seconds, true)?;
            all_correct &= r.correct;
            acc.attempted += r.attempted;
            acc.failed += r.failed;
            for def in &PER_LAYER {
                let v = metric_value(&r.metrics, def.name);
                rows.push(Row::new(workload, def, vec![v]));
            }
        }
        print_rows(&rows[first..]);
        println!(
            "{:<15} {:<32} {:>14.6} {:<6} ({} failed of {} attempted)",
            workload,
            "failed_fraction",
            acc.fraction(),
            "ratio",
            acc.failed,
            acc.attempted
        );
        failures.push(acc);
    }
    let doc = Value::object(vec![
        ("schema", 1u64.into()),
        ("host_parallelism", cores.into()),
        ("one_core_host", (cores == 1).into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("runs", args.runs.into()),
        (
            "rows",
            Value::Array(rows.iter().map(Row::to_json).collect()),
        ),
        (
            "failures",
            Value::Array(
                failures
                    .iter()
                    .map(|f| {
                        Value::object(vec![
                            ("workload", f.workload.as_str().into()),
                            ("attempted", f.attempted.into()),
                            ("failed", f.failed.into()),
                            ("failed_fraction", f.fraction().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, doc.to_string_pretty())
        .map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("results: {}", args.out.display());
    Ok(all_correct)
}

/// What `compare` says about one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own quartiles are further apart than the bound: the row
    /// cannot resolve a change of that size, so it says nothing.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative = better).
pub fn worse_by(better: Better, a_median: f64, b_median: f64) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b_median - a_median) / a_median.abs(),
        Better::Higher => (a_median - b_median) / a_median.abs(),
    }
}

/// Apply one row's bound: A is the base, B the candidate.
pub fn verdict(a: &Row, b: &Row) -> Verdict {
    let Some(bound) = a.bound else {
        return Verdict::Ok;
    };
    if a.values.len() >= 2 && stats::spread(&a.values) > bound {
        return Verdict::Unresolved;
    }
    let (_, a_med, _) = a.quartiles();
    let (_, b_med, _) = b.quartiles();
    if worse_by(a.better, a_med, b_med) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

struct Results {
    rows: Vec<Row>,
    failures: Vec<Failures>,
    cores: u64,
}

fn load(path: &Path) -> Result<Results, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = tlb_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc
        .get("rows")
        .as_array()
        .ok_or_else(|| format!("{}: no rows", path.display()))?
        .iter()
        .map(|r| Row::from_json(r).ok_or_else(|| format!("{}: malformed row", path.display())))
        .collect::<Result<Vec<_>, _>>()?;
    let failures = doc
        .get("failures")
        .as_array()
        .map(|list| {
            list.iter()
                .map(|f| Failures {
                    workload: f.get("workload").as_str().unwrap_or("").to_string(),
                    attempted: f.get("attempted").as_u64().unwrap_or(0),
                    failed: f.get("failed").as_u64().unwrap_or(0),
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Results {
        rows,
        failures,
        cores: doc.get("host_parallelism").as_u64().unwrap_or(0),
    })
}

/// `compare A B`: one line per end-to-end row; `Ok(true)` when no row
/// is `worse` or `unresolved` and no workload fails more often.
pub fn run_compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.cores != b.cores {
        println!(
            "note: A ran with host_parallelism {} and B with {}; parallel figures do not compare",
            a.cores, b.cores
        );
    }
    let mut clean = true;
    for row_a in a.rows.iter().filter(|r| r.bound.is_some()) {
        let Some(row_b) = b
            .rows
            .iter()
            .find(|r| r.workload == row_a.workload && r.metric == row_a.metric)
        else {
            println!("{:<15} {:<14} missing in B", row_a.workload, row_a.metric);
            clean = false;
            continue;
        };
        let v = verdict(row_a, row_b);
        clean &= v == Verdict::Ok;
        let (_, a_med, _) = row_a.quartiles();
        let (_, b_med, _) = row_b.quartiles();
        println!(
            "{:<15} {:<14} {:<10} B/A {:.3} (A median {:.6} {}, A spread {:.1}%, n {}; B median {:.6}, n {}; bound {:.0}%, {} is better)",
            row_a.workload,
            row_a.metric,
            v.name(),
            if a_med != 0.0 { b_med / a_med } else { 0.0 },
            a_med,
            row_a.unit,
            100.0 * stats::spread(&row_a.values),
            row_a.values.len(),
            b_med,
            row_b.values.len(),
            100.0 * row_a.bound.unwrap_or(0.0),
            row_a.better.name(),
        );
    }
    for fa in &a.failures {
        let fb = b.failures.iter().find(|f| f.workload == fa.workload);
        let (frac_a, frac_b) = (fa.fraction(), fb.map_or(0.0, Failures::fraction));
        let worse = frac_b > frac_a;
        clean &= !worse;
        println!(
            "{:<15} {:<14} {:<10} A {}/{} failed, B {}/{} failed (any increase is worse)",
            fa.workload,
            "failed_fraction",
            if worse { "worse" } else { "ok" },
            fa.failed,
            fa.attempted,
            fb.map_or(0, |f| f.failed),
            fb.map_or(0, |f| f.attempted),
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(better: Better, bound: f64, values: &[f64]) -> Row {
        Row {
            workload: "w".into(),
            metric: "m".into(),
            unit: "ms".into(),
            better,
            bound: Some(bound),
            values: values.to_vec(),
        }
    }

    const STEADY: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn compare_verdicts_follow_direction_and_bound() {
        let a = row(Better::Lower, 0.10, &STEADY);
        let scaled = |f: f64| STEADY.iter().map(|v| v * f).collect::<Vec<_>>();
        assert_eq!(
            verdict(&a, &row(Better::Lower, 0.10, &scaled(1.05))),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &row(Better::Lower, 0.10, &scaled(1.12))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &row(Better::Lower, 0.10, &scaled(0.5))),
            Verdict::Ok
        );
        let h = row(Better::Higher, 0.10, &STEADY);
        assert_eq!(
            verdict(&h, &row(Better::Higher, 0.10, &scaled(0.95))),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&h, &row(Better::Higher, 0.10, &scaled(0.85))),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&h, &row(Better::Higher, 0.10, &scaled(2.0))),
            Verdict::Ok
        );
    }

    #[test]
    fn a_base_wider_than_its_bound_resolves_nothing() {
        let noisy = row(
            Better::Lower,
            0.10,
            &[
                80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 100.0, 95.0, 105.0, 100.0,
            ],
        );
        assert!(stats::spread(&noisy.values) > 0.10);
        assert_eq!(
            verdict(&noisy, &row(Better::Lower, 0.10, &STEADY)),
            Verdict::Unresolved
        );
        // Per-layer rows carry no bound and are never judged.
        let mut free = noisy.clone();
        free.bound = None;
        assert_eq!(
            verdict(&free, &row(Better::Lower, 0.10, &[1e9])),
            Verdict::Ok
        );
    }

    #[test]
    fn ratios_keep_their_base_and_rows_round_trip() {
        assert!((worse_by(Better::Lower, 200.0, 230.0) - 0.15).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 200.0, 170.0) - 0.15).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
        let r = row(Better::Higher, 0.25, &[1.0, 2.0, 3.0]);
        assert_eq!(Row::from_json(&r.to_json()), Some(r));
        let f = Failures {
            workload: "w".into(),
            attempted: 200,
            failed: 1,
        };
        assert!((f.fraction() - 0.005).abs() < 1e-15);
        assert_eq!(Failures::default().fraction(), 0.0);
    }

    #[test]
    fn ledger_flags_parse_and_reject_nonsense() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_ledger_args(&args(
            "--runs 10 --seed 7 --seconds 2.5 --trace --workload serve_mix",
        ))
        .expect("valid flags");
        assert_eq!((a.runs, a.seed, a.seconds, a.trace), (10, 7, 2.5, true));
        assert_eq!(a.workload.as_deref(), Some("serve_mix"));
        assert!(parse_ledger_args(&args("--runs 0")).is_err());
        assert!(parse_ledger_args(&args("--workload nope")).is_err());
        assert!(parse_ledger_args(&args("--frobnicate")).is_err());
    }
}
