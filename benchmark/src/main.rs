//! `tlb-benchmark`: the layered performance ledger.
//!
//! ```text
//! tlb-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! runs one workload in this process and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.
//!
//! ```text
//! tlb-benchmark ledger [--runs N] [--seed S] [--seconds T] [--trace] [--workload NAME] [--out FILE]
//! tlb-benchmark compare A.json B.json
//! ```
//!
//! run every workload (one process each) into a results file, and hold
//! one results file against another by the bounds. See
//! `benchmark/README.md`.

mod digest;
mod host;
mod ledger;
mod measure;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use tlb_json::Value;

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads::Ctx;

/// Arguments of a single-workload run.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `--seed`: any `u64`.
fn seed_arg(v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| "--seed takes a non-negative integer".to_string())
}

/// `--seconds`: a measured phase of up to ten minutes.
fn seconds_arg(v: &str) -> Result<f64, String> {
    v.parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
        .ok_or_else(|| "--seconds takes a number in (0, 600]".to_string())
}

/// `--workload`: one of the registry's names.
fn workload_arg(v: String) -> Result<String, String> {
    if WORKLOADS.contains(&v.as_str()) {
        Ok(v)
    } else {
        Err(format!(
            "--workload must be one of: {}",
            WORKLOADS.join(", ")
        ))
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => run.workload = workload_arg(value()?)?,
            "--seed" => run.seed = seed_arg(&value()?)?,
            "--seconds" => run.seconds = seconds_arg(&value()?)?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if run.workload.is_empty() {
        return Err(workload_arg(String::new()).unwrap_err());
    }
    Ok(run)
}

fn run_workload(args: &RunArgs) -> Result<ExitCode, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        rec: spans::Recorder::new(args.trace),
        scratch: host::Scratch::new().map_err(|e| format!("scratch directory: {e}"))?,
    };
    let outcome = workloads::run(&args.workload, &ctx).ok_or("unknown workload")?;
    println!(
        "{} seed {} seconds {} trace {} host_parallelism {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::parallelism(),
        if host::parallelism() == 1 {
            " (1-core host: no parallel figure here is a scaling result)"
        } else {
            ""
        }
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
    if args.trace {
        let path = host::out_dir().join(format!("spans_{}.json", args.workload));
        let doc = spans::to_json(&args.workload, &ctx.rec.snapshot());
        std::fs::write(&path, doc.to_string_compact())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  spans: {}", path.display());
    }
    let (values, defs): (_, &[metrics::MetricDef]) = if args.trace {
        (&outcome.layer, &PER_LAYER)
    } else {
        (&outcome.e2e, &END_TO_END)
    };
    let correct = outcome.failed == 0;
    let line = Value::object(vec![
        ("correct", correct.into()),
        ("attempted", outcome.attempted.max(1).into()),
        ("failed", outcome.failed.into()),
        ("metrics", values.to_json(defs)),
    ]);
    println!("{}", line.to_string_compact());
    Ok(exit_for(correct))
}

fn exit_for(clean: bool) -> ExitCode {
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("ledger") => ledger::parse_ledger_args(&args[1..])
            .and_then(|a| ledger::run_ledger(&a))
            .map(exit_for),
        Some("compare") => match &args[1..] {
            [a, b] => ledger::run_compare(a.as_ref(), b.as_ref()).map(exit_for),
            _ => Err("usage: tlb-benchmark compare A.json B.json".into()),
        },
        _ => parse_run_args(&args).and_then(|a| run_workload(&a)),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tlb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
