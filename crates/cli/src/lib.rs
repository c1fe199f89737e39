//! Library half of the `tlb-run` command: argument parsing and experiment
//! assembly, separated from `main` so it is unit-testable.
//!
//! A single run is a one-point [`Scenario`]: the flags fill the
//! scenario's fixed knobs and one value per axis, `Scenario::validate`
//! is the only validator, and the run is built by the same
//! [`simulate_point`] a sweep point runs through.
//!
//! ```console
//! tlb-run --app micropp --nodes 8 --appranks-per-node 2 \
//!         --degree 4 --policy lewi+drom-global --iterations 10 \
//!         [--machine mn4|nord3|ideal] [--slow-node 0]
//!         [--trace-csv out.csv] [--chrome out.json] [--json]
//! tlb-run trace --app nbody --nodes 4   # traced run, Chrome JSON export
//! tlb-run sweep --scenario examples/policy_matrix.json --jobs 8 --resume
//! tlb-run serve --addr 127.0.0.1:7070 --jobs 4 --cache-dir tlb_sweep_cache
//! ```

#![forbid(unsafe_code)]

use std::fmt;
use tlb_cluster::{FaultStats, SimReport};
use tlb_core::{known_policy_names, BalanceConfig, PolicySpec};
use tlb_sweep::{simulate_point, Scenario, SweepApp, SweepMachine, SweepPoint};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The run, as a scenario whose every axis holds exactly one value.
    pub scenario: Scenario,
    /// Slow node index (Nord3-style 1.8 GHz), if any.
    pub slow_node: Option<usize>,
    /// Write the trace as CSV here.
    pub trace_csv: Option<String>,
    /// Write the trace as Chrome trace-event JSON here.
    pub chrome: Option<String>,
    /// `trace` subcommand: force tracing on and default the Chrome export.
    pub trace_mode: bool,
    /// Emit the report as JSON instead of text.
    pub json: bool,
}

impl Default for Args {
    fn default() -> Self {
        let mut scenario = Scenario::default();
        let config = BalanceConfig::default();
        scenario.axes.degree = vec![config.degree];
        scenario.axes.policy = vec![config.policy];
        Args {
            scenario,
            slow_node: None,
            trace_csv: None,
            chrome: None,
            trace_mode: false,
            json: false,
        }
    }
}

impl Args {
    /// The scenario's single grid point.
    pub fn point(&self) -> SweepPoint {
        self.scenario.expand().swap_remove(0)
    }
}

/// Argument parsing errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "usage: tlb-run [trace|sweep|serve] [options]
  sweep                                   subcommand: batch-run a scenario
                                          file over its axis grid (see
                                          tlb-run sweep --help)
  serve                                   subcommand: resident sweep daemon
                                          over TCP (see tlb-run serve
                                          --help)
  trace                                   subcommand: record the structured
                                          event trace and write a Chrome
                                          trace-event JSON (default
                                          tlb_trace.chrome.json; open in
                                          Perfetto / chrome://tracing)
  --app micropp|nbody|synthetic|stencil|amr
                                          workload (default synthetic)
  --nodes N                               node count (default 4)
  --appranks-per-node N                   (default 1)
  --degree D                              offloading degree (default 4)
  --policy NAME[(k=v,...)]                balancing policy from the registry:
                                          baseline, lewi, drom-local,
                                          drom-global, lewi+drom-local,
                                          lewi+drom-global, reactive-offload,
                                          diffusion — optionally with typed
                                          parameters, e.g.
                                          'reactive-offload(hi=0.4)'
                                          (default lewi+drom-global).
                                          Shorthands: off|local|global =
                                          lewi|lewi+drom-local|
                                          lewi+drom-global
  --lewi on|off                           shorthand: switch to the policy's
                                          LeWI-on/off sibling (baseline/lewi,
                                          drom-X/lewi+drom-X); an error for
                                          policies without one
  --iterations N                          timesteps (default 6)
  --machine mn4|nord3|ideal               platform preset (default mn4)
  --slow-node I                           run node I (< --nodes) at 1.8/3.0
                                          GHz speed
  --imbalance X                           synthetic imbalance, >= 1 (default
                                          2.0)
  --seed S                                expander seed (default 1)
  --trace-csv PATH                        dump the trace as CSV
  --chrome PATH                           dump the trace as Chrome JSON
  --json                                  print the report as JSON
  --faults SPEC                           inject faults; SPEC is ';'-separated
                                          clauses kind@time[,k=v...], kinds:
                                          straggler@T,node=N[,slow=S][,for=D]
                                          kill@T[,apprank=A,slot=K]
                                          outage@T[,for=D][,error=timeout|
                                            infeasible|unbounded]
                                          loss@T[,for=D][,rate=R][,retries=N]
                                            [,backoff=B]
                                          delay@T[,for=D][,extra=X]
  --fault-seed S                          seed for fault draws (default 1)
  --help                                  this text";

/// The paper policies that differ only in LeWI, as (off, on) registry
/// names: what `--lewi` switches between.
const LEWI_SIBLINGS: [(&str, &str); 3] = [
    ("baseline", "lewi"),
    ("drom-local", "lewi+drom-local"),
    ("drom-global", "lewi+drom-global"),
];

/// Resolve the `--lewi on|off` shorthand: the registry policy that is
/// `spec` with LeWI switched as asked. A policy with no such sibling
/// (`diffusion --lewi off`) is an error listing the registry.
fn resolve_lewi(spec: &PolicySpec, on: bool) -> Result<PolicySpec, ParseError> {
    if spec.lewi() == on {
        return Ok(spec.clone());
    }
    LEWI_SIBLINGS
        .iter()
        .find(|&&(off, with)| spec.name() == if on { off } else { with })
        .and_then(|&(off, with)| PolicySpec::named(if on { with } else { off }).ok())
        .ok_or_else(|| {
            ParseError(format!(
                "--lewi {}: policy '{}' has no such variant (known: {})",
                if on { "on" } else { "off" },
                spec.name(),
                known_policy_names().join(", ")
            ))
        })
}

/// Parse an argument list (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ParseError> {
    let mut args = Args::default();
    let mut lewi = None;
    let mut it = argv.into_iter().peekable();
    if it.peek().map(String::as_str) == Some("trace") {
        it.next();
        args.trace_mode = true;
    }
    let sc = &mut args.scenario;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--app" => sc.app = SweepApp::parse(&value(&mut it, "--app")?).map_err(usage_error)?,
            "--nodes" => sc.nodes = parse_num(&mut it, "--nodes")?,
            "--appranks-per-node" => {
                sc.axes.appranks_per_node = vec![parse_num(&mut it, "--appranks-per-node")?]
            }
            "--degree" => sc.axes.degree = vec![parse_num(&mut it, "--degree")?],
            "--policy" => {
                // `off|local|global` are shorthands for the LeWI-on
                // paper policies; everything else is a registry name.
                let given = value(&mut it, "--policy")?;
                let text = match given.as_str() {
                    "off" => "lewi",
                    "local" => "lewi+drom-local",
                    "global" => "lewi+drom-global",
                    other => other,
                };
                let spec = PolicySpec::parse(text);
                sc.axes.policy = vec![spec.map_err(|e| ParseError(format!("--policy: {e}")))?];
            }
            "--lewi" => {
                lewi = match value(&mut it, "--lewi")?.as_str() {
                    "on" => Some(true),
                    "off" => Some(false),
                    other => return Err(ParseError(format!("--lewi on|off, got '{other}'"))),
                }
            }
            "--iterations" => sc.iterations = parse_num(&mut it, "--iterations")?,
            "--machine" => {
                sc.machine =
                    SweepMachine::parse(&value(&mut it, "--machine")?).map_err(usage_error)?
            }
            "--slow-node" => args.slow_node = Some(parse_num(&mut it, "--slow-node")?),
            "--imbalance" => sc.imbalance = parse_num(&mut it, "--imbalance")?,
            "--seed" => sc.axes.seed = vec![parse_num(&mut it, "--seed")?],
            "--trace-csv" => args.trace_csv = Some(value(&mut it, "--trace-csv")?),
            "--chrome" => args.chrome = Some(value(&mut it, "--chrome")?),
            "--json" => args.json = true,
            "--faults" => sc.faults = Some(value(&mut it, "--faults")?),
            "--fault-seed" => sc.fault_seed = parse_num(&mut it, "--fault-seed")?,
            "--help" | "-h" => return Err(ParseError(USAGE.to_string())),
            other => return Err(ParseError(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    if let Some(on) = lewi {
        sc.axes.policy[0] = resolve_lewi(&sc.axes.policy[0], on)?;
    }
    sc.validate().map_err(usage_error)?;
    if let Some(n) = args.slow_node {
        if n >= sc.nodes {
            return Err(ParseError(format!(
                "--slow-node {n} out of range 0..{} for {} nodes",
                sc.nodes, sc.nodes
            )));
        }
    }
    Ok(args)
}

fn usage_error(e: tlb_sweep::ScenarioError) -> ParseError {
    ParseError(e.0)
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, ParseError> {
    it.next()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, ParseError>
where
    T::Err: fmt::Display,
{
    value(it, flag)?
        .parse()
        .map_err(|e| ParseError(format!("{flag}: {e}")))
}

/// The Chrome trace-event output path implied by the arguments, if any:
/// an explicit `--chrome PATH`, or the default name in `trace` mode.
pub fn chrome_path(args: &Args) -> Option<String> {
    args.chrome
        .clone()
        .or_else(|| args.trace_mode.then(|| "tlb_trace.chrome.json".to_string()))
}

/// Build the scenario's single point exactly as a sweep would, add the
/// CLI-only bits (`--slow-node`, tracing and its output files), and run;
/// returns the report plus the perfect-balance bound in seconds per
/// iteration.
pub fn run(args: &Args) -> Result<(SimReport, f64), String> {
    let scenario = &args.scenario;
    let mut platform = scenario.platform();
    if let Some(n) = args.slow_node {
        platform.node_speed[n] = 1.8 / 3.0;
    }
    let trace = args.trace_mode || args.trace_csv.is_some() || args.chrome.is_some();
    let (report, perfect) = simulate_point(scenario, &args.point(), &platform, trace)?;
    if let Some(path) = &args.trace_csv {
        tlb_cluster::save_trace_csv(&report.trace, std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = chrome_path(args) {
        tlb_cluster::save_trace_chrome(&report.trace, std::path::Path::new(&path))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok((report, perfect))
}

/// Format the report as human-readable text.
pub fn format_text(args: &Args, report: &SimReport, perfect: f64) -> String {
    let mut out = String::new();
    use std::fmt::Write as _;
    let (scenario, point) = (&args.scenario, args.point());
    let _ = writeln!(
        out,
        "{} on {} nodes ({} appranks), degree {}, policy {}, LeWI {}",
        scenario.app.name(),
        scenario.nodes,
        scenario.nodes * point.appranks_per_node,
        point.degree,
        point.policy,
        if point.policy.lewi() { "on" } else { "off" },
    );
    let _ = writeln!(out, "makespan:            {}", report.makespan);
    let _ = writeln!(
        out,
        "mean iteration:      {:.4} s (perfect balance bound {:.4} s)",
        report.mean_iteration_secs(scenario.iterations / 3),
        perfect
    );
    let _ = writeln!(
        out,
        "offloaded tasks:     {} of {} ({:.1}%)",
        report.offloaded_tasks,
        report.total_tasks,
        100.0 * report.offload_fraction()
    );
    let _ = writeln!(
        out,
        "parallel efficiency: {:.3}",
        report.parallel_efficiency
    );
    let _ = writeln!(
        out,
        "solver runs:         {} ({} total)",
        report.solver_runs, report.solver_time
    );
    let f = &report.faults;
    if *f != FaultStats::default() {
        let _ = writeln!(
            out,
            "faults:              {} injected, {} recovered, {} absorbed",
            f.injected, f.recovered, f.absorbed
        );
        let _ = writeln!(
            out,
            "  workers killed {}, tasks requeued {}, msgs dropped {}, \
             failovers {}, solver fallbacks {}",
            f.workers_killed,
            f.tasks_requeued,
            f.messages_dropped,
            f.message_failovers,
            f.solver_fallbacks
        );
    }
    if !report.trace.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in report.trace.counters.sorted_counts() {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        for (name, value) in report.trace.counters.sorted_gauges() {
            let _ = writeln!(out, "  {name:<28} {value:.3}");
        }
        let _ = writeln!(out, "trace events:        {}", report.trace.log.len());
    }
    out
}

/// A JSON-ready summary of a run (the full trace is exported separately).
pub fn format_json(args: &Args, report: &SimReport, perfect: f64) -> String {
    use tlb_json::Value;
    let (scenario, point) = (&args.scenario, args.point());
    let mut fields = vec![
        ("app", scenario.app.name().into()),
        ("nodes", scenario.nodes.into()),
        (
            "appranks",
            (scenario.nodes * point.appranks_per_node).into(),
        ),
        ("degree", point.degree.into()),
        ("policy", point.policy.canonical().as_str().into()),
        ("lewi", point.policy.lewi().into()),
        ("makespan_s", report.makespan.as_secs_f64().into()),
        (
            "mean_iteration_s",
            report.mean_iteration_secs(scenario.iterations / 3).into(),
        ),
        ("perfect_bound_s", perfect.into()),
        ("offloaded_tasks", report.offloaded_tasks.into()),
        ("total_tasks", report.total_tasks.into()),
        ("parallel_efficiency", report.parallel_efficiency.into()),
        ("solver_runs", report.solver_runs.into()),
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
    let f = &report.faults;
    if *f != FaultStats::default() {
        fields.push((
            "faults",
            Value::object(vec![
                ("injected", f.injected.into()),
                ("recovered", f.recovered.into()),
                ("absorbed", f.absorbed.into()),
                ("workers_killed", f.workers_killed.into()),
                ("tasks_requeued", f.tasks_requeued.into()),
                ("messages_dropped", f.messages_dropped.into()),
                ("message_failovers", f.message_failovers.into()),
                ("solver_fallbacks", f.solver_fallbacks.into()),
            ]),
        ));
    }
    if report.trace.events() {
        fields.push(("trace_events", report.trace.log.len().into()));
        fields.push(("counters", report.trace.counters.to_json()));
    }
    Value::object(fields).to_string_compact()
}

// ---------------------------------------------------------------------------
// `tlb-run sweep`: batch scenario execution on the tlb-sweep engine.
// ---------------------------------------------------------------------------

/// Parsed `tlb-run sweep` command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepArgs {
    /// Path of the scenario JSON file.
    pub scenario: String,
    /// Pool threads to shard points across.
    pub jobs: usize,
    /// Reuse cached point results.
    pub resume: bool,
    /// Where the sweep report JSON is written.
    pub out: String,
    /// Point-result cache directory.
    pub cache_dir: String,
    /// Print the run summary as JSON instead of text.
    pub json: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            scenario: String::new(),
            jobs: 1,
            resume: false,
            out: "tlb_sweep.json".into(),
            cache_dir: "tlb_sweep_cache".into(),
            json: false,
        }
    }
}

/// Usage text of the `sweep` subcommand.
pub const SWEEP_USAGE: &str = "usage: tlb-run sweep --scenario FILE [options]
  --scenario FILE   scenario JSON (strict schema, schema_version 1; see
                    examples/policy_matrix.json)
  --jobs N          points executed concurrently (default 1; the report
                    is bitwise identical at every level)
  --resume          reuse cached point results from --cache-dir
  --out PATH        sweep report path (default tlb_sweep.json)
  --cache-dir PATH  point-result cache (default tlb_sweep_cache)
  --json            print the run summary as JSON
  --help            this text";

/// Parse the argument list following the `sweep` subcommand word.
pub fn parse_sweep_args<I: IntoIterator<Item = String>>(argv: I) -> Result<SweepArgs, ParseError> {
    let mut args = SweepArgs::default();
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scenario" => args.scenario = value(&mut it, "--scenario")?,
            "--jobs" => args.jobs = parse_num(&mut it, "--jobs")?,
            "--resume" => args.resume = true,
            "--out" => args.out = value(&mut it, "--out")?,
            "--cache-dir" => args.cache_dir = value(&mut it, "--cache-dir")?,
            "--json" => args.json = true,
            "--help" | "-h" => return Err(ParseError(SWEEP_USAGE.to_string())),
            other => {
                return Err(ParseError(format!(
                    "unknown sweep flag '{other}'\n{SWEEP_USAGE}"
                )))
            }
        }
    }
    if args.scenario.is_empty() {
        return Err(ParseError(format!(
            "sweep needs --scenario FILE\n{SWEEP_USAGE}"
        )));
    }
    if args.jobs == 0 {
        return Err(ParseError("--jobs must be positive".into()));
    }
    Ok(args)
}

/// Load and strictly parse the scenario file. Any violation — missing
/// file, malformed JSON, unknown key, unsupported schema version, bad
/// axis value — is a usage error (exit 2), exactly like `--faults`
/// validation on the single-run path.
pub fn load_scenario(args: &SweepArgs) -> Result<tlb_sweep::Scenario, ParseError> {
    let text = std::fs::read_to_string(&args.scenario)
        .map_err(|e| ParseError(format!("--scenario {}: {e}", args.scenario)))?;
    tlb_sweep::Scenario::from_json_str(&text)
        .map_err(|e| ParseError(format!("--scenario {}: {e}", args.scenario)))
}

/// Execute a sweep: run the engine, write the report to `args.out`, and
/// return the printable summary.
pub fn run_sweep_cmd(args: &SweepArgs, scenario: &tlb_sweep::Scenario) -> Result<String, String> {
    let opts = tlb_sweep::SweepOptions {
        jobs: args.jobs,
        resume: args.resume,
        cache_dir: Some(std::path::PathBuf::from(&args.cache_dir)),
    };
    let outcome = tlb_sweep::run_sweep(scenario, &opts).map_err(|e| e.to_string())?;
    std::fs::write(&args.out, outcome.report.to_string_pretty())
        .map_err(|e| format!("writing {}: {e}", args.out))?;
    let stats = outcome.stats;
    if args.json {
        use tlb_json::Value;
        Ok(Value::object(vec![
            ("scenario", scenario.name.as_str().into()),
            ("points_total", stats.points_total.into()),
            ("executed", stats.executed.into()),
            ("cache_hits", stats.cache_hits.into()),
            ("jobs", args.jobs.into()),
            ("out", args.out.as_str().into()),
        ])
        .to_string_compact())
    } else {
        Ok(format!(
            "sweep '{}': {} points ({} executed, {} cached) on {} job(s)\nreport: {}",
            scenario.name,
            stats.points_total,
            stats.executed,
            stats.cache_hits,
            args.jobs,
            args.out
        ))
    }
}

// ---------------------------------------------------------------------------
// `tlb-run serve`: the resident sweep-as-a-service daemon (tlb-serve).
// ---------------------------------------------------------------------------

/// Parsed `tlb-run serve` command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Pool threads executing points.
    pub jobs: usize,
    /// Point-result cache directory (shared with `tlb-run sweep`), or
    /// `None` with `--no-cache`.
    pub cache_dir: Option<String>,
    /// Admission-queue bound; requests past it are shed.
    pub queue_bound: usize,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7070".into(),
            jobs: 2,
            cache_dir: Some("tlb_sweep_cache".into()),
            queue_bound: 1024,
        }
    }
}

/// Usage text of the `serve` subcommand.
pub const SERVE_USAGE: &str = "usage: tlb-run serve [options]
  --addr HOST:PORT   bind address (default 127.0.0.1:7070; :0 = ephemeral)
  --jobs N           points executed concurrently (default 2)
  --cache-dir PATH   point-result cache, shared with tlb-run sweep
                     (default tlb_sweep_cache; created if missing)
  --no-cache         disable the result cache (dedup still applies)
  --queue-bound N    admission queue bound; requests that would push the
                     backlog past it are shed with a retry-after reply
                     (default 1024)
  --help             this text

protocol: line-delimited JSON over TCP; one request object in, one or
more reply objects out. cmds: sweep (scenario -> ack, streamed points,
report), stats, ping, shutdown (drains, flushes cache, then acks).";

/// Parse the argument list following the `serve` subcommand word.
pub fn parse_serve_args<I: IntoIterator<Item = String>>(argv: I) -> Result<ServeArgs, ParseError> {
    let mut args = ServeArgs::default();
    let mut it = argv.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => args.addr = value(&mut it, "--addr")?,
            "--jobs" => args.jobs = parse_num(&mut it, "--jobs")?,
            "--cache-dir" => args.cache_dir = Some(value(&mut it, "--cache-dir")?),
            "--no-cache" => args.cache_dir = None,
            "--queue-bound" => args.queue_bound = parse_num(&mut it, "--queue-bound")?,
            "--help" | "-h" => return Err(ParseError(SERVE_USAGE.to_string())),
            other => {
                return Err(ParseError(format!(
                    "unknown serve flag '{other}'\n{SERVE_USAGE}"
                )))
            }
        }
    }
    if args.jobs == 0 {
        return Err(ParseError("--jobs must be positive".into()));
    }
    tlb_serve::validate_addr(&args.addr).map_err(ParseError)?;
    Ok(args)
}

/// The executor provisioning implied by the parsed arguments.
pub fn serve_config(args: &ServeArgs) -> tlb_serve::ExecutorConfig {
    tlb_serve::ExecutorConfig {
        jobs: args.jobs,
        queue_bound: args.queue_bound,
        cache_dir: args.cache_dir.as_ref().map(std::path::PathBuf::from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, ParseError> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_parse() {
        let a = args("").unwrap();
        assert_eq!(a.scenario.app, SweepApp::Synthetic);
        let p = a.point();
        assert_eq!((p.appranks_per_node, p.degree, p.seed), (1, 4, 1));
        assert_eq!(p.policy.name(), "lewi+drom-global");
        assert_eq!(a.scenario.expand().len(), 1);
    }

    #[test]
    fn full_flag_set() {
        let a = args(
            "--app micropp --nodes 8 --appranks-per-node 2 --degree 3 \
             --policy local --lewi off --iterations 9 --machine nord3 \
             --slow-node 0 --seed 5 --json",
        )
        .unwrap();
        assert_eq!(a.scenario.app, SweepApp::Micropp);
        assert_eq!(a.scenario.nodes, 8);
        assert_eq!(a.scenario.iterations, 9);
        assert_eq!(a.scenario.machine, SweepMachine::Nord3);
        let p = a.point();
        assert_eq!((p.appranks_per_node, p.degree, p.seed), (2, 3, 5));
        assert_eq!(p.policy.name(), "drom-local");
        assert_eq!(a.slow_node, Some(0));
        assert!(a.json);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(args("--app warp-drive").is_err());
        assert!(args("--nodes zero").is_err());
        assert!(args("--nodes 0").is_err());
        assert!(args("--degree 9 --nodes 4").is_err());
        assert!(args("--policy sometimes").is_err());
        assert!(args("--imbalance 0.5").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--nodes").is_err());
        // One solver runs; there is no race to switch on.
        let err = args("--portfolio all").unwrap_err();
        assert!(err.0.starts_with("unknown flag '--portfolio'"), "{err}");
    }

    #[test]
    fn slow_node_must_name_an_existing_node() {
        // Regression: `--slow-node 5` on 2 nodes indexed node_speed[5]
        // and panicked (exit 101) instead of a usage error.
        let err = args("--nodes 2 --degree 2 --slow-node 5").unwrap_err();
        assert!(err.0.contains("--slow-node 5 out of range 0..2"), "{err}");
        assert!(args("--slow-node 4").is_err());
        let a = args("--nodes 2 --degree 2 --slow-node 1 --iterations 2 --machine ideal").unwrap();
        assert!(run(&a).is_ok());
    }

    #[test]
    fn policy_flag_takes_registry_names_and_parameters() {
        // Registry names pass straight through.
        let a = args("--policy baseline").unwrap();
        assert_eq!(a.point().policy.name(), "baseline");
        let a = args("--policy drom-global").unwrap();
        assert_eq!(a.point().policy.name(), "drom-global");
        // Parameterized form (no whitespace; the shell would strip it
        // anyway before the arg reaches us).
        let b = args("--policy reactive-offload(hi=0.4,unit=2)").unwrap();
        assert_eq!(
            b.point().policy.canonical(),
            "reactive-offload(hi=0.4,unit=2)"
        );
        let c = args("--policy diffusion(order=2)").unwrap();
        assert_eq!(c.point().policy.canonical(), "diffusion(order=2)");
        // Errors carry the registry's vocabulary.
        let err = args("--policy gossip").unwrap_err();
        assert!(err.0.contains("reactive-offload"), "{err}");
        assert!(args("--policy diffusion(gamma=1)").is_err());
    }

    #[test]
    fn policy_and_lewi_shorthands_resolve_to_registry_names() {
        let resolved = |s: &str| args(s).map(|a| a.point().policy.canonical());
        for (flags, name) in [
            ("--policy off", "lewi"),
            ("--policy local", "lewi+drom-local"),
            ("--policy global", "lewi+drom-global"),
            // All six (policy, lewi) pairs that cross to a sibling...
            ("--policy baseline --lewi on", "lewi"),
            ("--policy lewi --lewi off", "baseline"),
            ("--policy drom-local --lewi on", "lewi+drom-local"),
            ("--policy lewi+drom-local --lewi off", "drom-local"),
            ("--policy drom-global --lewi on", "lewi+drom-global"),
            ("--policy lewi+drom-global --lewi off", "drom-global"),
            // ...the old spellings of baseline and Fig. 9's DROM series,
            // in either flag order...
            ("--policy off --lewi off", "baseline"),
            ("--lewi off --policy global", "drom-global"),
            // ...and a `--lewi` that restates what the policy says.
            ("--policy lewi --lewi on", "lewi"),
            (
                "--policy diffusion(order=2) --lewi on",
                "diffusion(order=2)",
            ),
        ] {
            assert_eq!(resolved(flags).as_deref(), Ok(name), "{flags}");
        }
        let err = resolved("--policy diffusion --lewi off").unwrap_err();
        assert!(err.0.contains("--lewi off"), "{err}");
        for known in known_policy_names() {
            assert!(err.0.contains(known), "should list '{known}': {err}");
        }
        assert!(resolved("--lewi maybe").is_err());
    }

    #[test]
    fn reports_name_the_policy_that_ran() {
        // Regression: `--policy baseline --lewi on` ran LeWI but was
        // reported (and would have been cached) as "baseline".
        let flags = "--nodes 2 --degree 2 --iterations 2 --machine ideal";
        let a = args(&format!("{flags} --policy baseline --lewi on")).unwrap();
        let b = args(&format!("{flags} --policy lewi")).unwrap();
        let (ra, pa) = run(&a).unwrap();
        let (rb, pb) = run(&b).unwrap();
        assert_eq!(format_json(&a, &ra, pa), format_json(&b, &rb, pb));
        let json = tlb_json::parse(&format_json(&a, &ra, pa)).unwrap();
        assert_eq!(json.get("policy").as_str(), Some("lewi"));
        assert_eq!(json.get("lewi").as_bool(), Some(true));
        assert_eq!(json.get("app").as_str(), Some("synthetic"));
        let text = format_text(&a, &ra, pa);
        assert!(
            text.starts_with("synthetic on 2 nodes (2 appranks), degree 2, policy lewi, LeWI on"),
            "{text}"
        );
    }

    /// The scenario JSON a user would hand `tlb-run sweep` to get the
    /// same run as `flags`.
    fn one_point_scenario(app: &str, machine: &str, policy: &str) -> Scenario {
        Scenario::from_json_str(&format!(
            r#"{{"schema_version": 1, "name": "eq", "app": "{app}", "machine": "{machine}",
                "nodes": 2, "iterations": 3, "imbalance": 2.5,
                "axes": {{"appranks_per_node": [2], "degree": [2],
                          "policy": ["{policy}"], "seed": [7]}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn single_run_equals_the_one_point_sweep_for_every_app() {
        for (app, machine, policy) in [
            ("synthetic", "mn4", "lewi+drom-global"),
            ("micropp", "ideal", "drom-global"),
            ("nbody", "nord3", "lewi+drom-local"),
            ("stencil", "ideal", "lewi"),
            ("amr", "ideal", "reactive-offload"),
        ] {
            let a = args(&format!(
                "--app {app} --machine {machine} --nodes 2 --iterations 3 --imbalance 2.5 \
                 --appranks-per-node 2 --degree 2 --policy {policy} --seed 7"
            ))
            .unwrap();
            let (report, perfect) = run(&a).unwrap();
            let cli = tlb_json::parse(&format_json(&a, &report, perfect)).unwrap();
            let sc = one_point_scenario(app, machine, policy);
            let swept = tlb_sweep::run_point(&sc, &sc.expand()[0]).unwrap();
            // Every key the report shares with the sweep record holds
            // the same value.
            let shared: Vec<&str> = cli
                .as_object()
                .unwrap()
                .iter()
                .map(|(key, _)| key.as_str())
                .filter(|&key| !swept.get(key).is_null())
                .collect();
            assert_eq!(shared.len(), 11, "{app}: shared keys {shared:?}");
            for key in shared {
                assert_eq!(
                    cli.get(key).to_string_compact(),
                    swept.get(key).to_string_compact(),
                    "{app}: {key}"
                );
            }
            // The flags describe the same point: same cache identity.
            assert_eq!(
                tlb_sweep::point_key(&a.scenario, &a.point()),
                tlb_sweep::point_key(&sc, &sc.expand()[0]),
                "{app}: point key"
            );
        }
    }

    #[test]
    fn amr_app_runs_end_to_end() {
        let a = args(
            "--app amr --nodes 2 --degree 2 --iterations 4 --machine ideal \
             --policy reactive-offload",
        )
        .unwrap();
        let (report, perfect) = run(&a).unwrap();
        assert_eq!(report.iteration_times.len(), 4);
        assert!(perfect > 0.0);
        // Deterministic: the same arguments reproduce the same report.
        let (again, _) = run(&a).unwrap();
        assert_eq!(report.makespan, again.makespan);
        assert_eq!(report.iteration_times, again.iteration_times);
        let text = format_text(&a, &report, perfect);
        assert!(text.contains("policy reactive-offload"), "{text}");
    }

    #[test]
    fn help_prints_usage() {
        let err = args("--help").unwrap_err();
        assert!(err.0.contains("usage: tlb-run"));
    }

    #[test]
    fn end_to_end_synthetic_run() {
        let a =
            args("--app synthetic --nodes 4 --degree 2 --iterations 3 --machine ideal").unwrap();
        let (report, perfect) = run(&a).unwrap();
        assert_eq!(report.iteration_times.len(), 3);
        assert!(perfect > 0.0);
        assert!(report.makespan.as_secs_f64() >= perfect * 2.9); // 3 iterations
        let text = format_text(&a, &report, perfect);
        assert!(text.contains("makespan"));
        let json = format_json(&a, &report, perfect);
        let parsed = tlb_json::parse(&json).unwrap();
        assert_eq!(parsed.get("nodes").as_usize(), Some(4));
    }

    #[test]
    fn trace_subcommand_parses_and_defaults_chrome() {
        let a = args("trace --nodes 2 --degree 2").unwrap();
        assert!(a.trace_mode);
        assert_eq!(chrome_path(&a).as_deref(), Some("tlb_trace.chrome.json"));
        let b = args("trace --chrome my.json").unwrap();
        assert_eq!(chrome_path(&b).as_deref(), Some("my.json"));
        // "trace" is only a subcommand in leading position.
        assert!(args("--nodes 2 trace").is_err());
        let c = args("--nodes 2 --degree 2").unwrap();
        assert!(!c.trace_mode);
        assert_eq!(chrome_path(&c), None);
    }

    #[test]
    fn traced_run_writes_chrome_and_reports_counters() {
        let dir = std::env::temp_dir().join("tlb_cli_chrome_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.chrome.json");
        let mut a = args("trace --nodes 2 --degree 2 --iterations 2 --machine ideal").unwrap();
        a.chrome = Some(path.to_string_lossy().into_owned());
        a.json = true;
        let (report, perfect) = run(&a).unwrap();
        let chrome = std::fs::read_to_string(&path).unwrap();
        let parsed = tlb_json::parse(&chrome).unwrap();
        assert!(!parsed.get("traceEvents").as_array().unwrap().is_empty());
        let text = format_text(&a, &report, perfect);
        assert!(text.contains("counters:"));
        assert!(text.contains("tasks_completed"));
        let json = tlb_json::parse(&format_json(&a, &report, perfect)).unwrap();
        let counts = json.get("counters").get("counters");
        assert_eq!(
            counts.get("tasks_completed").as_u64(),
            Some(report.total_tasks as u64)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn untraced_run_reports_no_counters() {
        let a = args("--nodes 2 --degree 2 --iterations 2 --machine ideal").unwrap();
        let (report, perfect) = run(&a).unwrap();
        assert!(!format_text(&a, &report, perfect).contains("counters:"));
        let json = tlb_json::parse(&format_json(&a, &report, perfect)).unwrap();
        assert!(json.get("counters").is_null());
    }

    #[test]
    fn fault_flags_parse_and_validate() {
        let a = args("--faults straggler@0.5,node=1,slow=3 --fault-seed 7").unwrap();
        assert_eq!(
            a.scenario.faults.as_deref(),
            Some("straggler@0.5,node=1,slow=3")
        );
        assert_eq!(a.scenario.fault_seed, 7);
        // Spec errors are parse errors (exit 2), not run errors.
        let err = args("--faults nonsense@3").unwrap_err();
        assert!(err.0.contains("faults:"), "{err}");
        assert!(args("--faults loss@0,rate=1.5").is_err());
        assert!(args("--faults").is_err());
        // Values no run can survive are usage errors too, with the clause
        // named: these reached the simulator and panicked (exit 101),
        // failed late (exit 1) or were silently read as 0.
        for (spec, clause) in [
            ("straggler@0.1,node=0,slow=inf", "straggler@0.1: slow"),
            ("straggler@0.1,node=0,slow=nan", "straggler@0.1: slow"),
            ("straggler@0.1,node=0,for=nan", "straggler@0.1: 'for'"),
            (
                "straggler@0.1,node=0,slow=1e200;straggler@0.2,node=0,slow=1e200",
                "straggler@0.1: slow",
            ),
        ] {
            let err = args(&format!("--faults {spec}")).unwrap_err();
            assert!(err.0.contains("faults:") && err.0.contains(clause), "{err}");
        }
        // Defaults: no plan, seed 1.
        let d = args("").unwrap();
        assert_eq!(d.scenario.faults, None);
        assert_eq!(d.scenario.fault_seed, 1);
    }

    #[test]
    fn faulty_run_reports_fault_stats() {
        let mut a = args(
            "--app synthetic --nodes 4 --degree 2 --iterations 3 --machine ideal \
             --faults straggler@0.2,node=1,slow=3,for=0.5;outage@0.1,for=5",
        )
        .unwrap();
        let (report, perfect) = run(&a).unwrap();
        let f = &report.faults;
        assert!(f.injected > 0, "faults should fire: {f:?}");
        assert_eq!(f.injected, f.recovered + f.absorbed, "{f:?}");
        let text = format_text(&a, &report, perfect);
        assert!(text.contains("faults:"), "{text}");
        a.json = true;
        let json = tlb_json::parse(&format_json(&a, &report, perfect)).unwrap();
        assert_eq!(
            json.get("faults").get("injected").as_usize(),
            Some(f.injected)
        );

        // Fault-free runs keep the report clean of fault noise.
        let clean =
            args("--app synthetic --nodes 4 --degree 2 --iterations 3 --machine ideal").unwrap();
        let (r2, p2) = run(&clean).unwrap();
        assert_eq!(r2.faults, tlb_cluster::FaultStats::default());
        assert!(!format_text(&clean, &r2, p2).contains("faults:"));
        let j2 = tlb_json::parse(&format_json(&clean, &r2, p2)).unwrap();
        assert!(j2.get("faults").is_null());
    }

    #[test]
    fn trace_csv_is_written() {
        let dir = std::env::temp_dir().join("tlb_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.csv");
        let mut a = args("--nodes 2 --degree 2 --iterations 2 --machine ideal").unwrap();
        a.trace_csv = Some(path.to_string_lossy().into_owned());
        run(&a).unwrap();
        let csv = std::fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("kind,node,proc"));
        std::fs::remove_file(&path).ok();
    }

    fn sweep_args(s: &str) -> Result<SweepArgs, ParseError> {
        parse_sweep_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn sweep_flags_parse() {
        let a = sweep_args("--scenario sc.json --jobs 8 --resume --out r.json --json").unwrap();
        assert_eq!(a.scenario, "sc.json");
        assert_eq!(a.jobs, 8);
        assert!(a.resume);
        assert_eq!(a.out, "r.json");
        assert_eq!(a.cache_dir, "tlb_sweep_cache");
        assert!(a.json);
    }

    #[test]
    fn sweep_usage_errors_are_parse_errors() {
        // All of these exit 2 through main, like --faults validation.
        assert!(sweep_args("").is_err(), "missing --scenario");
        assert!(sweep_args("--scenario sc.json --jobs 0").is_err());
        assert!(sweep_args("--scenario sc.json --frobnicate").is_err());
        assert!(sweep_args("--help")
            .unwrap_err()
            .0
            .contains("usage: tlb-run sweep"));
    }

    #[test]
    fn sweep_scenario_violations_are_parse_errors() {
        let dir = std::env::temp_dir().join(format!("tlb_cli_sweep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        let path_str = path.to_string_lossy().into_owned();

        let mut a = SweepArgs {
            scenario: "does-not-exist.json".into(),
            ..SweepArgs::default()
        };
        assert!(load_scenario(&a).is_err());

        std::fs::write(
            &path,
            r#"{"schema_version": 1, "name": "x", "app": "synthetic", "oops": 1}"#,
        )
        .unwrap();
        a.scenario = path_str;
        let err = load_scenario(&a).unwrap_err();
        assert!(err.0.contains("unknown key 'oops'"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_cmd_runs_and_writes_report() {
        let dir = std::env::temp_dir().join(format!("tlb_cli_sweep_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sc_path = dir.join("sc.json");
        std::fs::write(
            &sc_path,
            r#"{"schema_version": 1, "name": "cli-smoke", "app": "synthetic",
                "machine": "ideal", "nodes": 2, "iterations": 2,
                "axes": {"policy": ["baseline", "lewi"]}}"#,
        )
        .unwrap();
        let a = SweepArgs {
            scenario: sc_path.to_string_lossy().into_owned(),
            jobs: 2,
            out: dir.join("report.json").to_string_lossy().into_owned(),
            cache_dir: dir.join("cache").to_string_lossy().into_owned(),
            json: true,
            ..SweepArgs::default()
        };
        let scenario = load_scenario(&a).unwrap();
        let summary = tlb_json::parse(&run_sweep_cmd(&a, &scenario).unwrap()).unwrap();
        assert_eq!(summary.get("points_total").as_usize(), Some(2));
        assert_eq!(summary.get("executed").as_usize(), Some(2));
        assert_eq!(summary.get("cache_hits").as_usize(), Some(0));
        let report =
            tlb_json::parse(&std::fs::read_to_string(dir.join("report.json")).unwrap()).unwrap();
        assert_eq!(report.get("points").as_array().unwrap().len(), 2);

        // Resume: everything cached, byte-identical report.
        let resumed = SweepArgs {
            resume: true,
            ..a.clone()
        };
        let first = std::fs::read_to_string(dir.join("report.json")).unwrap();
        let summary = tlb_json::parse(&run_sweep_cmd(&resumed, &scenario).unwrap()).unwrap();
        assert_eq!(summary.get("executed").as_usize(), Some(0));
        assert_eq!(summary.get("cache_hits").as_usize(), Some(2));
        assert_eq!(
            first,
            std::fs::read_to_string(dir.join("report.json")).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_cmd_creates_missing_nested_cache_dir() {
        // Regression: `--cache-dir` pointing at a path whose parents do
        // not exist yet must be created, not rejected.
        let dir = std::env::temp_dir().join(format!("tlb_cli_sweep_mkdir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sc_path = dir.join("sc.json");
        std::fs::write(
            &sc_path,
            r#"{"schema_version": 1, "name": "mkdir", "app": "synthetic",
                "machine": "ideal", "nodes": 2, "iterations": 2,
                "axes": {"policy": ["baseline"]}}"#,
        )
        .unwrap();
        let nested = dir.join("deeply/nested/cache");
        assert!(!nested.exists());
        let a = SweepArgs {
            scenario: sc_path.to_string_lossy().into_owned(),
            out: dir.join("report.json").to_string_lossy().into_owned(),
            cache_dir: nested.to_string_lossy().into_owned(),
            ..SweepArgs::default()
        };
        let scenario = load_scenario(&a).unwrap();
        run_sweep_cmd(&a, &scenario).unwrap();
        assert!(nested.is_dir(), "nested cache dir was not created");
        assert_eq!(
            std::fs::read_dir(&nested).unwrap().count(),
            1,
            "expected exactly one cached point"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn serve_args(s: &str) -> Result<ServeArgs, ParseError> {
        parse_serve_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn serve_flags_parse() {
        let a = serve_args("").unwrap();
        assert_eq!(a.addr, "127.0.0.1:7070");
        assert_eq!(a.jobs, 2);
        assert_eq!(a.cache_dir.as_deref(), Some("tlb_sweep_cache"));
        assert_eq!(a.queue_bound, 1024);

        let b =
            serve_args("--addr 127.0.0.1:0 --jobs 8 --cache-dir /tmp/c --queue-bound 16").unwrap();
        assert_eq!(b.addr, "127.0.0.1:0");
        assert_eq!(b.jobs, 8);
        assert_eq!(b.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(b.queue_bound, 16);
        let cfg = serve_config(&b);
        assert_eq!(cfg.jobs, 8);
        assert_eq!(cfg.queue_bound, 16);
        assert_eq!(cfg.cache_dir, Some(std::path::PathBuf::from("/tmp/c")));

        let c = serve_args("--no-cache").unwrap();
        assert_eq!(c.cache_dir, None);
        assert_eq!(serve_config(&c).cache_dir, None);
    }

    #[test]
    fn serve_usage_errors_are_parse_errors() {
        assert!(serve_args("--jobs 0").is_err());
        assert!(serve_args("--addr not-an-address").is_err());
        assert!(serve_args("--frobnicate").is_err());
        assert!(serve_args("--addr").is_err());
        assert!(serve_args("--help")
            .unwrap_err()
            .0
            .contains("usage: tlb-run serve"));
    }
}
