//! Experiment harness behind the `figures` binary, which regenerates
//! every table and figure of the paper's evaluation and checks each
//! reproduced claim where it is measured:
//!
//! ```console
//! cargo run --release -p tlb-bench --bin figures -- [--quick] [ID ...]
//! ```
//!
//! Results print as aligned tables and are written as JSON under
//! `results/` (full effort) or `results/quick/` (`--quick`), so
//! EXPERIMENTS.md can cite exact numbers and CI can fail on drift. This
//! library holds what the figures share: [`Experiment`] with its
//! [`Experiment::claim`]s, the [`sweep`] runner, the recurring set-ups
//! ([`micropp_mn4`], [`nbody_slow_node`]) and [`config`].

#![forbid(unsafe_code)]

use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;
use tlb_apps::micropp::{micropp_workload, MicroPpConfig};
use tlb_apps::nbody::{NBodyConfig, NBodyWorkload};
use tlb_cluster::{ClusterSim, RunSpec, SimReport, SpecWorkload, Workload};
use tlb_core::{BalanceConfig, Platform, PolicySpec};

/// Scale factor for quick runs (`--quick` divides iteration counts and
/// sweep resolution so a figure regenerates in seconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Full paper-scale regeneration.
    Full,
    /// Reduced iterations/resolution: what CI regenerates into
    /// `results/quick/` and diffs against the checked-in files.
    Quick,
}

impl Effort {
    /// Parse from process args: `--quick` selects [`Effort::Quick`].
    pub fn from_args() -> Effort {
        if std::env::args().any(|a| a == "--quick") {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// Pick `full` or `quick` depending on the effort.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Effort::Full => full,
            Effort::Quick => quick,
        }
    }
}

/// One measured point of an experiment series.
#[derive(Clone, Debug)]
pub struct Point {
    /// x-coordinate (nodes, imbalance, time, …).
    pub x: f64,
    /// Measured value (usually seconds).
    pub y: f64,
}

/// One named series of an experiment (a line in the paper's figure).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label ("baseline", "degree 4", "perfect", …).
    pub label: String,
    /// The measured points.
    pub points: Vec<Point>,
}

/// Outcome of checking one [`Claim`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Measured inside the accept band.
    Ok,
    /// Measured outside the accept band.
    Fail,
    /// Not measured in this run, and why.
    Skipped(&'static str),
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Status::Ok => f.write_str("ok"),
            Status::Fail => f.write_str("FAIL"),
            Status::Skipped(why) => write!(f, "skipped({why})"),
        }
    }
}

/// One reproduced claim of the paper: what we measured, what the paper
/// reports, and the band inside which we call it reproduced.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What is claimed ("32 nodes: reduction vs DLB (%)", …).
    pub label: String,
    /// The measured value; `None` when its x-point is not sampled at
    /// this effort.
    pub measured: Option<f64>,
    /// The paper's value (or the bound it states).
    pub paper: f64,
    /// The accept band, as written in the source (`40..55`, `..=10`).
    pub accept: String,
    /// Verdict.
    pub status: Status,
    /// One of the §1/§8 headline numbers (gathered into `headline`).
    pub headline: bool,
}

impl Claim {
    /// Tag as a headline claim.
    pub fn headline(&mut self) {
        self.headline = true;
    }
}

impl std::fmt::Display for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let measured = self.measured.map_or("-".to_string(), |m| format!("{m:.4}"));
        write!(
            f,
            "[{}] {}: measured {measured}, paper {}, accept {}",
            self.status, self.label, self.paper, self.accept
        )
    }
}

/// A complete regenerated figure/table.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// Experiment id ("fig06a", …).
    pub id: String,
    /// Human description.
    pub title: String,
    /// Axis label for x.
    pub x_label: String,
    /// Axis label for y.
    pub y_label: String,
    /// All series.
    pub series: Vec<Series>,
    /// Free-form notes (observations, paper comparison).
    pub notes: Vec<String>,
    /// The paper's claims this experiment reproduces, checked.
    pub claims: Vec<Claim>,
}

impl Experiment {
    /// An empty experiment.
    pub fn new(id: &str, title: &str, x_label: &str, y_label: &str) -> Self {
        Experiment {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Append a series.
    pub fn push_series(&mut self, label: impl Into<String>, points: Vec<Point>) {
        self.series.push(Series {
            label: label.into(),
            points,
        });
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The value of series `label` at `x`, if that point was sampled.
    pub fn at(&self, label: &str, x: f64) -> Option<f64> {
        let series = self.series.iter().find(|s| s.label == label)?;
        series
            .points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// Series `num` over series `den` at `x`, if both were sampled there.
    pub fn ratio(&self, num: &str, den: &str, x: f64) -> Option<f64> {
        Some(self.at(num, x)? / self.at(den, x)?)
    }

    /// State one reproduced claim, beside the series it reads: `ok` when
    /// `measured` lies in `accept`, `FAIL` when it does not, and
    /// `skipped(full effort only)` when `measured` is `None` because its
    /// x-point is only sampled at full effort.
    pub fn claim(
        &mut self,
        label: impl Into<String>,
        measured: Option<f64>,
        paper: f64,
        accept: impl RangeBounds<f64>,
    ) -> &mut Claim {
        let status = match measured {
            None => Status::Skipped("full effort only"),
            Some(m) if accept.contains(&m) => Status::Ok,
            Some(_) => Status::Fail,
        };
        let lo = match accept.start_bound() {
            Bound::Included(v) | Bound::Excluded(v) => v.to_string(),
            Bound::Unbounded => String::new(),
        };
        let hi = match accept.end_bound() {
            Bound::Included(v) => format!("={v}"),
            Bound::Excluded(v) => v.to_string(),
            Bound::Unbounded => String::new(),
        };
        self.claims.push(Claim {
            label: label.into(),
            measured,
            paper,
            accept: format!("{lo}..{hi}"),
            status,
            headline: false,
        });
        self.claims.last_mut().expect("just pushed")
    }

    /// Render an aligned text table: one row per x, one column per series.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = write!(out, "{:>12}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>14}", s.label);
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{x:>12.3}");
            for s in &self.series {
                match s.points.iter().find(|p| (p.x - x).abs() < 1e-12) {
                    Some(p) => {
                        let _ = write!(out, " {:>14.4}", p.y);
                    }
                    None => {
                        let _ = write!(out, " {:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        for c in &self.claims {
            let _ = writeln!(out, "claim: {c}");
        }
        out
    }

    /// The experiment as a JSON value (what [`Experiment::save`] writes).
    pub fn to_json(&self) -> tlb_json::Value {
        use tlb_json::Value;
        let point = |p: &Point| Value::object(vec![("x", p.x.into()), ("y", p.y.into())]);
        let series = |s: &Series| {
            Value::object(vec![
                ("label", s.label.as_str().into()),
                ("points", Value::Array(s.points.iter().map(point).collect())),
            ])
        };
        let claim = |c: &Claim| {
            Value::object(vec![
                ("label", c.label.as_str().into()),
                ("measured", c.measured.map_or(Value::Null, Value::from)),
                ("paper", c.paper.into()),
                ("accept", c.accept.as_str().into()),
                ("status", c.status.to_string().into()),
                ("headline", c.headline.into()),
            ])
        };
        Value::object(vec![
            ("id", self.id.as_str().into()),
            ("title", self.title.as_str().into()),
            ("x_label", self.x_label.as_str().into()),
            ("y_label", self.y_label.as_str().into()),
            (
                "series",
                Value::Array(self.series.iter().map(series).collect()),
            ),
            (
                "notes",
                Value::Array(self.notes.iter().map(|n| n.as_str().into()).collect()),
            ),
            (
                "claims",
                Value::Array(self.claims.iter().map(claim).collect()),
            ),
        ])
    }

    /// Write the experiment JSON to `<dir>/<id>.json`.
    pub fn save(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json().to_string_pretty())?;
        Ok(path)
    }
}

/// `(checked, failed, skipped)` over every claim of `experiments`; the
/// `figures` run fails (exit 1) when `failed > 0`.
pub fn tally(experiments: &[Experiment]) -> (usize, usize, usize) {
    let claims = experiments.iter().flat_map(|e| &e.claims);
    let (mut checked, mut failed, mut skipped) = (0, 0, 0);
    for claim in claims {
        match claim.status {
            Status::Ok => checked += 1,
            Status::Fail => {
                checked += 1;
                failed += 1;
            }
            Status::Skipped(_) => skipped += 1,
        }
    }
    (checked, failed, skipped)
}

/// Directory for JSON results: `results/` at full effort and
/// `results/quick/` under `--quick`, so a quick run never overwrites the
/// paper-scale evidence. The root is the workspace's when `manifest_dir`
/// (`CARGO_MANIFEST_DIR`'s value) is set and not empty, else the cwd.
pub fn results_dir(effort: Effort, manifest_dir: Option<&std::ffi::OsStr>) -> PathBuf {
    let root = manifest_dir
        .filter(|d| !d.is_empty())
        .map(|d| PathBuf::from(d).join("../../results"))
        .unwrap_or_else(|| PathBuf::from("results"));
    effort.pick(root.clone(), root.join("quick"))
}

/// The configuration a figure's line runs: a registry policy at an
/// offloading degree, every other knob at its default.
pub fn config(policy: &str, degree: usize) -> BalanceConfig {
    let spec = PolicySpec::named(policy).expect("figures name registered policies");
    BalanceConfig::default()
        .with_degree(degree)
        .with_policy(spec)
}

/// Run one simulation, with Paraver-style timelines when `trace` is set
/// (the trace figures).
pub fn run<W: Workload>(
    platform: &Platform,
    config: &BalanceConfig,
    workload: W,
    trace: bool,
) -> SimReport {
    ClusterSim::execute(RunSpec::new(platform, config, workload).trace(trace))
        .expect("experiment configuration must be valid")
}

/// The perfect-balance bound of a workload on a platform: the nominal
/// work of its first iteration spread over the effective capacity.
pub fn perfect_bound<W: Workload>(mut probe: W, platform: &Platform) -> f64 {
    let work: f64 = (0..probe.appranks())
        .map(|r| probe.tasks(r, 0).iter().map(|t| t.duration).sum::<f64>())
        .sum();
    work / platform.effective_capacity()
}

/// The one `series × x` loop of the scaling and sweep figures. For every
/// `x`, `setup` gives the platform and a factory of fresh workloads;
/// every line whose degree fits the platform runs once and contributes
/// its mean steady-state iteration time (after `skip` warm-up ones).
/// Series are appended to `exp` in `lines` order, followed — when `bound`
/// names it — by the perfect-balance bound at every `x`.
pub fn sweep<W: Workload, F: Fn() -> W>(
    exp: &mut Experiment,
    lines: &[(impl AsRef<str>, BalanceConfig)],
    bound: Option<&str>,
    skip: usize,
    xs: &[f64],
    setup: impl Fn(f64) -> (Platform, F),
) {
    let mut series: Vec<Vec<Point>> = vec![Vec::new(); lines.len()];
    let mut bounds = Vec::new();
    for &x in xs {
        let (platform, workload) = setup(x);
        for ((label, config), points) in lines.iter().zip(&mut series) {
            if config.degree > platform.nodes {
                continue;
            }
            let y = run(&platform, config, workload(), false).mean_iteration_secs(skip);
            eprintln!("{} x={x} {}: {y:.4}", exp.id, label.as_ref());
            points.push(Point { x, y });
        }
        if bound.is_some() {
            let y = perfect_bound(workload(), &platform);
            bounds.push(Point { x, y });
        }
    }
    for ((label, _), points) in lines.iter().zip(series) {
        exp.push_series(label.as_ref(), points);
    }
    if let Some(label) = bound {
        exp.push_series(label, bounds);
    }
}

/// Recurring set-up: MicroPP weak scaling on MareNostrum 4, `per_node`
/// appranks on each of `nodes` nodes.
pub fn micropp_mn4(nodes: usize, per_node: usize, iterations: usize) -> (Platform, SpecWorkload) {
    let mut cfg = MicroPpConfig::new(nodes * per_node);
    cfg.iterations = iterations;
    (Platform::mn4(nodes), micropp_workload(&cfg))
}

/// Recurring set-up: n-body (Barnes–Hut + ORB) on Nord3, two appranks
/// per node, node 0 at 1.8 GHz against 3.0 GHz peers.
pub fn nbody_slow_node(nodes: usize, effort: Effort) -> (Platform, impl Fn() -> NBodyWorkload) {
    let ranks = nodes * 2;
    let mut cfg = NBodyConfig::new(effort.pick(40_000, 10_000) * ranks, ranks);
    cfg.force_cost = 2e-6;
    cfg.iterations = effort.pick(8, 4);
    (Platform::nord3(nodes, &[0]), move || {
        NBodyWorkload::new(cfg.clone())
    })
}

/// Render a piecewise-constant timeline as an ASCII bar: one character
/// per time bucket, eight intensity levels from ' ' to '█' scaled to
/// `max_value`. The visual counterpart of one Paraver row in the paper's
/// Figs. 5 and 9.
pub fn render_timeline(
    timeline: &tlb_des::Timeline,
    end: tlb_des::SimTime,
    width: usize,
    max_value: f64,
) -> String {
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    assert!(width >= 2, "trace bar needs at least two columns");
    let mut out = String::with_capacity(width * 3);
    for i in 0..width {
        let from = tlb_des::SimTime::from_nanos(end.as_nanos() * i as u64 / width as u64);
        let to = tlb_des::SimTime::from_nanos(end.as_nanos() * (i as u64 + 1) / width as u64);
        let mean = if to > from {
            timeline.mean(from, to)
        } else {
            0.0
        };
        let level = if max_value <= 0.0 {
            0
        } else {
            ((mean / max_value * 8.0).round() as usize).min(8)
        };
        out.push(LEVELS[level]);
    }
    out
}

/// Render every worker's busy-core timeline of a trace as labelled ASCII
/// rows, grouped by node — a terminal rendition of the paper's trace
/// figures.
pub fn render_trace(trace: &tlb_cluster::Trace, end: tlb_des::SimTime, width: usize) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let max = trace
        .busy
        .iter()
        .flatten()
        .flat_map(|tl| tl.samples().iter().map(|s| s.value))
        .fold(1.0f64, f64::max);
    for (node, workers) in trace.busy.iter().enumerate() {
        let _ = writeln!(out, "node {node}:");
        for (proc, tl) in workers.iter().enumerate() {
            let apprank = trace.worker_apprank[node][proc];
            let _ = writeln!(
                out,
                "  a{apprank:<3} |{}|",
                render_timeline(tl, end, width, max)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut e = Experiment::new("t1", "demo", "nodes", "seconds");
        e.push_series(
            "a",
            vec![Point { x: 2.0, y: 1.5 }, Point { x: 4.0, y: 1.0 }],
        );
        e.push_series("b", vec![Point { x: 2.0, y: 2.5 }]);
        e.note("hello");
        let t = e.render_table();
        assert!(t.contains("# t1"));
        assert!(t.contains("note: hello"));
        // Missing point renders as '-'.
        assert!(t.lines().any(|l| l.contains('-') && l.contains("4.000")));
    }

    #[test]
    fn results_dir_ignores_an_empty_manifest_dir() {
        use std::ffi::OsStr;
        let here = PathBuf::from("results");
        for unset in [None, Some(OsStr::new(""))] {
            assert_eq!(results_dir(Effort::Full, unset), here);
            assert_eq!(results_dir(Effort::Quick, unset), here.join("quick"));
        }
        let crate_dir = Some(OsStr::new("/src/crates/bench"));
        assert_eq!(
            results_dir(Effort::Quick, crate_dir),
            PathBuf::from("/src/crates/bench/../../results/quick")
        );
    }

    #[test]
    fn effort_pick() {
        assert_eq!(Effort::Full.pick(10, 2), 10);
        assert_eq!(Effort::Quick.pick(10, 2), 2);
    }

    #[test]
    fn claim_status_follows_the_accept_band() {
        let mut e = Experiment::new("t2", "demo", "nodes", "seconds");
        e.push_series("dlb", vec![Point { x: 8.0, y: 2.0 }]);
        let at8 = e.at("dlb", 8.0);
        let at32 = e.at("dlb", 32.0);
        assert_eq!((at8, at32), (Some(2.0), None));
        assert_eq!(e.claim("in band", at8, 2.0, 1.5..2.5).status, Status::Ok);
        assert_eq!(e.claim("edge", at8, 2.0, ..2.0).status, Status::Fail);
        assert_eq!(e.claim("closed", at8, 2.0, ..=2.0).status, Status::Ok);
        assert_eq!(e.claim("out", at8, 9.0, 8.0..).status, Status::Fail);
        let absent = e.claim("absent", at32, 2.0, 1.5..2.5).status;
        assert_eq!(absent, Status::Skipped("full effort only"));
        // Four evaluated, two of them out of band (a failing run), one skipped.
        assert_eq!(tally(&[e.clone()]), (4, 2, 1));
        let table = e.render_table();
        assert!(table.contains("claim: [ok] in band: measured 2.0000, paper 2, accept 1.5..2.5"));
        assert!(table.contains("claim: [FAIL] out:"));
        assert!(table.contains("claim: [skipped(full effort only)] absent: measured -"));
    }

    #[test]
    fn claims_round_trip_through_json() {
        let mut e = Experiment::new("t3", "demo", "x", "y");
        e.claim("reduction (%)", Some(0.5), 2.0, 1.0..3.0)
            .headline();
        e.claim("gap (%)", None, 4.0, ..=4.0);
        let v = tlb_json::parse(&e.to_json().to_string_pretty()).unwrap();
        let claims = v.get("claims").as_array().unwrap();
        assert_eq!(claims.len(), 2);
        assert_eq!(claims[0].get("label").as_str(), Some("reduction (%)"));
        assert_eq!(claims[0].get("measured").as_f64(), Some(0.5));
        assert_eq!(claims[0].get("paper").as_f64(), Some(2.0));
        assert_eq!(claims[0].get("accept").as_str(), Some("1..3"));
        assert_eq!(claims[0].get("status").as_str(), Some("FAIL"));
        assert_eq!(claims[0].get("headline").as_bool(), Some(true));
        assert!(claims[1].get("measured").is_null());
        assert_eq!(claims[1].get("accept").as_str(), Some("..=4"));
        assert_eq!(
            claims[1].get("status").as_str(),
            Some("skipped(full effort only)")
        );
        assert_eq!(claims[1].get("headline").as_bool(), Some(false));
    }
}

#[cfg(test)]
mod render_tests {
    use super::*;
    use tlb_des::{SimTime, Timeline};

    #[test]
    fn timeline_bar_scales_levels() {
        let mut tl = Timeline::new();
        tl.record(SimTime::ZERO, 0.0);
        tl.record(SimTime::from_secs(1), 4.0);
        let bar = render_timeline(&tl, SimTime::from_secs(2), 10, 4.0);
        assert_eq!(bar.chars().count(), 10);
        assert!(bar.starts_with(' '), "starts idle: {bar:?}");
        assert!(bar.ends_with('█'), "ends saturated: {bar:?}");
    }

    #[test]
    fn zero_max_renders_blank() {
        let mut tl = Timeline::new();
        tl.record(SimTime::ZERO, 1.0);
        let bar = render_timeline(&tl, SimTime::from_secs(1), 5, 0.0);
        assert_eq!(bar, "     ");
    }
}
