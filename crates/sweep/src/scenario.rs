//! The declarative sweep description and its strict, versioned schema.

use std::fmt;
use tlb_core::{BalanceConfig, Platform, PolicySpec};
use tlb_json::Value;

/// Version of the scenario JSON schema this build reads and writes.
/// Bumped whenever a field changes meaning; a mismatch is a parse error
/// rather than a silently different experiment.
pub const SCHEMA_VERSION: u64 = 1;

/// Most grid points one scenario may expand to: [`Scenario::validate`]
/// refuses a larger axis product, so one request cannot ask the engine
/// or the daemon for an unbounded expansion.
pub const MAX_POINTS: usize = 10_000;

/// Which application a scenario runs (`tlb-run --app` parses into this
/// too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepApp {
    /// Configurable-imbalance synthetic benchmark.
    Synthetic,
    /// MicroPP-style FE workload.
    Micropp,
    /// Barnes–Hut n-body with ORB repartitioning.
    Nbody,
    /// Halo-exchange stencil.
    Stencil,
    /// AMR-style time-varying imbalance: the hot ranks move mid-run.
    Amr,
}

impl SweepApp {
    /// Canonical schema string.
    pub fn name(self) -> &'static str {
        match self {
            SweepApp::Synthetic => "synthetic",
            SweepApp::Micropp => "micropp",
            SweepApp::Nbody => "nbody",
            SweepApp::Stencil => "stencil",
            SweepApp::Amr => "amr",
        }
    }

    /// Parse the schema string; the error lists the known apps.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "synthetic" => Ok(SweepApp::Synthetic),
            "micropp" => Ok(SweepApp::Micropp),
            "nbody" => Ok(SweepApp::Nbody),
            "stencil" => Ok(SweepApp::Stencil),
            "amr" => Ok(SweepApp::Amr),
            other => Err(ScenarioError(format!(
                "unknown app '{other}' (expected synthetic|micropp|nbody|stencil|amr)"
            ))),
        }
    }
}

/// Machine preset (`tlb-run --machine` parses into this too).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepMachine {
    /// 48-core MareNostrum-4 nodes with realistic overheads.
    Mn4,
    /// 16-core Nord3 nodes.
    Nord3,
    /// Idealised 16-core nodes with no runtime noise.
    Ideal,
}

impl SweepMachine {
    /// Canonical schema string.
    pub fn name(self) -> &'static str {
        match self {
            SweepMachine::Mn4 => "mn4",
            SweepMachine::Nord3 => "nord3",
            SweepMachine::Ideal => "ideal",
        }
    }

    /// Parse the schema string; the error lists the known machines.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "mn4" => Ok(SweepMachine::Mn4),
            "nord3" => Ok(SweepMachine::Nord3),
            "ideal" => Ok(SweepMachine::Ideal),
            other => Err(ScenarioError(format!(
                "unknown machine '{other}' (expected mn4|nord3|ideal)"
            ))),
        }
    }
}

/// The varying dimensions of a sweep. The cartesian product expands in
/// this fixed nesting order: appranks-per-node, then degree, then
/// policy, then seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Axes {
    /// Appranks per node values.
    pub appranks_per_node: Vec<usize>,
    /// Offloading degree values.
    pub degree: Vec<usize>,
    /// Balancing policy values, straight from the `tlb-core` policy
    /// registry (`name` or `name(k=v,...)` strings in the schema).
    pub policy: Vec<PolicySpec>,
    /// Seed values (drive both the expander and the workload).
    pub seed: Vec<u64>,
}

impl Default for Axes {
    fn default() -> Self {
        Axes {
            appranks_per_node: vec![1],
            degree: vec![1],
            policy: vec![PolicySpec::named("baseline").expect("baseline is registered")],
            seed: vec![1],
        }
    }
}

/// A declarative description of one sweep: everything `tlb-run` would
/// take on the command line, with the varying knobs as [`Axes`].
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Human-readable sweep name (cosmetic: not part of cache keys).
    pub name: String,
    /// Application to run.
    pub app: SweepApp,
    /// Machine preset.
    pub machine: SweepMachine,
    /// Node count.
    pub nodes: usize,
    /// Iterations per run.
    pub iterations: usize,
    /// Synthetic-benchmark imbalance target (ignored by other apps).
    pub imbalance: f64,
    /// Fault-injection spec (`tlb_cluster::FaultPlan::parse` syntax).
    pub faults: Option<String>,
    /// Seed for the fault plan's deterministic draws.
    pub fault_seed: u64,
    /// The varying dimensions.
    pub axes: Axes,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "sweep".into(),
            app: SweepApp::Synthetic,
            machine: SweepMachine::Mn4,
            nodes: 4,
            iterations: 6,
            imbalance: 2.0,
            faults: None,
            fault_seed: 1,
            axes: Axes::default(),
        }
    }
}

/// One expanded grid point of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Position in the deterministic expansion order.
    pub index: usize,
    /// Appranks per node.
    pub appranks_per_node: usize,
    /// Offloading degree.
    pub degree: usize,
    /// Balancing policy.
    pub policy: PolicySpec,
    /// Expander/workload seed.
    pub seed: u64,
}

/// Scenario schema violations (unknown key, bad type, bad value).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn bad(field: &str, what: &str) -> ScenarioError {
    ScenarioError(format!("field '{field}': {what}"))
}

fn as_usize(field: &str, v: &Value) -> Result<usize, ScenarioError> {
    v.as_usize()
        .ok_or_else(|| bad(field, "expected a non-negative integer"))
}

fn as_u64(field: &str, v: &Value) -> Result<u64, ScenarioError> {
    v.as_u64()
        .ok_or_else(|| bad(field, "expected a non-negative integer"))
}

fn as_f64(field: &str, v: &Value) -> Result<f64, ScenarioError> {
    v.as_f64().ok_or_else(|| bad(field, "expected a number"))
}

fn as_str<'v>(field: &str, v: &'v Value) -> Result<&'v str, ScenarioError> {
    v.as_str().ok_or_else(|| bad(field, "expected a string"))
}

fn as_list<'v>(field: &str, v: &'v Value) -> Result<&'v [Value], ScenarioError> {
    let items = v
        .as_array()
        .ok_or_else(|| bad(field, "expected an array"))?;
    if items.is_empty() {
        return Err(bad(field, "axis must not be empty"));
    }
    Ok(items)
}

impl Scenario {
    /// Parse a scenario from JSON text. Strict: `schema_version` must be
    /// present and current, and any unknown key anywhere in the document
    /// is an error.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let value =
            tlb_json::parse(text).map_err(|e| ScenarioError(format!("invalid JSON: {e}")))?;
        Scenario::from_json(&value)
    }

    /// Parse a scenario from an already-parsed JSON value (see
    /// [`Scenario::from_json_str`]).
    pub fn from_json(value: &Value) -> Result<Self, ScenarioError> {
        let pairs = value
            .as_object()
            .ok_or_else(|| ScenarioError("scenario must be a JSON object".into()))?;
        let mut sc = Scenario::default();
        let mut saw_version = false;
        let mut saw_name = false;
        let mut saw_app = false;
        for (key, v) in pairs {
            match key.as_str() {
                "schema_version" => {
                    let got = as_u64(key, v)?;
                    if got != SCHEMA_VERSION {
                        return Err(ScenarioError(format!(
                            "unsupported schema_version {got} (this build reads {SCHEMA_VERSION})"
                        )));
                    }
                    saw_version = true;
                }
                "name" => {
                    sc.name = as_str(key, v)?.to_string();
                    saw_name = true;
                }
                "app" => {
                    sc.app = SweepApp::parse(as_str(key, v)?)?;
                    saw_app = true;
                }
                "machine" => sc.machine = SweepMachine::parse(as_str(key, v)?)?,
                "nodes" => sc.nodes = as_usize(key, v)?,
                "iterations" => sc.iterations = as_usize(key, v)?,
                "imbalance" => sc.imbalance = as_f64(key, v)?,
                "faults" => {
                    sc.faults = match v {
                        Value::Null => None,
                        other => Some(as_str(key, other)?.to_string()),
                    }
                }
                "fault_seed" => sc.fault_seed = as_u64(key, v)?,
                "axes" => sc.axes = parse_axes(v)?,
                other => {
                    return Err(ScenarioError(format!(
                        "unknown key '{other}' (strict schema; known keys: schema_version, \
                         name, app, machine, nodes, iterations, imbalance, faults, fault_seed, \
                         axes)"
                    )))
                }
            }
        }
        if !saw_version {
            return Err(ScenarioError(
                "missing required key 'schema_version'".into(),
            ));
        }
        if !saw_name {
            return Err(ScenarioError("missing required key 'name'".into()));
        }
        if !saw_app {
            return Err(ScenarioError("missing required key 'app'".into()));
        }
        sc.validate()?;
        Ok(sc)
    }

    /// Semantic validation beyond shape: at most [`MAX_POINTS`] grid
    /// points, positive counts, degrees within the node count, and a
    /// fault spec that parses and passes `FaultPlan::validate` for every
    /// machine shape on the axes.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.point_count().is_none_or(|n| n > MAX_POINTS) {
            return Err(ScenarioError(format!(
                "the axes expand to more than {MAX_POINTS} points, the cap per scenario"
            )));
        }
        if self.nodes == 0 || self.iterations == 0 {
            return Err(ScenarioError(
                "nodes and iterations must be positive".into(),
            ));
        }
        if !self.imbalance.is_finite() || self.imbalance < 1.0 {
            return Err(ScenarioError(format!(
                "imbalance must be a finite number >= 1.0, got {}",
                self.imbalance
            )));
        }
        for &apn in &self.axes.appranks_per_node {
            if apn == 0 {
                return Err(ScenarioError(
                    "appranks_per_node values must be positive".into(),
                ));
            }
        }
        for &d in &self.axes.degree {
            if d == 0 || d > self.nodes {
                return Err(ScenarioError(format!(
                    "degree {d} out of range 1..={} for {} nodes",
                    self.nodes, self.nodes
                )));
            }
        }
        if let Some(spec) = &self.faults {
            let faults = |e| ScenarioError(format!("faults: {e}"));
            let plan = tlb_cluster::FaultPlan::parse(spec, self.fault_seed).map_err(faults)?;
            for &apn in &self.axes.appranks_per_node {
                plan.validate(self.nodes, self.nodes * apn)
                    .map_err(faults)?;
            }
        }
        Ok(())
    }

    /// Serialize to the canonical JSON form. `from_json(to_json(sc))`
    /// returns an equal scenario, and the key order is fixed, so the
    /// output is byte-stable.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("schema_version", Value::Int(SCHEMA_VERSION as i64)),
            ("name", self.name.as_str().into()),
            ("app", self.app.name().into()),
            ("machine", self.machine.name().into()),
            ("nodes", self.nodes.into()),
            ("iterations", self.iterations.into()),
            ("imbalance", self.imbalance.into()),
        ];
        if let Some(f) = &self.faults {
            fields.push(("faults", f.as_str().into()));
            fields.push(("fault_seed", self.fault_seed.into()));
        }
        fields.push((
            "axes",
            Value::object(vec![
                (
                    "appranks_per_node",
                    Value::Array(
                        self.axes
                            .appranks_per_node
                            .iter()
                            .map(|&v| v.into())
                            .collect(),
                    ),
                ),
                (
                    "degree",
                    Value::Array(self.axes.degree.iter().map(|&v| v.into()).collect()),
                ),
                (
                    "policy",
                    Value::Array(
                        self.axes
                            .policy
                            .iter()
                            .map(|p| p.canonical().as_str().into())
                            .collect(),
                    ),
                ),
                (
                    "seed",
                    Value::Array(self.axes.seed.iter().map(|&v| v.into()).collect()),
                ),
            ]),
        ));
        Value::object(fields)
    }

    /// The size of the axis product, `None` if it overflows `usize`.
    fn point_count(&self) -> Option<usize> {
        let a = &self.axes;
        [a.degree.len(), a.policy.len(), a.seed.len()]
            .into_iter()
            .try_fold(a.appranks_per_node.len(), usize::checked_mul)
    }

    /// Expand the axis product into the deterministic, dense run list.
    /// Nesting order (outer to inner): appranks-per-node, degree,
    /// policy, seed.
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.point_count().unwrap_or(0));
        for &apn in &self.axes.appranks_per_node {
            for &degree in &self.axes.degree {
                for policy in &self.axes.policy {
                    for &seed in &self.axes.seed {
                        points.push(SweepPoint {
                            index: points.len(),
                            appranks_per_node: apn,
                            degree,
                            policy: policy.clone(),
                            seed,
                        });
                    }
                }
            }
        }
        points
    }

    /// Build the platform a point of this scenario runs on.
    pub fn platform(&self) -> Platform {
        match self.machine {
            SweepMachine::Mn4 => Platform::mn4(self.nodes),
            SweepMachine::Nord3 => Platform::nord3(self.nodes, &[]),
            SweepMachine::Ideal => Platform::homogeneous(self.nodes, 16),
        }
    }

    /// Build the balancing configuration for one point: the policy axis
    /// fixes the registry policy, the degree axis the offloading degree,
    /// and the seed axis the expander seed.
    pub fn config(&self, point: &SweepPoint) -> BalanceConfig {
        BalanceConfig::default()
            .with_policy(point.policy.clone())
            .with_degree(point.degree)
            .with_seed(point.seed)
    }
}

fn parse_axes(value: &Value) -> Result<Axes, ScenarioError> {
    let pairs = value
        .as_object()
        .ok_or_else(|| bad("axes", "expected an object"))?;
    let mut axes = Axes::default();
    for (key, v) in pairs {
        match key.as_str() {
            "appranks_per_node" => {
                axes.appranks_per_node = as_list(key, v)?
                    .iter()
                    .map(|x| as_usize(key, x))
                    .collect::<Result<_, _>>()?
            }
            "degree" => {
                axes.degree = as_list(key, v)?
                    .iter()
                    .map(|x| as_usize(key, x))
                    .collect::<Result<_, _>>()?
            }
            "policy" => {
                axes.policy = as_list(key, v)?
                    .iter()
                    .map(|x| {
                        PolicySpec::parse(as_str(key, x)?)
                            .map_err(|e| ScenarioError(format!("field 'policy': {e}")))
                    })
                    .collect::<Result<_, _>>()?
            }
            "seed" => {
                axes.seed = as_list(key, v)?
                    .iter()
                    .map(|x| as_u64(key, x))
                    .collect::<Result<_, _>>()?
            }
            other => {
                return Err(ScenarioError(format!(
                    "unknown key 'axes.{other}' (known: appranks_per_node, degree, policy, seed)"
                )))
            }
        }
    }
    Ok(axes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_scenarios_parse_and_expand() {
        // README and EXPERIMENTS.md tell users to run these files.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let sc = Scenario::from_json_str(&text)
                    .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert!(!sc.expand().is_empty(), "{}: no points", path.display());
                checked += 1;
            }
        }
        assert!(checked >= 1, "no example scenario in {}", dir.display());
    }

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let sc =
            Scenario::from_json_str(r#"{"schema_version": 1, "name": "t", "app": "synthetic"}"#)
                .unwrap();
        assert_eq!(sc.nodes, 4);
        assert_eq!(sc.axes, Axes::default());
        assert_eq!(sc.expand().len(), 1);
    }

    #[test]
    fn unknown_key_rejected() {
        let err = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic", "nodez": 8}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown key 'nodez'"), "{err}");
        // A scenario runs one solver; there is no race to configure.
        let err = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic", "portfolio": "all"}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown key 'portfolio'"), "{err}");
        let err = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic",
                "axes": {"degrees": [1]}}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("axes.degrees"), "{err}");
    }

    #[test]
    fn wrong_schema_version_rejected() {
        let err = Scenario::from_json_str(r#"{"schema_version": 2, "name": "t", "app": "nbody"}"#)
            .unwrap_err();
        assert!(err.0.contains("schema_version"), "{err}");
        let err = Scenario::from_json_str(r#"{"name": "t", "app": "nbody"}"#).unwrap_err();
        assert!(err.0.contains("schema_version"), "{err}");
    }

    #[test]
    fn degree_beyond_nodes_rejected() {
        let err = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic", "nodes": 2,
                "axes": {"degree": [1, 4]}}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("degree 4"), "{err}");
    }

    #[test]
    fn more_points_than_the_cap_rejected() {
        let mut sc = Scenario::default();
        sc.axes.seed = (0..MAX_POINTS as u64).collect();
        assert_eq!(sc.validate(), Ok(()));
        sc.axes.seed.push(MAX_POINTS as u64);
        let err = sc.validate().unwrap_err();
        assert!(err.0.contains("more than 10000 points"), "{err}");
    }

    #[test]
    fn an_axis_product_that_overflows_is_an_error() {
        // Four axes of 2^16 values: the product wraps a 64-bit `usize`.
        let mut sc = Scenario::default();
        let n = 1 << 16;
        sc.axes.appranks_per_node = vec![1; n];
        sc.axes.degree = vec![1; n];
        sc.axes.policy = vec![PolicySpec::named("baseline").unwrap(); n];
        sc.axes.seed = vec![1; n];
        let err = sc.validate().unwrap_err();
        assert!(err.0.contains("more than 10000 points"), "{err}");
    }

    #[test]
    fn expansion_order_is_documented_nesting() {
        let sc = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic",
                "axes": {"degree": [1, 2], "policy": ["baseline", "lewi"], "seed": [7, 8]}}"#,
        )
        .unwrap();
        let pts = sc.expand();
        assert_eq!(pts.len(), 8);
        let spot = |i: usize| (pts[i].degree, pts[i].policy.name(), pts[i].seed);
        assert_eq!(spot(0), (1, "baseline", 7));
        assert_eq!(spot(1), (1, "baseline", 8));
        assert_eq!(spot(2), (1, "lewi", 7));
        assert_eq!(spot(4), (2, "baseline", 7));
        assert!(pts.iter().enumerate().all(|(i, p)| p.index == i));
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let texts = [
            r#"{"schema_version": 1, "name": "t", "app": "synthetic"}"#,
            r#"{"schema_version": 1, "name": "paper", "app": "micropp", "machine": "nord3",
                "nodes": 8, "iterations": 10, "imbalance": 3.5,
                "faults": "straggler@0.1,node=0", "fault_seed": 9,
                "axes": {"appranks_per_node": [1, 2], "degree": [1, 2, 4],
                         "policy": ["baseline", "lewi+drom-global"], "seed": [1, 2, 3]}}"#,
            r#"{"schema_version": 1, "name": "families", "app": "amr",
                "axes": {"policy": ["reactive-offload(hi=0.4,unit=2)",
                                    "diffusion(alpha=0.25,order=2)"]}}"#,
        ];
        for text in texts {
            let sc = Scenario::from_json_str(text).unwrap();
            let json = sc.to_json();
            let back = Scenario::from_json(&json).unwrap();
            assert_eq!(sc, back, "round trip changed the scenario for {text}");
            // Serialization itself is byte-stable.
            assert_eq!(json.to_string_compact(), back.to_json().to_string_compact());
        }
    }

    #[test]
    fn policy_axis_reaches_the_config_verbatim() {
        let sc = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic",
                "axes": {"policy": ["baseline", "lewi", "drom-global",
                                    "lewi+drom-global"], "degree": [2]}}"#,
        )
        .unwrap();
        for (point, lewi) in sc.expand().iter().zip([false, true, false, true]) {
            let cfg = sc.config(point);
            assert_eq!(cfg.policy, point.policy);
            assert_eq!(cfg.policy.lewi(), lewi, "{}", point.policy);
            assert_eq!((cfg.degree, cfg.seed), (2, 1));
        }
    }

    #[test]
    fn unknown_policy_error_lists_registry() {
        let err = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic",
                "axes": {"policy": ["gossip"]}}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown policy 'gossip'"), "{err}");
        assert!(err.0.contains("reactive-offload"), "{err}");
        assert!(err.0.contains("diffusion"), "{err}");
        let err = Scenario::from_json_str(
            r#"{"schema_version": 1, "name": "t", "app": "synthetic",
                "axes": {"policy": ["diffusion(gamma=1)"]}}"#,
        )
        .unwrap_err();
        assert!(err.0.contains("unknown parameter 'gamma'"), "{err}");
        assert!(err.0.contains("alpha"), "{err}");
    }
}
