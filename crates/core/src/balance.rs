//! The open balancing-policy API: a deterministic registry of named,
//! parameterized policies behind one [`BalancePolicy`] trait.
//!
//! A policy is one registry entry:
//!
//! * a stable **name** plus **typed parameters**, parsed from and
//!   rendered to the same `name(k=v,...)` string form everywhere
//!   (scenario JSON, CLI flags, cache keys, reports);
//! * a **per-global-tick hook** ([`BalancePolicy::on_global_tick`])
//!   that sees a [`SignalView`] of what the TALP/counters layer already
//!   measures — per-apprank demand, per-process busy time (hence MPI
//!   wait time), placement, and current core ownership — and returns a
//!   [`GlobalAction`]: run the §5.4.2 solver, install an explicit
//!   ownership map, or keep the current allocation.
//!
//! The paper's configurations are the product of LeWI on/off and DROM
//! off/local/global, and each is its own entry — `baseline`, `lewi`,
//! `drom-local`, `drom-global`, `lewi+drom-local`, `lewi+drom-global`
//! — so Fig. 9's four series are four names. Their hook is the trait
//! default (solve globally); the `local_tick` flag of their
//! [`PolicyDef`] decides whether the §5.4.1 convergence step runs.
//! Two solver-free families ride on the same interface:
//!
//! * [`reactive-offload`](ReactiveOffload) — no solver at all: core
//!   ownership shifts between co-located processes whenever a rank's
//!   observed MPI wait fraction crosses a hysteresis threshold, after
//!   "Lightweight Task Offloading Exploiting MPI Wait Times for
//!   Parallel Adaptive Mesh Refinement" (PAPERS.md);
//! * [`diffusion`](Diffusion) — decentralized first/second-order
//!   diffusion exchanging indivisible core units between neighboring
//!   processes, after "Balancing indivisible real-valued loads in
//!   arbitrary networks" (PAPERS.md).
//!
//! Both are deterministic functions of the signal view, so sweep
//! reports stay bitwise identical at any `--jobs` level.

use std::fmt;

/// The value type of one policy parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// Rendered and parsed as an integer; fractional values are
    /// rejected at parse time.
    Int,
    /// Any finite floating-point value.
    Float,
}

/// One typed parameter of a registered policy.
#[derive(Debug)]
pub struct ParamDef {
    /// The key on the left of `k=v`.
    pub key: &'static str,
    pub kind: ParamKind,
    /// Value assumed when the parameter is omitted; specs at the
    /// default render back to the bare policy name.
    pub default: f64,
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// One-line description for error messages and docs.
    pub help: &'static str,
}

/// One entry of the policy registry: the policy's identity, its
/// mechanical footprint (which ticks it wants, whether it builds the
/// global LP), and its parameter schema.
#[derive(Debug)]
pub struct PolicyDef {
    /// Stable registry name, used verbatim in scenario JSON, CLI
    /// flags, cache keys, and reports.
    pub name: &'static str,
    /// One-line description for `--help`-style listings and docs.
    pub summary: &'static str,
    /// Whether LeWI fine-grained lending runs under this policy.
    pub lewi: bool,
    /// Whether the §5.4.2 global LP is constructed for this policy.
    pub uses_solver: bool,
    /// Whether the per-node local-convergence tick is scheduled.
    pub local_tick: bool,
    /// Whether the cluster-wide global tick is scheduled.
    pub global_tick: bool,
    pub params: &'static [ParamDef],
    /// Extra cross-parameter validation run after range checks; the
    /// slice is the resolved parameter values in `params` order.
    pub check: Option<ParamCheck>,
}

/// Cross-parameter validation hook of a [`PolicyDef`].
pub type ParamCheck = fn(&[f64]) -> Result<(), String>;

fn check_reactive(values: &[f64]) -> Result<(), String> {
    if values[0] <= values[1] {
        return Err(format!(
            "'hi' ({}) must be greater than 'lo' ({}) for hysteresis to latch",
            values[0], values[1]
        ));
    }
    Ok(())
}

/// The deterministic policy registry. Order is stable and is the
/// order parameters render in canonical form.
pub static POLICY_REGISTRY: &[PolicyDef] = &[
    PolicyDef {
        name: "baseline",
        summary: "no balancing: static cores, no lending, no reallocation",
        lewi: false,
        uses_solver: false,
        local_tick: false,
        global_tick: false,
        params: &[],
        check: None,
    },
    PolicyDef {
        name: "lewi",
        summary: "LeWI fine-grained lending only (paper 5.4 intra-node)",
        lewi: true,
        uses_solver: false,
        local_tick: false,
        global_tick: false,
        params: &[],
        check: None,
    },
    PolicyDef {
        name: "drom-local",
        summary: "per-node DROM local convergence without LeWI (paper 5.4.1)",
        lewi: false,
        uses_solver: false,
        local_tick: true,
        global_tick: false,
        params: &[],
        check: None,
    },
    PolicyDef {
        name: "drom-global",
        summary: "the global min-max reallocation LP without LeWI (paper 5.4.2, Fig. 9)",
        lewi: false,
        uses_solver: true,
        local_tick: false,
        global_tick: true,
        params: &[],
        check: None,
    },
    PolicyDef {
        name: "lewi+drom-local",
        summary: "LeWI plus per-node DROM local convergence (paper 5.4.1)",
        lewi: true,
        uses_solver: false,
        local_tick: true,
        global_tick: false,
        params: &[],
        check: None,
    },
    PolicyDef {
        name: "lewi+drom-global",
        summary: "LeWI plus the global min-max reallocation LP (paper 5.4.2)",
        lewi: true,
        uses_solver: true,
        local_tick: false,
        global_tick: true,
        params: &[],
        check: None,
    },
    PolicyDef {
        name: "reactive-offload",
        summary: "solver-free reallocation from observed MPI wait times with hysteresis",
        lewi: true,
        uses_solver: false,
        local_tick: false,
        global_tick: true,
        params: &[
            ParamDef {
                key: "hi",
                kind: ParamKind::Float,
                default: 0.25,
                min: 0.0,
                max: 1.0,
                help: "wait fraction above which a rank latches underloaded",
            },
            ParamDef {
                key: "lo",
                kind: ParamKind::Float,
                default: 0.10,
                min: 0.0,
                max: 1.0,
                help: "wait fraction below which the underloaded latch clears",
            },
            ParamDef {
                key: "unit",
                kind: ParamKind::Int,
                default: 1.0,
                min: 1.0,
                max: 1024.0,
                help: "cores moved per latched donor per global tick",
            },
        ],
        check: Some(check_reactive),
    },
    PolicyDef {
        name: "diffusion",
        summary: "first/second-order diffusion of indivisible core units between neighbors",
        lewi: true,
        uses_solver: false,
        local_tick: false,
        global_tick: true,
        params: &[
            ParamDef {
                key: "alpha",
                kind: ParamKind::Float,
                default: 0.5,
                min: 1e-6,
                max: 1.0,
                help: "diffusion coefficient on each load-difference edge",
            },
            ParamDef {
                key: "order",
                kind: ParamKind::Int,
                default: 1.0,
                min: 1.0,
                max: 2.0,
                help: "diffusion order: 1 = first order, 2 = adds momentum",
            },
            ParamDef {
                key: "beta",
                kind: ParamKind::Float,
                default: 0.5,
                min: 0.0,
                max: 0.99,
                help: "momentum carried from the previous flow (order=2 only)",
            },
        ],
        check: None,
    },
];

/// All registered policy names, in registry order, for error messages
/// and docs.
pub fn known_policy_names() -> Vec<&'static str> {
    POLICY_REGISTRY.iter().map(|d| d.name).collect()
}

fn lookup(name: &str) -> Option<&'static PolicyDef> {
    POLICY_REGISTRY.iter().find(|d| d.name == name)
}

/// A policy parse or validation failure, with the message already
/// listing the known alternatives (sweep strict-parse style).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyError(pub String);

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PolicyError {}

/// A resolved policy: a registry entry plus one value per parameter.
///
/// Specs are the single policy currency across the workspace: the
/// sweep axis element, the CLI `--policy` value, the field inside
/// `BalanceConfig`, and (via [`PolicySpec::canonical`]) the cache-key
/// contribution. Equality compares the name and every parameter
/// value, so two parameterizations of one policy never compare (or
/// hash-key) equal.
#[derive(Clone, Debug)]
pub struct PolicySpec {
    def: &'static PolicyDef,
    values: Vec<f64>,
}

impl PartialEq for PolicySpec {
    fn eq(&self, other: &PolicySpec) -> bool {
        self.def.name == other.def.name && self.values == other.values
    }
}

impl fmt::Display for PolicySpec {
    /// Renders the canonical form (see [`PolicySpec::canonical`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl PolicySpec {
    /// The spec of a registered policy with every parameter at its
    /// default.
    pub fn named(name: &str) -> Result<PolicySpec, PolicyError> {
        let def = lookup(name).ok_or_else(|| unknown_policy(name))?;
        Ok(PolicySpec {
            def,
            values: def.params.iter().map(|p| p.default).collect(),
        })
    }

    /// Parse `name` or `name(k=v,...)`. Unknown policies and unknown
    /// parameters are errors that list the known alternatives; values
    /// are range-checked against the parameter schema.
    pub fn parse(text: &str) -> Result<PolicySpec, PolicyError> {
        let text = text.trim();
        let (name, args) = match text.split_once('(') {
            None => (text, None),
            Some((name, rest)) => {
                let rest = rest.trim_end();
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| PolicyError(format!("policy '{text}': missing closing ')'")))?;
                (name.trim(), Some(inner))
            }
        };
        let mut spec = PolicySpec::named(name)?;
        if let Some(inner) = args {
            for part in inner.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let (key, value) = part.split_once('=').ok_or_else(|| {
                    PolicyError(format!(
                        "policy '{name}': expected 'key=value', got '{part}'"
                    ))
                })?;
                spec.set(key.trim(), value.trim())?;
            }
        }
        if let Some(check) = spec.def.check {
            check(&spec.values).map_err(|msg| PolicyError(format!("policy '{name}': {msg}")))?;
        }
        Ok(spec)
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), PolicyError> {
        let name = self.def.name;
        let idx = self
            .def
            .params
            .iter()
            .position(|p| p.key == key)
            .ok_or_else(|| {
                let known: Vec<&str> = self.def.params.iter().map(|p| p.key).collect();
                PolicyError(if known.is_empty() {
                    format!("policy '{name}' takes no parameters, got '{key}'")
                } else {
                    format!(
                        "policy '{name}': unknown parameter '{key}' (known: {})",
                        known.join(", ")
                    )
                })
            })?;
        let p = &self.def.params[idx];
        let v: f64 = value.parse().map_err(|_| {
            PolicyError(format!(
                "policy '{name}': parameter '{key}' expects a number, got '{value}'"
            ))
        })?;
        if !v.is_finite() {
            return Err(PolicyError(format!(
                "policy '{name}': parameter '{key}' must be finite"
            )));
        }
        if p.kind == ParamKind::Int && v.fract() != 0.0 {
            return Err(PolicyError(format!(
                "policy '{name}': parameter '{key}' expects an integer, got '{value}'"
            )));
        }
        if v < p.min || v > p.max {
            return Err(PolicyError(format!(
                "policy '{name}': parameter '{key}' = {v} out of range [{}, {}]",
                p.min, p.max
            )));
        }
        self.values[idx] = v;
        Ok(())
    }

    /// The registry name (no parameters).
    pub fn name(&self) -> &'static str {
        self.def.name
    }

    /// The registry entry behind this spec.
    pub fn def(&self) -> &'static PolicyDef {
        self.def
    }

    /// The canonical string form: the bare name when every parameter
    /// is at its default, otherwise `name(k=v,...)` listing only the
    /// non-default parameters in registry order. Canonical strings
    /// round-trip through [`PolicySpec::parse`] and are what cache
    /// keys, sweep reports, and `tlb-run` output all print.
    pub fn canonical(&self) -> String {
        let mut args = String::new();
        for (p, &v) in self.def.params.iter().zip(&self.values) {
            if v == p.default {
                continue;
            }
            if !args.is_empty() {
                args.push(',');
            }
            match p.kind {
                ParamKind::Int => args.push_str(&format!("{}={}", p.key, v as i64)),
                ParamKind::Float => args.push_str(&format!("{}={v}", p.key)),
            }
        }
        if args.is_empty() {
            self.def.name.to_string()
        } else {
            format!("{}({args})", self.def.name)
        }
    }

    /// The value of a parameter by key. Panics on a key absent from
    /// the schema — that is a programming error, not an input error.
    pub fn param(&self, key: &str) -> f64 {
        let idx = self
            .def
            .params
            .iter()
            .position(|p| p.key == key)
            .unwrap_or_else(|| panic!("policy '{}' has no parameter '{key}'", self.def.name));
        self.values[idx]
    }

    /// Whether LeWI lending runs under this policy.
    pub fn lewi(&self) -> bool {
        self.def.lewi
    }

    /// Whether the global LP is built.
    pub fn uses_solver(&self) -> bool {
        self.def.uses_solver
    }

    /// Whether the per-node local-convergence tick is scheduled.
    pub fn wants_local_tick(&self) -> bool {
        self.def.local_tick
    }

    /// Whether the cluster-wide global tick is scheduled.
    pub fn wants_global_tick(&self) -> bool {
        self.def.global_tick
    }

    /// Instantiate the runtime policy object for this spec.
    pub fn instantiate(&self) -> Box<dyn BalancePolicy> {
        match self.def.name {
            "reactive-offload" => Box::new(ReactiveOffload::new(self)),
            "diffusion" => Box::new(Diffusion::new(self)),
            _ => Box::new(PaperPolicy),
        }
    }
}

fn unknown_policy(name: &str) -> PolicyError {
    PolicyError(format!(
        "unknown policy '{name}' (known: {})",
        known_policy_names().join(", ")
    ))
}

/// What the per-global-tick hook tells the simulator to do.
#[derive(Clone, Debug, PartialEq)]
pub enum GlobalAction {
    /// Run the §5.4.2 global LP.
    Solve,
    /// Install an explicit per-node ownership map (one count per
    /// worker process), charged `comm_rounds` interconnect latencies
    /// before it takes effect.
    SetOwnership {
        per_node: Vec<Vec<usize>>,
        comm_rounds: usize,
    },
    /// Keep the current allocation this tick.
    Keep,
}

/// A read-only view over the signals the TALP/counters layer already
/// measures, assembled by the simulator at each global tick. All
/// slices are indexed the obvious way: `work` by apprank, `busy` and
/// `ownership` by `[node][process]`, `placement[apprank]` listing the
/// `(node, process)` pairs the apprank's workers occupy (home node
/// first).
#[derive(Debug)]
pub struct SignalView<'a> {
    /// Seconds of wall time covered by this measurement window (one
    /// global period).
    pub window_secs: f64,
    /// Physical cores per node.
    pub cores_per_node: usize,
    /// Relative speed of each node (1.0 = nominal).
    pub node_speed: &'a [f64],
    /// Per-apprank outstanding demand estimate in core-seconds, the
    /// same signal the global LP consumes.
    pub work: &'a [f64],
    /// Per-node, per-process busy seconds accumulated over the window
    /// (TALP deltas). Wait time is the window minus this.
    pub busy: &'a [Vec<f64>],
    /// Per-apprank worker placement as `(node, process)` pairs, home
    /// node first.
    pub placement: &'a [Vec<(usize, usize)>],
    /// Per-node, per-process current target core ownership.
    pub ownership: &'a [Vec<usize>],
    /// Per-node, per-process liveness; retired (failed) processes are
    /// `false` and must keep their ownership untouched.
    pub alive: &'a [Vec<bool>],
}

impl SignalView<'_> {
    /// Number of application ranks.
    pub fn appranks(&self) -> usize {
        self.work.len()
    }

    /// Total cores currently owned by an apprank across its workers.
    pub fn owned_cores(&self, apprank: usize) -> usize {
        self.placement[apprank]
            .iter()
            .map(|&(node, proc)| self.ownership[node][proc])
            .sum()
    }

    /// Busy seconds an apprank accumulated over the window.
    pub fn busy_secs(&self, apprank: usize) -> f64 {
        self.placement[apprank]
            .iter()
            .map(|&(node, proc)| self.busy[node][proc])
            .sum()
    }

    /// The fraction of the window an apprank's owned cores spent
    /// waiting (in MPI or idle), clamped to `[0, 1]`. This is the
    /// reactive-offload paper's wait-time signal.
    pub fn wait_fraction(&self, apprank: usize) -> f64 {
        let owned = self.owned_cores(apprank);
        if owned == 0 || self.window_secs <= 0.0 {
            return 0.0;
        }
        let capacity = self.window_secs * owned as f64;
        ((capacity - self.busy_secs(apprank)) / capacity).clamp(0.0, 1.0)
    }

    /// Outstanding demand per owned core, in units of windows: the
    /// diffusion "load" on an apprank's vertex. Greater than 1 means
    /// backlog, less than 1 means slack.
    pub fn load(&self, apprank: usize) -> f64 {
        let owned = self.owned_cores(apprank);
        if owned == 0 || self.window_secs <= 0.0 {
            return 0.0;
        }
        self.work[apprank] / (self.window_secs * owned as f64)
    }
}

/// A balancing policy: the stateful object form of one [`PolicySpec`]
/// (which stays in `BalanceConfig.policy`). The simulator consults the
/// hook at the cadence the spec declares; the default hook body is the
/// paper's global DROM policy, so a policy only overrides what it
/// changes. The local convergence step has no hook: a spec's
/// `local_tick` flag alone decides whether it runs.
pub trait BalancePolicy {
    /// Called at each global tick (when the spec wants them) with the
    /// freshly measured signal view.
    fn on_global_tick(&mut self, _view: &SignalView<'_>) -> GlobalAction {
        GlobalAction::Solve
    }
}

/// The paper's six LeWI × DROM policies: the hook is the default, and
/// the spec's tick flags decide which ticks ever fire (bitwise
/// results are pinned by the golden per-`Preset` test).
struct PaperPolicy;

impl BalancePolicy for PaperPolicy {}

/// Wait-time reactive offloading: per apprank, a hysteresis latch
/// marks it *underloaded* when its observed wait fraction rises above
/// `hi` and clears when it falls back below `lo`. Each global tick,
/// on every node independently, `unit` cores move from each latched
/// process to the co-located process with the highest outstanding
/// load — no solver, one interconnect round to apply.
pub struct ReactiveOffload {
    hi: f64,
    lo: f64,
    unit: usize,
    idle: Vec<bool>,
}

impl ReactiveOffload {
    fn new(spec: &PolicySpec) -> ReactiveOffload {
        ReactiveOffload {
            hi: spec.param("hi"),
            lo: spec.param("lo"),
            unit: spec.param("unit") as usize,
            idle: Vec::new(),
        }
    }
}

impl BalancePolicy for ReactiveOffload {
    fn on_global_tick(&mut self, view: &SignalView<'_>) -> GlobalAction {
        let n = view.appranks();
        self.idle.resize(n, false);
        for a in 0..n {
            let wait = view.wait_fraction(a);
            if wait > self.hi {
                self.idle[a] = true;
            } else if wait < self.lo {
                self.idle[a] = false;
            }
        }

        // Apprank of each (node, proc), for scanning nodes in order.
        let procs_on: Vec<Vec<Option<usize>>> = apprank_of(view);
        let mut per_node: Vec<Vec<usize>> = view.ownership.to_vec();
        let mut changed = false;
        for (node, owners) in per_node.iter_mut().enumerate() {
            // Receivers: live, not latched idle, ranked by outstanding
            // load (ties broken by process index for determinism).
            let mut receivers: Vec<(usize, f64)> = procs_on[node]
                .iter()
                .enumerate()
                .filter_map(|(p, a)| a.map(|a| (p, a)))
                .filter(|&(p, a)| view.alive[node][p] && !self.idle[a])
                .map(|(p, a)| (p, view.load(a)))
                .collect();
            receivers.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            if receivers.is_empty() {
                continue;
            }
            for p in 0..owners.len() {
                let Some(a) = procs_on[node][p] else { continue };
                if !view.alive[node][p] || !self.idle[a] {
                    continue;
                }
                // Donate up to `unit` cores, always keeping one.
                let give = self.unit.min(owners[p].saturating_sub(1));
                if give == 0 {
                    continue;
                }
                let Some(&(to, _)) = receivers.iter().find(|&&(q, _)| q != p) else {
                    continue;
                };
                owners[p] -= give;
                owners[to] += give;
                changed = true;
            }
        }
        if changed {
            GlobalAction::SetOwnership {
                per_node,
                comm_rounds: 1,
            }
        } else {
            GlobalAction::Keep
        }
    }
}

/// First/second-order diffusion of indivisible core units: on each
/// node, every pair of co-located live processes exchanges a flow
/// proportional (`alpha`) to the difference of their appranks' loads,
/// rounded down to whole cores. `order=2` adds a momentum term that
/// carries `beta` of the previous tick's flow, which accelerates
/// convergence on slowly varying imbalance (the second-order scheme
/// of the indivisible-loads paper). One interconnect round per order.
pub struct Diffusion {
    alpha: f64,
    order: usize,
    beta: f64,
    /// Previous signed flow per (node, lower proc, higher proc) edge,
    /// in cores, positive meaning lower-index → higher-index.
    prev_flow: std::collections::HashMap<(usize, usize, usize), f64>,
}

impl Diffusion {
    fn new(spec: &PolicySpec) -> Diffusion {
        Diffusion {
            alpha: spec.param("alpha"),
            order: spec.param("order") as usize,
            beta: spec.param("beta"),
            prev_flow: std::collections::HashMap::new(),
        }
    }
}

impl BalancePolicy for Diffusion {
    fn on_global_tick(&mut self, view: &SignalView<'_>) -> GlobalAction {
        let procs_on = apprank_of(view);
        let mut per_node: Vec<Vec<usize>> = view.ownership.to_vec();
        let mut changed = false;
        for (node, owners) in per_node.iter_mut().enumerate() {
            let count = owners.len();
            for p in 0..count {
                for q in (p + 1)..count {
                    let (Some(a), Some(b)) = (procs_on[node][p], procs_on[node][q]) else {
                        continue;
                    };
                    if !view.alive[node][p] || !view.alive[node][q] {
                        continue;
                    }
                    // Raw flow in cores along the p→q edge: the load
                    // difference scaled by the smaller endpoint.
                    let scale = owners[p].min(owners[q]) as f64;
                    let mut flow = self.alpha * (view.load(a) - view.load(b)) * scale;
                    if self.order >= 2 {
                        let prev = self.prev_flow.get(&(node, p, q)).copied().unwrap_or(0.0);
                        flow += self.beta * prev;
                    }
                    self.prev_flow.insert((node, p, q), flow);
                    // Positive flow means p is the more loaded vertex,
                    // so capacity (cores) moves q → p. Indivisible
                    // units: truncate toward zero, then clamp so both
                    // endpoints keep at least one core.
                    let units = flow.trunc() as i64;
                    let units = if units > 0 {
                        units.min(owners[q].saturating_sub(1) as i64)
                    } else {
                        units.max(-(owners[p].saturating_sub(1) as i64))
                    };
                    if units == 0 {
                        continue;
                    }
                    if units > 0 {
                        owners[q] -= units as usize;
                        owners[p] += units as usize;
                    } else {
                        owners[p] -= (-units) as usize;
                        owners[q] += (-units) as usize;
                    }
                    changed = true;
                }
            }
        }
        if changed {
            GlobalAction::SetOwnership {
                per_node,
                comm_rounds: self.order,
            }
        } else {
            GlobalAction::Keep
        }
    }
}

/// Per-node table mapping each process slot to its apprank (or `None`
/// for slots no apprank occupies), derived from the placement view.
fn apprank_of(view: &SignalView<'_>) -> Vec<Vec<Option<usize>>> {
    let mut table: Vec<Vec<Option<usize>>> = view
        .ownership
        .iter()
        .map(|row| vec![None; row.len()])
        .collect();
    for (a, places) in view.placement.iter().enumerate() {
        for &(node, proc) in places {
            if proc < table[node].len() {
                table[node][proc] = Some(a);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_policy_round_trips_bare() {
        for def in POLICY_REGISTRY {
            let spec = PolicySpec::named(def.name).unwrap();
            assert_eq!(spec.canonical(), def.name, "defaults render bare");
            let back = PolicySpec::parse(&spec.canonical()).unwrap();
            assert_eq!(back, spec, "parse(render(p)) == p for '{}'", def.name);
        }
    }

    #[test]
    fn parameterized_forms_round_trip() {
        for text in [
            "reactive-offload(hi=0.4)",
            "reactive-offload(hi=0.5,lo=0.2,unit=2)",
            "diffusion(alpha=0.25)",
            "diffusion(order=2,beta=0.75)",
            "diffusion(alpha=0.125,order=2)",
        ] {
            let spec = PolicySpec::parse(text).unwrap();
            let back = PolicySpec::parse(&spec.canonical()).unwrap();
            assert_eq!(back, spec, "round trip of '{text}'");
        }
    }

    #[test]
    fn canonical_is_spelling_independent() {
        let a = PolicySpec::parse("reactive-offload( lo = 0.05 , hi = 0.5 )").unwrap();
        let b = PolicySpec::parse("reactive-offload(hi=0.5,lo=0.05)").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        // Defaults spelled explicitly collapse back to the bare name.
        let c = PolicySpec::parse("diffusion(alpha=0.5,order=1,beta=0.5)").unwrap();
        assert_eq!(c.canonical(), "diffusion");
        assert_eq!(c, PolicySpec::named("diffusion").unwrap());
    }

    #[test]
    fn unknown_policy_lists_known_names() {
        let err = PolicySpec::parse("gossip").unwrap_err();
        for def in POLICY_REGISTRY {
            assert!(
                err.0.contains(def.name),
                "error should list '{}': {}",
                def.name,
                err.0
            );
        }
    }

    #[test]
    fn unknown_param_lists_known_params() {
        let err = PolicySpec::parse("diffusion(gamma=1)").unwrap_err();
        assert!(err.0.contains("alpha") && err.0.contains("order") && err.0.contains("beta"));
        let err = PolicySpec::parse("baseline(x=1)").unwrap_err();
        assert!(err.0.contains("takes no parameters"), "{}", err.0);
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(PolicySpec::parse("reactive-offload(hi=1.5)").is_err());
        assert!(PolicySpec::parse("reactive-offload(hi=0.1,lo=0.2)").is_err());
        assert!(PolicySpec::parse("reactive-offload(unit=0.5)").is_err());
        assert!(PolicySpec::parse("diffusion(order=3)").is_err());
        assert!(PolicySpec::parse("diffusion(alpha=0)").is_err());
        assert!(PolicySpec::parse("diffusion(alpha=nan)").is_err());
        assert!(PolicySpec::parse("diffusion(alpha=").is_err());
        assert!(PolicySpec::parse("diffusion(alpha)").is_err());
    }

    #[test]
    fn paper_policies_declare_their_mechanism() {
        // (name, lewi, solver, local tick, global tick)
        for (name, lewi, solver, local, global) in [
            ("baseline", false, false, false, false),
            ("lewi", true, false, false, false),
            ("drom-local", false, false, true, false),
            ("drom-global", false, true, false, true),
            ("lewi+drom-local", true, false, true, false),
            ("lewi+drom-global", true, true, false, true),
        ] {
            let spec = PolicySpec::named(name).unwrap();
            assert_eq!(spec.lewi(), lewi, "{name}: lewi");
            assert_eq!(spec.uses_solver(), solver, "{name}: solver");
            assert_eq!(spec.wants_local_tick(), local, "{name}: local tick");
            assert_eq!(spec.wants_global_tick(), global, "{name}: global tick");
            assert_eq!(spec.canonical(), name);
            assert!(PolicySpec::parse(&format!("{name}(x=1)")).is_err());
        }
        assert_eq!(known_policy_names().len(), 8);
    }

    fn view_fixture<'a>(
        work: &'a [f64],
        busy: &'a [Vec<f64>],
        placement: &'a [Vec<(usize, usize)>],
        ownership: &'a [Vec<usize>],
        alive: &'a [Vec<bool>],
    ) -> SignalView<'a> {
        SignalView {
            window_secs: 2.0,
            cores_per_node: 8,
            node_speed: &[1.0],
            work,
            busy,
            placement,
            ownership,
            alive,
        }
    }

    #[test]
    fn reactive_offload_moves_cores_to_busy_rank() {
        // Two appranks on one node: rank 0 nearly idle (latches), rank
        // 1 saturated with backlog.
        let work = [0.5, 40.0];
        let busy = [vec![0.5, 8.0]];
        let placement = [vec![(0, 0)], vec![(0, 1)]];
        let ownership = [vec![4, 4]];
        let alive = [vec![true, true]];
        let view = view_fixture(&work, &busy, &placement, &ownership, &alive);
        let mut pol = ReactiveOffload::new(&PolicySpec::parse("reactive-offload(unit=2)").unwrap());
        match pol.on_global_tick(&view) {
            GlobalAction::SetOwnership {
                per_node,
                comm_rounds,
            } => {
                assert_eq!(per_node, vec![vec![2, 6]]);
                assert_eq!(comm_rounds, 1);
            }
            other => panic!("expected SetOwnership, got {other:?}"),
        }
        // Balanced view: nothing moves.
        let busy = [vec![7.9, 7.9]];
        let work = [8.0, 8.0];
        let view = view_fixture(&work, &busy, &placement, &ownership, &alive);
        assert_eq!(pol.on_global_tick(&view), GlobalAction::Keep);
    }

    #[test]
    fn reactive_offload_never_strands_a_rank() {
        let work = [0.0, 40.0];
        let busy = [vec![0.0, 8.0]];
        let placement = [vec![(0, 0)], vec![(0, 1)]];
        let ownership = [vec![1, 7]];
        let alive = [vec![true, true]];
        let view = view_fixture(&work, &busy, &placement, &ownership, &alive);
        let mut pol = ReactiveOffload::new(&PolicySpec::parse("reactive-offload(unit=4)").unwrap());
        // Donor has one core: keeps it.
        assert_eq!(pol.on_global_tick(&view), GlobalAction::Keep);
    }

    #[test]
    fn diffusion_flows_from_loaded_to_idle() {
        // Rank 0 heavily backlogged, rank 1 idle: flow goes 0 → 1.
        let work = [64.0, 0.0];
        let busy = [vec![8.0, 0.0]];
        let placement = [vec![(0, 0)], vec![(0, 1)]];
        let ownership = [vec![4, 4]];
        let alive = [vec![true, true]];
        let view = view_fixture(&work, &busy, &placement, &ownership, &alive);
        let mut pol = Diffusion::new(&PolicySpec::parse("diffusion").unwrap());
        match pol.on_global_tick(&view) {
            GlobalAction::SetOwnership {
                per_node,
                comm_rounds,
            } => {
                assert_eq!(comm_rounds, 1);
                let row = &per_node[0];
                assert!(row[0] > 4 && row[1] < 4, "flow toward backlog: {row:?}");
                assert_eq!(row[0] + row[1], 8, "cores conserved");
                assert!(row[1] >= 1, "no stranded rank");
            }
            other => panic!("expected SetOwnership, got {other:?}"),
        }
    }

    #[test]
    fn diffusion_second_order_carries_momentum() {
        let work = [64.0, 0.0];
        let busy = [vec![8.0, 0.0]];
        let placement = [vec![(0, 0)], vec![(0, 1)]];
        let ownership = [vec![4, 4]];
        let alive = [vec![true, true]];
        let view = view_fixture(&work, &busy, &placement, &ownership, &alive);
        let mut first = Diffusion::new(&PolicySpec::parse("diffusion").unwrap());
        let mut second = Diffusion::new(&PolicySpec::parse("diffusion(order=2,beta=0.9)").unwrap());
        let _ = first.on_global_tick(&view);
        let _ = second.on_global_tick(&view);
        // After one tick the momentum term kicks in: the second-order
        // flow on the same view is at least the first-order flow.
        let f1 = match first.on_global_tick(&view) {
            GlobalAction::SetOwnership { per_node, .. } => per_node[0][0] as i64 - 4,
            GlobalAction::Keep => 0,
            other => panic!("unexpected {other:?}"),
        };
        let f2 = match second.on_global_tick(&view) {
            GlobalAction::SetOwnership {
                per_node,
                comm_rounds,
            } => {
                assert_eq!(comm_rounds, 2);
                per_node[0][0] as i64 - 4
            }
            GlobalAction::Keep => 0,
            other => panic!("unexpected {other:?}"),
        };
        assert!(f2 >= f1, "momentum should not shrink the flow: {f2} < {f1}");
    }

    #[test]
    fn policies_skip_retired_processes() {
        let work = [0.0, 40.0];
        let busy = [vec![0.0, 8.0]];
        let placement = [vec![(0, 0)], vec![(0, 1)]];
        let ownership = [vec![4, 4]];
        let alive = [vec![false, true]];
        let view = view_fixture(&work, &busy, &placement, &ownership, &alive);
        let mut reactive = ReactiveOffload::new(&PolicySpec::named("reactive-offload").unwrap());
        assert_eq!(reactive.on_global_tick(&view), GlobalAction::Keep);
        let mut diff = Diffusion::new(&PolicySpec::named("diffusion").unwrap());
        assert_eq!(diff.on_global_tick(&view), GlobalAction::Keep);
    }
}
