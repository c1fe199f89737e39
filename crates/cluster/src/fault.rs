//! Deterministic fault injection: plans, spec parsing, and run statistics.
//!
//! A [`FaultPlan`] describes *what goes wrong and when* in a simulated
//! run: sustained per-node slowdowns (stragglers), helper-worker death,
//! global-solver outages, and message loss/delay on the offload control
//! path. Everything is derived from the plan itself plus a seed routed
//! through `tlb-rng` substreams, so a given `(plan, seed)` pair produces
//! the same fault schedule — and therefore the same trace — regardless
//! of host, thread count, or how much other randomness the run consumed.
//!
//! The plan is pure data; the simulation in [`crate::sim`] interprets it
//! and degrades gracefully (see DESIGN.md, "Fault model"). An empty plan
//! ([`FaultPlan::none`]) injects nothing and leaves the simulation
//! bitwise-identical to a run without the fault machinery.
//!
//! [`FaultPlan::parse`] reads syntax and [`FaultPlan::validate`] is the
//! one place a plan's values are judged, whoever built it: a plan that
//! passes can neither stop a node nor overflow the virtual clock.

use tlb_des::SimTime;
use tlb_linprog::LpError;

/// Floor on the product of a node's stacked straggler factors (its speed
/// relative to fault-free): overlapping bursts can slow a node this far
/// and no further, so its speed never reaches zero. One burst may slow by
/// at most the inverse.
pub(crate) const MIN_SPEED_FACTOR: f64 = 1e-6;
const MAX_SLOWDOWN: f64 = 1.0 / MIN_SPEED_FACTOR;

/// Largest start time, duration, backoff or extra latency a plan may
/// hold: 1e6 s, ≈ 11.6 days of virtual time.
const MAX_TIME: SimTime = SimTime::from_secs(1_000_000);

/// Most retries a loss fault may ask for: with `MAX_TIME` this keeps the
/// summed linear backoff of one send inside the `u64` nanosecond clock.
const MAX_RETRIES: u32 = 100;

/// The first of a clause's rules that does not hold, as the error.
fn check<const N: usize>(clause: String, rules: [(bool, String); N]) -> Result<(), String> {
    match rules.into_iter().find(|(holds, _)| !holds) {
        Some((_, why)) => Err(format!("{clause}: {why}")),
        None => Ok(()),
    }
}

/// Seconds → virtual time for a plan field, without hiding bad input:
/// what the field cannot hold (negative, non-finite, past `MAX_TIME`)
/// becomes [`SimTime::MAX`], which [`FaultPlan::validate`] rejects.
fn secs(s: f64) -> SimTime {
    if (0.0..=MAX_TIME.as_secs_f64()).contains(&s) {
        SimTime::from_secs_f64(s)
    } else {
        SimTime::MAX
    }
}

/// A sustained slowdown of one node, beyond DVFS noise: at `at`, the
/// node's speed is multiplied by `1 / slowdown` until `at + duration`.
#[derive(Clone, Debug, PartialEq)]
pub struct StragglerFault {
    /// Virtual time the burst starts.
    pub at: SimTime,
    /// Node that straggles.
    pub node: usize,
    /// Slowdown factor (≥ 1; 3.0 means the node runs at a third speed).
    pub slowdown: f64,
    /// How long the burst lasts.
    pub duration: SimTime,
}

/// Fail-stop death of one helper worker process. The victim finishes its
/// currently running task (fail-stop *after* the task, preserving
/// exact-once execution), then its queued and in-flight tasks are
/// re-enqueued at the home apprank and its DROM cores return to the
/// node's survivors.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerKillFault {
    /// Virtual time the worker dies.
    pub at: SimTime,
    /// Explicit victim `(apprank, helper slot ≥ 1)`, or `None` to pick a
    /// living helper uniformly from the plan's RNG substream.
    pub victim: Option<(usize, usize)>,
}

/// A window during which the global LP solver fails instead of solving.
/// Every global tick inside the window falls back to the degradation
/// ladder rather than aborting the run.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverOutageFault {
    /// Virtual time the outage starts.
    pub at: SimTime,
    /// How long it lasts.
    pub duration: SimTime,
    /// The error the solver reports (timeouts map to
    /// [`LpError::IterationLimit`]).
    pub error: LpError,
}

/// Message loss on the offload control path: within the window each send
/// attempt is dropped with probability `rate`; drops are retried up to
/// `max_retries` times with linear backoff, after which the task fails
/// over to home execution.
#[derive(Clone, Debug, PartialEq)]
pub struct LossFault {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Per-attempt drop probability in `[0, 1)`.
    pub rate: f64,
    /// Retries after the first attempt before failing over.
    pub max_retries: u32,
    /// Backoff before retry `i` (1-based): `backoff * i`.
    pub backoff: SimTime,
}

/// Extra network latency added to every offload transfer in the window
/// (a degraded-link fault, distinct from loss).
#[derive(Clone, Debug, PartialEq)]
pub struct DelayFault {
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Added latency per transfer.
    pub extra: SimTime,
}

/// A complete, deterministic fault schedule for one run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's `tlb-rng` substreams (victim picks, drop
    /// draws). Independent of the workload seed.
    pub seed: u64,
    /// Straggler bursts.
    pub stragglers: Vec<StragglerFault>,
    /// Worker deaths.
    pub kills: Vec<WorkerKillFault>,
    /// Global-solver outage windows.
    pub outages: Vec<SolverOutageFault>,
    /// Message-loss window, if any.
    pub loss: Option<LossFault>,
    /// Message-delay window, if any.
    pub delay: Option<DelayFault>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected, and the run is
    /// bitwise-identical to one without the fault machinery.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Empty plan with a seed (for building plans incrementally).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty()
            && self.kills.is_empty()
            && self.outages.is_empty()
            && self.loss.is_none()
            && self.delay.is_none()
    }

    /// Add a straggler burst (builder style).
    pub fn with_straggler(mut self, at: f64, node: usize, slowdown: f64, duration: f64) -> Self {
        self.stragglers.push(StragglerFault {
            at: secs(at),
            node,
            slowdown,
            duration: secs(duration),
        });
        self
    }

    /// Add a worker kill with an RNG-picked victim (builder style).
    pub fn with_kill(mut self, at: f64) -> Self {
        self.kills.push(WorkerKillFault {
            at: secs(at),
            victim: None,
        });
        self
    }

    /// Add a worker kill of a specific helper (builder style).
    pub fn with_kill_of(mut self, at: f64, apprank: usize, slot: usize) -> Self {
        self.kills.push(WorkerKillFault {
            at: secs(at),
            victim: Some((apprank, slot)),
        });
        self
    }

    /// Add a solver outage window (builder style).
    pub fn with_outage(mut self, at: f64, duration: f64, error: LpError) -> Self {
        self.outages.push(SolverOutageFault {
            at: secs(at),
            duration: secs(duration),
            error,
        });
        self
    }

    /// Set the message-loss window (builder style).
    pub fn with_loss(
        mut self,
        from: f64,
        until: f64,
        rate: f64,
        max_retries: u32,
        backoff: f64,
    ) -> Self {
        self.loss = Some(LossFault {
            from: secs(from),
            until: SimTime::from_secs_f64(until),
            rate,
            max_retries,
            backoff: secs(backoff),
        });
        self
    }

    /// Set the message-delay window (builder style).
    pub fn with_delay(mut self, from: f64, until: f64, extra: f64) -> Self {
        self.delay = Some(DelayFault {
            from: secs(from),
            until: SimTime::from_secs_f64(until),
            extra: secs(extra),
        });
        self
    }

    /// Judge the plan's values against the run it is for: `nodes` and
    /// `appranks` of the machine. This is the only place a plan is
    /// checked — [`parse`] reads syntax, the builders store what they
    /// are given, and `ClusterSim::execute` and `Scenario::validate`
    /// both call this.
    /// Accepted: start times, durations, backoff and extra latency in
    /// `[0, 1e6]` seconds; a window that ends after it starts; `slow` in
    /// `[1, 1e6]`; `rate` in `[0, 1)`; at most 100 retries; straggler
    /// nodes and kill victims that exist (victims are helpers, slot ≥ 1).
    /// The error names the clause.
    ///
    /// [`parse`]: FaultPlan::parse
    pub fn validate(&self, nodes: usize, appranks: usize) -> Result<(), String> {
        let clause = |kind: &str, at: SimTime| {
            if at > MAX_TIME {
                return format!("{kind}@<bad time>");
            }
            format!("{kind}@{}", at.as_secs_f64())
        };
        // Each rule: what must hold, and what to say if it does not.
        let in_range = |what: &str, t: SimTime| {
            let max = MAX_TIME.as_secs_f64();
            let why = format!("{what} must be a number of seconds in [0, {max:e}]");
            (t <= MAX_TIME, why)
        };
        let window = |from: SimTime, until: SimTime| {
            let why = "'for' must be a positive number of seconds";
            (from < until, why.to_string())
        };
        for s in &self.stragglers {
            let rules = [
                in_range("start time", s.at),
                in_range("'for'", s.duration),
                (
                    s.node < nodes,
                    format!("node {} out of range ({nodes} nodes)", s.node),
                ),
                (
                    (1.0..=MAX_SLOWDOWN).contains(&s.slowdown),
                    format!("slow must be a number in [1, {MAX_SLOWDOWN:e}]"),
                ),
            ];
            check(clause("straggler", s.at), rules)?;
        }
        for k in &self.kills {
            // No victim named: the run picks a living helper itself.
            let (a, slot) = k.victim.unwrap_or((0, 1));
            let helper = a < appranks && slot >= 1;
            let why = format!(
                "victim (apprank {a}, slot {slot}) is not a helper worker \
                 (apprank < {appranks}, slot >= 1)"
            );
            check(
                clause("kill", k.at),
                [in_range("start time", k.at), (helper, why)],
            )?;
        }
        for o in &self.outages {
            let rules = [in_range("start time", o.at), in_range("'for'", o.duration)];
            check(clause("outage", o.at), rules)?;
        }
        if let Some(l) = &self.loss {
            let rules = [
                in_range("start time", l.from),
                window(l.from, l.until),
                in_range("backoff", l.backoff),
                (
                    (0.0..1.0).contains(&l.rate),
                    "loss rate must be a number in [0, 1)".to_string(),
                ),
                (
                    l.max_retries <= MAX_RETRIES,
                    format!("retries must be at most {MAX_RETRIES}"),
                ),
            ];
            check(clause("loss", l.from), rules)?;
        }
        if let Some(d) = &self.delay {
            let rules = [
                in_range("start time", d.from),
                window(d.from, d.until),
                in_range("extra", d.extra),
            ];
            check(clause("delay", d.from), rules)?;
        }
        Ok(())
    }

    /// Parse a `--faults` spec string. Clauses are separated by `;`, each
    /// clause is `kind@time[,key=value,...]` with times/durations in
    /// (virtual) seconds:
    ///
    /// * `straggler@T,node=N[,slow=S][,for=D]` — node `N` runs `S`×
    ///   slower (default 4) for `D` seconds (default 1).
    /// * `kill@T[,apprank=A,slot=K]` — kill a helper worker at `T`;
    ///   without an explicit victim one is picked from the fault seed.
    /// * `outage@T[,for=D][,error=E]` — the global solver fails for `D`
    ///   seconds (default 1); `E` ∈ `timeout` (default),
    ///   `iteration_limit`, `infeasible`, `unbounded`.
    /// * `loss@T[,for=D][,rate=R][,retries=N][,backoff=B]` — offload
    ///   messages drop with probability `R` (default 0.5) from `T` for
    ///   `D` seconds (default: rest of run), retried `N` times (default 3)
    ///   with `B`-second linear backoff (default 0.005).
    /// * `delay@T[,for=D][,extra=X]` — offload transfers take `X` extra
    ///   seconds (default 0.002) from `T` for `D` seconds (default: rest
    ///   of run).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(',');
            let head = parts.next().unwrap_or_default();
            let (kind, at) = head
                .split_once('@')
                .ok_or_else(|| format!("clause '{clause}': expected kind@time"))?;
            let at: f64 = at
                .parse()
                .map_err(|_| format!("clause '{clause}': bad time '{at}'"))?;
            let mut kv = Vec::new();
            for part in parts {
                let (k, v) = part.split_once('=').ok_or_else(|| {
                    format!("clause '{clause}': expected key=value, got '{part}'")
                })?;
                kv.push((k.trim(), v.trim()));
            }
            let get = |key: &str| kv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
            let get_f64 = |key: &str, default: f64| -> Result<f64, String> {
                match get(key) {
                    Some(v) => v
                        .parse()
                        .map_err(|_| format!("clause '{clause}': bad {key}='{v}'")),
                    None => Ok(default),
                }
            };
            let get_usize = |key: &str| -> Result<Option<usize>, String> {
                match get(key) {
                    Some(v) => v
                        .parse()
                        .map(Some)
                        .map_err(|_| format!("clause '{clause}': bad {key}='{v}'")),
                    None => Ok(None),
                }
            };
            let known = |allowed: &[&str]| -> Result<(), String> {
                for (k, _) in &kv {
                    if !allowed.contains(k) {
                        return Err(format!("clause '{clause}': unknown key '{k}'"));
                    }
                }
                Ok(())
            };
            match kind {
                "straggler" => {
                    known(&["node", "slow", "for"])?;
                    let node = get_usize("node")?
                        .ok_or_else(|| format!("clause '{clause}': straggler needs node=N"))?;
                    let slowdown = get_f64("slow", 4.0)?;
                    let dur = get_f64("for", 1.0)?;
                    plan = plan.with_straggler(at, node, slowdown, dur);
                }
                "kill" => {
                    known(&["apprank", "slot"])?;
                    let apprank = get_usize("apprank")?;
                    let slot = get_usize("slot")?;
                    plan = match (apprank, slot) {
                        (Some(a), Some(k)) => plan.with_kill_of(at, a, k),
                        (None, None) => plan.with_kill(at),
                        _ => {
                            return Err(format!(
                                "clause '{clause}': apprank and slot must be given together"
                            ))
                        }
                    };
                }
                "outage" => {
                    known(&["for", "error"])?;
                    let dur = get_f64("for", 1.0)?;
                    let error = match get("error").unwrap_or("timeout") {
                        "timeout" | "iteration_limit" => LpError::IterationLimit,
                        "infeasible" => LpError::Infeasible,
                        "unbounded" => LpError::Unbounded,
                        other => return Err(format!("clause '{clause}': unknown error '{other}'")),
                    };
                    plan = plan.with_outage(at, dur, error);
                }
                "loss" => {
                    known(&["for", "rate", "retries", "backoff"])?;
                    if plan.loss.is_some() {
                        return Err("only one loss window is supported".to_string());
                    }
                    let rate = get_f64("rate", 0.5)?;
                    let retries = get_usize("retries")?.unwrap_or(3);
                    let retries = u32::try_from(retries).unwrap_or(u32::MAX);
                    let backoff = get_f64("backoff", 0.005)?;
                    // No `for`: the window lasts the rest of the run.
                    let until = at + get_f64("for", f64::MAX)?;
                    plan = plan.with_loss(at, until, rate, retries, backoff);
                }
                "delay" => {
                    known(&["for", "extra"])?;
                    if plan.delay.is_some() {
                        return Err("only one delay window is supported".to_string());
                    }
                    let extra = get_f64("extra", 0.002)?;
                    let until = at + get_f64("for", f64::MAX)?;
                    plan = plan.with_delay(at, until, extra);
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            }
        }
        Ok(plan)
    }
}

/// Fault/recovery accounting for one run. All zeros when no faults were
/// injected; the fault tests of `sim.rs` gate
/// `injected == recovered + absorbed` (nothing is silently lost).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events that fired: straggler bursts, kills, outage windows,
    /// and individual message drops.
    pub injected: usize,
    /// Faults the runtime recovered from: burst/outage ended, a killed
    /// worker's state was fully reclaimed, a dropped message's retry
    /// succeeded.
    pub recovered: usize,
    /// Faults consciously absorbed rather than recovered: kills with no
    /// living victim, messages whose retries were exhausted (the task
    /// ran at home instead).
    pub absorbed: usize,
    /// Helper workers killed.
    pub workers_killed: usize,
    /// Queued/in-flight tasks re-enqueued at home after a kill.
    pub tasks_requeued: usize,
    /// Offload send attempts dropped by the loss fault.
    pub messages_dropped: usize,
    /// Tasks that exhausted retries and fell back to home execution.
    pub message_failovers: usize,
    /// Global ticks answered by the degradation ladder instead of the LP.
    pub solver_fallbacks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::new(7).with_kill(1.0).is_empty());
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "straggler@0.5,node=1,slow=3,for=2; kill@1; kill@1.5,apprank=2,slot=1; \
             outage@2,for=0.5,error=infeasible; loss@0,for=4,rate=0.25,retries=2,backoff=0.01; \
             delay@0,extra=0.001",
            99,
        )
        .unwrap();
        assert_eq!(plan.seed, 99);
        assert_eq!(plan.stragglers.len(), 1);
        assert_eq!(plan.stragglers[0].node, 1);
        assert_eq!(plan.stragglers[0].slowdown, 3.0);
        assert_eq!(plan.stragglers[0].duration, SimTime::from_secs(2));
        assert_eq!(plan.kills.len(), 2);
        assert_eq!(plan.kills[0].victim, None);
        assert_eq!(plan.kills[1].victim, Some((2, 1)));
        assert_eq!(plan.outages.len(), 1);
        assert_eq!(plan.outages[0].error, LpError::Infeasible);
        let loss = plan.loss.unwrap();
        assert_eq!(loss.rate, 0.25);
        assert_eq!(loss.max_retries, 2);
        assert_eq!(loss.until, SimTime::from_secs(4));
        let delay = plan.delay.unwrap();
        assert_eq!(delay.until, SimTime::MAX, "no 'for' means rest of run");
        assert_eq!(delay.extra, SimTime::from_millis(1));
    }

    #[test]
    fn parse_defaults() {
        let plan = FaultPlan::parse("straggler@1,node=0;outage@2;loss@0;kill@3", 1).unwrap();
        assert_eq!(plan.stragglers[0].slowdown, 4.0);
        assert_eq!(plan.stragglers[0].duration, SimTime::from_secs(1));
        assert_eq!(plan.outages[0].error, LpError::IterationLimit);
        let loss = plan.loss.unwrap();
        assert_eq!(loss.rate, 0.5);
        assert_eq!(loss.max_retries, 3);
    }

    #[test]
    fn parse_rejects_bad_syntax() {
        for bad in [
            "straggler@1",   // missing node
            "kill@1,slot=2", // slot without apprank
            "outage@1,error=weird",
            "loss@0;loss@1",
            "loss@0,rate=high",
            "nonsense@3",
            "kill@abc",
            "kill",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "accepted '{bad}'");
        }
        // Outages take the whole solver down; there is no other scope.
        let err = FaultPlan::parse("outage@1,strategy=flow", 0).unwrap_err();
        assert!(err.contains("unknown key 'strategy'"), "{err}");
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn validate_judges_every_value() {
        // A 2-node, 2-apprank run. Each spec parses; `validate` names
        // the clause, then the value it refuses.
        for (spec, refusal) in [
            (
                "straggler@0.1,node=99",
                "straggler@0.1: node 99 out of range",
            ),
            ("kill@0.1,apprank=0,slot=0", "kill@0.1: victim"),
            ("kill@0.1,apprank=2,slot=1", "kill@0.1: victim"),
            ("loss@0,for=1,rate=1.5", "loss@0: loss rate"),
            ("loss@0,rate=nan", "loss@0: loss rate"),
            ("loss@0,retries=101", "loss@0: retries"),
            ("loss@0,retries=4294967297", "loss@0: retries"),
            ("loss@0,backoff=inf", "loss@0: backoff"),
            ("loss@2,for=nan", "loss@2: 'for'"),
            ("loss@2,for=-1", "loss@2: 'for'"),
            ("delay@0,for=0", "delay@0: 'for'"),
            ("delay@0,extra=-1", "delay@0: extra"),
            ("straggler@0.1,node=0,slow=0.5", "straggler@0.1: slow"),
            ("straggler@0.1,node=0,slow=inf", "straggler@0.1: slow"),
            ("straggler@0.1,node=0,slow=nan", "straggler@0.1: slow"),
            ("straggler@0.1,node=0,slow=1e200", "straggler@0.1: slow"),
            ("straggler@0.1,node=0,for=nan", "straggler@0.1: 'for'"),
            ("straggler@0.1,node=0,for=1e300", "straggler@0.1: 'for'"),
            ("straggler@-1,node=0", "straggler@<bad time>: start time"),
            ("kill@nan", "kill@<bad time>: start time"),
            ("outage@1e7", "outage@<bad time>: start time"),
            ("outage@1,for=inf", "outage@1: 'for'"),
        ] {
            let plan = FaultPlan::parse(spec, 0).unwrap();
            let err = plan.validate(2, 2).unwrap_err();
            assert!(err.starts_with(refusal), "'{spec}': {err}");
        }
        // The same judgement for a plan built in code.
        let built = FaultPlan::new(1).with_straggler(0.1, 0, f64::INFINITY, f64::NAN);
        assert!(built.validate(2, 2).is_err());
        // The edges of every range are inside it.
        let edges = "straggler@0,node=1,slow=1,for=0; straggler@1e6,node=0,slow=1e6,for=1e6; \
                     kill@0,apprank=1,slot=1; loss@0,for=1e-9,rate=0,retries=100,backoff=1e6; \
                     delay@1e6,extra=0";
        let plan = FaultPlan::parse(edges, 0).unwrap();
        assert_eq!(plan.validate(2, 2), Ok(()));
    }
}
