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
//! [`FaultPlan::parse`] is the one way to build a plan: it reads a spec
//! string into one list of [`Fault`]s, each a [`FaultKind`] over a start
//! and an end. [`FaultPlan::validate`] is the one place a plan's values
//! are judged, whoever built it: a plan that passes can neither stop a
//! node nor overflow the virtual clock.

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

/// The end of a window that opens at `start` and lasts `dur` seconds,
/// saturating at [`SimTime::MAX`] so a bad `start` still reaches
/// [`FaultPlan::validate`]'s message. A `dur` that is not a positive,
/// finite number closes the window where it opens, which `validate`
/// refuses (`'for' must be a positive, finite number of seconds`).
fn window_end(start: SimTime, dur: f64) -> SimTime {
    if !(dur > 0.0 && dur.is_finite()) {
        return start;
    }
    let dur = SimTime::from_secs_f64(dur);
    start.checked_add(dur).unwrap_or(SimTime::MAX)
}

/// What one fault does while it lasts.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// A sustained slowdown of one node — a straggler, or a DVFS/thermal
    /// throttle: the node's speed is multiplied by `1 / slowdown`.
    Straggler {
        /// Node that straggles.
        node: usize,
        /// Slowdown factor (≥ 1; 3.0 means the node runs at a third speed).
        slowdown: f64,
    },
    /// Fail-stop death of one helper worker process. The victim finishes
    /// its currently running task (fail-stop *after* the task, preserving
    /// exact-once execution), then its queued and in-flight tasks are
    /// re-enqueued at the home apprank and its DROM cores return to the
    /// node's survivors.
    Kill {
        /// Explicit victim `(apprank, helper slot ≥ 1)`, or `None` to pick
        /// a living helper uniformly from the plan's RNG substream.
        victim: Option<(usize, usize)>,
    },
    /// The global LP solver fails instead of solving: every global tick
    /// in the window falls back to the degradation ladder rather than
    /// aborting the run.
    Outage {
        /// The error the solver reports (timeouts map to
        /// [`LpError::IterationLimit`]).
        error: LpError,
    },
    /// Message loss on the offload control path: each send attempt is
    /// dropped with probability `rate`; drops are retried up to
    /// `max_retries` times with linear backoff, after which the task
    /// fails over to home execution.
    Loss {
        /// Per-attempt drop probability in `[0, 1)`.
        rate: f64,
        /// Retries after the first attempt before failing over.
        max_retries: u32,
        /// Backoff before retry `i` (1-based): `backoff * i`.
        backoff: SimTime,
    },
    /// Extra network latency added to every offload transfer (a
    /// degraded-link fault, distinct from loss).
    Delay {
        /// Added latency per transfer.
        extra: SimTime,
    },
}

impl FaultKind {
    /// The kind's name in a spec clause.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::Kill { .. } => "kill",
            FaultKind::Outage { .. } => "outage",
            FaultKind::Loss { .. } => "loss",
            FaultKind::Delay { .. } => "delay",
        }
    }
}

/// One fault of a plan: a kind that acts over `[start, end)`. A kill is
/// an instant (`end == start`); a loss or delay window given no `for`
/// ends at [`SimTime::MAX`], the rest of the run.
#[derive(Clone, Debug, PartialEq)]
pub struct Fault {
    /// Virtual time the fault starts.
    pub start: SimTime,
    /// Virtual time it ends (exclusive).
    pub end: SimTime,
    /// What it does.
    pub kind: FaultKind,
}

/// A complete, deterministic fault schedule for one run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's `tlb-rng` substreams (victim picks, drop
    /// draws). Independent of the workload seed.
    pub seed: u64,
    /// The faults, in spec order; faults that start at the same instant
    /// fire in this order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected, and the run is
    /// bitwise-identical to one without the fault machinery.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Judge the plan's values against the run it is for: `nodes` and
    /// `appranks` of the machine. This is the only place a plan is
    /// checked — [`parse`] reads syntax, and `ClusterSim::execute` and
    /// `Scenario::validate` both call this.
    /// Accepted: start times, straggler and outage durations, backoff and
    /// extra latency in `[0, 1e6]` seconds; a window of any kind but a
    /// kill that ends after it starts (`for` > 0); `slow` in `[1, 1e6]`;
    /// `rate` in `[0, 1)`; at most 100 retries; straggler nodes and kill
    /// victims that exist (victims are helpers, slot ≥ 1).
    /// The error names the clause.
    ///
    /// [`parse`]: FaultPlan::parse
    pub fn validate(&self, nodes: usize, appranks: usize) -> Result<(), String> {
        // Each rule: what must hold, and what to say if it does not.
        let in_range = |what: &str, t: SimTime| {
            let max = MAX_TIME.as_secs_f64();
            let why = format!("{what} must be a number of seconds in [0, {max:e}]");
            (t <= MAX_TIME, why)
        };
        for f in &self.faults {
            let kind = f.kind.name();
            let clause = if f.start > MAX_TIME {
                format!("{kind}@<bad time>")
            } else {
                format!("{kind}@{}", f.start.as_secs_f64())
            };
            let is_kill = matches!(f.kind, FaultKind::Kill { .. });
            // Only stragglers and outages schedule their end; a loss or
            // delay window may stay open for the rest of the run.
            let scheduled_end = matches!(
                f.kind,
                FaultKind::Straggler { .. } | FaultKind::Outage { .. }
            );
            let mut rules = vec![
                in_range("start time", f.start),
                (
                    is_kill || f.start < f.end,
                    "'for' must be a positive, finite number of seconds".to_string(),
                ),
            ];
            if scheduled_end {
                rules.push(in_range("'for'", f.end.saturating_sub(f.start)));
            }
            match &f.kind {
                FaultKind::Straggler { node, slowdown } => rules.extend([
                    (
                        *node < nodes,
                        format!("node {node} out of range ({nodes} nodes)"),
                    ),
                    (
                        (1.0..=MAX_SLOWDOWN).contains(slowdown),
                        format!("slow must be a number in [1, {MAX_SLOWDOWN:e}]"),
                    ),
                ]),
                FaultKind::Kill { victim } => {
                    // No victim named: the run picks a living helper itself.
                    let (a, slot) = victim.unwrap_or((0, 1));
                    let why = format!(
                        "victim (apprank {a}, slot {slot}) is not a helper worker \
                         (apprank < {appranks}, slot >= 1)"
                    );
                    rules.push((a < appranks && slot >= 1, why));
                }
                FaultKind::Outage { .. } => {}
                FaultKind::Loss {
                    rate,
                    max_retries,
                    backoff,
                } => rules.extend([
                    in_range("backoff", *backoff),
                    (
                        (0.0..1.0).contains(rate),
                        "loss rate must be a number in [0, 1)".to_string(),
                    ),
                    (
                        *max_retries <= MAX_RETRIES,
                        format!("retries must be at most {MAX_RETRIES}"),
                    ),
                ]),
                FaultKind::Delay { extra } => rules.push(in_range("extra", *extra)),
            }
            if let Some((_, why)) = rules.into_iter().find(|(holds, _)| !holds) {
                return Err(format!("{clause}: {why}"));
            }
        }
        Ok(())
    }

    /// Parse a `--faults` spec string — the only way to build a plan.
    /// Clauses are separated by `;`, each clause is
    /// `kind@time[,for=D][,key=value,...]` with times/durations in
    /// (virtual) seconds; a key may appear once per clause:
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
    ///   with `B`-second linear backoff (default 0.005). One per plan.
    /// * `delay@T[,for=D][,extra=X]` — offload transfers take `X` extra
    ///   seconds (default 0.002) from `T` for `D` seconds (default: rest
    ///   of run). One per plan.
    ///
    /// Values are judged by [`FaultPlan::validate`], not here: a time the
    /// clock cannot hold is kept as one `validate` refuses by name.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut faults: Vec<Fault> = Vec::new();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let bad = |what: String| format!("clause '{clause}': {what}");
            let mut parts = clause.split(',');
            let head = parts.next().unwrap_or_default();
            let (name, at) = head
                .split_once('@')
                .ok_or_else(|| bad("expected kind@time".to_string()))?;
            let at: f64 = at.parse().map_err(|_| bad(format!("bad time '{at}'")))?;
            let mut kv: Vec<(&str, &str)> = Vec::new();
            for part in parts {
                let (k, v) = part
                    .split_once('=')
                    .ok_or_else(|| bad(format!("expected key=value, got '{part}'")))?;
                let k = k.trim();
                if kv.iter().any(|(seen, _)| *seen == k) {
                    return Err(bad(format!("repeated key '{k}'")));
                }
                kv.push((k, v.trim()));
            }
            let get = |key: &str| kv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
            let get_f64 = |key: &str, default: f64| -> Result<f64, String> {
                match get(key) {
                    Some(v) => v.parse().map_err(|_| bad(format!("bad {key}='{v}'"))),
                    None => Ok(default),
                }
            };
            let get_usize = |key: &str| -> Result<Option<usize>, String> {
                match get(key) {
                    Some(v) => v
                        .parse()
                        .map(Some)
                        .map_err(|_| bad(format!("bad {key}='{v}'"))),
                    None => Ok(None),
                }
            };
            let known = |allowed: &[&str]| -> Result<(), String> {
                match kv.iter().find(|(k, _)| !allowed.contains(k)) {
                    Some((k, _)) => Err(bad(format!("unknown key '{k}'"))),
                    None => Ok(()),
                }
            };
            // Each kind's keys besides `for`, and its `for` when none is
            // given: a kill lasts no time, a loss or delay window the
            // rest of the run.
            let (kind, default_for) = match name {
                "straggler" => {
                    known(&["node", "slow", "for"])?;
                    let node = get_usize("node")?
                        .ok_or_else(|| bad("straggler needs node=N".to_string()))?;
                    let slowdown = get_f64("slow", 4.0)?;
                    (FaultKind::Straggler { node, slowdown }, 1.0)
                }
                "kill" => {
                    known(&["apprank", "slot"])?;
                    let victim = match (get_usize("apprank")?, get_usize("slot")?) {
                        (Some(a), Some(k)) => Some((a, k)),
                        (None, None) => None,
                        _ => return Err(bad("apprank and slot must be given together".into())),
                    };
                    (FaultKind::Kill { victim }, 0.0)
                }
                "outage" => {
                    known(&["for", "error"])?;
                    let error = match get("error").unwrap_or("timeout") {
                        "timeout" | "iteration_limit" => LpError::IterationLimit,
                        "infeasible" => LpError::Infeasible,
                        "unbounded" => LpError::Unbounded,
                        other => return Err(bad(format!("unknown error '{other}'"))),
                    };
                    (FaultKind::Outage { error }, 1.0)
                }
                "loss" => {
                    known(&["for", "rate", "retries", "backoff"])?;
                    let retries = get_usize("retries")?.unwrap_or(3);
                    let kind = FaultKind::Loss {
                        rate: get_f64("rate", 0.5)?,
                        max_retries: u32::try_from(retries).unwrap_or(u32::MAX),
                        backoff: secs(get_f64("backoff", 0.005)?),
                    };
                    (kind, f64::MAX)
                }
                "delay" => {
                    known(&["for", "extra"])?;
                    let extra = secs(get_f64("extra", 0.002)?);
                    (FaultKind::Delay { extra }, f64::MAX)
                }
                other => return Err(format!("unknown fault kind '{other}'")),
            };
            let one_per_plan = matches!(kind, FaultKind::Loss { .. } | FaultKind::Delay { .. });
            if one_per_plan && faults.iter().any(|f| f.kind.name() == name) {
                return Err(format!("only one {name} window is supported"));
            }
            let start = secs(at);
            let end = window_end(start, get_f64("for", default_for)?);
            faults.push(Fault { start, end, kind });
        }
        Ok(FaultPlan { seed, faults })
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
        assert!(!FaultPlan::parse("kill@1", 7).unwrap().is_empty());
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
        let ms = SimTime::from_millis;
        // One record per clause, in spec order.
        assert_eq!(
            plan.faults,
            [
                Fault {
                    start: ms(500),
                    end: ms(2500),
                    kind: FaultKind::Straggler {
                        node: 1,
                        slowdown: 3.0
                    },
                },
                Fault {
                    start: ms(1000),
                    end: ms(1000),
                    kind: FaultKind::Kill { victim: None },
                },
                Fault {
                    start: ms(1500),
                    end: ms(1500),
                    kind: FaultKind::Kill {
                        victim: Some((2, 1))
                    },
                },
                Fault {
                    start: ms(2000),
                    end: ms(2500),
                    kind: FaultKind::Outage {
                        error: LpError::Infeasible
                    },
                },
                Fault {
                    start: SimTime::ZERO,
                    end: ms(4000),
                    kind: FaultKind::Loss {
                        rate: 0.25,
                        max_retries: 2,
                        backoff: ms(10),
                    },
                },
                // No 'for' means rest of run.
                Fault {
                    start: SimTime::ZERO,
                    end: SimTime::MAX,
                    kind: FaultKind::Delay { extra: ms(1) },
                },
            ]
        );
    }

    #[test]
    fn parse_defaults() {
        let plan = FaultPlan::parse("straggler@1,node=0;outage@2;loss@0;kill@3", 1).unwrap();
        let kinds: Vec<&FaultKind> = plan.faults.iter().map(|f| &f.kind).collect();
        assert_eq!(
            kinds,
            [
                &FaultKind::Straggler {
                    node: 0,
                    slowdown: 4.0
                },
                &FaultKind::Outage {
                    error: LpError::IterationLimit
                },
                &FaultKind::Loss {
                    rate: 0.5,
                    max_retries: 3,
                    backoff: SimTime::from_millis(5),
                },
                &FaultKind::Kill { victim: None },
            ]
        );
        let lasts = |i: usize| plan.faults[i].end - plan.faults[i].start;
        assert_eq!(lasts(0), SimTime::from_secs(1));
        assert_eq!(lasts(1), SimTime::from_secs(1));
        assert_eq!(plan.faults[2].end, SimTime::MAX);
        assert_eq!(lasts(3), SimTime::ZERO);
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
        // A key says one thing once: neither the first nor the last wins.
        for (bad, key) in [
            ("straggler@1,node=0,node=1", "node"),
            ("loss@0,rate=0.1,for=1,rate=0.2", "rate"),
            ("kill@1,apprank=0,slot=1,slot=1", "slot"),
        ] {
            let err = FaultPlan::parse(bad, 0).unwrap_err();
            assert!(err.contains(&format!("repeated key '{key}'")), "{err}");
        }
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
            ("outage@1,for=0", "outage@1: 'for'"),
            ("straggler@1,node=0,for=0", "straggler@1: 'for'"),
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
        // The same judgement for a plan that did not come from `parse`.
        let built = FaultPlan {
            seed: 1,
            faults: vec![Fault {
                start: SimTime::from_millis(100),
                end: SimTime::MAX,
                kind: FaultKind::Straggler {
                    node: 0,
                    slowdown: f64::INFINITY,
                },
            }],
        };
        assert!(built.validate(2, 2).is_err());
        // The edges of every range are inside it.
        let edges = "straggler@0,node=1,slow=1,for=1e-9; straggler@1e6,node=0,slow=1e6,for=1e6; \
                     kill@0,apprank=1,slot=1; loss@0,for=1e-9,rate=0,retries=100,backoff=1e6; \
                     outage@0,for=1e-9; delay@1e6,extra=0";
        let plan = FaultPlan::parse(edges, 0).unwrap();
        assert_eq!(plan.validate(2, 2), Ok(()));
    }
}
