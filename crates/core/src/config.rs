//! Experiment configuration: platform description and balancing knobs.

use crate::PolicySpec;
use tlb_des::SimTime;
use tlb_portfolio::Strategy;

/// A scheduled change of one node's speed (DVFS step, thermal throttle,
/// turbo variation — the system-level imbalance sources of the paper's
/// introduction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// Which node.
    pub node: usize,
    /// New relative speed (1.0 = nominal). Tasks already executing keep
    /// their start-time duration; tasks started afterwards use the new
    /// speed.
    pub speed: f64,
}

/// Description of the (virtual) machine an experiment runs on.
#[derive(Clone, Debug)]
pub struct Platform {
    /// Number of compute nodes.
    pub nodes: usize,
    /// Cores per node.
    pub cores_per_node: usize,
    /// Relative speed per node (1.0 nominal). Task durations divide by
    /// this, so 0.6 models Nord3's 1.8 GHz nodes among 3.0 GHz peers.
    pub node_speed: Vec<f64>,
    /// One-way network latency for control messages and transfers.
    pub net_latency: SimTime,
    /// Network bandwidth in bytes per second (per link).
    pub net_bandwidth: f64,
    /// Core time consumed per *offloaded* task by the runtime itself
    /// (control messages, eager data copies, distributed dependency
    /// bookkeeping — §5.1).
    pub offload_cpu_overhead: SimTime,
    /// Scheduled mid-run speed changes (DVFS/thermal events).
    pub speed_events: Vec<SpeedEvent>,
    /// Background CPU consumed by each worker *process* on a node
    /// (message polling, distributed dependency state), as a fraction of
    /// one core. More helper ranks per node mean more such noise — the
    /// paper's reason to keep the offloading degree low ("each helper
    /// rank implies point-to-point communication and state", §5.1), and
    /// what makes degree 8 slightly worse than degree 4 in Fig. 6.
    pub worker_noise: f64,
}

impl Platform {
    /// Homogeneous *ideal* platform at speed 1.0: no runtime noise, no
    /// offload overhead. Unit tests and algorithm studies use this; the
    /// machine presets ([`Platform::mn4`], [`Platform::nord3`]) add the
    /// realistic overheads.
    pub fn homogeneous(nodes: usize, cores_per_node: usize) -> Self {
        Platform {
            nodes,
            cores_per_node,
            node_speed: vec![1.0; nodes],
            net_latency: SimTime::from_micros(2),
            net_bandwidth: 12.5e9, // 100 Gb/s Omni-Path
            offload_cpu_overhead: SimTime::ZERO,
            speed_events: Vec::new(),
            worker_noise: 0.0,
        }
    }

    /// MareNostrum 4 general-purpose block: 48-core nodes (2×24 Platinum),
    /// 100 Gb/s Omni-Path (paper §6.3), with realistic runtime overheads.
    pub fn mn4(nodes: usize) -> Self {
        let mut p = Platform::homogeneous(nodes, 48);
        p.offload_cpu_overhead = SimTime::from_micros(250);
        p.worker_noise = 0.2;
        p
    }

    /// Nord3: 16-core nodes (2×8 SandyBridge). `slow_nodes` run at
    /// 1.8 GHz against 3.0 GHz for the rest (speed factor 0.6).
    pub fn nord3(nodes: usize, slow_nodes: &[usize]) -> Self {
        let mut p = Platform::homogeneous(nodes, 16);
        p.net_bandwidth = 5e9; // older InfiniBand FDR10
        p.offload_cpu_overhead = SimTime::from_micros(250);
        p.worker_noise = 0.2;
        for &n in slow_nodes {
            p.node_speed[n] = 1.8 / 3.0;
        }
        p
    }

    /// Mark `node` as slower by `factor` (>1 = that much slower), as the
    /// synthetic slow-node sweep does (Fig. 10, 3× slower).
    pub fn with_slowdown(mut self, node: usize, factor: f64) -> Self {
        assert!(factor > 0.0, "slowdown factor must be positive");
        self.node_speed[node] = 1.0 / factor;
        self
    }

    /// Schedule a mid-run speed change (DVFS step / thermal throttle).
    pub fn with_speed_event(mut self, at: SimTime, node: usize, speed: f64) -> Self {
        assert!(speed > 0.0, "speed must be positive");
        assert!(node < self.nodes, "node out of range");
        self.speed_events.push(SpeedEvent { at, node, speed });
        self
    }

    /// Total cores across the machine.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Sum of `cores × speed` — the machine's effective core count.
    pub fn effective_capacity(&self) -> f64 {
        self.node_speed
            .iter()
            .map(|s| s * self.cores_per_node as f64)
            .sum()
    }
}

/// Which DROM core-allocation policy an offloading [`Preset`] runs
/// (paper §5.4). Only `Preset`'s argument vocabulary: a configuration
/// stores the registry policy the preset resolves to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DromPolicy {
    /// DROM disabled: ownership stays at the initial split.
    Off,
    /// Local convergence (§5.4.1): per-node, proportional to busy cores.
    Local,
    /// Global solver (§5.4.2): min-max program over the expander graph.
    Global,
}

/// Solver backing the global policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GlobalSolverKind {
    /// Two-phase simplex on the work-split LP (the paper's CVXOPT role).
    Simplex,
    /// Parametric bisection with a max-flow feasibility oracle (ablation).
    Flow,
}

/// A solver kind is the strategy of the same name: every solve goes
/// through the one strategy → solver table ([`Strategy::solve`]).
impl From<GlobalSolverKind> for Strategy {
    fn from(kind: GlobalSolverKind) -> Strategy {
        match kind {
            GlobalSolverKind::Simplex => Strategy::Simplex,
            GlobalSolverKind::Flow => Strategy::Flow,
        }
    }
}

/// Demand signal fed to the global solver (§5.4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkSignal {
    /// The paper's signal: time-integrated busy cores per worker over the
    /// window, plus currently pending work. Subject to phase error when
    /// the window cuts iterations at different points per rank.
    BusyPending,
    /// Work *created* per apprank since the last solve, taken from the
    /// tasks' cost hints. All appranks share iteration boundaries, so the
    /// signal is exactly proportional to demand; falls back to
    /// `BusyPending` in windows where no tasks were created. (Nanos6 has
    /// no duration oracle, hence the paper uses busy cores; our runtime
    /// has the cost hints anyway. `ablation_signal` quantifies the gap.)
    CreatedWork,
}

/// How aggressively a worker may steal held tasks onto cores beyond its
/// eager queue (paper §5.5: "will be stolen as tasks complete").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealGate {
    /// Steal only while below `depth × owned` tasks — the strict reading
    /// of §5.5 (borrowed cores never increase steal appetite).
    Owned,
    /// Steal while below `depth × (owned + idle cores on the node)`:
    /// borrowed capacity counts only while it is actually idle, which
    /// floods an idle neighbour node (Fig. 9c) yet stays
    /// ownership-proportional when the machine is saturated.
    Usable,
}

/// Dynamic work spreading (the paper's §5.2 future-work extension):
/// instead of a fixed offloading degree, helper ranks are spawned at run
/// time when the global solver finds an apprank capacity-constrained.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynamicSpreading {
    /// Hard cap on nodes per apprank (home included).
    pub max_degree: usize,
}

/// All balancing knobs for one execution. What balances — LeWI
/// lending, the DROM flavour, or one of the solver-free policies — is
/// the single `policy` field; the rest tune how.
#[derive(Clone, Debug)]
pub struct BalanceConfig {
    /// Offloading degree: nodes per apprank including home (1 = no
    /// offloading, the baseline).
    pub degree: usize,
    /// The balancing policy, from the registry ([`crate::POLICY_REGISTRY`]).
    /// LeWI on/off is part of the policy's identity (`drom-global` vs
    /// `lewi+drom-global`), not a separate switch.
    pub policy: PolicySpec,
    /// Solver used by policies that run the global allocation program.
    pub solver: GlobalSolverKind,
    /// Local policy adjustment period (continuous in the paper; we tick it
    /// at this period — 100 ms by default).
    pub local_period: SimTime,
    /// Global policy period (paper: every two seconds).
    pub global_period: SimTime,
    /// Expander graph seed.
    pub seed: u64,
    /// Ablation: scheduler threshold of queued tasks per owned core
    /// (paper uses two, §5.5).
    pub queue_depth_per_core: usize,
    /// Ablation: let the scheduler count LeWI-borrowed cores as capacity
    /// (the paper deliberately does not, §5.5).
    pub count_borrowed_cores: bool,
    /// Demand signal for the global solver.
    pub work_signal: WorkSignal,
    /// Steal aggressiveness (see [`StealGate`]).
    pub steal_gate: StealGate,
    /// Dynamic helper spawning (requires a solver-using policy);
    /// `degree` is then the *initial* degree, usually 1.
    pub dynamic: Option<DynamicSpreading>,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            degree: 4,
            policy: named("lewi+drom-global"),
            solver: GlobalSolverKind::Simplex,
            local_period: SimTime::from_millis(100),
            global_period: SimTime::from_secs(2),
            seed: 1,
            queue_depth_per_core: 2,
            count_borrowed_cores: false,
            work_signal: WorkSignal::CreatedWork,
            steal_gate: StealGate::Usable,
            dynamic: None,
        }
    }
}

fn named(policy: &str) -> PolicySpec {
    PolicySpec::named(policy).expect("presets name registered policies")
}

/// A named balancing configuration: which registry policy runs at
/// which offloading degree. Every preset goes through the single
/// [`BalanceConfig::preset`] constructor, which returns a configuration
/// holding the policy's [`PolicySpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Preset {
    /// No balancing at all: degree 1 under `baseline` (the paper's
    /// baseline series).
    Baseline,
    /// DLB confined to each node (the paper's "DLB" series): degree 1
    /// under `lewi+drom-local`.
    NodeDlb,
    /// Offloading at `degree` with LeWI on: `lewi`, `lewi+drom-local`
    /// or `lewi+drom-global` as `drom` says — the paper's LeWI+DROM
    /// configurations. The LeWI-off series are the registry policies
    /// `drom-local` / `drom-global`; select them with
    /// [`BalanceConfig::with_policy`].
    Offload {
        /// Nodes per apprank including home.
        degree: usize,
        /// DROM core-allocation policy.
        drom: DromPolicy,
    },
    /// Dynamic work spreading (paper §5.2 future work): start at degree
    /// 1 and spawn helpers up to `max_degree` under `lewi+drom-global`.
    DynamicSpread {
        /// Hard cap on nodes per apprank (home included).
        max_degree: usize,
    },
}

impl BalanceConfig {
    /// The single preset constructor: build the configuration a
    /// [`Preset`] names, with every other knob at its default. Refine
    /// with the `with_*` builders.
    pub fn preset(preset: Preset) -> Self {
        let (degree, policy, max_degree) = match preset {
            Preset::Baseline => (1, "baseline", None),
            Preset::NodeDlb => (1, "lewi+drom-local", None),
            Preset::Offload { degree, drom } => {
                let policy = match drom {
                    DromPolicy::Off => "lewi",
                    DromPolicy::Local => "lewi+drom-local",
                    DromPolicy::Global => "lewi+drom-global",
                };
                (degree, policy, None)
            }
            Preset::DynamicSpread { max_degree } => (1, "lewi+drom-global", Some(max_degree)),
        };
        BalanceConfig {
            degree,
            policy: named(policy),
            dynamic: max_degree.map(|max_degree| DynamicSpreading { max_degree }),
            ..BalanceConfig::default()
        }
    }

    /// Builder: set the expander seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the offloading degree.
    pub fn with_degree(mut self, degree: usize) -> Self {
        self.degree = degree;
        self
    }

    /// Builder: select a registry policy.
    pub fn with_policy(mut self, spec: PolicySpec) -> Self {
        self.policy = spec;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mn4_shape() {
        let p = Platform::mn4(32);
        assert_eq!(p.total_cores(), 32 * 48);
        assert!((p.effective_capacity() - 1536.0).abs() < 1e-9);
    }

    #[test]
    fn nord3_slow_nodes() {
        let p = Platform::nord3(16, &[0]);
        assert_eq!(p.cores_per_node, 16);
        assert!((p.node_speed[0] - 0.6).abs() < 1e-12);
        assert_eq!(p.node_speed[1], 1.0);
        assert!(p.effective_capacity() < 16.0 * 16.0);
    }

    #[test]
    fn slowdown_builder() {
        let p = Platform::homogeneous(4, 8).with_slowdown(2, 3.0);
        assert!((p.node_speed[2] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn config_presets() {
        let b = BalanceConfig::preset(Preset::Baseline);
        assert_eq!((b.degree, b.policy.name()), (1, "baseline"));
        assert!(!b.policy.lewi());
        let d = BalanceConfig::preset(Preset::NodeDlb);
        assert_eq!((d.degree, d.policy.name()), (1, "lewi+drom-local"));
        for (drom, name) in [
            (DromPolicy::Off, "lewi"),
            (DromPolicy::Local, "lewi+drom-local"),
            (DromPolicy::Global, "lewi+drom-global"),
        ] {
            let o = BalanceConfig::preset(Preset::Offload { degree: 4, drom });
            assert_eq!((o.degree, o.policy.name()), (4, name));
            assert!(o.policy.lewi());
            assert_eq!(o.queue_depth_per_core, 2);
        }
        let dy = BalanceConfig::preset(Preset::DynamicSpread { max_degree: 3 });
        assert_eq!((dy.degree, dy.policy.name()), (1, "lewi+drom-global"));
        assert_eq!(dy.dynamic.map(|d| d.max_degree), Some(3));
        assert_eq!(BalanceConfig::default().policy.name(), "lewi+drom-global");
    }

    #[test]
    fn builders_refine_presets() {
        let c = BalanceConfig::preset(Preset::Baseline)
            .with_degree(2)
            .with_policy(PolicySpec::named("drom-global").unwrap())
            .with_seed(9);
        assert_eq!(c.degree, 2);
        assert_eq!(c.policy.name(), "drom-global");
        assert!(!c.policy.lewi() && c.policy.uses_solver());
        assert_eq!(c.seed, 9);
    }
}
