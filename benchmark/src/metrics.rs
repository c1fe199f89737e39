//! The names this ledger speaks in: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root says the same thing to the acceptance driver; a
//! unit test keeps the two from drifting apart.

use std::collections::BTreeMap;

use tlb_json::Value;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latencies, set-up, memory).
    Lower,
    /// Larger is better (throughput, useful-outcome ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parse the `BENCHMARK.json` spelling.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One metric of the ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// The workloads, in the order the ledger runs them.
pub const WORKLOADS: [&str; 5] = [
    "sim_synth_32n",
    "trace_synth_4n",
    "sweep_grid",
    "serve_warm",
    "serve_mix",
];

/// End-to-end metrics: every workload reports every one of them (its
/// *operation* is defined per workload in the README).
///
/// The bounds are a quarter because that is what this host can hold:
/// over ten runs of one commit the quiet-slice medians still spread by
/// 3–10 % of their median when the host is calm and by more than 20 %
/// when it is not (README, "Why the bounds are wide").
pub const END_TO_END: [MetricDef; 4] = [
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics (`--trace 1`). A workload reports 0 for a layer
/// that is not on its path.
pub const PER_LAYER: [MetricDef; 85] = [
    // the harness itself
    lower("harness.trace_overhead_pct", "%"),
    lower("harness.first_op_ms", "ms"),
    lower("harness.op_tail_ms", "ms"),
    lower("harness.host_noise_ratio", "ratio"),
    higher("harness.ops_total", "count"),
    higher("harness.ops_kept", "count"),
    lower("harness.cpu_s_per_op", "s"),
    // tlb-cluster
    lower("cluster.execute_s", "s"),
    lower("cluster.cpu_s", "s"),
    lower("cluster.events", "count"),
    lower("cluster.ns_per_event", "ns"),
    lower("cluster.ns_per_event_8n", "ns"),
    lower("cluster.scale_ratio_32n_8n", "ratio"),
    lower("cluster.sched_decisions", "count"),
    lower("cluster.steal_attempts", "count"),
    higher("cluster.steal_success_ratio", "ratio"),
    lower("cluster.held_fraction", "ratio"),
    higher("cluster.offload_fraction", "ratio"),
    lower("cluster.lewi_lends", "count"),
    lower("cluster.lewi_reclaims", "count"),
    lower("cluster.solver_runs", "count"),
    lower("cluster.unattributed_share", "ratio"),
    // tlb-des
    lower("des.queue_ns_per_op", "ns"),
    lower("des.queue_est_share", "ratio"),
    // tlb-tasking
    lower("tasking.ns_per_task", "ns"),
    lower("tasking.est_share", "ratio"),
    // tlb-dlb
    lower("dlb.acquire_release_ns", "ns"),
    lower("dlb.set_ownership_us", "us"),
    lower("dlb.est_share", "ratio"),
    // tlb-core scheduler and policies
    lower("core.choose_node_ns", "ns"),
    lower("core.sched_est_share", "ratio"),
    lower("core.balance_tick_us", "us"),
    // tlb-linprog / tlb-portfolio
    lower("linprog.simplex_solve_ms", "ms"),
    lower("linprog.flow_solve_ms", "ms"),
    lower("portfolio.race_ms", "ms"),
    lower("solver.est_share", "ratio"),
    // tlb-expander / tlb-apps
    lower("expander.generate_ms", "ms"),
    lower("apps.synthetic_build_ms", "ms"),
    lower("apps.amr_build_ms", "ms"),
    // tlb-trace
    lower("trace.run_s", "s"),
    lower("trace.export_s", "s"),
    lower("trace.events_recorded", "count"),
    lower("trace.push_ns", "ns"),
    lower("trace.counters_inc_ns", "ns"),
    lower("trace.merged_ms", "ms"),
    lower("trace.overhead_pct", "%"),
    lower("trace.timelines_overhead_pct", "%"),
    lower("trace.chrome_bytes", "count"),
    lower("trace.chrome_bytes_per_event", "count"),
    lower("trace.csv_export_s", "s"),
    // tlb-sweep
    lower("sweep.parse_us", "us"),
    lower("sweep.expand_us", "us"),
    lower("sweep.point_key_us", "us"),
    lower("sweep.run_point_s_sum", "s"),
    lower("sweep.cache_store_us", "us"),
    lower("sweep.cache_load_us", "us"),
    lower("sweep.aggregate_ms", "ms"),
    lower("sweep.cold_pass_s", "s"),
    lower("sweep.warm_pass_ms", "ms"),
    higher("sweep.warm_points_per_s", "1/s"),
    higher("sweep.jobs1_points_per_s", "1/s"),
    higher("sweep.parallel_efficiency", "ratio"),
    lower("sweep.longest_point_share", "ratio"),
    higher("sweep.jobs1_identical", "count"),
    // tlb-smprt
    lower("smprt.parallel_for_overhead_us", "us"),
    lower("smprt.idle_parks", "count"),
    lower("smprt.steals", "count"),
    // tlb-json
    higher("json.parse_mb_per_s", "MB/s"),
    higher("json.write_mb_per_s", "MB/s"),
    // tlb-serve
    lower("serve.ping_rtt_us", "us"),
    lower("serve.admit_warm_us", "us"),
    lower("serve.warm_p50_ms", "ms"),
    lower("serve.warm_p99_ms", "ms"),
    lower("serve.mix_warm_p50_ms", "ms"),
    lower("serve.mix_warm_p99_ms", "ms"),
    lower("serve.mix_cold_p50_ms", "ms"),
    higher("serve.mix_cold_per_s", "1/s"),
    lower("serve.request_bytes", "count"),
    lower("serve.reply_bytes", "count"),
    higher("serve.cache_hits", "count"),
    higher("serve.dedup_hits", "count"),
    lower("serve.points_executed", "count"),
    lower("serve.shed", "count"),
    lower("serve.prime_s", "s"),
    lower("serve.daemon_start_ms", "ms"),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// Values of one run, keyed by metric name. Setting a name that is not
/// in the registry is a bug in the harness, caught at once.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric '{name}' is not in the registry"));
        self.0.insert(def.name, value);
    }

    /// The value recorded for `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over exactly `defs`, in
    /// their order; an unset or non-finite metric reads 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        Value::Object(
            defs.iter()
                .map(|m| {
                    let v = self.get(m.name);
                    (
                        m.name.to_string(),
                        Value::object(vec![
                            ("value", Value::Float(if v.is_finite() { v } else { 0.0 })),
                            ("unit", m.unit.into()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name {w}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_says_what_the_registry_says() {
        let doc = tlb_json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .as_array()
                .expect("list")
                .iter()
                .map(|m| m.get("name").as_str().expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let check = |key: &str, defs: &[MetricDef]| {
            let listed = doc.get(key).as_array().expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, m) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").as_str(), Some(m.name));
                assert_eq!(j.get("unit").as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    j.get("better").as_str(),
                    Some(m.better.name()),
                    "{}",
                    m.name
                );
                assert_eq!(j.get("bound").as_f64(), m.bound, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
    }

    #[test]
    fn values_render_every_listed_metric_and_reject_unknown_names() {
        let mut v = Values::default();
        v.set("op_p50_ms", 1.25);
        v.set("setup_s", f64::NAN);
        let j = v.to_json(&END_TO_END);
        assert_eq!(j.as_object().expect("object").len(), END_TO_END.len());
        assert_eq!(j.get("op_p50_ms").get("value").as_f64(), Some(1.25));
        assert_eq!(j.get("op_p50_ms").get("unit").as_str(), Some("ms"));
        assert_eq!(j.get("setup_s").get("value").as_f64(), Some(0.0));
        assert!(std::panic::catch_unwind(|| Values::default().set("nope", 1.0)).is_err());
    }
}
