//! The sweep engine's headline guarantees: the report is bitwise
//! identical across pool sizes, cache keys are schedule-independent,
//! and a resumed sweep executes nothing.

use std::path::PathBuf;
use tlb_sweep::{run_sweep, Scenario, SweepOptions};

fn scenario() -> Scenario {
    Scenario::from_json_str(
        r#"{
            "schema_version": 1,
            "name": "determinism",
            "app": "synthetic",
            "machine": "ideal",
            "nodes": 2,
            "iterations": 3,
            "imbalance": 2.0,
            "axes": {
                "degree": [1, 2],
                "policy": ["baseline", "lewi", "lewi+drom-local", "lewi+drom-global"],
                "seed": [1, 2]
            }
        }"#,
    )
    .unwrap()
}

/// Two seeds of one registry policy on the AMR (moving-hotspot) app:
/// the end-to-end exercise of the solver-free policy families.
fn family(policy: &str) -> Scenario {
    Scenario::from_json_str(&format!(
        r#"{{
            "schema_version": 1, "name": "determinism-family", "app": "amr",
            "machine": "ideal", "nodes": 2, "iterations": 4, "imbalance": 2.0,
            "axes": {{ "degree": [2], "policy": ["{policy}"], "seed": [1, 2] }}
        }}"#
    ))
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlb_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn jobs_1_and_jobs_8_are_bitwise_identical() {
    jobs_1_and_jobs_8_agree(&scenario(), 16);
    jobs_1_and_jobs_8_agree(&family("reactive-offload"), 2);
    jobs_1_and_jobs_8_agree(&family("diffusion"), 2);
}

fn jobs_1_and_jobs_8_agree(sc: &Scenario, points: usize) {
    let dir1 = temp_dir("jobs1");
    let dir8 = temp_dir("jobs8");
    let serial = run_sweep(
        sc,
        &SweepOptions {
            jobs: 1,
            resume: false,
            cache_dir: Some(dir1.clone()),
        },
    )
    .unwrap();
    let parallel = run_sweep(
        sc,
        &SweepOptions {
            jobs: 8,
            resume: false,
            cache_dir: Some(dir8.clone()),
        },
    )
    .unwrap();
    assert_eq!(serial.stats.points_total, points);
    assert_eq!(serial.stats.executed, points);
    assert_eq!(parallel.stats.executed, points);
    // The whole report, byte for byte — not just summary statistics.
    assert_eq!(
        serial.report.to_string_pretty(),
        parallel.report.to_string_pretty()
    );
    // Cache identity is schedule-independent too.
    assert_eq!(serial.keys, parallel.keys);
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
}

#[test]
fn resume_executes_nothing_and_reproduces_the_report() {
    let sc = scenario();
    let dir = temp_dir("resume");
    let fresh = run_sweep(
        &sc,
        &SweepOptions {
            jobs: 4,
            resume: false,
            cache_dir: Some(dir.clone()),
        },
    )
    .unwrap();
    assert_eq!(fresh.stats.executed, 16);
    assert_eq!(fresh.stats.cache_hits, 0);

    let resumed = run_sweep(
        &sc,
        &SweepOptions {
            jobs: 4,
            resume: true,
            cache_dir: Some(dir.clone()),
        },
    )
    .unwrap();
    assert_eq!(resumed.stats.executed, 0, "resume must skip every sim");
    assert_eq!(resumed.stats.cache_hits, 16);
    assert_eq!(
        fresh.report.to_string_pretty(),
        resumed.report.to_string_pretty(),
        "cached and fresh reports must be byte-identical"
    );

    // Invalidate one entry: exactly one point re-executes.
    std::fs::remove_file(dir.join(format!("{:016x}.json", resumed.keys[5]))).unwrap();
    let partial = run_sweep(
        &sc,
        &SweepOptions {
            jobs: 4,
            resume: true,
            cache_dir: Some(dir.clone()),
        },
    )
    .unwrap();
    assert_eq!(partial.stats.executed, 1);
    assert_eq!(partial.stats.cache_hits, 15);
    assert_eq!(
        fresh.report.to_string_pretty(),
        partial.report.to_string_pretty()
    );

    // Keys see policy parameters, not just names: resuming a policy's
    // tweaked twin over its warm cache shares no entry and runs it all.
    for (policy, tweaked) in [
        ("reactive-offload", "reactive-offload(hi=0.4)"),
        ("diffusion", "diffusion(alpha=0.25)"),
    ] {
        let resume = SweepOptions {
            jobs: 4,
            resume: true,
            cache_dir: Some(dir.clone()),
        };
        let warm = run_sweep(&family(policy), &resume).unwrap();
        let again = run_sweep(&family(policy), &resume).unwrap();
        let changed = run_sweep(&family(tweaked), &resume).unwrap();
        assert_eq!((warm.stats.executed, again.stats.executed), (2, 0));
        assert!(changed.keys.iter().all(|k| !warm.keys.contains(k)));
        assert_eq!(changed.stats.executed, 2, "{tweaked} was served stale");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_resume_the_cache_is_write_only() {
    let sc = scenario();
    let dir = temp_dir("norerun");
    for _ in 0..2 {
        let out = run_sweep(
            &sc,
            &SweepOptions {
                jobs: 2,
                resume: false,
                cache_dir: Some(dir.clone()),
            },
        )
        .unwrap();
        assert_eq!(
            out.stats.executed, 16,
            "no --resume means full re-execution"
        );
        assert_eq!(out.stats.cache_hits, 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn aggregates_see_policy_improvements() {
    let sc = scenario();
    let out = run_sweep(&sc, &SweepOptions::default()).unwrap();
    let by_policy = out.report.get("by_policy").as_array().unwrap();
    assert_eq!(by_policy.len(), 4);
    // The baseline group's speedup over itself is exactly 1 at degree 1;
    // averaged with its degree-2 points it stays close to 1.
    let baseline = &by_policy[0];
    assert_eq!(baseline.get("key").as_str().unwrap(), "baseline");
    // Every non-baseline policy group must beat baseline on mean makespan
    // for this imbalanced workload.
    let base_mean = baseline.get("mean_makespan_s").as_f64().unwrap();
    for group in &by_policy[1..] {
        let mean = group.get("mean_makespan_s").as_f64().unwrap();
        assert!(
            mean < base_mean,
            "policy {} mean {mean} not better than baseline {base_mean}",
            group.get("key").as_str().unwrap_or("?")
        );
    }
    // Speedup of the degree-1 baseline points is exactly 1.
    for p in out.report.get("points").as_array().unwrap() {
        if p.get("policy").as_str() == Some("baseline") && p.get("degree").as_usize() == Some(1) {
            assert_eq!(p.get("speedup_vs_baseline").as_f64(), Some(1.0));
        }
    }
}
