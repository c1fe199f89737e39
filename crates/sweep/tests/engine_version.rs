//! `ENGINE_VERSION` names the simulator's behaviour: a cache entry
//! written by one engine is replayed as current by every build with the
//! same version. This pin holds the version together with what one fixed
//! small grid simulates, so a change to simulated behaviour that forgets
//! the bump fails here instead of serving stale results from a warm
//! sweep or serve cache.

use tlb_sweep::{fnv1a64, run_point, Scenario, ENGINE_VERSION};

/// The benchmark's `serve-4pt` grid at 4 ideal nodes instead of 2:
/// synthetic app, degree 2, four policies. At 2 nodes the global point's
/// record does not move when the solver's demand signal does; at 4 it
/// does.
fn grid() -> Scenario {
    Scenario::from_json_str(
        r#"{
            "schema_version": 1,
            "name": "engine-version-pin",
            "app": "synthetic",
            "machine": "ideal",
            "nodes": 4,
            "iterations": 2,
            "imbalance": 2.0,
            "axes": {
                "appranks_per_node": [1],
                "degree": [2],
                "policy": ["baseline", "lewi", "lewi+drom-global", "diffusion"],
                "seed": [42]
            }
        }"#,
    )
    .unwrap()
}

#[test]
fn engine_version_pins_simulated_behaviour() {
    let sc = grid();
    let records: Vec<String> = sc
        .expand()
        .iter()
        .map(|p| run_point(&sc, p).unwrap().to_string_compact())
        .collect();
    let digest = fnv1a64(records.join("\n").as_bytes());
    assert_eq!(
        (ENGINE_VERSION, digest),
        (4, 0x258e_89df_ca7b_06cf),
        "simulated behaviour changed: bump ENGINE_VERSION and restate this pin \
         (digest now {digest:#018x})"
    );
}
