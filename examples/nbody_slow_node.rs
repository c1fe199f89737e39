//! n-body with one slow node, the paper's Fig. 6(c) scenario: first ORB
//! equalising body counts over ranks, then the cluster simulator showing
//! that the slow node lags and transparent offloading recovers the loss.
//!
//! Run with: `cargo run --release --example nbody_slow_node`

use tlb::apps::nbody::{orb_partition, Body, NBodyConfig, NBodyWorkload};
use tlb::cluster::{ClusterSim, RunSpec};
use tlb::core::{BalanceConfig, Platform, PolicySpec};

/// A registry policy at an offloading degree, every other knob at its
/// default.
fn config(policy: &str, degree: usize) -> BalanceConfig {
    BalanceConfig::default()
        .with_degree(degree)
        .with_policy(PolicySpec::named(policy).expect("a registered policy"))
}

fn main() {
    // --- ORB partitioning: equal body counts per rank. ---
    let mut rng = tlb::core::rng::Rng::seed_from_u64(11);
    let bodies: Vec<Body> = (0..20_000)
        .map(|_| {
            Body::at(
                [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                ],
                rng.range_f64(0.5, 2.0),
            )
        })
        .collect();
    let parts = orb_partition(&bodies, 8);
    let mut counts = vec![0usize; 8];
    for &r in &parts {
        counts[r] += 1;
    }
    println!("ORB body counts over 8 ranks: {counts:?}\n");

    // --- Fig. 6(c) scenario in the cluster simulator. ---
    let nodes = 8;
    let ranks = nodes * 2;
    let platform = Platform::nord3(nodes, &[0]); // node 0 at 1.8 GHz
    let mk = || {
        let mut cfg = NBodyConfig::new(20_000 * ranks, ranks);
        cfg.force_cost = 2e-6;
        cfg.iterations = 6;
        NBodyWorkload::new(cfg)
    };
    for (name, cfg) in [
        ("baseline", config("baseline", 1)),
        ("single-node DLB", config("lewi+drom-local", 1)),
        ("degree-3 offloading", config("lewi+drom-global", 3)),
    ] {
        let r = ClusterSim::execute(RunSpec::new(&platform, &cfg, mk())).unwrap();
        println!("{name:22} {:7.3} s/iter", r.mean_iteration_secs(2));
    }
}
