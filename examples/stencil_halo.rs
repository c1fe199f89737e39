//! Heat-diffusion stencil: the distributed halo-exchange workload in the
//! cluster simulator with an imbalanced material profile. Halo rows are
//! MPI tasks pinned to their apprank; edge blocks order behind them
//! through their declared data regions.
//!
//! Run with: `cargo run --release --example stencil_halo`

use tlb::apps::stencil::{StencilConfig, StencilWorkload};
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
    let nodes = 4;
    let platform = Platform::homogeneous(nodes, 8);
    let mk = || {
        let mut cfg = StencilConfig::new(nodes, 256, 128).with_gradient(0.5, 2.0);
        cfg.secs_per_row = 1e-3;
        cfg.rows_per_task = 4; // fine-grained blocks give the balancer room
        cfg.iterations = 20;
        StencilWorkload::new(cfg)
    };
    for (name, mut cfg) in [
        ("baseline", config("baseline", 1)),
        ("degree-2 global", config("lewi+drom-global", 2)),
        ("degree-3 global", config("lewi+drom-global", 3)),
    ] {
        cfg.global_period = tlb::des::SimTime::from_millis(100);
        let r = ClusterSim::execute(RunSpec::new(&platform, &cfg, mk())).unwrap();
        println!(
            "{name:18} {:7.3} s/iter  (offloaded {:4.1}%, efficiency {:.2})",
            r.mean_iteration_secs(5),
            100.0 * r.offload_fraction(),
            r.parallel_efficiency,
        );
    }
}
