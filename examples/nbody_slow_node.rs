//! n-body with one slow node: first a *real* Barnes–Hut step (octree +
//! forces + leapfrog) on threads, then the paper's Fig. 6(c) scenario in
//! the cluster simulator — ORB equalises body counts, the slow node lags,
//! and transparent offloading recovers the loss.
//!
//! Run with: `cargo run --release --example nbody_slow_node`

use tlb::apps::nbody::{
    direct_accelerations, orb_partition, Body, NBodyConfig, NBodyWorkload, Octree,
};
use tlb::cluster::{ClusterSim, RunSpec};
use tlb::core::{BalanceConfig, DromPolicy, Platform, Preset};
use tlb::smprt::Pool;

fn main() {
    // --- Real kernel: one Barnes–Hut step on this machine. ---
    let mut rng = tlb::core::rng::Rng::seed_from_u64(11);
    let n = 20_000;
    let bodies: Vec<Body> = (0..n)
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
    let tree = Octree::build(&bodies, 0.5);
    let acc: Vec<std::sync::Mutex<[f64; 3]>> =
        (0..n).map(|_| std::sync::Mutex::new([0.0; 3])).collect();
    let threads = std::thread::available_parallelism().map_or(4, |v| v.get());
    let pool = Pool::new(threads);
    let t0 = std::time::Instant::now();
    pool.parallel_for(n, 256, |i| {
        *acc[i].lock().unwrap() = tree.acceleration(&bodies[i].pos, Some(i));
    });
    println!(
        "Barnes-Hut forces for {n} bodies on {threads} threads: {:.1?}",
        t0.elapsed()
    );
    // Spot-check against the direct sum on a small subset.
    let sample: Vec<Body> = bodies.iter().take(200).copied().collect();
    let direct = direct_accelerations(&sample);
    let a0 = *acc[0].lock().unwrap();
    let rel = (0..3).map(|d| (a0[d] - direct[0][d]).abs()).sum::<f64>()
        / direct[0].iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
    println!("force error vs direct (body 0, partial sum basis): {rel:.3}\n");

    // ORB partitioning of the same bodies.
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
        ("baseline", BalanceConfig::preset(Preset::Baseline)),
        ("single-node DLB", BalanceConfig::preset(Preset::NodeDlb)),
        (
            "degree-3 offloading",
            BalanceConfig::preset(Preset::Offload {
                degree: 3,
                drom: DromPolicy::Global,
            }),
        ),
    ] {
        let r = ClusterSim::execute(RunSpec::new(&platform, &cfg, mk())).unwrap();
        println!("{name:22} {:7.3} s/iter", r.mean_iteration_secs(2));
    }
}
