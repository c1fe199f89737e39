//! Randomized tests for the expander graph generator: structural
//! invariants over random machine shapes. Seeded `tlb-rng` loops stand in
//! for proptest (no registry deps).

use tlb_expander::{
    generate_circulant, generate_random, generate_with_workers, BipartiteGraph, ExpanderConfig,
};
use tlb_rng::Rng;

// (nodes, appranks_per_node, degree)
fn shape(rng: &mut Rng) -> (usize, usize, usize) {
    let nodes = rng.range_usize(2, 24);
    let per = rng.range_usize(1, 3);
    let degree = rng.range_usize(1, 5).min(nodes);
    (nodes, per, degree)
}

const CASES: usize = 64;

/// Every generated graph is biregular, home-rooted, and sorted.
#[test]
fn generated_graphs_satisfy_invariants() {
    let root = Rng::seed_from_u64(0xE59_0001);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let (nodes, per, degree) = shape(&mut rng);
        let seed = rng.range_u64(0, 1000);
        let appranks = nodes * per;
        let cfg = ExpanderConfig::new(appranks, nodes, degree).with_seed(seed);
        let g = BipartiteGraph::generate(&cfg).unwrap();
        g.check().unwrap();
        // Apprank degree and node degree as configured.
        for a in 0..appranks {
            assert_eq!(g.nodes_of(a).len(), degree, "case {case}");
            assert_eq!(g.home_node(a), a / per, "case {case}");
        }
        for n in 0..nodes {
            assert_eq!(g.appranks_on(n).len(), degree * per, "case {case}");
        }
        // Adjacency is consistent both ways.
        for a in 0..appranks {
            for &n in g.nodes_of(a) {
                assert!(g.appranks_on(n).contains(&a), "case {case}");
            }
        }
    }
}

/// Generation is deterministic in the seed — in particular, the parallel
/// candidate screening must pick the same winner at any worker count
/// (`generate` uses the host's parallelism, which may be 1).
#[test]
fn generation_is_deterministic() {
    let root = Rng::seed_from_u64(0xE59_0002);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let (nodes, per, degree) = shape(&mut rng);
        let seed = rng.range_u64(0, 1000);
        let appranks = nodes * per;
        let cfg = ExpanderConfig::new(appranks, nodes, degree).with_seed(seed);
        let g1 = BipartiteGraph::generate(&cfg).unwrap();
        for workers in [1, 2, 4, 8] {
            let g2 = generate_with_workers(&cfg, workers).unwrap();
            for a in 0..appranks {
                assert_eq!(g1.nodes_of(a), g2.nodes_of(a), "case {case}");
            }
        }
    }
}

/// Degree ≥ 2 graphs from the screened generator are connected for
/// every shape we can build (the screening's whole point).
#[test]
fn screened_graphs_are_connected() {
    let root = Rng::seed_from_u64(0xE59_0003);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let (nodes, per, degree) = shape(&mut rng);
        if degree < 2 {
            continue;
        }
        let seed = rng.range_u64(0, 200);
        let appranks = nodes * per;
        let cfg = ExpanderConfig::new(appranks, nodes, degree).with_seed(seed);
        let g = BipartiteGraph::generate(&cfg).unwrap();
        assert!(g.is_connected(), "case {case}");
    }
}

/// The exact isoperimetric number is monotone in the degree for the
/// circulant family (more strides can only improve expansion).
#[test]
fn circulant_expansion_monotone_in_degree() {
    for nodes in 4usize..14 {
        let mut last = 0.0f64;
        for degree in 1..=3usize.min(nodes - 1) {
            let strides: Vec<usize> = (1..degree).collect();
            let cfg = ExpanderConfig::new(nodes, nodes, degree);
            let g = generate_circulant(&cfg, &strides).unwrap();
            let iso = tlb_expander::isoperimetric_exact(&g);
            assert!(iso >= last - 1e-12, "degree {degree}: {iso} < {last}");
            last = iso;
        }
    }
}

/// Save/load round-trips exactly for any generated graph.
#[test]
fn persistence_roundtrip() {
    let root = Rng::seed_from_u64(0xE59_0004);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let (nodes, per, degree) = shape(&mut rng);
        let seed = rng.range_u64(0, 100);
        let appranks = nodes * per;
        let cfg = ExpanderConfig::new(appranks, nodes, degree).with_seed(seed);
        let g = BipartiteGraph::generate(&cfg).unwrap();
        let dir = std::env::temp_dir().join("tlb_expander_prop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("g_{nodes}_{per}_{degree}_{seed}.json"));
        g.save_json(&path).unwrap();
        let g2 = BipartiteGraph::load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for a in 0..appranks {
            assert_eq!(g.nodes_of(a), g2.nodes_of(a), "case {case}");
        }
        assert_eq!(g.config(), g2.config(), "case {case}");
    }
}

/// Distinct candidate indices derive distinct RNG substreams: the graphs
/// drawn for different candidates of the same root seed must differ (for
/// shapes with enough freedom). This pins the `split_u64`-based candidate
/// seed derivation against the ad-hoc multiply-derived seeds it replaced,
/// which could collide or correlate.
#[test]
fn candidate_substreams_are_distinct() {
    let cfg = ExpanderConfig::new(64, 32, 4);
    let r = Rng::seed_from_u64(cfg.seed);
    let mut distinct = 0;
    let total = 8;
    let graphs: Vec<_> = (0..total)
        .map(|c| generate_random(&cfg, r.split_u64(c as u64).next_u64()).unwrap())
        .collect();
    for i in 0..total {
        for j in i + 1..total {
            let same = (0..64).all(|a| graphs[i].nodes_of(a) == graphs[j].nodes_of(a));
            if !same {
                distinct += 1;
            }
        }
    }
    assert_eq!(
        distinct,
        total * (total - 1) / 2,
        "some candidate pairs drew identical graphs"
    );
}

/// The same label always derives the same substream, regardless of how far
/// the parent stream has advanced (split is position-independent).
#[test]
fn candidate_substream_position_independent() {
    let cfg = ExpanderConfig::new(32, 16, 3);
    let r1 = Rng::seed_from_u64(cfg.seed);
    let mut r2 = Rng::seed_from_u64(cfg.seed);
    for _ in 0..100 {
        r2.next_u64(); // advance the parent
    }
    for c in 0..4u64 {
        let g1 = generate_random(&cfg, r1.split_u64(c).next_u64()).unwrap();
        let g2 = generate_random(&cfg, r2.split_u64(c).next_u64()).unwrap();
        for a in 0..32 {
            assert_eq!(g1.nodes_of(a), g2.nodes_of(a), "candidate {c}");
        }
    }
}
