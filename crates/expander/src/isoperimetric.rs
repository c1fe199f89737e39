//! Vertex isoperimetric number: the paper screens small graphs by computing
//! the minimal value of `(1 + eps) = |N(A)| / |A|` over apprank subsets `A`
//! of at most half of the partition (§5.2).

#![allow(clippy::needless_range_loop)] // index loops touch several arrays at once
use crate::BipartiteGraph;
use tlb_rng::Rng;

/// Exact isoperimetric number by exhaustive subset enumeration.
///
/// Complexity `O(2^appranks * degree)`; only call for graphs with up to
/// roughly 20 appranks (the paper likewise only checks graphs "up to about
/// 32 nodes").
pub fn isoperimetric_exact(g: &BipartiteGraph) -> f64 {
    let a_total = g.appranks();
    assert!(
        a_total <= 24,
        "exhaustive isoperimetric check infeasible for {a_total} appranks"
    );
    let half = a_total / 2;
    if half == 0 {
        return g.nodes() as f64; // single apprank: |N(A)|/1 for A={0}
    }
    // Node-set bitmask per apprank (nodes <= appranks in all our shapes? not
    // guaranteed, but nodes <= 64 whenever appranks <= 24 in practice).
    assert!(g.nodes() <= 64, "node bitmask limited to 64 nodes");
    let masks: Vec<u64> = (0..a_total)
        .map(|a| g.nodes_of(a).iter().fold(0u64, |m, &n| m | (1u64 << n)))
        .collect();

    let mut best = f64::INFINITY;
    // Enumerate all nonempty subsets of size <= half.
    for subset in 1u64..(1u64 << a_total) {
        let size = subset.count_ones() as usize;
        if size > half {
            continue;
        }
        let mut nbhd = 0u64;
        let mut bits = subset;
        while bits != 0 {
            let a = bits.trailing_zeros() as usize;
            nbhd |= masks[a];
            bits &= bits - 1;
        }
        let ratio = nbhd.count_ones() as f64 / size as f64;
        if ratio < best {
            best = ratio;
        }
    }
    best
}

/// Sampled upper bound on the isoperimetric number, for graphs too
/// large to enumerate: the minimum of `|N(A)| / |A|` over the subsets it
/// tries. Each tried subset is a witness, so the true number can only be
/// lower (`sampled_upper_bounds_exact` checks `sampled ≥ exact`).
///
/// It tries greedy "worst-first" growth from every apprank — repeatedly
/// add the apprank bringing the fewest new nodes (lowest index on ties),
/// which finds poorly-expanding subsets far more reliably than uniform
/// sampling — then prefixes of `samples / half + 1` random permutations.
///
/// Growth keeps `fresh[a]`, apprank `a`'s nodes still outside the
/// neighbourhood, decremented over [`BipartiteGraph::appranks_on`] as a
/// node joins, and one bit set of outside appranks per `fresh` value. A
/// step's pick is the lowest bit of the first non-empty set: what a
/// rescan of every apprank's nodes (first strict minimum) would pick.
pub fn isoperimetric_sampled(g: &BipartiteGraph, seed: u64, samples: usize) -> f64 {
    let a_total = g.appranks();
    let half = (a_total / 2).max(1);
    let mut rng = Rng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut best = f64::INFINITY;

    // Greedy growth from every apprank (deterministic part).
    let words = a_total.div_ceil(64);
    let degree: Vec<usize> = (0..a_total).map(|a| g.nodes_of(a).len()).collect();
    // Word `w` of the set of outside appranks with `f` fresh nodes is
    // `by_fresh[f * words + w]`; before growth starts, `f` is the degree.
    let mut unstarted = vec![0u64; (degree.iter().max().unwrap_or(&0) + 1) * words];
    for (a, &d) in degree.iter().enumerate() {
        unstarted[d * words + a / 64] |= 1 << (a % 64);
    }
    let (mut by_fresh, mut fresh) = (unstarted.clone(), degree.clone());
    let mut in_set = vec![false; a_total];
    let mut nbhd = vec![false; g.nodes()];
    for start in 0..a_total {
        by_fresh.copy_from_slice(&unstarted);
        fresh.copy_from_slice(&degree);
        in_set.fill(false);
        nbhd.fill(false);
        let mut nbhd_size = 0usize;
        let mut pick = start;
        for set_size in 1..=half {
            in_set[pick] = true;
            by_fresh[fresh[pick] * words + pick / 64] &= !(1 << (pick % 64));
            for &n in g.nodes_of(pick) {
                if nbhd[n] {
                    continue;
                }
                nbhd[n] = true;
                nbhd_size += 1;
                for &b in g.appranks_on(n) {
                    if in_set[b] {
                        continue;
                    }
                    let (w, bit) = (b / 64, 1u64 << (b % 64));
                    by_fresh[fresh[b] * words + w] &= !bit;
                    fresh[b] -= 1;
                    by_fresh[fresh[b] * words + w] |= bit;
                }
            }
            best = best.min(nbhd_size as f64 / set_size as f64);
            // Pick the apprank adding the fewest new nodes.
            let Some(i) = by_fresh.iter().position(|&word| word != 0) else {
                break;
            };
            pick = i % words * 64 + by_fresh[i].trailing_zeros() as usize;
        }
    }

    // Random subsets (stochastic part): shuffle and take prefixes.
    let mut order: Vec<usize> = (0..a_total).collect();
    let rounds = samples / half.max(1) + 1;
    for _ in 0..rounds {
        rng.shuffle(&mut order);
        nbhd.fill(false);
        let mut nbhd_size = 0usize;
        for (i, &a) in order.iter().take(half).enumerate() {
            for &n in g.nodes_of(a) {
                if !nbhd[n] {
                    nbhd[n] = true;
                    nbhd_size += 1;
                }
            }
            best = best.min(nbhd_size as f64 / (i + 1) as f64);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_circulant, generate_random, ExpanderConfig};

    /// [`isoperimetric_sampled`] as it was before growth kept counts:
    /// every greedy step rescans every outside apprank's nodes.
    fn sampled_by_rescan(g: &BipartiteGraph, seed: u64, samples: usize) -> f64 {
        let a_total = g.appranks();
        let half = (a_total / 2).max(1);
        let mut rng = Rng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
        let mut best = f64::INFINITY;
        for start in 0..a_total {
            let mut in_set = vec![false; a_total];
            let mut nbhd = vec![false; g.nodes()];
            let mut nbhd_size = 0usize;
            let grow =
                |a: usize, in_set: &mut Vec<bool>, nbhd: &mut Vec<bool>, size: &mut usize| {
                    in_set[a] = true;
                    for &n in g.nodes_of(a) {
                        if !nbhd[n] {
                            nbhd[n] = true;
                            *size += 1;
                        }
                    }
                };
            grow(start, &mut in_set, &mut nbhd, &mut nbhd_size);
            let mut set_size = 1usize;
            best = best.min(nbhd_size as f64 / set_size as f64);
            while set_size < half {
                let mut pick = None;
                let mut pick_new = usize::MAX;
                for a in 0..a_total {
                    if in_set[a] {
                        continue;
                    }
                    let new = g.nodes_of(a).iter().filter(|&&n| !nbhd[n]).count();
                    if new < pick_new {
                        pick_new = new;
                        pick = Some(a);
                        if new == 0 {
                            break;
                        }
                    }
                }
                let Some(a) = pick else { break };
                grow(a, &mut in_set, &mut nbhd, &mut nbhd_size);
                set_size += 1;
                best = best.min(nbhd_size as f64 / set_size as f64);
            }
        }
        let mut order: Vec<usize> = (0..a_total).collect();
        let rounds = samples / half.max(1) + 1;
        for _ in 0..rounds {
            rng.shuffle(&mut order);
            let mut nbhd = vec![false; g.nodes()];
            let mut nbhd_size = 0usize;
            for (i, &a) in order.iter().take(half).enumerate() {
                for &n in g.nodes_of(a) {
                    if !nbhd[n] {
                        nbhd[n] = true;
                        nbhd_size += 1;
                    }
                }
                best = best.min(nbhd_size as f64 / (i + 1) as f64);
            }
        }
        best
    }

    fn assert_matches_rescan(g: &BipartiteGraph, seed: u64, what: &str) {
        let got = isoperimetric_sampled(g, seed, 300);
        let want = sampled_by_rescan(g, seed, 300);
        assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
    }

    #[test]
    fn counted_growth_matches_the_rescan() {
        let mut rng = Rng::seed_from_u64(0x150);
        let mut checked = 0;
        while checked < 200 {
            // Up to 128 appranks (one or two bit-set words), mostly few.
            let nodes = rng.range_usize(1, if checked % 8 == 0 { 65 } else { 25 });
            let per = rng.range_usize(1, 128 / nodes + 1).min(3);
            let degree = rng.range_usize(1, nodes.min(4) + 1);
            let cfg = ExpanderConfig::new(nodes * per, nodes, degree);
            let Ok(g) = generate_random(&cfg, rng.next_u64()) else {
                continue;
            };
            assert_matches_rescan(&g, checked, &format!("{nodes}x{per} d{degree}"));
            checked += 1;
        }
        // Hand-built adjacencies with many ties: helpers confined to
        // blocks of `degree` nodes (every block a poorly-expanding
        // subset), and circulants with scattered strides.
        for (nodes, per, degree) in [(64, 2, 4), (32, 3, 2), (48, 2, 3), (16, 1, 4)] {
            let cfg = ExpanderConfig::new(nodes * per, nodes, degree);
            let blocks = (0..nodes * per)
                .map(|a| {
                    let home = a / per;
                    let base = home - home % degree;
                    let mut adj = vec![home];
                    adj.extend((base..base + degree).filter(|&n| n != home));
                    adj
                })
                .collect();
            let g = BipartiteGraph::from_adjacency(cfg.clone(), blocks).unwrap();
            assert_matches_rescan(&g, 1, &format!("blocks {nodes}x{per} d{degree}"));
            let strides: Vec<usize> = (1..degree).map(|s| s * s * 5 + 1).collect();
            let g = generate_circulant(&cfg, &strides).unwrap();
            assert_matches_rescan(&g, 2, &format!("circulant {nodes}x{per} d{degree}"));
        }
    }

    #[test]
    fn single_apprank_graph() {
        let cfg = ExpanderConfig::new(1, 1, 1);
        let g = BipartiteGraph::from_adjacency(cfg, vec![vec![0]]).unwrap();
        assert_eq!(isoperimetric_exact(&g), 1.0);
    }

    #[test]
    fn disconnected_baseline_has_ratio_one() {
        // Degree 1: every subset of size k touches exactly k nodes when
        // one apprank per node → ratio exactly 1.0 (no expansion).
        let cfg = ExpanderConfig::new(8, 8, 1);
        let g = generate_circulant(&cfg, &[]).unwrap();
        assert_eq!(isoperimetric_exact(&g), 1.0);
    }

    #[test]
    fn two_per_node_degree_one_ratio_half() {
        // Two appranks per node, no offloading: the pair on one node has
        // |N(A)| = 1, |A| = 2 → ratio 0.5.
        let cfg = ExpanderConfig::new(8, 4, 1);
        let g = generate_circulant(&cfg, &[]).unwrap();
        assert_eq!(isoperimetric_exact(&g), 0.5);
    }

    #[test]
    fn ring_expands_small_sets() {
        let cfg = ExpanderConfig::new(8, 8, 2);
        let g = generate_circulant(&cfg, &[1]).unwrap();
        let iso = isoperimetric_exact(&g);
        // A contiguous arc of k appranks covers k+1 nodes; the worst subset
        // of size ≤ 4 gives (4+1)/4 = 1.25.
        assert!((iso - 1.25).abs() < 1e-9, "iso = {iso}");
    }

    #[test]
    fn sampled_upper_bounds_exact() {
        let cfg = ExpanderConfig::new(16, 16, 3).with_seed(5);
        let g = BipartiteGraph::generate(&cfg).unwrap();
        let exact = isoperimetric_exact(&g);
        let sampled = isoperimetric_sampled(&g, 5, 2000);
        // Sampling can only miss bad subsets, so sampled >= exact.
        assert!(
            sampled >= exact - 1e-12,
            "sampled {sampled} < exact {exact}"
        );
        // With the greedy heuristic it should be close on this size.
        assert!(
            sampled <= exact + 0.75,
            "sampled {sampled} far above {exact}"
        );
    }

    #[test]
    fn random_expander_beats_ring() {
        // A random degree-3 graph should expand strictly better than the
        // degree-2 ring on the same shape.
        let ring = generate_circulant(&ExpanderConfig::new(16, 16, 2), &[1]).unwrap();
        let cfg = ExpanderConfig::new(16, 16, 3)
            .with_seed(11)
            .with_candidates(32);
        let rnd = BipartiteGraph::generate(&cfg).unwrap();
        assert!(
            isoperimetric_exact(&rnd) > isoperimetric_exact(&ring),
            "random d3 should expand better than ring d2"
        );
    }
}
