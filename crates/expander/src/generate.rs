//! Graph construction: random biregular matching with screening, plus a
//! deterministic circulant fallback.

#![allow(clippy::needless_range_loop)] // index loops touch several arrays at once
use crate::graph::{BipartiteGraph, ExpanderConfig, ExpanderError};
use tlb_rng::Rng;

/// Screen one candidate: generate, check connectivity, score by the
/// (sampled or exact) isoperimetric number.
fn screen_candidate(config: &ExpanderConfig, rng: Rng) -> Option<(f64, BipartiteGraph)> {
    let g = generate_random_from(config, rng).ok()?;
    if !g.is_connected() {
        return None;
    }
    let iso = g.isoperimetric_number();
    Some((iso, g))
}

/// Top-level generation: draw `config.candidates` random graphs, screen by
/// connectivity (always) and the isoperimetric number (cheap enough up to a
/// few thousand appranks via sampling), and keep the best. Falls back to the
/// deterministic circulant construction when the random search fails — e.g.
/// when the shape is so constrained that almost all random matchings have
/// multi-edges.
///
/// Candidates are screened in parallel (scoped threads, one per candidate
/// up to the machine's parallelism); each candidate derives its own RNG
/// substream via [`Rng::split_u64`], so results are identical to the
/// serial screening regardless of thread count or completion order: the
/// winner is the highest isoperimetric number, ties broken by lowest
/// candidate index (the serial "first best wins" rule).
pub(crate) fn generate(config: &ExpanderConfig) -> Result<BipartiteGraph, ExpanderError> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    generate_with_workers(config, workers)
}

/// [`BipartiteGraph::generate`] with an explicit screening thread count
/// (1 = serial). Results are identical for every `workers` value; the
/// knob exists for scaling measurements and for the test that says so
/// (`expander_properties.rs::generation_is_deterministic`).
pub fn generate_with_workers(
    config: &ExpanderConfig,
    workers: usize,
) -> Result<BipartiteGraph, ExpanderError> {
    config.validate()?;
    if config.degree == 1 {
        // Baseline: no offloading, the graph is just the home placement.
        return generate_circulant(config, &[]);
    }

    let root = Rng::seed_from_u64(config.seed);
    let workers = workers.min(config.candidates).max(1);
    let mut results: Vec<Option<(f64, BipartiteGraph)>> = Vec::new();
    if workers <= 1 || config.candidates <= 1 {
        for candidate in 0..config.candidates {
            results.push(screen_candidate(config, root.split_u64(candidate as u64)));
        }
    } else {
        results.resize_with(config.candidates, || None);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots = std::sync::Mutex::new(&mut results);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let candidate = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if candidate >= config.candidates {
                        return;
                    }
                    let r = screen_candidate(config, root.split_u64(candidate as u64));
                    slots.lock().unwrap()[candidate] = r;
                });
            }
        });
    }
    let mut best: Option<(f64, BipartiteGraph)> = None;
    // Reduce in candidate order: ties keep the earliest candidate, exactly
    // as the serial loop's strict `iso > best` comparison did.
    for r in results.into_iter().flatten() {
        let (iso, g) = r;
        if best.as_ref().is_none_or(|(b, _)| iso > *b) {
            best = Some((iso, g));
        }
    }
    match best {
        Some((iso, g)) if iso >= config.min_expansion || config.min_expansion <= 1.0 => Ok(g),
        Some((_, g)) => Ok(g), // keep best-effort graph; caller may re-screen
        None => {
            // Deterministic fallback: circulant strides 1, 2, ..., degree-1.
            let strides: Vec<usize> = (1..config.degree).collect();
            let g = generate_circulant(config, &strides)?;
            if g.is_connected() {
                Ok(g)
            } else {
                Err(ExpanderError::GenerationFailed {
                    attempts: config.candidates,
                })
            }
        }
    }
}

/// One attempt at a uniformly random simple biregular graph.
///
/// Home edges are fixed by block placement. The remaining `degree - 1`
/// helper edges per apprank are drawn by the configuration model: a pool of
/// node *slots* (each node has `node_degree - appranks_per_node` helper
/// slots) is shuffled and dealt to appranks; a deal that would create a
/// duplicate apprank–node pair triggers a local swap repair, and if repair
/// fails the whole attempt is retried with a perturbed shuffle (up to 64
/// times).
pub fn generate_random(
    config: &ExpanderConfig,
    seed: u64,
) -> Result<BipartiteGraph, ExpanderError> {
    generate_random_from(config, Rng::seed_from_u64(seed))
}

/// [`generate_random`] driven by an already-derived RNG stream (the
/// parallel candidate screening hands each candidate its own substream).
fn generate_random_from(
    config: &ExpanderConfig,
    mut rng: Rng,
) -> Result<BipartiteGraph, ExpanderError> {
    config.validate()?;
    let per_node = config.appranks_per_node();
    let helper_slots_per_node = config.node_degree() - per_node;
    let helpers_per_apprank = config.degree - 1;

    const MAX_ATTEMPTS: usize = 64;
    'attempt: for _ in 0..MAX_ATTEMPTS {
        // Slot pool: each node appears once per helper slot.
        let mut pool: Vec<usize> = (0..config.nodes)
            .flat_map(|n| std::iter::repeat_n(n, helper_slots_per_node))
            .collect();
        rng.shuffle(&mut pool);

        let mut adj: Vec<Vec<usize>> = (0..config.appranks)
            .map(|a| vec![BipartiteGraph::expected_home(config, a)])
            .collect();

        let mut cursor = 0usize;
        for a in 0..config.appranks {
            for _ in 0..helpers_per_apprank {
                // Find a pool entry not already adjacent to `a`.
                let mut take = cursor;
                let mut found = false;
                // Search forward, then attempt a swap with any later entry.
                for probe in cursor..pool.len() {
                    if !adj[a].contains(&pool[probe]) {
                        pool.swap(cursor, probe);
                        take = cursor;
                        found = true;
                        break;
                    }
                }
                if !found {
                    // Repair: swap an already-consumed slot belonging to some
                    // earlier apprank. Cheaper to just retry the attempt.
                    continue 'attempt;
                }
                adj[a].push(pool[take]);
                cursor += 1;
            }
            adj[a][1..].sort_unstable();
            // Re-check for a duplicate of home that sneaked in via sorting
            // (cannot happen: contains() included home). Keep helper list
            // strictly increasing; duplicates abort the attempt.
            if adj[a][1..].windows(2).any(|w| w[0] == w[1]) {
                continue 'attempt;
            }
        }
        return BipartiteGraph::from_adjacency(config.clone(), adj);
    }
    Err(ExpanderError::GenerationFailed {
        attempts: MAX_ATTEMPTS,
    })
}

/// Deterministic circulant construction: apprank `a` with home node `h`
/// offloads to nodes `h + stride (mod nodes)` for each given stride.
/// Strides must be distinct, nonzero modulo `nodes`.
///
/// Used for the degree-1 baseline (empty strides), for tiny graphs where
/// the paper uses a "known-optimal solution", and as a last-resort fallback.
pub fn generate_circulant(
    config: &ExpanderConfig,
    strides: &[usize],
) -> Result<BipartiteGraph, ExpanderError> {
    config.validate()?;
    if strides.len() != config.degree - 1 {
        return Err(ExpanderError::Invalid(format!(
            "need {} strides for degree {}, got {}",
            config.degree - 1,
            config.degree,
            strides.len()
        )));
    }
    let mut adj = Vec::with_capacity(config.appranks);
    for a in 0..config.appranks {
        let home = BipartiteGraph::expected_home(config, a);
        let mut nodes = vec![home];
        for &s in strides {
            let n = (home + s) % config.nodes;
            if n == home || nodes.contains(&n) {
                return Err(ExpanderError::Invalid(format!(
                    "stride {s} collides for apprank {a} (home {home}, {} nodes)",
                    config.nodes
                )));
            }
            nodes.push(n);
        }
        nodes[1..].sort_unstable();
        adj.push(nodes);
    }
    BipartiteGraph::from_adjacency(config.clone(), adj)
}

/// Convenience used by tests and benches: generate with retry over seeds
/// until a connected graph appears (guaranteed to terminate for any shape
/// where the circulant fallback is connected).
pub(crate) fn _generate_connected(
    config: &ExpanderConfig,
    rng: &mut Rng,
) -> Result<BipartiteGraph, ExpanderError> {
    for _ in 0..32 {
        let g = generate_random(config, rng.next_u64())?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    let strides: Vec<usize> = (1..config.degree).collect();
    generate_circulant(config, &strides)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_biregular() {
        let cfg = ExpanderConfig::new(32, 16, 3);
        let g = generate_random(&cfg, 42).unwrap();
        g.check().unwrap();
        assert_eq!(g.node_degree(), 6);
        for n in 0..16 {
            assert_eq!(g.appranks_on(n).len(), 6);
        }
    }

    #[test]
    fn random_graph_includes_home() {
        let cfg = ExpanderConfig::new(8, 4, 2);
        let g = generate_random(&cfg, 1).unwrap();
        for a in 0..8 {
            assert_eq!(g.home_node(a), a / 2);
            assert!(g.nodes_of(a).contains(&(a / 2)));
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let cfg = ExpanderConfig::new(16, 8, 3);
        let g1 = generate_random(&cfg, 9).unwrap();
        let g2 = generate_random(&cfg, 9).unwrap();
        for a in 0..16 {
            assert_eq!(g1.nodes_of(a), g2.nodes_of(a));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ExpanderConfig::new(64, 32, 4);
        let g1 = generate_random(&cfg, 1).unwrap();
        let g2 = generate_random(&cfg, 2).unwrap();
        let same = (0..64).all(|a| g1.nodes_of(a) == g2.nodes_of(a));
        assert!(!same, "two seeds produced identical graphs");
    }

    #[test]
    fn circulant_baseline_degree_one() {
        let cfg = ExpanderConfig::new(8, 8, 1);
        let g = generate_circulant(&cfg, &[]).unwrap();
        for a in 0..8 {
            assert_eq!(g.nodes_of(a), &[a]);
        }
    }

    #[test]
    fn circulant_ring_connected() {
        let cfg = ExpanderConfig::new(8, 8, 2);
        let g = generate_circulant(&cfg, &[1]).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn circulant_rejects_colliding_stride() {
        let cfg = ExpanderConfig::new(4, 4, 2);
        assert!(generate_circulant(&cfg, &[4]).is_err()); // stride = nodes → home
        assert!(generate_circulant(&cfg, &[0]).is_err());
    }

    #[test]
    fn top_level_generate_connected_graphs() {
        for &(appranks, nodes, degree) in &[
            (4usize, 4usize, 2usize),
            (8, 8, 3),
            (32, 16, 3),
            (64, 64, 4),
            (128, 64, 4),
        ] {
            let cfg = ExpanderConfig::new(appranks, nodes, degree).with_seed(3);
            let g = BipartiteGraph::generate(&cfg).unwrap();
            g.check().unwrap();
            assert!(
                g.is_connected(),
                "{appranks}x{nodes} d{degree} disconnected"
            );
        }
    }

    #[test]
    fn degree_full_connectivity() {
        // degree == nodes means every apprank reaches every node.
        let cfg = ExpanderConfig::new(4, 4, 4);
        let g = BipartiteGraph::generate(&cfg).unwrap();
        for a in 0..4 {
            for n in 0..4 {
                assert!(g.nodes_of(a).contains(&n));
            }
        }
    }
}
