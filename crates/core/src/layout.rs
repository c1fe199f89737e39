//! Process layout: which worker processes live on which node, and the
//! initial DROM core ownership.

use tlb_expander::BipartiteGraph;
use tlb_linprog::largest_remainder;

/// One worker process: the representative of `apprank` on a node. `slot`
/// is the index of the node in the apprank's adjacency list (0 = the main
/// process on the home node; ≥1 = helper ranks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerRef {
    /// The apprank this worker executes tasks for.
    pub apprank: usize,
    /// Index into the apprank's adjacency list (0 = home).
    pub slot: usize,
}

impl WorkerRef {
    /// Whether this is the apprank's main process (on its home node).
    pub fn is_main(&self) -> bool {
        self.slot == 0
    }
}

/// The worker table: which worker processes live where and are alive,
/// plus the initial core ownership. Derived from the expander graph
/// (paper Fig. 2): each apprank has its main process on its home node and
/// one helper rank on every other adjacent node. Helper ranks initially
/// own one core (the DLB minimum); the remaining cores are divided equally
/// among the node's main processes (§5.4). The table maps both ways —
/// node → workers and `(apprank, slot)` → `(node, proc)` — is fixed once
/// built, and keeps a retired worker addressable
/// ([`ProcessLayout::retire`]): indices never shift.
#[derive(Clone, Debug)]
pub struct ProcessLayout {
    /// `workers[n]` = the worker processes hosted on node `n`, mains
    /// first (by apprank), then helpers (by apprank).
    workers: Vec<Vec<WorkerRef>>,
    /// `placement[a][k]` = `(node, proc)` of apprank `a`'s slot-`k`
    /// worker: `workers[node][proc]` is that worker, and `proc` is its
    /// per-node DLB process id.
    placement: Vec<Vec<(usize, usize)>>,
    /// `alive[n][p]`: the worker `workers[n][p]` has not been retired.
    alive: Vec<Vec<bool>>,
    /// Initial ownership counts, aligned with `workers[n]`.
    initial_ownership: Vec<Vec<usize>>,
}

impl ProcessLayout {
    /// Build the layout for `graph` on nodes with `cores_per_node` cores.
    ///
    /// # Panics
    /// Panics if some node hosts more worker processes than cores (the
    /// DLB one-core minimum would be violated) — the caller should reject
    /// such configurations (degree too high for the machine shape).
    pub fn new(graph: &BipartiteGraph, cores_per_node: usize) -> Self {
        let nodes = graph.nodes();
        let mut workers: Vec<Vec<WorkerRef>> = vec![Vec::new(); nodes];
        // Mains first…
        for a in 0..graph.appranks() {
            workers[graph.home_node(a)].push(WorkerRef {
                apprank: a,
                slot: 0,
            });
        }
        // …then helpers, ordered by apprank for determinism.
        for a in 0..graph.appranks() {
            for (k, &n) in graph.nodes_of(a).iter().enumerate().skip(1) {
                workers[n].push(WorkerRef {
                    apprank: a,
                    slot: k,
                });
            }
        }
        // Reverse index.
        let mut placement: Vec<Vec<(usize, usize)>> = (0..graph.appranks())
            .map(|a| vec![(usize::MAX, usize::MAX); graph.nodes_of(a).len()])
            .collect();
        for (n, ws) in workers.iter().enumerate() {
            for (i, w) in ws.iter().enumerate() {
                debug_assert_eq!(graph.nodes_of(w.apprank)[w.slot], n);
                placement[w.apprank][w.slot] = (n, i);
            }
        }
        let alive = workers.iter().map(|ws| vec![true; ws.len()]).collect();
        // Initial ownership.
        let mut initial_ownership = Vec::with_capacity(nodes);
        for ws in &workers {
            assert!(
                ws.len() <= cores_per_node,
                "{} workers exceed {cores_per_node} cores on a node",
                ws.len()
            );
            let mains = ws.iter().filter(|w| w.is_main()).count();
            let for_mains = cores_per_node - (ws.len() - mains);
            let even = vec![for_mains as f64 / mains as f64; mains];
            let mut split = largest_remainder(&even, 0, for_mains).into_iter();
            let counts = ws
                .iter()
                .map(|w| {
                    if w.is_main() {
                        split.next().expect("one share per main")
                    } else {
                        1
                    }
                })
                .collect();
            initial_ownership.push(counts);
        }
        ProcessLayout {
            workers,
            placement,
            alive,
            initial_ownership,
        }
    }

    /// Worker processes on `node`, mains first.
    pub fn workers_on(&self, node: usize) -> &[WorkerRef] {
        &self.workers[node]
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.workers.len()
    }

    /// The node hosting apprank `a`'s slot-`k` worker (slot 0 = home).
    pub fn node_of(&self, apprank: usize, slot: usize) -> usize {
        self.placement[apprank][slot].0
    }

    /// The per-node DLB process index of apprank `a`'s slot-`k` worker.
    pub fn proc_of(&self, apprank: usize, slot: usize) -> usize {
        self.placement[apprank][slot].1
    }

    /// Per-apprank worker placement as `(node, proc)` pairs in slot
    /// order, home first; retired workers keep their entry.
    pub fn placement(&self) -> &[Vec<(usize, usize)>] {
        &self.placement
    }

    /// Per-node, per-proc liveness, aligned with
    /// [`ProcessLayout::workers_on`].
    pub fn alive(&self) -> &[Vec<bool>] {
        &self.alive
    }

    /// Re-arrange per-`(apprank, slot)` core counts (a solver's view)
    /// into per-node vectors aligned with [`ProcessLayout::workers_on`],
    /// ready for `NodeDlb::set_ownership`.
    pub fn counts_by_node(&self, cores: &[Vec<usize>]) -> Vec<Vec<usize>> {
        let mut per_node: Vec<Vec<usize>> =
            self.workers.iter().map(|ws| vec![0; ws.len()]).collect();
        for (row, placed) in cores.iter().zip(&self.placement) {
            for (&c, &(node, proc)) in row.iter().zip(placed) {
                per_node[node][proc] = c;
            }
        }
        per_node
    }

    /// Initial ownership counts aligned with [`ProcessLayout::workers_on`].
    pub fn initial_ownership(&self, node: usize) -> &[usize] {
        &self.initial_ownership[node]
    }

    /// Mark apprank `a`'s slot-`k` helper retired (fail-stop). Its
    /// entries stay in place, so every other worker keeps its indices.
    ///
    /// # Panics
    /// Panics on slot 0: the home worker *is* the apprank and cannot be
    /// retired.
    pub fn retire(&mut self, apprank: usize, slot: usize) {
        assert!(slot != 0, "home worker cannot be retired");
        let (node, proc) = self.placement[apprank][slot];
        self.alive[node][proc] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_expander::{generate_circulant, ExpanderConfig};

    fn ring(appranks: usize, nodes: usize, degree: usize) -> BipartiteGraph {
        let strides: Vec<usize> = (1..degree).collect();
        generate_circulant(&ExpanderConfig::new(appranks, nodes, degree), &strides).unwrap()
    }

    #[test]
    fn mains_precede_helpers() {
        let g = ring(4, 4, 2);
        let l = ProcessLayout::new(&g, 8);
        for n in 0..4 {
            let ws = l.workers_on(n);
            assert_eq!(ws.len(), 2);
            assert!(ws[0].is_main());
            assert!(!ws[1].is_main());
        }
    }

    #[test]
    fn paper_marenostrum_ownership() {
        // Fig. 4(c) shape: 2 appranks/node, degree 3 → 6 workers/node on a
        // 48-core node: helpers own 1, each main owns 22 (paper §5.4).
        let g = ring(32, 16, 3);
        let l = ProcessLayout::new(&g, 48);
        for n in 0..16 {
            let own = l.initial_ownership(n);
            let ws = l.workers_on(n);
            assert_eq!(ws.len(), 6);
            assert_eq!(own.iter().sum::<usize>(), 48);
            for (w, &c) in ws.iter().zip(own) {
                if w.is_main() {
                    assert_eq!(c, 22);
                } else {
                    assert_eq!(c, 1);
                }
            }
        }
    }

    #[test]
    fn uneven_main_split_distributes_remainder() {
        // 3 appranks on 1 node (degree 1), 10 cores: 4 + 3 + 3.
        let g = ring(3, 1, 1);
        let l = ProcessLayout::new(&g, 10);
        assert_eq!(l.initial_ownership(0), &[4, 3, 3]);
    }

    #[test]
    fn proc_index_roundtrips() {
        let g = ring(8, 8, 3);
        let l = ProcessLayout::new(&g, 4);
        for a in 0..8 {
            for (k, &n) in g.nodes_of(a).iter().enumerate() {
                let p = l.proc_of(a, k);
                let w = l.workers_on(n)[p];
                assert_eq!(w.apprank, a);
                assert_eq!(w.slot, k);
            }
        }
        assert_eq!(l.placement().iter().map(Vec::len).sum::<usize>(), 24);
    }

    /// Seeded random graphs under random retire sequences: the two
    /// directions of the table stay mutual inverses, a retired worker
    /// keeps its address, and nobody else's indices move.
    #[test]
    fn table_stays_consistent_under_retirements() {
        use tlb_rng::Rng;
        for seed in 0..32u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let nodes = rng.range_usize(2, 9);
            let per_node = rng.range_usize(1, 3);
            let degree = rng.range_usize(1, nodes.min(3) + 1);
            let cfg = ExpanderConfig::new(nodes * per_node, nodes, degree).with_seed(seed);
            let g = BipartiteGraph::generate(&cfg).unwrap();
            let cores = per_node * degree + 2;
            let mut l = ProcessLayout::new(&g, cores);
            let mut retired: Vec<(usize, usize, (usize, usize))> = Vec::new();
            for _ in 0..24 {
                let a = rng.range_usize(0, l.placement().len());
                if l.placement()[a].len() > 1 {
                    let slot = rng.range_usize(1, l.placement()[a].len());
                    l.retire(a, slot);
                    retired.push((a, slot, l.placement()[a][slot]));
                }
                for (a, placed) in l.placement().iter().enumerate() {
                    for (k, &(n, p)) in placed.iter().enumerate() {
                        let w = WorkerRef {
                            apprank: a,
                            slot: k,
                        };
                        assert_eq!(l.workers_on(n)[p], w);
                        assert_eq!((l.node_of(a, k), l.proc_of(a, k)), (n, p));
                    }
                    assert!(l.alive()[placed[0].0][placed[0].1], "home of {a} retired");
                }
                for n in 0..nodes {
                    assert_eq!(l.alive()[n].len(), l.workers_on(n).len());
                    for (p, w) in l.workers_on(n).iter().enumerate() {
                        assert_eq!(l.placement()[w.apprank][w.slot], (n, p));
                    }
                }
                for &(a, k, at) in &retired {
                    assert_eq!(l.placement()[a][k], at, "retired worker moved");
                    assert!(!l.alive()[at.0][at.1]);
                }
                let total: usize = l.placement().iter().map(Vec::len).sum();
                let hosted: usize = (0..nodes).map(|n| l.workers_on(n).len()).sum();
                assert_eq!(hosted, total);
            }
        }
    }

    #[test]
    #[should_panic(expected = "home worker")]
    fn home_worker_cannot_be_retired() {
        ProcessLayout::new(&ring(4, 4, 2), 8).retire(1, 0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_workers_panics() {
        let g = ring(4, 2, 2); // 4 workers per node
        ProcessLayout::new(&g, 3);
    }
}
