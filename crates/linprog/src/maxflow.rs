//! Dinic's maximum-flow algorithm on floating-point capacities.
//!
//! Used by the parametric solver for the core allocation program: for a
//! candidate objective value `t`, feasibility is a transportation problem —
//! `source → apprank (cap work_a) → adjacent nodes (cap ∞) → sink
//! (cap t · node_capacity)` — which is feasible iff the max flow saturates
//! all source edges.

const EPS: f64 = 1e-9;

#[derive(Clone, Debug)]
struct Edge {
    to: usize,
    cap: f64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A flow network over vertices `0..n`.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    graph: Vec<Vec<Edge>>,
    /// (from, index) handles for querying flow on added edges.
    handles: Vec<(usize, usize)>,
}

impl FlowNetwork {
    /// A network with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            graph: vec![Vec::new(); n],
            handles: Vec::new(),
        }
    }

    /// Add a directed edge with the given capacity; returns a handle usable
    /// with [`FlowNetwork::flow_on`] after `max_flow`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or negative capacity.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: f64) -> usize {
        assert!(
            from < self.graph.len() && to < self.graph.len(),
            "edge endpoint out of range"
        );
        assert!(cap >= 0.0, "negative capacity");
        let rev_from = self.graph[to].len() + usize::from(from == to);
        let idx = self.graph[from].len();
        self.graph[from].push(Edge {
            to,
            cap,
            rev: rev_from,
        });
        self.graph[to].push(Edge {
            to: from,
            cap: 0.0,
            rev: idx,
        });
        self.handles.push((from, idx));
        self.handles.len() - 1
    }

    /// Flow routed through edge `handle` after a `max_flow` run.
    pub fn flow_on(&self, handle: usize) -> f64 {
        let (from, idx) = self.handles[handle];
        let e = &self.graph[from][idx];
        // Residual on the reverse edge equals the flow pushed forward.
        self.graph[e.to][e.rev].cap
    }

    /// Compute the maximum flow from `source` to `sink` (Dinic).
    pub fn max_flow(&mut self, source: usize, sink: usize) -> f64 {
        assert_ne!(source, sink, "source equals sink");
        let n = self.graph.len();
        let mut total = 0.0;
        let mut level = vec![-1i32; n];
        let mut iter = vec![0usize; n];
        loop {
            // BFS level graph.
            level.iter_mut().for_each(|l| *l = -1);
            level[source] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(source);
            while let Some(v) = queue.pop_front() {
                for e in &self.graph[v] {
                    if e.cap > EPS && level[e.to] < 0 {
                        level[e.to] = level[v] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            if level[sink] < 0 {
                return total;
            }
            iter.iter_mut().for_each(|i| *i = 0);
            loop {
                let f = self.dfs(source, sink, f64::INFINITY, &level, &mut iter);
                if f <= EPS {
                    break;
                }
                total += f;
            }
        }
    }

    fn dfs(&mut self, v: usize, sink: usize, f: f64, level: &[i32], iter: &mut [usize]) -> f64 {
        if v == sink {
            return f;
        }
        while iter[v] < self.graph[v].len() {
            let i = iter[v];
            let (to, cap, rev) = {
                let e = &self.graph[v][i];
                (e.to, e.cap, e.rev)
            };
            if cap > EPS && level[v] < level[to] {
                let d = self.dfs(to, sink, f.min(cap), level, iter);
                if d > EPS {
                    self.graph[v][i].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut f = FlowNetwork::new(2);
        let h = f.add_edge(0, 1, 5.0);
        assert_eq!(f.max_flow(0, 1), 5.0);
        assert_eq!(f.flow_on(h), 5.0);
    }

    #[test]
    fn series_bottleneck() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 10.0);
        let h = f.add_edge(1, 2, 3.0);
        assert_eq!(f.max_flow(0, 2), 3.0);
        assert_eq!(f.flow_on(h), 3.0);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 4.0);
        f.add_edge(1, 3, 4.0);
        f.add_edge(0, 2, 2.5);
        f.add_edge(2, 3, 2.5);
        assert!((f.max_flow(0, 3) - 6.5).abs() < 1e-9);
    }

    #[test]
    fn classic_diamond_with_cross_edge() {
        // The standard example requiring flow cancellation.
        let mut f = FlowNetwork::new(4);
        f.add_edge(0, 1, 10.0);
        f.add_edge(0, 2, 10.0);
        f.add_edge(1, 2, 1.0);
        f.add_edge(1, 3, 10.0);
        f.add_edge(2, 3, 10.0);
        assert!((f.max_flow(0, 3) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink_zero_flow() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 7.0);
        assert_eq!(f.max_flow(0, 2), 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut f = FlowNetwork::new(3);
        f.add_edge(0, 1, 0.3);
        f.add_edge(0, 2, 0.2);
        f.add_edge(1, 2, 1.0);
        assert!((f.max_flow(0, 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn transportation_feasibility_shape() {
        // 2 appranks (work 9, 3), 2 nodes (capacity-rate 6t each, t=1):
        // apprank 0 adj {0,1}, apprank 1 adj {1}. Max flow should be 12
        // when t*cap = 6 per node (exactly feasible).
        let (s, a0, a1, n0, n1, t_) = (0, 1, 2, 3, 4, 5);
        let mut f = FlowNetwork::new(6);
        f.add_edge(s, a0, 9.0);
        f.add_edge(s, a1, 3.0);
        f.add_edge(a0, n0, f64::INFINITY);
        f.add_edge(a0, n1, f64::INFINITY);
        f.add_edge(a1, n1, f64::INFINITY);
        f.add_edge(n0, t_, 6.0);
        f.add_edge(n1, t_, 6.0);
        assert!((f.max_flow(s, t_) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn self_loop_is_harmless() {
        let mut f = FlowNetwork::new(2);
        f.add_edge(0, 0, 5.0);
        f.add_edge(0, 1, 2.0);
        assert!((f.max_flow(0, 1) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn random_networks_satisfy_cut_bound() {
        let mut rng = tlb_rng::Rng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.range_usize(4, 10);
            let mut f = FlowNetwork::new(n);
            let mut out_cap0 = 0.0;
            let mut in_capn = 0.0;
            for _ in 0..rng.range_usize(5, 25) {
                let u = rng.range_usize(0, n);
                let v = rng.range_usize(0, n);
                if u == v {
                    continue;
                }
                let c = rng.range_f64(0.0, 5.0);
                f.add_edge(u, v, c);
                if u == 0 {
                    out_cap0 += c;
                }
                if v == n - 1 {
                    in_capn += c;
                }
            }
            let flow = f.max_flow(0, n - 1);
            assert!(flow <= out_cap0 + 1e-9, "flow exceeds source cut");
            assert!(flow <= in_capn + 1e-9, "flow exceeds sink cut");
            assert!(flow >= -1e-12);
        }
    }
}
