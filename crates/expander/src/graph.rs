//! The bipartite apprank↔node graph and its configuration.

use std::collections::VecDeque;
use std::fmt;

/// Parameters for generating an expander layout.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpanderConfig {
    /// Number of application ranks.
    pub appranks: usize,
    /// Number of compute nodes. Must divide `appranks`.
    pub nodes: usize,
    /// Offloading degree: nodes per apprank, including the home node.
    /// Degree 1 is the no-offloading baseline.
    pub degree: usize,
    /// RNG seed for the random construction.
    pub seed: u64,
    /// How many random candidates to draw; the one with the best sampled
    /// isoperimetric number wins (the paper's screening of "bad graphs").
    pub candidates: usize,
}

impl ExpanderConfig {
    /// Config with default seed (0) and 16 candidates.
    pub fn new(appranks: usize, nodes: usize, degree: usize) -> Self {
        ExpanderConfig {
            appranks,
            nodes,
            degree,
            seed: 0,
            candidates: 16,
        }
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the candidate count.
    pub fn with_candidates(mut self, candidates: usize) -> Self {
        self.candidates = candidates.max(1);
        self
    }

    /// Appranks per node implied by the shape.
    pub fn appranks_per_node(&self) -> usize {
        self.appranks / self.nodes
    }

    /// Worker processes hosted by each node (node-side degree).
    pub fn node_degree(&self) -> usize {
        self.degree * self.appranks_per_node()
    }

    /// Validate shape feasibility.
    pub fn validate(&self) -> Result<(), ExpanderError> {
        if self.appranks == 0 || self.nodes == 0 || self.degree == 0 {
            return Err(ExpanderError::EmptyShape);
        }
        if !self.appranks.is_multiple_of(self.nodes) {
            return Err(ExpanderError::UnevenRanks {
                appranks: self.appranks,
                nodes: self.nodes,
            });
        }
        if self.degree > self.nodes {
            return Err(ExpanderError::DegreeTooLarge {
                degree: self.degree,
                nodes: self.nodes,
            });
        }
        Ok(())
    }
}

/// Errors from graph generation or validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpanderError {
    /// Zero appranks, nodes or degree.
    EmptyShape,
    /// `appranks` is not a multiple of `nodes`.
    UnevenRanks { appranks: usize, nodes: usize },
    /// Offloading degree exceeds the node count.
    DegreeTooLarge { degree: usize, nodes: usize },
    /// Random construction failed to produce a simple biregular graph.
    GenerationFailed { attempts: usize },
    /// Adjacency lists that violate a structural invariant.
    Invalid(String),
}

impl fmt::Display for ExpanderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpanderError::EmptyShape => write!(f, "appranks, nodes and degree must be nonzero"),
            ExpanderError::UnevenRanks { appranks, nodes } => {
                write!(
                    f,
                    "{appranks} appranks do not divide evenly over {nodes} nodes"
                )
            }
            ExpanderError::DegreeTooLarge { degree, nodes } => {
                write!(f, "offloading degree {degree} exceeds node count {nodes}")
            }
            ExpanderError::GenerationFailed { attempts } => {
                write!(
                    f,
                    "random biregular construction failed after {attempts} attempts"
                )
            }
            ExpanderError::Invalid(msg) => write!(f, "invalid graph: {msg}"),
        }
    }
}

impl std::error::Error for ExpanderError {}

/// The bipartite apprank↔node adjacency. Immutable once generated.
///
/// Invariants (checked by [`BipartiteGraph::check`]):
/// * every apprank has exactly `degree` distinct nodes, the first of which
///   is its home node;
/// * every node hosts exactly `degree * appranks_per_node` worker processes;
/// * adjacency lists are sorted after the home entry (deterministic
///   iteration order for the scheduler).
#[derive(Clone, Debug)]
pub struct BipartiteGraph {
    config: ExpanderConfig,
    /// `adj[a]` = nodes on which apprank `a` may execute; `adj[a][0]` is the
    /// home node.
    adj: Vec<Vec<usize>>,
    /// `hosted[n]` = appranks with a worker process on node `n` (sorted).
    hosted: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// Build from adjacency lists, checking all structural invariants.
    pub fn from_adjacency(
        config: ExpanderConfig,
        adj: Vec<Vec<usize>>,
    ) -> Result<Self, ExpanderError> {
        config.validate()?;
        let mut hosted = vec![Vec::new(); config.nodes];
        for (a, nodes) in adj.iter().enumerate() {
            for &n in nodes {
                if n >= config.nodes {
                    return Err(ExpanderError::Invalid(format!(
                        "apprank {a} references node {n} out of range"
                    )));
                }
                hosted[n].push(a);
            }
        }
        for h in &mut hosted {
            h.sort_unstable();
        }
        let g = BipartiteGraph {
            config,
            adj,
            hosted,
        };
        g.check()?;
        Ok(g)
    }

    /// Generate a graph per the configuration: random candidates screened by
    /// connectivity and (for small graphs) the isoperimetric number, with a
    /// deterministic circulant fallback. See [`crate::generate_random`].
    pub fn generate(config: &ExpanderConfig) -> Result<Self, ExpanderError> {
        crate::generate::generate(config)
    }

    /// The generation configuration.
    pub fn config(&self) -> &ExpanderConfig {
        &self.config
    }

    /// Number of appranks.
    pub fn appranks(&self) -> usize {
        self.config.appranks
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// Offloading degree (nodes per apprank, home included).
    pub fn apprank_degree(&self) -> usize {
        self.config.degree
    }

    /// Worker processes per node.
    pub fn node_degree(&self) -> usize {
        self.config.node_degree()
    }

    /// Home node of `apprank` (block placement: ranks `k*p .. k*p+p-1`
    /// live on node `k` for `p` appranks per node, matching SPMD launch).
    pub fn home_node(&self, apprank: usize) -> usize {
        self.adj[apprank][0]
    }

    /// Nodes on which `apprank` may execute tasks; element 0 is home.
    pub fn nodes_of(&self, apprank: usize) -> &[usize] {
        &self.adj[apprank]
    }

    /// Appranks with a worker process on `node` (home or helper).
    pub fn appranks_on(&self, node: usize) -> &[usize] {
        &self.hosted[node]
    }

    /// Expected home node from the block placement rule.
    pub fn expected_home(config: &ExpanderConfig, apprank: usize) -> usize {
        apprank / config.appranks_per_node()
    }

    /// Verify all structural invariants.
    pub fn check(&self) -> Result<(), ExpanderError> {
        let c = &self.config;
        if self.adj.len() != c.appranks {
            return Err(ExpanderError::Invalid(format!(
                "expected {} adjacency rows, got {}",
                c.appranks,
                self.adj.len()
            )));
        }
        for (a, nodes) in self.adj.iter().enumerate() {
            if nodes.len() != c.degree {
                return Err(ExpanderError::Invalid(format!(
                    "apprank {a} has degree {} != {}",
                    nodes.len(),
                    c.degree
                )));
            }
            if nodes[0] != Self::expected_home(c, a) {
                return Err(ExpanderError::Invalid(format!(
                    "apprank {a} home is {}, expected {}",
                    nodes[0],
                    Self::expected_home(c, a)
                )));
            }
            let mut seen = nodes.to_vec();
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != nodes.len() {
                return Err(ExpanderError::Invalid(format!(
                    "apprank {a} has duplicate nodes"
                )));
            }
            if nodes[1..].windows(2).any(|w| w[0] >= w[1]) {
                return Err(ExpanderError::Invalid(format!(
                    "apprank {a} helper list not sorted"
                )));
            }
        }
        let want = c.node_degree();
        for (n, hosts) in self.hosted.iter().enumerate() {
            if hosts.len() != want {
                return Err(ExpanderError::Invalid(format!(
                    "node {n} hosts {} workers != {}",
                    hosts.len(),
                    want
                )));
            }
        }
        Ok(())
    }

    /// Whether the bipartite graph is connected (BFS over both partitions).
    /// A disconnected graph partitions the machine into groups that can
    /// never exchange load — exactly the failure screening must catch.
    pub fn is_connected(&self) -> bool {
        if self.config.appranks == 0 {
            return true;
        }
        let mut seen_a = vec![false; self.config.appranks];
        let mut seen_n = vec![false; self.config.nodes];
        let mut queue = VecDeque::new();
        seen_a[0] = true;
        queue.push_back((true, 0usize)); // (is_apprank, index)
        while let Some((is_apprank, idx)) = queue.pop_front() {
            if is_apprank {
                for &n in &self.adj[idx] {
                    if !seen_n[n] {
                        seen_n[n] = true;
                        queue.push_back((false, n));
                    }
                }
            } else {
                for &a in &self.hosted[idx] {
                    if !seen_a[a] {
                        seen_a[a] = true;
                        queue.push_back((true, a));
                    }
                }
            }
        }
        seen_a.iter().all(|&s| s) && seen_n.iter().all(|&s| s)
    }

    /// The vertex isoperimetric number: `min |N(A)| / |A|` over nonempty
    /// apprank subsets `A` with `|A| <= appranks/2`. This is the paper's
    /// minimal `1 + eps`. Exact (exhaustive) for up to 20 appranks;
    /// above that, the minimum over the subsets
    /// [`isoperimetric_sampled`](crate::isoperimetric_sampled) tries,
    /// which is an upper bound: the true number may be lower, so a large
    /// graph carries no expansion guarantee from this value.
    pub fn isoperimetric_number(&self) -> f64 {
        if self.config.appranks <= 20 {
            crate::isoperimetric::isoperimetric_exact(self)
        } else {
            crate::isoperimetric::isoperimetric_sampled(self, self.config.seed, 4000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_shapes() {
        let c = ExpanderConfig::new(32, 16, 3);
        assert_eq!(c.appranks_per_node(), 2);
        assert_eq!(c.node_degree(), 6);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_rejects_bad_shapes() {
        assert_eq!(
            ExpanderConfig::new(0, 4, 2).validate(),
            Err(ExpanderError::EmptyShape)
        );
        assert!(matches!(
            ExpanderConfig::new(5, 4, 2).validate(),
            Err(ExpanderError::UnevenRanks { .. })
        ));
        assert!(matches!(
            ExpanderConfig::new(4, 4, 5).validate(),
            Err(ExpanderError::DegreeTooLarge { .. })
        ));
    }

    #[test]
    fn from_adjacency_checks_home() {
        let c = ExpanderConfig::new(2, 2, 1);
        // apprank 1's home must be node 1
        let bad = BipartiteGraph::from_adjacency(c.clone(), vec![vec![0], vec![0]]);
        assert!(bad.is_err());
        let good = BipartiteGraph::from_adjacency(c, vec![vec![0], vec![1]]).unwrap();
        assert_eq!(good.home_node(1), 1);
    }

    #[test]
    fn degree_one_is_disconnected_between_nodes() {
        let c = ExpanderConfig::new(2, 2, 1);
        let g = BipartiteGraph::from_adjacency(c, vec![vec![0], vec![1]]).unwrap();
        assert!(!g.is_connected());
        assert!(!g.nodes_of(0).contains(&1));
    }

    #[test]
    fn ring_degree_two_is_connected() {
        let c = ExpanderConfig::new(4, 4, 2);
        let adj = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 0]];
        let g = BipartiteGraph::from_adjacency(c, adj).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.node_degree(), 2);
        assert_eq!(g.appranks_on(1), &[0, 1]);
    }

    #[test]
    fn uneven_node_degree_rejected() {
        let c = ExpanderConfig::new(4, 4, 2);
        // Node 1 hosts 3 workers, node 3 hosts 1: not biregular.
        let adj = vec![vec![0, 1], vec![1, 2], vec![2, 1], vec![3, 0]];
        assert!(BipartiteGraph::from_adjacency(c, adj).is_err());
    }
}
