//! The offload scheduler decision rule (paper §5.5).

/// The scheduler's threshold: a worker takes new tasks while it holds
/// fewer than this many per *owned* core (paper §5.5: "fewer than two").
pub const QUEUE_DEPTH_PER_CORE: usize = 2;

/// Snapshot of one candidate worker (an apprank's presence on one node)
/// at scheduling time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateState {
    /// Node the worker runs on.
    pub node: usize,
    /// Tasks already assigned to this worker (queued or executing).
    pub queued_tasks: usize,
    /// Cores the worker *owns* via DROM. The scheduler deliberately
    /// ignores LeWI-borrowed cores: "borrowed cores may have to be
    /// returned at any moment" (§5.5) — unless `count_borrowed` counts
    /// them.
    pub owned_cores: usize,
    /// Cores currently usable including borrowed ones (read only when
    /// `count_borrowed` is set; the simulator never sets it).
    pub usable_cores: usize,
}

impl CandidateState {
    fn capacity(&self, count_borrowed: bool) -> usize {
        if count_borrowed {
            self.usable_cores.max(self.owned_cores)
        } else {
            self.owned_cores
        }
    }

    fn below_threshold(&self, depth: usize, count_borrowed: bool) -> bool {
        self.queued_tasks < depth * self.capacity(count_borrowed)
    }

    /// Load ratio used to break ties among under-threshold alternatives.
    fn pressure(&self, count_borrowed: bool) -> f64 {
        let cap = self.capacity(count_borrowed);
        if cap == 0 {
            f64::INFINITY
        } else {
            self.queued_tasks as f64 / cap as f64
        }
    }
}

/// Outcome of a tentative scheduling decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Send the task to the worker at index `usize` in the candidate list.
    Worker(usize),
    /// All candidates are at the queue-depth limit: hold the task in the
    /// apprank's ready queue; it will be *stolen* when a worker completes
    /// a task and drops below the threshold.
    Hold,
}

/// Why [`choose_node`] placed (or held) a task — the taxonomy the trace
/// layer records for every decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceReason {
    /// The preferred (locality-best) candidate was under the threshold.
    LocalityHit,
    /// Preferred was saturated; spilled to the least-pressured adjacent
    /// candidate under the threshold.
    AdjacentSpill,
    /// Every candidate was saturated: the task is queued for stealing.
    Saturated,
}

/// Make the tentative scheduling decision for a newly ready task
/// (paper §5.5): prefer `preferred` (the locality-best candidate, index
/// into `candidates`) if it is under the queue-depth threshold, otherwise
/// the least-loaded alternative under the threshold, otherwise hold.
///
/// `depth` is tasks-per-owned-core (the simulator passes
/// [`QUEUE_DEPTH_PER_CORE`]); `count_borrowed` also counts LeWI-borrowed
/// cores as capacity, which the paper and the simulator never do.
pub fn choose_node(
    candidates: &[CandidateState],
    preferred: usize,
    depth: usize,
    count_borrowed: bool,
) -> Placement {
    choose_node_explained(candidates, preferred, depth, count_borrowed).0
}

/// [`choose_node`] plus the [`ChoiceReason`] that justified the outcome.
pub fn choose_node_explained(
    candidates: &[CandidateState],
    preferred: usize,
    depth: usize,
    count_borrowed: bool,
) -> (Placement, ChoiceReason) {
    assert!(preferred < candidates.len(), "preferred index out of range");
    if candidates[preferred].below_threshold(depth, count_borrowed) {
        return (Placement::Worker(preferred), ChoiceReason::LocalityHit);
    }
    let mut best: Option<(f64, usize)> = None;
    for (i, c) in candidates.iter().enumerate() {
        if i == preferred || !c.below_threshold(depth, count_borrowed) {
            continue;
        }
        let p = c.pressure(count_borrowed);
        if best.is_none_or(|(bp, _)| p < bp) {
            best = Some((p, i));
        }
    }
    match best {
        Some((_, i)) => (Placement::Worker(i), ChoiceReason::AdjacentSpill),
        None => (Placement::Hold, ChoiceReason::Saturated),
    }
}

/// Whether a worker may steal a held task of its apprank onto a free
/// core (paper §5.5: held tasks "will be stolen as tasks complete"):
/// `load < 2·owned + idle`, where `load` is the worker's queued and
/// running tasks, `owned` its DROM-owned cores and `idle` the cores of
/// its node that no worker is running on. Idle cores widen the gate, so
/// an idle neighbour node is flooded (Fig. 9c); on a saturated machine
/// the gate is [`QUEUE_DEPTH_PER_CORE`] tasks per owned core.
pub fn steal_allowed(load: usize, owned: usize, idle: usize) -> bool {
    load < QUEUE_DEPTH_PER_CORE * owned + idle
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(node: usize, queued: usize, owned: usize) -> CandidateState {
        CandidateState {
            node,
            queued_tasks: queued,
            owned_cores: owned,
            usable_cores: owned,
        }
    }

    #[test]
    fn preferred_wins_when_under_threshold() {
        let cands = [cand(0, 3, 2), cand(1, 0, 2)];
        // 3 < 2*2: home still under threshold.
        assert_eq!(choose_node(&cands, 0, 2, false), Placement::Worker(0));
    }

    #[test]
    fn overflows_to_least_loaded_alternative() {
        let cands = [cand(0, 4, 2), cand(1, 3, 2), cand(2, 1, 2)];
        // Home full (4 == 2*2); node 2 has lower pressure than node 1.
        assert_eq!(choose_node(&cands, 0, 2, false), Placement::Worker(2));
    }

    #[test]
    fn holds_when_everything_full() {
        let cands = [cand(0, 4, 2), cand(1, 4, 2)];
        assert_eq!(choose_node(&cands, 0, 2, false), Placement::Hold);
    }

    #[test]
    fn borrowed_cores_ignored_by_default() {
        let mut c = cand(0, 2, 1);
        c.usable_cores = 4; // borrowing 3 cores via LeWI
                            // 2 == 2*1: at threshold → hold, despite the borrowed capacity.
        assert_eq!(choose_node(&[c], 0, 2, false), Placement::Hold);
        // Counting borrowed cores (the simulator never does) admits it.
        assert_eq!(choose_node(&[c], 0, 2, true), Placement::Worker(0));
    }

    #[test]
    fn zero_owned_cores_never_selected() {
        let cands = [cand(0, 0, 0), cand(1, 1, 2)];
        // Preferred owns nothing (0 < 2*0 is false) → alternative.
        assert_eq!(choose_node(&cands, 0, 2, false), Placement::Worker(1));
    }

    #[test]
    fn depth_one_is_stricter() {
        let cands = [cand(0, 1, 1), cand(1, 0, 1)];
        assert_eq!(choose_node(&cands, 0, 1, false), Placement::Worker(1));
        assert_eq!(choose_node(&cands, 0, 2, false), Placement::Worker(0));
    }

    #[test]
    fn explained_reasons_match_placements() {
        let spill = [cand(0, 4, 2), cand(1, 1, 2)];
        assert_eq!(
            choose_node_explained(&spill, 0, 2, false),
            (Placement::Worker(1), ChoiceReason::AdjacentSpill)
        );
        let local = [cand(0, 1, 2), cand(1, 0, 2)];
        assert_eq!(
            choose_node_explained(&local, 0, 2, false),
            (Placement::Worker(0), ChoiceReason::LocalityHit)
        );
        let full = [cand(0, 4, 2), cand(1, 4, 2)];
        assert_eq!(
            choose_node_explained(&full, 0, 2, false),
            (Placement::Hold, ChoiceReason::Saturated)
        );
    }

    #[test]
    fn single_candidate_degree_one() {
        // Baseline (degree 1): only the home worker exists.
        let c = [cand(0, 7, 4)];
        assert_eq!(choose_node(&c, 0, 2, false), Placement::Worker(0));
        let full = [cand(0, 8, 4)];
        assert_eq!(choose_node(&full, 0, 2, false), Placement::Hold);
    }

    #[test]
    fn steal_allowed_boundary() {
        // owned 1, idle 1: the gate is 2·1 + 1 = 3.
        assert!(steal_allowed(2, 1, 1));
        assert!(!steal_allowed(3, 1, 1));
        // owned 1, idle 0: the gate is 2.
        assert!(!steal_allowed(2, 1, 0));
    }
}
