//! The dependency graph: Nanos6's region-overlap dependency computation in
//! sequential submission order, over one dependency domain.
//!
//! A task is three array entries: its state, pending-predecessor count
//! and node index. Only a task with accesses gets a `TaskNode` (its
//! successor edges and domain entries); a task without accesses enters no
//! domain, has no successors, and claiming, releasing or completing it
//! touches only its array entries (every task of the simulator's
//! synthetic workload). The graph keeps no `TaskDef`.

use crate::index::{EntryId, IntervalIndex};
use crate::{AccessMode, TaskDef, TaskId, TaskState};
use std::fmt;

/// Errors from graph operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// Unknown task id.
    NoSuchTask(TaskId),
    /// Operation invalid for the task's current state.
    BadState {
        task: TaskId,
        state: TaskState,
        wanted: TaskState,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoSuchTask(t) => write!(f, "unknown task {t:?}"),
            GraphError::BadState {
                task,
                state,
                wanted,
            } => {
                write!(f, "task {task:?} is {state:?}, expected {wanted:?}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// The edges and domain entries of a task with accesses.
struct TaskNode {
    /// Successor edges (dependents released on completion), in
    /// submission order.
    successors: Vec<TaskId>,
    /// Interval-index entries of this task's accesses, removed when the
    /// task completes (accesses stop generating dependencies then).
    access_entries: Vec<EntryId>,
}

/// `node[i]` of a task without accesses.
const NO_NODE: u32 = u32::MAX;

/// The task dependency graph.
///
/// Tasks are submitted in sequential program order (the order the OmpSs-2
/// source would create them); a submitted task depends on every earlier
/// task, not yet completed, with a conflicting access — overlap where at
/// least one side writes. There is no nesting: every task is top-level
/// and all share one dependency domain.
/// Readers between two writers run concurrently; the second writer orders
/// behind all of them.
pub struct TaskGraph {
    /// `state[i]` / `pending[i]`: state and predecessors not yet
    /// completed of task `i`. Claiming and releasing a task touch only
    /// these.
    state: Vec<TaskState>,
    pending: Vec<u32>,
    /// `node[i]`: index into `nodes` of task `i`, or `NO_NODE` when the
    /// task has no accesses.
    node: Vec<u32>,
    nodes: Vec<TaskNode>,
    /// Active accesses of the dependency domain. The interval index
    /// answers "which active accesses overlap this region" in
    /// O(log n + k).
    domain: IntervalIndex<(TaskId, AccessMode)>,
    /// Tasks in state `Ready`.
    ready_len: usize,
}

impl Default for TaskGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph {
            state: Vec::new(),
            pending: Vec::new(),
            node: Vec::new(),
            nodes: Vec::new(),
            domain: IntervalIndex::new(),
            ready_len: 0,
        }
    }

    /// Empty the graph, keeping its allocations: afterwards it behaves
    /// exactly as [`TaskGraph::new`] does, ids restarting at 0.
    pub fn clear(&mut self) {
        self.state.clear();
        self.pending.clear();
        self.node.clear();
        self.nodes.clear();
        self.domain.clear();
        self.ready_len = 0;
    }

    /// Submit a task; returns its id. Dependencies on earlier conflicting
    /// tasks are computed here: the task is ready at once, raising
    /// [`TaskGraph::ready_count`] by one, iff it has none.
    pub fn submit(&mut self, def: TaskDef) -> Result<TaskId, GraphError> {
        let id = TaskId(self.state.len() as u64);
        let mut pending = 0u32;
        if def.accesses.is_empty() {
            self.node.push(NO_NODE);
        } else {
            // Each earlier task with a conflicting active access (regions
            // overlap and at least one side writes) gains one edge to
            // `id`. A second conflict with the same task finds `id` at
            // the end of its successors already: no list held `id` before.
            for acc in &def.accesses {
                self.domain
                    .for_each_overlap(acc.region, |_, &(task, mode)| {
                        if !(acc.mode.writes() || mode.writes()) {
                            return;
                        }
                        // A task in the domain has accesses, so it has a node.
                        let n = self.node[task.0 as usize] as usize;
                        let succ = &mut self.nodes[n].successors;
                        if succ.last() != Some(&id) {
                            succ.push(id);
                            pending += 1;
                        }
                    });
            }
            let access_entries = (def.accesses.iter())
                .map(|acc| self.domain.insert(acc.region, (id, acc.mode)))
                .collect();
            let n = (u32::try_from(self.nodes.len()).ok())
                .filter(|&n| n != NO_NODE)
                .expect("fewer than 2^32 - 1 tasks with accesses");
            self.node.push(n);
            self.nodes.push(TaskNode {
                successors: Vec::new(),
                access_entries,
            });
        }
        if pending == 0 {
            self.ready_len += 1;
            self.state.push(TaskState::Ready);
        } else {
            self.state.push(TaskState::Blocked);
        }
        self.pending.push(pending);
        Ok(id)
    }

    /// Number of ready tasks: submitted or released, not yet started.
    /// O(1).
    pub fn ready_count(&self) -> usize {
        self.ready_len
    }

    /// Move task `id` from state `from` to `to`; any other state is
    /// refused and changes nothing.
    fn advance(&mut self, id: TaskId, from: TaskState, to: TaskState) -> Result<(), GraphError> {
        let state = self
            .state
            .get_mut(id.0 as usize)
            .ok_or(GraphError::NoSuchTask(id))?;
        if *state != from {
            return Err(GraphError::BadState {
                task: id,
                state: *state,
                wanted: from,
            });
        }
        *state = to;
        Ok(())
    }

    /// Claim a ready task for execution. O(1).
    pub fn start(&mut self, id: TaskId) -> Result<(), GraphError> {
        self.advance(id, TaskState::Ready, TaskState::Running)?;
        self.ready_len -= 1;
        Ok(())
    }

    /// Complete a running task: releases its successors and returns those
    /// that became ready as a result, in submission order — the tasks
    /// whose last conflicting earlier task this was.
    pub fn complete(&mut self, id: TaskId) -> Result<Vec<TaskId>, GraphError> {
        self.advance(id, TaskState::Running, TaskState::Completed)?;
        let Some(node) = self.nodes.get_mut(self.node[id.0 as usize] as usize) else {
            return Ok(Vec::new());
        };
        // Retire this task's accesses from the dependency domain.
        for e in std::mem::take(&mut node.access_entries) {
            self.domain.remove(e);
        }
        // A completed task gains no further successors: its accesses left
        // the domain above. A successor still pending is still blocked.
        let mut released = std::mem::take(&mut node.successors);
        released.retain(|s| {
            let i = s.0 as usize;
            self.pending[i] -= 1;
            let ready = self.pending[i] == 0;
            if ready {
                self.state[i] = TaskState::Ready;
            }
            ready
        });
        self.ready_len += released.len();
        Ok(released)
    }

    /// Current state of a task.
    pub fn state(&self, id: TaskId) -> TaskState {
        self.state[id.0 as usize]
    }

    /// Number of submitted tasks.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether no tasks were submitted.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataRegion;

    /// Submit `def`; returns its id and whether it was ready at once.
    fn submit(g: &mut TaskGraph, def: TaskDef) -> (TaskId, bool) {
        let before = g.ready_count();
        let id = g.submit(def).unwrap();
        (id, g.ready_count() == before + 1)
    }

    fn run(g: &mut TaskGraph, id: TaskId) -> Vec<TaskId> {
        g.start(id).unwrap();
        g.complete(id).unwrap()
    }

    #[test]
    fn chain_releases_one_task_at_a_time() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let ids: Vec<_> = (0..5)
            .map(|i| {
                g.submit(TaskDef::new(format!("t{i}")).reads_writes(r))
                    .unwrap()
            })
            .collect();
        assert_eq!(g.ready_count(), 1);
        for w in ids.windows(2) {
            assert_eq!(run(&mut g, w[0]), vec![w[1]]); // strictly in order
            assert_eq!(g.ready_count(), 1);
        }
        assert_eq!(run(&mut g, ids[4]), vec![]);
        assert_eq!(g.ready_count(), 0);
        assert!(ids.iter().all(|&t| g.state(t) == TaskState::Completed));
    }

    #[test]
    fn raw_chain_orders() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let (w, w_ready) = submit(&mut g, TaskDef::new("w").writes(r));
        let (rd, rd_ready) = submit(&mut g, TaskDef::new("r").reads(r));
        assert!(w_ready && !rd_ready);
        assert_eq!(g.state(rd), TaskState::Blocked);
        assert_eq!(run(&mut g, w), vec![rd]);
        assert_eq!(g.state(rd), TaskState::Ready);
    }

    #[test]
    fn readers_run_concurrently() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let r1 = g.submit(TaskDef::new("r1").reads(r)).unwrap();
        let r2 = g.submit(TaskDef::new("r2").reads(r)).unwrap();
        let w2 = g.submit(TaskDef::new("w2").writes(r)).unwrap();
        // Both readers release together; the second writer waits on w
        // (WAW) and on both readers (WAR).
        assert_eq!(run(&mut g, w), vec![r1, r2]);
        assert_eq!(run(&mut g, r1), vec![]);
        assert_eq!(g.state(w2), TaskState::Blocked);
        assert_eq!(run(&mut g, r2), vec![w2]);
    }

    #[test]
    fn disjoint_regions_are_independent() {
        let mut g = TaskGraph::new();
        let a = g.submit(TaskDef::new("a").writes(DataRegion::new(0, 8)));
        let b = g.submit(TaskDef::new("b").writes(DataRegion::new(8, 8)));
        assert_eq!(g.ready_count(), 2);
        assert_eq!(g.state(a.unwrap()), TaskState::Ready);
        assert_eq!(g.state(b.unwrap()), TaskState::Ready);
    }

    #[test]
    fn partial_overlap_creates_dependency() {
        let mut g = TaskGraph::new();
        let _a = g
            .submit(TaskDef::new("a").writes(DataRegion::new(0, 10)))
            .unwrap();
        let b = g
            .submit(TaskDef::new("b").reads(DataRegion::new(5, 10)))
            .unwrap();
        assert_eq!(g.state(b), TaskState::Blocked);
    }

    #[test]
    fn completed_tasks_stop_generating_deps() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        g.start(w).unwrap();
        // Running: still a predecessor.
        let (w1, ready) = submit(&mut g, TaskDef::new("w1").writes(r));
        assert!(!ready);
        assert_eq!(g.complete(w), Ok(vec![w1]));
        run(&mut g, w1);
        // Submitted after completion: no dependency.
        let (w2, ready) = submit(&mut g, TaskDef::new("w2").writes(r));
        assert!(ready);
        assert_eq!(g.state(w2), TaskState::Ready);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = TaskGraph::new();
        let r1 = DataRegion::new(0, 8);
        let r2 = DataRegion::new(8, 8);
        let w = g.submit(TaskDef::new("w").writes(r1).writes(r2)).unwrap();
        // Conflicts with both of w's accesses, but only one edge. (A
        // second edge would cost a second decrement and leave the release
        // unchanged, so only the successor list shows it.)
        let rd = g.submit(TaskDef::new("r").reads(r1).reads(r2)).unwrap();
        assert_eq!(g.nodes[0].successors, [rd]);
        assert_eq!(g.pending[1], 1);
        assert_eq!(run(&mut g, w), vec![rd]);
        assert_eq!(g.ready_count(), 1);
    }

    #[test]
    fn cannot_complete_unstarted() {
        let mut g = TaskGraph::new();
        let a = g.submit(TaskDef::new("a")).unwrap();
        assert!(matches!(
            g.complete(a),
            Err(GraphError::BadState {
                wanted: TaskState::Running,
                ..
            })
        ));
    }

    #[test]
    fn cannot_start_blocked() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let _w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let rd = g.submit(TaskDef::new("r").reads(r)).unwrap();
        assert!(g.start(rd).is_err());
    }

    fn independent(g: &mut TaskGraph, n: usize) -> Vec<TaskId> {
        (0..n)
            .map(|i| g.submit(TaskDef::new(format!("t{i}"))).unwrap())
            .collect()
    }

    #[test]
    fn out_of_order_starts_keep_the_count_exact() {
        let mut g = TaskGraph::new();
        let ids = independent(&mut g, 6);
        // Middle, front, back.
        for (k, claimed) in [3, 0, 5].into_iter().enumerate() {
            g.start(ids[claimed]).unwrap();
            assert_eq!(g.state(ids[claimed]), TaskState::Running);
            assert_eq!(g.ready_count(), 5 - k);
        }
        // A release adds to what is ready already.
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let rd = g.submit(TaskDef::new("r").reads(r)).unwrap();
        assert_eq!(g.ready_count(), 4);
        assert_eq!(run(&mut g, w), vec![rd]);
        assert_eq!(g.ready_count(), 4);
    }

    #[test]
    fn start_of_a_non_ready_task_changes_nothing() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let done = g.submit(TaskDef::new("done")).unwrap();
        run(&mut g, done);
        let running = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let blocked = g.submit(TaskDef::new("r").reads(r)).unwrap();
        let waiting = independent(&mut g, 2);
        g.start(running).unwrap();
        for (id, state) in [
            (done, TaskState::Completed),
            (running, TaskState::Running),
            (blocked, TaskState::Blocked),
        ] {
            assert_eq!(
                g.start(id),
                Err(GraphError::BadState {
                    task: id,
                    state,
                    wanted: TaskState::Ready
                })
            );
            assert_eq!(g.state(id), state);
            assert!(waiting.iter().all(|&t| g.state(t) == TaskState::Ready));
            assert_eq!(g.ready_count(), 2);
        }
        assert_eq!(g.start(TaskId(99)), Err(GraphError::NoSuchTask(TaskId(99))));
    }

    /// Random graphs of tasks with and without accesses, submitted and
    /// completed in a random interleaving, against a model that
    /// recomputes everything from the task list: every state, the ready
    /// count and each completion's released tasks agree at every step,
    /// and the domain holds exactly the accesses of the tasks not yet
    /// completed.
    #[test]
    fn mixed_graphs_match_a_naive_model() {
        use crate::Access;
        let mut rng = tlb_rng::Rng::seed_from_u64(0x71_4ed);
        for case in 0..64 {
            let mut g = TaskGraph::new();
            // Model: per task its accesses, state and predecessors.
            let mut accesses: Vec<Vec<Access>> = Vec::new();
            let mut state: Vec<TaskState> = Vec::new();
            let mut preds: Vec<Vec<usize>> = Vec::new();
            for step in 0..120 {
                let at = format!("case {case} step {step}");
                let running: Vec<usize> = (0..state.len())
                    .filter(|&t| state[t] == TaskState::Running)
                    .collect();
                if rng.chance(0.5) || running.is_empty() {
                    let mut def = TaskDef::new("t");
                    for _ in 0..rng.range_usize(0, 3) {
                        let r =
                            DataRegion::new(rng.range_usize(0, 8) * 4, 4 * rng.range_usize(1, 3));
                        def = if rng.chance(0.5) {
                            def.reads(r)
                        } else {
                            def.writes(r)
                        };
                    }
                    let mine: Vec<usize> = (0..state.len())
                        .filter(|&t| state[t] != TaskState::Completed)
                        .filter(|&t| {
                            accesses[t]
                                .iter()
                                .any(|a| def.accesses.iter().any(|b| a.conflicts_with(b)))
                        })
                        .collect();
                    let id = g.submit(def.clone()).unwrap();
                    assert_eq!(id, TaskId(state.len() as u64), "{at}");
                    state.push(if mine.is_empty() {
                        TaskState::Ready
                    } else {
                        TaskState::Blocked
                    });
                    preds.push(mine);
                    accesses.push(def.accesses);
                } else {
                    let t = running[rng.range_usize(0, running.len())];
                    state[t] = TaskState::Completed;
                    let released: Vec<TaskId> = (0..state.len())
                        .filter(|&s| state[s] == TaskState::Blocked)
                        .filter(|&s| preds[s].iter().all(|&p| state[p] == TaskState::Completed))
                        .map(|s| TaskId(s as u64))
                        .collect();
                    for r in &released {
                        state[r.0 as usize] = TaskState::Ready;
                    }
                    assert_eq!(g.complete(TaskId(t as u64)), Ok(released), "{at}");
                }
                // Start a random ready task now and then.
                let ready: Vec<usize> = (0..state.len())
                    .filter(|&t| state[t] == TaskState::Ready)
                    .collect();
                if !ready.is_empty() && rng.chance(0.6) {
                    let t = ready[rng.range_usize(0, ready.len())];
                    g.start(TaskId(t as u64)).unwrap();
                    state[t] = TaskState::Running;
                }
                for (t, &s) in state.iter().enumerate() {
                    assert_eq!(g.state(TaskId(t as u64)), s, "{at}: T{t}");
                }
                let want_ready = state.iter().filter(|&&s| s == TaskState::Ready).count();
                assert_eq!(g.ready_count(), want_ready, "{at}");
                let active: usize = (0..state.len())
                    .filter(|&t| state[t] != TaskState::Completed)
                    .map(|t| accesses[t].len())
                    .sum();
                let mut stored = 0;
                g.domain
                    .for_each_overlap(DataRegion::new(0, 64), |_, _| stored += 1);
                assert_eq!(stored, active, "{at}");
            }
        }
    }

    #[test]
    fn any_completion_order_is_consistent() {
        // Property: executing ready tasks in any (here: newest first)
        // order never violates dependencies and always drains the graph.
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 64);
        let chunks = r.chunks(4);
        let mut ready = Vec::new();
        let mut submit_all = |g: &mut TaskGraph, def: TaskDef| {
            let (id, now_ready) = submit(g, def);
            if now_ready {
                ready.push(id);
            }
        };
        for c in &chunks {
            submit_all(&mut g, TaskDef::new("init").writes(*c));
        }
        for c in &chunks {
            submit_all(&mut g, TaskDef::new("use").reads(*c));
        }
        submit_all(&mut g, TaskDef::new("reduce").reads(r));
        let mut done = 0;
        while let Some(t) = ready.pop() {
            ready.extend(run(&mut g, t));
            done += 1;
        }
        assert_eq!(done, 9);
        assert_eq!(g.ready_count(), 0);
        assert!((0..9).all(|t| g.state(TaskId(t)) == TaskState::Completed));
    }
}
