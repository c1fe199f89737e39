//! The dependency graph: Nanos6's region-overlap dependency computation in
//! sequential submission order, over one dependency domain.
//!
//! Claiming, releasing and completing a task touch arrays indexed by task
//! (`state`, `pending`, `linked`). A task with no accesses is not
//! `linked`: it enters no domain and has no successors, and completing it
//! never reads its ≈ 144-byte `TaskNode` (every task of the simulator's
//! synthetic workload).

use crate::index::{EntryId, IntervalIndex};
use crate::{AccessMode, TaskDef, TaskId, TaskState};
use std::collections::VecDeque;
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

/// What only `submit`, `complete` and the read-only queries need of a
/// task; its state and pending-predecessor count live in `TaskGraph`'s
/// `state` and `pending` arrays.
struct TaskNode {
    def: TaskDef,
    /// Successor edges (dependents released on completion).
    successors: Vec<TaskId>,
    /// Predecessor edges (kept for critical-path computation and tests).
    predecessors: Vec<TaskId>,
    /// Interval-index entries of this task's accesses, removed when the
    /// task completes (accesses stop generating dependencies then).
    access_entries: Vec<EntryId>,
}

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
    tasks: Vec<TaskNode>,
    /// `state[i]` / `pending[i]`: state and predecessors not yet completed
    /// of `tasks[i]`. Claiming and releasing a task touch only these five
    /// bytes, not its `TaskNode`.
    state: Vec<TaskState>,
    pending: Vec<u32>,
    /// `linked[i]`: `tasks[i]` has accesses, so completing it updates the
    /// domain and its successors.
    linked: Vec<bool>,
    /// Active accesses of the dependency domain. The interval index
    /// answers "which active accesses overlap this region" in
    /// O(log n + k).
    domain: IntervalIndex<(TaskId, AccessMode)>,
    /// Tasks in the order they became ready. `start` claims a task by
    /// flipping its state and drops its entry only once it is at the
    /// front, so an entry counts while its task is `Ready` (a state no
    /// task returns to) and the front entry always counts.
    ready: VecDeque<TaskId>,
    /// Entries of `ready` that count.
    ready_len: usize,
    completed_count: usize,
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
            tasks: Vec::new(),
            state: Vec::new(),
            pending: Vec::new(),
            linked: Vec::new(),
            domain: IntervalIndex::new(),
            ready: VecDeque::new(),
            ready_len: 0,
            completed_count: 0,
        }
    }

    /// Submit a task; returns its id. Dependencies on earlier conflicting
    /// tasks are computed here.
    pub fn submit(&mut self, def: TaskDef) -> Result<TaskId, GraphError> {
        let id = TaskId(self.tasks.len() as u64);
        self.linked.push(!def.accesses.is_empty());
        // Collect unique predecessor ids among conflicting active accesses:
        // regions overlap and at least one side writes.
        let mut preds: Vec<TaskId> = Vec::new();
        let mut access_entries: Vec<EntryId> = Vec::new();
        if !def.accesses.is_empty() {
            let active = &mut self.domain;
            for acc in &def.accesses {
                active.for_each_overlap(acc.region, |_, &(task, mode)| {
                    if (acc.mode.writes() || mode.writes()) && !preds.contains(&task) {
                        preds.push(task);
                    }
                });
            }
            preds.sort_unstable();
            access_entries = (def.accesses.iter())
                .map(|acc| active.insert(acc.region, (id, acc.mode)))
                .collect();
        }
        for &p in &preds {
            self.tasks[p.0 as usize].successors.push(id);
        }
        if preds.is_empty() {
            self.make_ready(id);
            self.state.push(TaskState::Ready);
        } else {
            self.state.push(TaskState::Blocked);
        }
        self.pending
            .push(u32::try_from(preds.len()).expect("fewer than 2^32 predecessors"));
        self.tasks.push(TaskNode {
            def,
            successors: Vec::new(),
            predecessors: preds,
            access_entries,
        });
        Ok(id)
    }

    /// Tasks currently ready, in the order they became ready: tasks ready
    /// at submission in submission order, each batch released by a
    /// [`TaskGraph::complete`] appended behind whatever was ready then.
    /// Draining is the executor's job: call [`TaskGraph::start`] to claim
    /// one. O(queue length): entries claimed out of order are skipped.
    pub fn ready(&self) -> Vec<TaskId> {
        let still_ready = |t: &TaskId| self.state[t.0 as usize] == TaskState::Ready;
        self.ready.iter().copied().filter(still_ready).collect()
    }

    /// Number of ready tasks. O(1).
    pub fn ready_count(&self) -> usize {
        self.ready_len
    }

    fn make_ready(&mut self, id: TaskId) {
        self.ready.push_back(id);
        self.ready_len += 1;
    }

    /// Pop the first task of [`TaskGraph::ready`], if any, marking it
    /// running. Amortised O(1), as [`TaskGraph::start`] is.
    pub fn pop_ready(&mut self) -> Option<TaskId> {
        // `start` leaves no claimed entry at the front of the queue.
        let id = *self.ready.front()?;
        self.start(id).ok().map(|()| id)
    }

    /// Claim a specific ready task for execution. Amortised O(1) wherever
    /// the task is in [`TaskGraph::ready`]: it flips the task's state, and
    /// drops from the front of the queue the entries claimed already.
    pub fn start(&mut self, id: TaskId) -> Result<(), GraphError> {
        let state = self
            .state
            .get_mut(id.0 as usize)
            .ok_or(GraphError::NoSuchTask(id))?;
        if *state != TaskState::Ready {
            return Err(GraphError::BadState {
                task: id,
                state: *state,
                wanted: TaskState::Ready,
            });
        }
        *state = TaskState::Running;
        self.ready_len -= 1;
        while let Some(&front) = self.ready.front() {
            if self.state[front.0 as usize] == TaskState::Ready {
                break;
            }
            self.ready.pop_front();
        }
        Ok(())
    }

    /// Complete a running task: releases successors and returns the tasks
    /// that became ready as a result (in submission order).
    pub fn complete(&mut self, id: TaskId) -> Result<Vec<TaskId>, GraphError> {
        let idx = id.0 as usize;
        let state = self.state.get_mut(idx).ok_or(GraphError::NoSuchTask(id))?;
        if *state != TaskState::Running {
            return Err(GraphError::BadState {
                task: id,
                state: *state,
                wanted: TaskState::Running,
            });
        }
        *state = TaskState::Completed;
        self.completed_count += 1;
        if !self.linked[idx] {
            return Ok(Vec::new());
        }
        // Retire this task's accesses from the dependency domain.
        for e in std::mem::take(&mut self.tasks[idx].access_entries) {
            self.domain.remove(e);
        }
        // A completed task gains no further successors: its accesses left
        // the domain above.
        let successors = std::mem::take(&mut self.tasks[idx].successors);
        let mut newly_ready = Vec::new();
        for s in successors {
            let i = s.0 as usize;
            self.pending[i] -= 1;
            if self.pending[i] == 0 && self.state[i] == TaskState::Blocked {
                self.state[i] = TaskState::Ready;
                self.make_ready(s);
                newly_ready.push(s);
            }
        }
        Ok(newly_ready)
    }

    /// Definition of a task.
    pub fn def(&self, id: TaskId) -> &TaskDef {
        &self.tasks[id.0 as usize].def
    }

    /// Current state of a task.
    pub fn state(&self, id: TaskId) -> TaskState {
        self.state[id.0 as usize]
    }

    /// Predecessor ids of a task (dependency edges into it).
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.tasks[id.0 as usize].predecessors
    }

    /// Number of submitted tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks were submitted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Whether every submitted task has completed.
    pub fn all_complete(&self) -> bool {
        self.completed_count == self.tasks.len()
    }

    /// Cost-weighted critical path: the longest chain of dependent task
    /// costs. With perfect load balance and no overheads, execution time
    /// cannot go below `max(critical_path, total_cost / total_cores)` —
    /// the paper's "perfect load balancing" reference line.
    pub fn critical_path(&self) -> f64 {
        let n = self.tasks.len();
        let mut finish = vec![0.0f64; n];
        // Tasks are indexed in submission order and edges go forward only,
        // so a single forward pass computes longest paths.
        for i in 0..n {
            let start = self.tasks[i]
                .predecessors
                .iter()
                .map(|p| finish[p.0 as usize])
                .fold(0.0f64, f64::max);
            finish[i] = start + self.tasks[i].def.cost;
        }
        finish.into_iter().fold(0.0, f64::max)
    }

    /// Total cost of all submitted tasks.
    pub fn total_cost(&self) -> f64 {
        self.tasks.iter().map(|t| t.def.cost).sum()
    }

    /// Summary counters.
    pub fn stats(&self) -> TaskStats {
        TaskStats {
            submitted: self.tasks.len(),
            completed: self.completed_count,
            ready: self.ready_len,
            running: self
                .state
                .iter()
                .filter(|&&state| state == TaskState::Running)
                .count(),
            edges: self.tasks.iter().map(|t| t.predecessors.len()).sum(),
        }
    }
}

/// Counters describing graph progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Tasks submitted.
    pub submitted: usize,
    /// Tasks completed.
    pub completed: usize,
    /// Tasks currently ready.
    pub ready: usize,
    /// Tasks currently running.
    pub running: usize,
    /// Dependency edges.
    pub edges: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataRegion;

    fn run_to_completion(g: &mut TaskGraph) -> Vec<TaskId> {
        let mut order = Vec::new();
        while let Some(t) = g.pop_ready() {
            g.complete(t).unwrap();
            order.push(t);
        }
        order
    }

    #[test]
    fn pop_ready_drains_in_submission_order() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let ids: Vec<_> = (0..5)
            .map(|i| {
                g.submit(TaskDef::new(format!("t{i}")).reads_writes(r))
                    .unwrap()
            })
            .collect();
        let order = run_to_completion(&mut g);
        assert_eq!(order, ids); // chain executes strictly in order
        assert!(g.all_complete());
    }

    #[test]
    fn raw_chain_orders() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let rd = g.submit(TaskDef::new("r").reads(r)).unwrap();
        assert_eq!(g.ready(), vec![w]);
        assert_eq!(g.state(rd), TaskState::Blocked);
        g.start(w).unwrap();
        let released = g.complete(w).unwrap();
        assert_eq!(released, vec![rd]);
    }

    #[test]
    fn readers_run_concurrently() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let r1 = g.submit(TaskDef::new("r1").reads(r)).unwrap();
        let r2 = g.submit(TaskDef::new("r2").reads(r)).unwrap();
        let w2 = g.submit(TaskDef::new("w2").writes(r)).unwrap();
        g.start(w).unwrap();
        let rel = g.complete(w).unwrap();
        assert_eq!(rel, vec![r1, r2]); // both readers release together
                                       // Second writer waits on both readers (WAR).
        assert_eq!(g.predecessors(w2).len(), 3); // w (WAW) + r1 + r2
        g.start(r1).unwrap();
        g.complete(r1).unwrap();
        assert_eq!(g.state(w2), TaskState::Blocked);
        g.start(r2).unwrap();
        let rel = g.complete(r2).unwrap();
        assert_eq!(rel, vec![w2]);
    }

    #[test]
    fn disjoint_regions_are_independent() {
        let mut g = TaskGraph::new();
        let a = g
            .submit(TaskDef::new("a").writes(DataRegion::new(0, 8)))
            .unwrap();
        let b = g
            .submit(TaskDef::new("b").writes(DataRegion::new(8, 8)))
            .unwrap();
        assert_eq!(g.ready(), vec![a, b]);
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
        g.complete(w).unwrap();
        // Submitted after completion: no dependency.
        let w2 = g.submit(TaskDef::new("w2").writes(r)).unwrap();
        assert_eq!(g.state(w2), TaskState::Ready);
        assert!(g.predecessors(w2).is_empty());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = TaskGraph::new();
        let r1 = DataRegion::new(0, 8);
        let r2 = DataRegion::new(8, 8);
        let w = g.submit(TaskDef::new("w").writes(r1).writes(r2)).unwrap();
        // Conflicts with both of w's accesses, but only one edge.
        let rd = g.submit(TaskDef::new("r").reads(r1).reads(r2)).unwrap();
        assert_eq!(g.predecessors(rd), &[w]);
        g.start(w).unwrap();
        let rel = g.complete(w).unwrap();
        assert_eq!(rel, vec![rd]); // single decrement, single release
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

    #[test]
    fn critical_path_chain_vs_fan() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        // Chain of 3 writers, cost 2 each → CP = 6.
        for i in 0..3 {
            g.submit(TaskDef::new(format!("w{i}")).reads_writes(r).cost(2.0))
                .unwrap();
        }
        // Plus 10 independent cost-1 tasks: CP unchanged.
        for i in 0..10 {
            g.submit(TaskDef::new(format!("x{i}")).cost(1.0)).unwrap();
        }
        assert!((g.critical_path() - 6.0).abs() < 1e-12);
        assert!((g.total_cost() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn stats_track_progress() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let _r = g.submit(TaskDef::new("r").reads(r)).unwrap();
        let s = g.stats();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.edges, 1);
        assert_eq!(s.ready, 1);
        g.start(w).unwrap();
        assert_eq!(g.stats().running, 1);
        g.complete(w).unwrap();
        assert_eq!(g.stats().completed, 1);
    }

    fn independent(g: &mut TaskGraph, n: usize) -> Vec<TaskId> {
        (0..n)
            .map(|i| g.submit(TaskDef::new(format!("t{i}"))).unwrap())
            .collect()
    }

    #[test]
    fn out_of_order_start_keeps_the_rest_in_order() {
        let mut g = TaskGraph::new();
        let ids = independent(&mut g, 6);
        // Middle, front, back: the survivors keep their relative order.
        for (claimed, left) in [
            (3, vec![0, 1, 2, 4, 5]),
            (0, vec![1, 2, 4, 5]),
            (5, vec![1, 2, 4]),
        ] {
            g.start(ids[claimed]).unwrap();
            let left: Vec<TaskId> = left.into_iter().map(|i| ids[i]).collect();
            assert_eq!(g.ready(), left);
            assert_eq!(g.ready_count(), left.len());
        }
        // Successors released later queue behind what was ready already.
        let r = DataRegion::new(0, 8);
        let w = g.submit(TaskDef::new("w").writes(r)).unwrap();
        let rd = g.submit(TaskDef::new("r").reads(r)).unwrap();
        let late = g.submit(TaskDef::new("late")).unwrap();
        g.start(w).unwrap();
        g.complete(w).unwrap();
        assert_eq!(g.ready(), vec![ids[1], ids[2], ids[4], late, rd]);
    }

    #[test]
    fn start_of_a_non_ready_task_changes_nothing() {
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 8);
        let done = g.submit(TaskDef::new("done")).unwrap();
        g.start(done).unwrap();
        g.complete(done).unwrap();
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
            assert_eq!(g.ready(), waiting);
            assert_eq!(g.ready_count(), 2);
        }
        assert_eq!(g.start(TaskId(99)), Err(GraphError::NoSuchTask(TaskId(99))));
    }

    #[test]
    fn pop_ready_never_returns_a_started_task() {
        let mut g = TaskGraph::new();
        let ids = independent(&mut g, 8);
        let mut started = Vec::new();
        let mut popped = Vec::new();
        // Claim from the back, the middle and the front between pops.
        for claim in [7, 3, 2, 5] {
            g.start(ids[claim]).unwrap();
            started.push(ids[claim]);
            popped.push(g.pop_ready().unwrap());
        }
        assert_eq!(popped, vec![ids[0], ids[1], ids[4], ids[6]]);
        assert!(popped.iter().all(|t| !started.contains(t)));
        assert_eq!(g.pop_ready(), None);
        assert_eq!(g.stats().running, 8);
    }

    /// Random graphs of tasks with and without accesses, submitted and
    /// completed in a random interleaving, against a model that
    /// recomputes everything from the task list: the ready set and each
    /// completion's released tasks agree at every step, and the domain
    /// holds exactly the accesses of the tasks not yet completed.
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
                let mut got: Vec<TaskId> = g.ready();
                got.sort_unstable();
                let want: Vec<TaskId> = (0..state.len())
                    .filter(|&t| state[t] == TaskState::Ready)
                    .map(|t| TaskId(t as u64))
                    .collect();
                assert_eq!(got, want, "{at}");
                let active: usize = (0..state.len())
                    .filter(|&t| state[t] != TaskState::Completed)
                    .map(|t| accesses[t].len())
                    .sum();
                assert_eq!(g.domain.len(), active, "{at}");
            }
        }
    }

    #[test]
    fn any_completion_order_is_consistent() {
        // Property: executing ready tasks in any (here: reverse) order
        // never violates dependencies and always drains the graph.
        let mut g = TaskGraph::new();
        let r = DataRegion::new(0, 64);
        let chunks = r.chunks(4);
        for c in &chunks {
            g.submit(TaskDef::new("init").writes(*c)).unwrap();
        }
        for c in &chunks {
            g.submit(TaskDef::new("use").reads(*c)).unwrap();
        }
        g.submit(TaskDef::new("reduce").reads(r)).unwrap();
        let mut done = 0;
        loop {
            let ready = g.ready();
            if ready.is_empty() {
                break;
            }
            let t = *ready.last().unwrap();
            g.start(t).unwrap();
            g.complete(t).unwrap();
            done += 1;
        }
        assert_eq!(done, 9);
        assert!(g.all_complete());
    }
}
