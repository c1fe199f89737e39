//! Randomized tests: the incremental dependency computation must match a
//! brute-force oracle, and every execution schedule must respect program
//! order semantics. Uses seeded `tlb-rng` loops (the workspace carries no
//! registry dependencies, so no proptest).

use tlb_rng::Rng;
use tlb_tasking::{Access, AccessMode, DataRegion, TaskDef, TaskGraph};

/// A compact generated access: (base bucket, length bucket, mode).
#[derive(Clone, Debug)]
struct GenAccess {
    base: usize,
    len: usize,
    mode: AccessMode,
}

fn gen_access(rng: &mut Rng) -> GenAccess {
    GenAccess {
        base: rng.range_usize(0, 20) * 4,
        len: rng.range_usize(1, 8) * 4,
        mode: match rng.range_u64(0, 3) {
            0 => AccessMode::In,
            1 => AccessMode::Out,
            _ => AccessMode::InOut,
        },
    }
}

fn gen_tasks(rng: &mut Rng) -> Vec<Vec<GenAccess>> {
    let n_tasks = rng.range_usize(1, 25);
    (0..n_tasks)
        .map(|_| {
            let n_acc = rng.range_usize(1, 4);
            (0..n_acc).map(|_| gen_access(rng)).collect()
        })
        .collect()
}

/// Brute-force oracle: task j depends on i < j iff (no intermediate
/// completion happens during submission here) some access pair conflicts.
fn oracle_edges(tasks: &[Vec<GenAccess>]) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for j in 0..tasks.len() {
        for i in 0..j {
            let conflict = tasks[i].iter().any(|a| {
                tasks[j].iter().any(|b| {
                    let ra = DataRegion::new(a.base, a.len);
                    let rb = DataRegion::new(b.base, b.len);
                    (a.mode.writes() || b.mode.writes()) && ra.overlaps(&rb)
                })
            });
            if conflict {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// `def` with the generated accesses declared on it.
fn with_accesses(mut def: TaskDef, accs: &[GenAccess]) -> TaskDef {
    for a in accs {
        let r = DataRegion::new(a.base, a.len);
        def = match a.mode {
            AccessMode::In => def.reads(r),
            AccessMode::Out => def.writes(r),
            AccessMode::InOut => def.reads_writes(r),
        };
    }
    def
}

fn build_graph(tasks: &[Vec<GenAccess>]) -> (TaskGraph, Vec<tlb_tasking::TaskId>) {
    let mut g = TaskGraph::new();
    let ids = tasks
        .iter()
        .enumerate()
        .map(|(i, accs)| {
            let def = with_accesses(TaskDef::new(format!("t{i}")), accs);
            g.submit(def).unwrap()
        })
        .collect();
    (g, ids)
}

const CASES: usize = 128;

/// The graph's predecessor sets equal the brute-force conflict oracle.
#[test]
fn dependencies_match_oracle() {
    let root = Rng::seed_from_u64(0xDE9_0001);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let tasks = gen_tasks(&mut rng);
        let (g, ids) = build_graph(&tasks);
        let mut expected = oracle_edges(&tasks);
        let mut actual = Vec::new();
        for (j, &id) in ids.iter().enumerate() {
            for p in g.predecessors(id) {
                actual.push((p.raw() as usize, j));
            }
        }
        actual.sort_unstable();
        expected.sort_unstable();
        assert_eq!(actual, expected, "case {case}");
    }
}

/// Greedy execution always drains the graph (no deadlock), and every
/// task runs after all its predecessors.
#[test]
fn greedy_execution_respects_order() {
    let root = Rng::seed_from_u64(0xDE9_0002);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let tasks = gen_tasks(&mut rng);
        let pick_last = rng.chance(0.5);
        let (mut g, ids) = build_graph(&tasks);
        let mut completed_at = vec![usize::MAX; ids.len()];
        let mut step = 0;
        loop {
            let ready = g.ready();
            if ready.is_empty() {
                break;
            }
            let t = if pick_last {
                *ready.last().unwrap()
            } else {
                ready[0]
            };
            g.start(t).unwrap();
            g.complete(t).unwrap();
            completed_at[t.raw() as usize] = step;
            step += 1;
        }
        assert!(g.all_complete(), "case {case}: graph deadlocked");
        for (j, &id) in ids.iter().enumerate() {
            for p in g.predecessors(id) {
                assert!(
                    completed_at[p.raw() as usize] < completed_at[j],
                    "case {case}: task {} ran before its predecessor {}",
                    j,
                    p.raw()
                );
            }
        }
    }
}

/// Critical path is at most total cost and at least the max single cost.
#[test]
fn critical_path_bounds() {
    let root = Rng::seed_from_u64(0xDE9_0003);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let tasks = gen_tasks(&mut rng);
        let (g, _) = build_graph(&tasks);
        let cp = g.critical_path();
        assert!(cp <= g.total_cost() + 1e-9, "case {case}");
        assert!(cp >= 1.0 - 1e-9, "case {case}"); // all costs are 1.0 by default
    }
}

/// Access conflicts are symmetric.
#[test]
fn conflict_symmetry() {
    let mut rng = Rng::seed_from_u64(0xDE9_0004);
    for case in 0..1024 {
        let a = gen_access(&mut rng);
        let b = gen_access(&mut rng);
        let aa = Access {
            region: DataRegion::new(a.base, a.len),
            mode: a.mode,
        };
        let bb = Access {
            region: DataRegion::new(b.base, b.len),
            mode: b.mode,
        };
        assert_eq!(
            aa.conflicts_with(&bb),
            bb.conflicts_with(&aa),
            "case {case}"
        );
    }
}

/// `TaskGraph` against a naive model under a random interleaving of
/// `submit`, `start` of a random ready task, `pop_ready`, `complete` and
/// `start` of a task that is not ready. The model is a state per task and
/// a `Vec<TaskId>` ready list edited with `retain`; after every step the
/// graph must show the same ready list, count and states.
///
/// Every case also runs, step for step, on one graph reused through
/// `clear()` after the previous (unrelated) case, or after an unrelated
/// half-run graph for the first: its ids, `ready()` order, released
/// tasks and critical path equal the fresh graph's.
#[test]
fn ready_queue_matches_a_naive_model() {
    use tlb_tasking::{GraphError, TaskId, TaskState};
    let mut reused = TaskGraph::new();
    let mut warm = Rng::seed_from_u64(0xDE9_0006);
    for accs in gen_tasks(&mut warm) {
        reused
            .submit(with_accesses(TaskDef::new("old"), &accs))
            .unwrap();
    }
    if let Some(t) = reused.pop_ready() {
        reused.complete(t).unwrap();
    }
    reused.pop_ready();
    // `TaskId`s are per-graph indices: a larger graph supplies ids this
    // one has and ids it has not.
    let mut foreign = TaskGraph::new();
    let any_id: Vec<TaskId> = (0..256)
        .map(|_| foreign.submit(TaskDef::new("id")).unwrap())
        .collect();
    let root = Rng::seed_from_u64(0xDE9_0005);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let mut g = TaskGraph::new();
        reused.clear();
        let mut ready: Vec<TaskId> = Vec::new();
        let mut states: Vec<TaskState> = Vec::new();
        for step in 0..200 {
            let at = format!("case {case} step {step}");
            let running: Vec<TaskId> = (any_id.iter().zip(&states))
                .filter(|(_, &s)| s == TaskState::Running)
                .map(|(&t, _)| t)
                .collect();
            match rng.range_u64(0, 10) {
                0..=3 => {
                    let accs: Vec<GenAccess> = (0..rng.range_usize(0, 3))
                        .map(|_| gen_access(&mut rng))
                        .collect();
                    let def = with_accesses(TaskDef::new("t"), &accs);
                    let def = def.cost(rng.range_usize(1, 5) as f64);
                    let id = g.submit(def.clone()).unwrap();
                    assert_eq!(id, any_id[states.len()], "{at}");
                    assert_eq!(reused.submit(def), Ok(id), "{at}");
                    if g.predecessors(id).is_empty() {
                        states.push(TaskState::Ready);
                        ready.push(id);
                    } else {
                        states.push(TaskState::Blocked);
                    }
                }
                4..=5 if !ready.is_empty() => {
                    let id = ready[rng.range_usize(0, ready.len())];
                    assert_eq!(g.start(id), Ok(()), "{at}");
                    assert_eq!(reused.start(id), Ok(()), "{at}");
                    ready.retain(|&t| t != id);
                    states[id.raw() as usize] = TaskState::Running;
                }
                6 => {
                    let popped = g.pop_ready();
                    assert_eq!(popped, ready.first().copied(), "{at}");
                    assert_eq!(reused.pop_ready(), popped, "{at}");
                    if let Some(id) = popped {
                        ready.remove(0);
                        states[id.raw() as usize] = TaskState::Running;
                    }
                }
                7..=8 if !running.is_empty() => {
                    let id = running[rng.range_usize(0, running.len())];
                    states[id.raw() as usize] = TaskState::Completed;
                    // Released: the blocked tasks, in submission order,
                    // whose predecessors have now all completed.
                    let done = |p: &TaskId| states[p.raw() as usize] == TaskState::Completed;
                    let released: Vec<TaskId> = (any_id.iter().zip(&states))
                        .filter(|(_, &s)| s == TaskState::Blocked)
                        .map(|(&t, _)| t)
                        .filter(|&t| g.predecessors(t).iter().all(done))
                        .collect();
                    assert_eq!(g.complete(id).as_deref(), Ok(&released[..]), "{at}");
                    assert_eq!(reused.complete(id).as_deref(), Ok(&released[..]), "{at}");
                    for &t in &released {
                        states[t.raw() as usize] = TaskState::Ready;
                    }
                    ready.extend(released);
                }
                _ => {
                    // A start the graph must refuse, changing nothing.
                    let id = any_id[rng.range_usize(0, states.len() + 2)];
                    let refused = match states.get(id.raw() as usize) {
                        Some(TaskState::Ready) => continue,
                        Some(&state) => GraphError::BadState {
                            task: id,
                            state,
                            wanted: TaskState::Ready,
                        },
                        None => GraphError::NoSuchTask(id),
                    };
                    assert_eq!(g.start(id), Err(refused.clone()), "{at}");
                    assert_eq!(reused.start(id), Err(refused), "{at}");
                }
            }
            assert_eq!(g.ready(), ready, "{at}");
            assert_eq!(reused.ready(), ready, "{at}");
            assert_eq!(g.ready_count(), ready.len(), "{at}");
            assert_eq!(g.stats().ready, ready.len(), "{at}");
            for (&id, &state) in any_id.iter().zip(&states) {
                assert_eq!(g.state(id), state, "{at}: {id:?}");
                assert_eq!(reused.predecessors(id), g.predecessors(id), "{at}: {id:?}");
            }
        }
        let at = format!("case {case}");
        assert_eq!(reused.critical_path(), g.critical_path(), "{at}");
        assert_eq!(reused.total_cost(), g.total_cost(), "{at}");
        assert_eq!(reused.stats(), g.stats(), "{at}");
    }
}
