//! Randomized tests: what a caller of the graph observes — whether a
//! task is ready at `submit` (the `ready_count` delta) and the tasks each
//! `complete` releases — must match a brute-force conflict oracle, and
//! every execution schedule must respect program order semantics. Uses
//! seeded `tlb-rng` loops (the workspace carries no registry
//! dependencies, so no proptest).

use tlb_rng::Rng;
use tlb_tasking::{
    Access, AccessMode, DataRegion, GraphError, TaskDef, TaskGraph, TaskId, TaskState,
};

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

/// Whether two tasks' access lists conflict: some pair of regions
/// overlaps and at least one side writes.
fn conflict(a: &[GenAccess], b: &[GenAccess]) -> bool {
    a.iter().any(|x| {
        b.iter().any(|y| {
            let rx = DataRegion::new(x.base, x.len);
            let ry = DataRegion::new(y.base, y.len);
            (x.mode.writes() || y.mode.writes()) && rx.overlaps(&ry)
        })
    })
}

/// Brute-force oracle: `preds[j]` lists, ascending, every `i < j` whose
/// accesses conflict with task `j`'s (no completion happens during
/// submission here).
fn oracle_preds(tasks: &[Vec<GenAccess>]) -> Vec<Vec<usize>> {
    (0..tasks.len())
        .map(|j| (0..j).filter(|&i| conflict(&tasks[i], &tasks[j])).collect())
        .collect()
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

/// Submit `def`; returns its id and whether it was ready at once (the
/// `ready_count` delta, which is how the simulator asks).
fn submit(g: &mut TaskGraph, def: TaskDef) -> (TaskId, bool) {
    let before = g.ready_count();
    let id = g.submit(def).unwrap();
    let after = g.ready_count();
    assert!(after == before || after == before + 1);
    (id, after > before)
}

/// The graph of `tasks`, its ids, and the ids ready at submission.
fn build_graph(tasks: &[Vec<GenAccess>]) -> (TaskGraph, Vec<TaskId>, Vec<TaskId>) {
    let mut g = TaskGraph::new();
    let (mut ids, mut ready) = (Vec::new(), Vec::new());
    for (i, accs) in tasks.iter().enumerate() {
        let (id, now_ready) = submit(&mut g, with_accesses(TaskDef::new(format!("t{i}")), accs));
        ids.push(id);
        if now_ready {
            ready.push(id);
        }
    }
    (g, ids, ready)
}

const CASES: usize = 128;

/// A task is ready at submission iff the oracle gives it no
/// predecessor, and later becomes ready exactly when its last
/// predecessor completes: each `complete` returns, in submission order,
/// the successors of the completed task whose predecessors have now all
/// completed. Ready tasks run in a random order.
#[test]
fn dependencies_match_oracle() {
    let root = Rng::seed_from_u64(0xDE9_0001);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let tasks = gen_tasks(&mut rng);
        let preds = oracle_preds(&tasks);
        let (mut g, ids, mut ready) = build_graph(&tasks);
        let want: Vec<TaskId> = (0..ids.len())
            .filter(|&j| preds[j].is_empty())
            .map(|j| ids[j])
            .collect();
        assert_eq!(ready, want, "case {case}: ready at submission");
        let mut done = vec![false; ids.len()];
        while !ready.is_empty() {
            let t = ready.swap_remove(rng.range_usize(0, ready.len()));
            g.start(t).unwrap();
            let released = g.complete(t).unwrap();
            let t = t.raw() as usize;
            done[t] = true;
            let want: Vec<TaskId> = (t + 1..ids.len())
                .filter(|&j| preds[j].contains(&t) && preds[j].iter().all(|&p| done[p]))
                .map(|j| ids[j])
                .collect();
            assert_eq!(released, want, "case {case}: completing T{t}");
            assert_eq!(g.ready_count(), ready.len() + released.len(), "case {case}");
            ready.extend(released);
        }
        assert!(done.iter().all(|&d| d), "case {case}: graph deadlocked");
    }
}

/// Greedy execution (oldest or newest ready task first) always drains
/// the graph, and every task runs after all its oracle predecessors.
#[test]
fn greedy_execution_respects_order() {
    let root = Rng::seed_from_u64(0xDE9_0002);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let tasks = gen_tasks(&mut rng);
        let pick_last = rng.chance(0.5);
        let preds = oracle_preds(&tasks);
        let (mut g, ids, mut ready) = build_graph(&tasks);
        let mut completed_at = vec![usize::MAX; ids.len()];
        let mut step = 0;
        while !ready.is_empty() {
            let t = if pick_last {
                ready.pop().unwrap()
            } else {
                ready.remove(0)
            };
            g.start(t).unwrap();
            ready.extend(g.complete(t).unwrap());
            completed_at[t.raw() as usize] = step;
            step += 1;
        }
        assert_eq!(step, ids.len(), "case {case}: graph deadlocked");
        assert_eq!(g.ready_count(), 0, "case {case}");
        for (j, &id) in ids.iter().enumerate() {
            assert_eq!(g.state(id), TaskState::Completed, "case {case}");
            for &p in &preds[j] {
                assert!(
                    completed_at[p] < completed_at[j],
                    "case {case}: task {j} ran before its predecessor {p}"
                );
            }
        }
    }
}

/// Readers between two writers of the same data run concurrently: the
/// first writer's completion releases all of them at once, and the
/// second writer waits for the last of them. Each reader reads the data
/// in several pieces and each writer writes it in several, so one pair
/// of tasks conflicts through several accesses: each task is still
/// released once, by the completion that leaves it nothing to wait for.
#[test]
fn readers_between_writers_run_concurrently() {
    let root = Rng::seed_from_u64(0xDE9_0007);
    for case in 0..CASES {
        let mut rng = root.split_u64(case as u64);
        let data = DataRegion::new(0, 64);
        let pieces = |rng: &mut Rng, mode| -> Vec<GenAccess> {
            let parts = rng.range_usize(1, 5);
            (data.chunks(parts).iter())
                .map(|c| GenAccess {
                    base: c.base(),
                    len: c.len(),
                    mode,
                })
                .collect()
        };
        let readers = rng.range_usize(1, 7);
        let mut tasks = vec![pieces(&mut rng, AccessMode::Out)];
        tasks.extend((0..readers).map(|_| pieces(&mut rng, AccessMode::In)));
        tasks.push(pieces(&mut rng, AccessMode::InOut));
        assert_eq!(oracle_preds(&tasks)[readers + 1].len(), readers + 1);
        let (mut g, ids, ready) = build_graph(&tasks);
        assert_eq!(ready, vec![ids[0]], "case {case}");
        g.start(ids[0]).unwrap();
        assert_eq!(
            g.complete(ids[0]).unwrap(),
            &ids[1..=readers],
            "case {case}"
        );
        assert_eq!(g.ready_count(), readers, "case {case}");
        let mut running: Vec<TaskId> = ids[1..=readers].to_vec();
        for &r in &running {
            g.start(r).unwrap();
        }
        while !running.is_empty() {
            let r = running.swap_remove(rng.range_usize(0, running.len()));
            let released = g.complete(r).unwrap();
            let last = running.is_empty();
            let want = if last { vec![ids[readers + 1]] } else { vec![] };
            assert_eq!(released, want, "case {case}");
            assert_eq!(g.ready_count(), usize::from(last), "case {case}");
        }
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
/// `submit`, `start` of a random ready task, `complete` of a random
/// running one and `start` of a task that is not ready. The model keeps
/// a state and the oracle's predecessors per task: a submitted task
/// depends on every earlier task not yet completed whose accesses
/// conflict with its own. After every step the graph must show the same
/// states and ready count, and each `complete` must release the blocked
/// tasks, in submission order, whose predecessors have all completed.
///
/// Every case also runs, step for step, on one graph reused through
/// `clear()` after the previous (unrelated) case, or after an unrelated
/// half-run graph for the first: its ids, refusals, released tasks,
/// states and ready count equal the fresh graph's.
#[test]
fn reused_graph_matches_a_fresh_one_and_the_model() {
    let mut warm = Rng::seed_from_u64(0xDE9_0006);
    let (mut reused, _, old_ready) = build_graph(&gen_tasks(&mut warm));
    if let [first, rest @ ..] = &old_ready[..] {
        reused.start(*first).unwrap();
        reused.complete(*first).unwrap();
        if let Some(&second) = rest.first() {
            reused.start(second).unwrap();
        }
    }
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
        let mut states: Vec<TaskState> = Vec::new();
        let mut accesses: Vec<Vec<GenAccess>> = Vec::new();
        let mut preds: Vec<Vec<usize>> = Vec::new();
        for step in 0..200 {
            let at = format!("case {case} step {step}");
            let in_state = |want: TaskState| -> Vec<TaskId> {
                (any_id.iter().zip(&states))
                    .filter(|(_, &s)| s == want)
                    .map(|(&t, _)| t)
                    .collect()
            };
            let (ready, running) = (in_state(TaskState::Ready), in_state(TaskState::Running));
            match rng.range_u64(0, 10) {
                0..=3 => {
                    let accs: Vec<GenAccess> = (0..rng.range_usize(0, 3))
                        .map(|_| gen_access(&mut rng))
                        .collect();
                    let mine: Vec<usize> = (0..states.len())
                        .filter(|&t| states[t] != TaskState::Completed)
                        .filter(|&t| conflict(&accesses[t], &accs))
                        .collect();
                    let def = with_accesses(TaskDef::new("t"), &accs);
                    let (id, now_ready) = submit(&mut g, def.clone());
                    assert_eq!(id, any_id[states.len()], "{at}");
                    assert_eq!(submit(&mut reused, def), (id, now_ready), "{at}");
                    assert_eq!(now_ready, mine.is_empty(), "{at}");
                    states.push(if now_ready {
                        TaskState::Ready
                    } else {
                        TaskState::Blocked
                    });
                    accesses.push(accs);
                    preds.push(mine);
                }
                4..=6 if !ready.is_empty() => {
                    let id = ready[rng.range_usize(0, ready.len())];
                    assert_eq!(g.start(id), Ok(()), "{at}");
                    assert_eq!(reused.start(id), Ok(()), "{at}");
                    states[id.raw() as usize] = TaskState::Running;
                }
                7..=8 if !running.is_empty() => {
                    let id = running[rng.range_usize(0, running.len())];
                    states[id.raw() as usize] = TaskState::Completed;
                    let done = |&p: &usize| states[p] == TaskState::Completed;
                    let released: Vec<TaskId> = (0..states.len())
                        .filter(|&t| states[t] == TaskState::Blocked)
                        .filter(|&t| preds[t].iter().all(done))
                        .map(|t| any_id[t])
                        .collect();
                    assert_eq!(g.complete(id).as_deref(), Ok(&released[..]), "{at}");
                    assert_eq!(reused.complete(id).as_deref(), Ok(&released[..]), "{at}");
                    for &t in &released {
                        states[t.raw() as usize] = TaskState::Ready;
                    }
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
            let want_ready = states.iter().filter(|&&s| s == TaskState::Ready).count();
            assert_eq!(g.ready_count(), want_ready, "{at}");
            assert_eq!(reused.ready_count(), want_ready, "{at}");
            assert_eq!(reused.len(), states.len(), "{at}");
            for (&id, &state) in any_id.iter().zip(&states) {
                assert_eq!(g.state(id), state, "{at}: {id:?}");
                assert_eq!(reused.state(id), state, "{at}: {id:?}");
            }
        }
    }
}
