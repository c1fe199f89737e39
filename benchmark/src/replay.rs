//! Layer replays: a layer's public API driven standalone, at the
//! operation counts and shapes a workload produced, to estimate what
//! that layer costs inside a run *without instrumenting the run*.
//!
//! A replay reports nanoseconds (or micro/milliseconds) per operation.
//! The workload multiplies by its own operation count and divides by
//! its end-to-end time to get an `…_est_share`. It is an estimate, not
//! an attribution: the replay runs with a warm cache and a predictable
//! branch history the real run does not have, and the run's own glue
//! (`sim.rs` handlers) is what is left over.

use std::hint::black_box;
use std::time::Instant;

use tlb_core::{choose_node, CandidateState, GlobalPolicy, GlobalSolverKind, Platform};
use tlb_des::{EventQueue, SimTime};
use tlb_dlb::{NodeDlb, ProcId};
use tlb_expander::{BipartiteGraph, ExpanderConfig};
use tlb_portfolio::{PortfolioConfig, PortfolioEngine};
use tlb_rng::Rng;
use tlb_tasking::{TaskDef, TaskGraph};
use tlb_trace::{Counters, EventKind, TaskKey, TraceLog};

use crate::stats::{self, Op};

/// Run `batch` `batches` times; the quiet median of the batch times,
/// in seconds (each batch is a slice of its own).
pub fn time_batches(batches: usize, mut batch: impl FnMut()) -> f64 {
    let origin = Instant::now();
    let ops: Vec<Op> = (0..batches.max(1))
        .map(|_| {
            let start_s = origin.elapsed().as_secs_f64();
            batch();
            Op {
                start_s,
                dur_s: origin.elapsed().as_secs_f64() - start_s,
            }
        })
        .collect();
    stats::quiet_median(&ops, 1e-9)
}

/// `tlb-des`: nanoseconds per event through [`EventQueue`] — one `pop`
/// and one `push` at a steady pending depth (the hold model; a run
/// keeps about one completion event per busy core pending).
pub fn des_queue_ns_per_op(depth: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = Rng::seed_from_u64(seed);
    let mut queue: EventQueue<[u64; 4]> = EventQueue::new();
    for i in 0..depth.max(1) {
        queue.push(
            SimTime::from_nanos(rng.range_u64(0, 50_000_000)),
            [i as u64; 4],
        );
    }
    let secs = time_batches(7, || {
        for _ in 0..OPS {
            let (at, ev) = queue.pop().expect("the hold model never drains");
            let next = at.as_nanos() + 1 + rng.range_u64(0, 50_000_000);
            queue.push(SimTime::from_nanos(next), black_box(ev));
        }
    });
    secs * 1e9 / OPS as f64
}

/// `tlb-tasking`: nanoseconds per task through a fresh [`TaskGraph`]
/// per batch of `batch` independent tasks — submit (with the two
/// `ready_count` probes the simulator makes), start, complete — which
/// is the dependency shape of the synthetic workload.
pub fn tasking_ns_per_task(batch: usize) -> f64 {
    let batch = batch.max(1);
    let rounds = (60_000 / batch).max(1);
    let secs = time_batches(7, || {
        for _ in 0..rounds {
            let mut graph = TaskGraph::new();
            let mut ids = Vec::with_capacity(batch);
            for _ in 0..batch {
                let before = graph.ready_count();
                let id = graph
                    .submit(TaskDef::new("task").cost(0.05))
                    .expect("independent tasks are always accepted");
                black_box(graph.ready_count() - before);
                ids.push(id);
            }
            for id in ids {
                graph.start(id).expect("ready task starts");
                black_box(graph.complete(id).expect("started task completes"));
            }
        }
    });
    secs * 1e9 / (rounds * batch) as f64
}

/// `tlb-dlb`: nanoseconds per acquire + release pair on a LeWI node of
/// `cores` cores split evenly over `procs` processes, with half the
/// cores kept busy so acquires scan past users and sometimes borrow.
pub fn dlb_acquire_release_ns(cores: usize, procs: usize) -> f64 {
    const OPS: usize = 100_000;
    let procs = procs.clamp(1, cores.max(1));
    let mut counts = vec![cores / procs; procs];
    counts[0] += cores - (cores / procs) * procs;
    let mut dlb = NodeDlb::with_counts(&counts, true);
    // Process 0 works alone: it fills its own cores, then borrows.
    let mut held = Vec::new();
    for _ in 0..cores / 2 {
        if let Some(core) = dlb.acquire(ProcId(0)) {
            held.push(core);
        }
    }
    let secs = time_batches(7, || {
        for i in 0..OPS {
            let proc = ProcId(i % procs);
            if let Some(core) = dlb.acquire(proc) {
                dlb.release(proc, black_box(core))
                    .expect("the acquirer releases its own core");
            }
        }
    });
    secs * 1e9 / OPS as f64
}

/// `tlb-dlb`: microseconds per [`NodeDlb::set_ownership`] transaction,
/// alternating between two allocations so every call moves cores.
pub fn dlb_set_ownership_us(cores: usize, procs: usize) -> f64 {
    const OPS: usize = 20_000;
    let procs = procs.clamp(2, cores.max(2));
    let even = {
        let mut c = vec![cores / procs; procs];
        c[0] += cores - (cores / procs) * procs;
        c
    };
    let mut skewed = vec![1; procs];
    skewed[procs - 1] = cores - (procs - 1);
    let mut dlb = NodeDlb::with_counts(&even, true);
    let secs = time_batches(7, || {
        for i in 0..OPS {
            let counts = if i % 2 == 0 { &skewed } else { &even };
            dlb.set_ownership(black_box(counts))
                .expect("counts sum to the node's cores");
        }
    });
    secs * 1e6 / OPS as f64
}

/// `tlb-core::sched`: nanoseconds per [`choose_node`] over candidate
/// sets of `degree` workers drawn across the three outcomes (locality
/// hit, adjacent spill, hold), including building the candidate vector
/// as the simulator does per decision.
pub fn choose_node_ns(degree: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = Rng::seed_from_u64(seed);
    let sets: Vec<Vec<(usize, usize)>> = (0..256)
        .map(|_| {
            (0..degree.max(1))
                .map(|_| {
                    (
                        rng.range_u64(0, 40) as usize,
                        1 + rng.range_u64(0, 12) as usize,
                    )
                })
                .collect()
        })
        .collect();
    let secs = time_batches(7, || {
        for i in 0..OPS {
            let candidates: Vec<CandidateState> = sets[i % sets.len()]
                .iter()
                .enumerate()
                .map(|(node, &(queued, owned))| CandidateState {
                    node,
                    queued_tasks: queued,
                    owned_cores: owned,
                    usable_cores: owned,
                })
                .collect();
            black_box(choose_node(&candidates, 0, 2, false));
        }
    });
    secs * 1e9 / OPS as f64
}

/// Solver timings on one allocation problem, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverTimes {
    /// `GlobalPolicy::allocate` with the simplex solver.
    pub simplex_ms: f64,
    /// `GlobalPolicy::allocate` with the max-flow solver.
    pub flow_ms: f64,
    /// One `PortfolioEngine::solve` race of every strategy, inline.
    pub race_ms: f64,
}

/// `tlb-linprog` / `tlb-portfolio`: solve the `appranks`-on-`nodes`
/// degree-`degree` allocation problem with seeded demands.
pub fn solver_times(nodes: usize, appranks: usize, degree: usize, seed: u64) -> SolverTimes {
    let graph =
        BipartiteGraph::generate(&ExpanderConfig::new(appranks, nodes, degree).with_seed(seed))
            .expect("the benchmark's expander shape is valid");
    let platform = Platform::mn4(nodes);
    let mut rng = Rng::seed_from_u64(seed ^ 0x50_1e);
    let work: Vec<f64> = (0..appranks).map(|_| rng.range_f64(5.0, 60.0)).collect();
    let mut policy = GlobalPolicy::new(&graph, &platform);
    let mut solve = |kind: GlobalSolverKind| {
        1e3 * time_batches(5, || {
            black_box(
                policy
                    .allocate(&work, kind)
                    .expect("seeded demands are feasible"),
            );
        })
    };
    let simplex_ms = solve(GlobalSolverKind::Simplex);
    let flow_ms = solve(GlobalSolverKind::Flow);
    let mut engine =
        PortfolioEngine::new(PortfolioConfig::default()).expect("default portfolio is valid");
    let mut problem = policy.problem().clone();
    problem.work.copy_from_slice(&work);
    let race_ms = 1e3
        * time_batches(5, || {
            black_box(engine.solve(&problem).expect("the race has a winner"));
        });
    SolverTimes {
        simplex_ms,
        flow_ms,
        race_ms,
    }
}

/// `tlb-expander`: milliseconds per [`BipartiteGraph::generate`].
pub fn expander_generate_ms(nodes: usize, appranks: usize, degree: usize, seed: u64) -> f64 {
    let cfg = ExpanderConfig::new(appranks, nodes, degree).with_seed(seed);
    1e3 * time_batches(5, || {
        black_box(BipartiteGraph::generate(&cfg).expect("valid expander shape"));
    })
}

/// `tlb-trace`: nanoseconds per [`TraceLog::push`] of a task-lifecycle
/// event, over `streams` node streams, `events` per batch.
pub fn trace_push_ns(events: usize, streams: usize) -> f64 {
    let events = events.clamp(1, 400_000);
    let secs = time_batches(5, || {
        let mut log = TraceLog::new();
        for i in 0..events {
            let key = TaskKey {
                iteration: 0,
                apprank: (i % 8) as u32,
                task: i as u32,
            };
            log.push(
                TraceLog::node_stream(i % streams.max(1)),
                SimTime::from_nanos(i as u64 * 1000),
                EventKind::TaskStarted {
                    key,
                    node: (i % streams.max(1)) as u32,
                    proc: 0,
                    stolen: false,
                },
            );
        }
        black_box(log.len());
    });
    secs * 1e9 / events as f64
}

/// `tlb-trace`: nanoseconds per [`Counters::inc`] over the counter
/// names a run keeps live, bumped in the proportions the run did.
pub fn counters_inc_ns(live: &[(String, u64)]) -> f64 {
    const OPS: usize = 400_000;
    if live.is_empty() {
        return 0.0;
    }
    // A schedule of names weighted by their final counts (at least one
    // bump each), first-touch order as in the run.
    let total: u64 = live.iter().map(|(_, n)| (*n).max(1)).sum();
    let mut schedule: Vec<&str> = Vec::with_capacity(1024);
    for (name, n) in live {
        let share = (((*n).max(1) as f64 / total as f64) * 1024.0).ceil() as usize;
        schedule.extend(std::iter::repeat_n(name.as_str(), share.max(1)));
    }
    Rng::seed_from_u64(total).shuffle(&mut schedule);
    let mut counters = Counters::new();
    for (name, _) in live {
        counters.add(name, 0);
    }
    let secs = time_batches(5, || {
        for i in 0..OPS {
            counters.inc(schedule[i % schedule.len()]);
        }
    });
    black_box(counters.count(&live[0].0));
    secs * 1e9 / OPS as f64
}

/// `tlb-json`: MB/s of `tlb_json::parse` and of `to_string_pretty` on
/// `text`; `None` if `text` is not JSON.
pub fn json_throughput(text: &str) -> Option<(f64, f64)> {
    let value = tlb_json::parse(text).ok()?;
    let mb = text.len() as f64 / 1e6;
    let rounds = (2_000_000 / text.len().max(1)).clamp(1, 2000);
    let parse_s = time_batches(5, || {
        for _ in 0..rounds {
            black_box(tlb_json::parse(black_box(text)).ok());
        }
    });
    let write_s = time_batches(5, || {
        for _ in 0..rounds {
            black_box(value.to_string_pretty());
        }
    });
    Some((
        mb * rounds as f64 / parse_s.max(1e-12),
        mb * rounds as f64 / write_s.max(1e-12),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_return_positive_finite_costs() {
        for v in [
            des_queue_ns_per_op(64, 1),
            tasking_ns_per_task(50),
            dlb_acquire_release_ns(16, 4),
            dlb_set_ownership_us(16, 4),
            choose_node_ns(4, 1),
            expander_generate_ms(4, 8, 2, 1),
            trace_push_ns(1000, 4),
            counters_inc_ns(&[("a".into(), 10), ("b".into(), 1)]),
        ] {
            assert!(v.is_finite() && v > 0.0, "replay cost {v}");
        }
        let s = solver_times(4, 8, 2, 1);
        assert!(s.simplex_ms > 0.0 && s.flow_ms > 0.0 && s.race_ms > 0.0);
        assert_eq!(counters_inc_ns(&[]), 0.0);
    }
}
