//! Workloads: the application side of the simulation.

use std::sync::Arc;
use tlb_tasking::{Access, AccessMode, DataRegion};

/// A point-to-point MPI operation performed by a task (paper §4: MPI
/// calls are valid inside tasks whose whole ancestry is non-offloadable,
/// so MPI tasks are always pinned to their apprank).
///
/// A `Send` task executes its duration (packing) on the home node and
/// then puts the message on the wire; the matching `Recv` task does not
/// become runnable until the message has arrived (latency + bytes/bw
/// later), then executes its duration (unpacking). Tags match sends to
/// receives per (source, destination, tag) within an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiOp {
    /// Send `bytes` to apprank `to` under `tag`.
    Send {
        /// Destination apprank.
        to: usize,
        /// Match key.
        tag: u64,
        /// Payload size.
        bytes: usize,
    },
    /// Receive the message tagged `tag` from apprank `from`.
    Recv {
        /// Source apprank.
        from: usize,
        /// Match key.
        tag: u64,
    },
}

/// One task an apprank creates in an iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpec {
    /// Nominal single-core execution time in seconds (divided by the
    /// executing node's speed factor).
    pub duration: f64,
    /// Input bytes that must be transferred when the task executes on a
    /// node other than its apprank's home (the eager copy of §3.2).
    pub bytes: usize,
    /// Whether the task may execute away from the home node. MPI-calling
    /// tasks are non-offloadable (paper §4).
    pub offloadable: bool,
    /// Declared data accesses: within an iteration, tasks of the same
    /// apprank order through region overlap exactly as in `tlb-tasking`
    /// (the OmpSs-2 "single mechanism", §3.1). Empty = independent.
    pub accesses: Vec<Access>,
    /// Point-to-point MPI operation, if this task performs one. Such
    /// tasks must be non-offloadable.
    pub mpi: Option<MpiOp>,
}

impl TaskSpec {
    /// A pure compute task with negligible transferred data.
    pub fn compute(duration: f64) -> Self {
        TaskSpec {
            duration,
            bytes: 0,
            offloadable: true,
            accesses: Vec::new(),
            mpi: None,
        }
    }

    /// A compute task with `bytes` of input data.
    pub fn with_bytes(duration: f64, bytes: usize) -> Self {
        TaskSpec {
            duration,
            bytes,
            offloadable: true,
            accesses: Vec::new(),
            mpi: None,
        }
    }

    /// A task pinned to its apprank's node.
    pub fn pinned(duration: f64) -> Self {
        TaskSpec {
            duration,
            bytes: 0,
            offloadable: false,
            accesses: Vec::new(),
            mpi: None,
        }
    }

    /// An MPI send task: `duration` of packing on the home node, then
    /// `bytes` on the wire to apprank `to` under `tag`. Non-offloadable.
    pub fn mpi_send(duration: f64, to: usize, tag: u64, bytes: usize) -> Self {
        TaskSpec {
            duration,
            bytes: 0,
            offloadable: false,
            accesses: Vec::new(),
            mpi: Some(MpiOp::Send { to, tag, bytes }),
        }
    }

    /// An MPI receive task: becomes runnable only once the matching send
    /// has completed and the payload has crossed the network, then runs
    /// `duration` of unpacking. Non-offloadable.
    pub fn mpi_recv(duration: f64, from: usize, tag: u64) -> Self {
        TaskSpec {
            duration,
            bytes: 0,
            offloadable: false,
            accesses: Vec::new(),
            mpi: Some(MpiOp::Recv { from, tag }),
        }
    }

    /// Declare an `in` access (builder style).
    pub fn reads(mut self, region: DataRegion) -> Self {
        self.accesses.push(Access {
            region,
            mode: AccessMode::In,
        });
        self
    }

    /// Declare an `out` access.
    pub fn writes(mut self, region: DataRegion) -> Self {
        self.accesses.push(Access {
            region,
            mode: AccessMode::Out,
        });
        self
    }

    /// Declare an `inout` access.
    pub fn reads_writes(mut self, region: DataRegion) -> Self {
        self.accesses.push(Access {
            region,
            mode: AccessMode::InOut,
        });
        self
    }
}

/// An iterative SPMD application as the cluster runtime sees it: every
/// iteration each apprank creates a batch of tasks, a `taskwait` ends the
/// iteration, and an MPI barrier synchronises appranks before the next
/// (the paper's applications are all of this shape).
pub trait Workload {
    /// Number of appranks the workload is written for.
    fn appranks(&self) -> usize;

    /// Total number of iterations.
    fn iterations(&self) -> usize;

    /// Tasks apprank `rank` creates in `iteration`. The list is shared,
    /// not copied: a workload that stores its lists (such as
    /// [`SpecWorkload`]) hands out another pointer to one, and a
    /// generator collects a fresh list straight into the `Arc`.
    fn tasks(&mut self, rank: usize, iteration: usize) -> Arc<[TaskSpec]>;

    /// Feedback hook after an iteration completes: per-apprank elapsed
    /// time in seconds (the application-level measurement an internal
    /// balancer such as n-body's ORB uses to repartition).
    fn end_iteration(&mut self, _iteration: usize, _rank_seconds: &[f64]) {}
}

/// Boxed workloads run like their contents — what lets a scenario sweep
/// hold heterogeneous applications behind `Box<dyn Workload + Send>`.
impl<W: Workload + ?Sized> Workload for Box<W> {
    fn appranks(&self) -> usize {
        (**self).appranks()
    }

    fn iterations(&self) -> usize {
        (**self).iterations()
    }

    fn tasks(&mut self, rank: usize, iteration: usize) -> Arc<[TaskSpec]> {
        (**self).tasks(rank, iteration)
    }

    fn end_iteration(&mut self, iteration: usize, rank_seconds: &[f64]) {
        (**self).end_iteration(iteration, rank_seconds)
    }
}

/// A workload given by explicit task lists. Cloning it copies one
/// pointer per (iteration, rank), not the tasks.
#[derive(Clone, Debug)]
pub struct SpecWorkload {
    /// `specs[iteration][rank]` = that rank's tasks.
    specs: Vec<Vec<Arc<[TaskSpec]>>>,
}

impl SpecWorkload {
    /// Build from per-iteration, per-rank task lists.
    pub fn new(specs: Vec<Vec<Vec<TaskSpec>>>) -> Self {
        let shared = specs
            .into_iter()
            .map(|it| it.into_iter().map(Arc::from).collect());
        SpecWorkload::shared(shared.collect())
    }

    fn shared(specs: Vec<Vec<Arc<[TaskSpec]>>>) -> Self {
        assert!(!specs.is_empty(), "workload needs at least one iteration");
        let ranks = specs[0].len();
        assert!(ranks > 0, "workload needs at least one apprank");
        assert!(
            specs.iter().all(|it| it.len() == ranks),
            "every iteration must cover every apprank"
        );
        SpecWorkload { specs }
    }

    /// Repeat one iteration's per-rank task lists `iterations` times:
    /// every iteration shares each rank's one list.
    pub fn iterated(per_rank: Vec<Vec<TaskSpec>>, iterations: usize) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        let per_rank: Vec<Arc<[TaskSpec]>> = per_rank.into_iter().map(Arc::from).collect();
        SpecWorkload::shared(vec![per_rank; iterations])
    }

    /// Total nominal work (core·seconds) over the whole run.
    pub fn total_work(&self) -> f64 {
        self.specs
            .iter()
            .flatten()
            .flat_map(|tasks| tasks.iter())
            .map(|t| t.duration)
            .sum()
    }

    /// Nominal per-rank work of one iteration (for imbalance checks).
    pub fn rank_work(&self, iteration: usize) -> Vec<f64> {
        self.specs[iteration]
            .iter()
            .map(|tasks| tasks.iter().map(|t| t.duration).sum())
            .collect()
    }
}

impl Workload for SpecWorkload {
    fn appranks(&self) -> usize {
        self.specs[0].len()
    }

    fn iterations(&self) -> usize {
        self.specs.len()
    }

    fn tasks(&mut self, rank: usize, iteration: usize) -> Arc<[TaskSpec]> {
        Arc::clone(&self.specs[iteration][rank])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_workload_shape() {
        let wl = SpecWorkload::iterated(
            vec![
                vec![TaskSpec::compute(1.0); 3],
                vec![TaskSpec::compute(2.0); 1],
            ],
            4,
        );
        assert_eq!(wl.appranks(), 2);
        assert_eq!(wl.iterations(), 4);
        assert!((wl.total_work() - 4.0 * 5.0).abs() < 1e-12);
        assert_eq!(wl.rank_work(0), vec![3.0, 2.0]);
    }

    #[test]
    fn iterated_shares_one_list_per_rank() {
        let mut wl = SpecWorkload::iterated(
            vec![vec![TaskSpec::compute(1.0); 3], vec![TaskSpec::pinned(2.0)]],
            4,
        );
        for rank in 0..2 {
            let first = wl.tasks(rank, 0);
            for it in 1..4 {
                assert!(Arc::ptr_eq(&first, &wl.tasks(rank, it)), "rank {rank}");
            }
        }
        assert!(!Arc::ptr_eq(&wl.tasks(0, 0), &wl.tasks(1, 0)));
        let copy = wl.clone();
        assert!(Arc::ptr_eq(&copy.specs[2][1], &wl.tasks(1, 2)));
    }

    #[test]
    fn tasks_returns_the_right_batch() {
        let mut wl = SpecWorkload::new(vec![
            vec![vec![TaskSpec::compute(1.0)], vec![]],
            vec![vec![], vec![TaskSpec::pinned(2.0)]],
        ]);
        assert_eq!(wl.tasks(0, 0).len(), 1);
        assert_eq!(wl.tasks(1, 0).len(), 0);
        let t = wl.tasks(1, 1);
        assert!(!t[0].offloadable);
    }

    #[test]
    #[should_panic(expected = "every apprank")]
    fn ragged_iterations_rejected() {
        SpecWorkload::new(vec![vec![vec![]], vec![vec![], vec![]]]);
    }
}
