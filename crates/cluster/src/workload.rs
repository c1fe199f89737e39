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
///
/// Every task has a duration, a transfer size and an offload flag; only a
/// few (the stencil's, the MPI tests') also declare accesses or an MPI
/// operation. Those rare parts live behind one box allocated only for a
/// task that has one, so a plain compute task is 32 bytes.
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
    /// Declared accesses and MPI operation; `None` when it has neither.
    rare: Option<Box<Rare>>,
}

/// The parts of a [`TaskSpec`] most tasks leave empty.
#[derive(Clone, Debug, Default, PartialEq)]
struct Rare {
    accesses: Vec<Access>,
    mpi: Option<MpiOp>,
}

impl TaskSpec {
    /// A pure compute task with negligible transferred data.
    pub fn compute(duration: f64) -> Self {
        TaskSpec::with_bytes(duration, 0)
    }

    /// A compute task with `bytes` of input data.
    pub fn with_bytes(duration: f64, bytes: usize) -> Self {
        TaskSpec {
            duration,
            bytes,
            offloadable: true,
            rare: None,
        }
    }

    /// A task pinned to its apprank's node.
    pub fn pinned(duration: f64) -> Self {
        TaskSpec {
            offloadable: false,
            ..TaskSpec::compute(duration)
        }
    }

    /// An MPI send task: `duration` of packing on the home node, then
    /// `bytes` on the wire to apprank `to` under `tag`. Non-offloadable.
    pub fn mpi_send(duration: f64, to: usize, tag: u64, bytes: usize) -> Self {
        TaskSpec::pinned(duration).with_mpi(MpiOp::Send { to, tag, bytes })
    }

    /// An MPI receive task: becomes runnable only once the matching send
    /// has completed and the payload has crossed the network, then runs
    /// `duration` of unpacking. Non-offloadable.
    pub fn mpi_recv(duration: f64, from: usize, tag: u64) -> Self {
        TaskSpec::pinned(duration).with_mpi(MpiOp::Recv { from, tag })
    }

    fn with_mpi(mut self, op: MpiOp) -> Self {
        self.rare.get_or_insert_default().mpi = Some(op);
        self
    }

    fn with_access(mut self, region: DataRegion, mode: AccessMode) -> Self {
        let access = Access { region, mode };
        self.rare.get_or_insert_default().accesses.push(access);
        self
    }

    /// Declare an `in` access (builder style).
    pub fn reads(self, region: DataRegion) -> Self {
        self.with_access(region, AccessMode::In)
    }

    /// Declare an `out` access.
    pub fn writes(self, region: DataRegion) -> Self {
        self.with_access(region, AccessMode::Out)
    }

    /// Declare an `inout` access.
    pub fn reads_writes(self, region: DataRegion) -> Self {
        self.with_access(region, AccessMode::InOut)
    }

    /// Declared data accesses: within an iteration, tasks of the same
    /// apprank order through region overlap exactly as in `tlb-tasking`
    /// (the OmpSs-2 "single mechanism", §3.1). Empty = independent.
    pub fn accesses(&self) -> &[Access] {
        self.rare.as_ref().map_or(&[], |r| &r.accesses)
    }

    /// Point-to-point MPI operation, if this task performs one. Such
    /// tasks must be non-offloadable.
    pub fn mpi(&self) -> Option<MpiOp> {
        self.rare.as_ref().and_then(|r| r.mpi)
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
///
/// A generator builds each list once, straight into its `Arc` (collect
/// an exact-size iterator into `Arc<[TaskSpec]>`), and hands the lists
/// to [`SpecWorkload::shared`]; [`SpecWorkload::new`] and
/// [`SpecWorkload::iterated`] take plain `Vec`s and copy each into its
/// `Arc` once.
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

    /// Build from per-iteration, per-rank lists that are already shared:
    /// `specs[iteration][rank]`, and iterations may hold the same `Arc`.
    pub fn shared(specs: Vec<Vec<Arc<[TaskSpec]>>>) -> Self {
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

    /// The input grows with the machine (100 tasks per core per
    /// iteration): a spec is its three plain fields and one pointer.
    #[test]
    fn task_spec_is_32_bytes() {
        assert_eq!(std::mem::size_of::<TaskSpec>(), 32);
    }

    #[test]
    fn rare_parts_read_back_through_the_accessors() {
        let region = DataRegion::new(0, 64);
        let plain = TaskSpec::compute(1.0);
        assert!(plain.accesses().is_empty() && plain.mpi().is_none());
        let send = TaskSpec::mpi_send(0.5, 1, 7, 100).reads(region);
        assert!(!send.offloadable);
        assert_eq!(send.bytes, 0);
        assert_eq!(
            send.mpi(),
            Some(MpiOp::Send {
                to: 1,
                tag: 7,
                bytes: 100
            })
        );
        let modes: Vec<AccessMode> = TaskSpec::compute(1.0)
            .reads(region)
            .writes(region)
            .reads_writes(region)
            .accesses()
            .iter()
            .map(|a| a.mode)
            .collect();
        assert_eq!(modes, [AccessMode::In, AccessMode::Out, AccessMode::InOut]);
        assert_eq!(TaskSpec::with_bytes(1.0, 8).reads(region).mpi(), None);
    }

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
