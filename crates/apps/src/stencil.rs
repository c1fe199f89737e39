//! Heat-diffusion stencil with halo exchange: the canonical MPI+OmpSs-2
//! pattern the paper's programming model section (§4) is written for.
//!
//! Each apprank owns a strip of a 2D grid. Every iteration it posts two
//! *non-offloadable* halo-exchange tasks (they stand for MPI calls, which
//! must stay on the apprank — §4: "MPI calls are valid so long as the
//! task and all its ancestors are non-offloadable") and a set of
//! offloadable compute tasks over row blocks. Dependencies follow from
//! the declared regions: the first and last block of a strip read the
//! halo rows, so they order behind the exchange tasks — exactly how the
//! OmpSs-2 single mechanism turns message arrival into task ordering.
//!
//! [`StencilWorkload`] is the cluster-simulation workload, with a
//! per-rank cost factor (heterogeneous material) as the imbalance source.

use tlb_cluster::{TaskSpec, Workload};
use tlb_tasking::DataRegion;

/// Configuration of the distributed stencil workload.
#[derive(Clone, Debug)]
pub struct StencilConfig {
    /// Appranks (grid strips).
    pub appranks: usize,
    /// Grid rows per rank.
    pub rows_per_rank: usize,
    /// Grid columns.
    pub cols: usize,
    /// Rows per compute task (block height).
    pub rows_per_task: usize,
    /// Compute seconds per row: a model constant (0.1 ms by default).
    pub secs_per_row: f64,
    /// Per-rank cost multipliers (heterogeneous material zones); length
    /// must equal `appranks`. `vec![1.0; n]` is balanced.
    pub rank_factor: Vec<f64>,
    /// Halo-exchange task duration in seconds (MPI latency + pack/unpack).
    pub halo_secs: f64,
    /// Timesteps.
    pub iterations: usize,
}

impl StencilConfig {
    /// A balanced configuration.
    pub fn new(appranks: usize, rows_per_rank: usize, cols: usize) -> Self {
        StencilConfig {
            appranks,
            rows_per_rank,
            cols,
            rows_per_task: rows_per_rank.div_ceil(16).max(1),
            secs_per_row: 1e-4,
            rank_factor: vec![1.0; appranks],
            halo_secs: 2e-4,
            iterations: 6,
        }
    }

    /// Apply a linear imbalance profile: rank factors from `lo` to `hi`.
    pub fn with_gradient(mut self, lo: f64, hi: f64) -> Self {
        let n = self.appranks.max(2) - 1;
        self.rank_factor = (0..self.appranks)
            .map(|r| lo + (hi - lo) * r as f64 / n as f64)
            .collect();
        self
    }
}

/// The distributed stencil as a cluster workload.
///
/// Address-space layout (common across nodes, §3.2): row `r` of the
/// global grid occupies bytes `[r·cols·8, (r+1)·cols·8)`. Rank `k` owns
/// global rows `[k·rows, (k+1)·rows)`; its lower/upper halo rows are the
/// last row of rank `k-1` and the first row of rank `k+1`.
pub struct StencilWorkload {
    cfg: StencilConfig,
}

impl StencilWorkload {
    /// Build the workload.
    pub fn new(cfg: StencilConfig) -> Self {
        assert_eq!(
            cfg.rank_factor.len(),
            cfg.appranks,
            "one cost factor per rank"
        );
        assert!(cfg.rows_per_task >= 1 && cfg.rows_per_rank >= cfg.rows_per_task);
        StencilWorkload { cfg }
    }

    /// Rows of one of the two grid buffers. Jacobi is double-buffered
    /// (read one buffer, write the other, swap each timestep): with a
    /// single buffer, a block's writes would conflict with its
    /// neighbours' reads and serialise the whole sweep.
    fn row_region(&self, buf: usize, global_row: usize, rows: usize) -> DataRegion {
        let bytes_per_row = self.cfg.cols * 8;
        let buffer_bytes =
            self.cfg.appranks * self.cfg.rows_per_rank * bytes_per_row + 2 * bytes_per_row; // global halo padding
        DataRegion::new(
            buf * buffer_bytes + global_row * bytes_per_row,
            rows * bytes_per_row,
        )
    }

    /// Nominal compute work of one rank per iteration (core·seconds).
    pub fn rank_work(&self, rank: usize) -> f64 {
        self.cfg.rows_per_rank as f64 * self.cfg.secs_per_row * self.cfg.rank_factor[rank]
    }
}

impl Workload for StencilWorkload {
    fn appranks(&self) -> usize {
        self.cfg.appranks
    }

    fn iterations(&self) -> usize {
        self.cfg.iterations
    }

    fn tasks(&mut self, rank: usize, iteration: usize) -> Vec<TaskSpec> {
        let cfg = &self.cfg;
        let first_row = rank * cfg.rows_per_rank;
        let (read_buf, write_buf) = if iteration.is_multiple_of(2) {
            (0, 1)
        } else {
            (1, 0)
        };
        let row_bytes = cfg.cols * 8;
        let mut out = Vec::new();

        // Halo exchange as real MPI point-to-point tasks (paper §4: MPI
        // tasks stay on the apprank). Sends read the strip's own edge
        // rows; receives *write* the halo rows, so the edge compute
        // blocks (which read them) order behind the message arrival —
        // communication latency propagates into the task graph.
        // Tags: 0 = upward (to rank+1), 1 = downward (to rank-1).
        if rank > 0 {
            out.push(
                TaskSpec::mpi_send(cfg.halo_secs, rank - 1, 1, row_bytes)
                    .reads(self.row_region(read_buf, first_row, 1)),
            );
            out.push(
                TaskSpec::mpi_recv(cfg.halo_secs, rank - 1, 0).writes(self.row_region(
                    read_buf,
                    first_row - 1,
                    1,
                )),
            );
        }
        if rank + 1 < cfg.appranks {
            out.push(
                TaskSpec::mpi_send(cfg.halo_secs, rank + 1, 0, row_bytes).reads(self.row_region(
                    read_buf,
                    first_row + cfg.rows_per_rank - 1,
                    1,
                )),
            );
            out.push(
                TaskSpec::mpi_recv(cfg.halo_secs, rank + 1, 1).writes(self.row_region(
                    read_buf,
                    first_row + cfg.rows_per_rank,
                    1,
                )),
            );
        }

        // Compute blocks: read [block - 1 row, block + 1 row] of the read
        // buffer, write the block in the write buffer. Blocks are mutually
        // independent (reads commute); edge blocks depend on the halos.
        let bytes_per_row = cfg.cols * 8;
        let mut row = 0;
        while row < cfg.rows_per_rank {
            let rows = cfg.rows_per_task.min(cfg.rows_per_rank - row);
            let g = first_row + row;
            let read_lo = g.saturating_sub(1);
            let read_rows = rows + usize::from(g > 0) + 1; // may run past the grid: harmless
            let dur = rows as f64 * cfg.secs_per_row * cfg.rank_factor[rank];
            out.push(
                TaskSpec::with_bytes(dur, (rows + 2) * bytes_per_row)
                    .reads(self.row_region(read_buf, read_lo, read_rows))
                    .writes(self.row_region(write_buf, g, rows)),
            );
            row += rows;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_cluster::{ClusterSim, RunSpec, Workload};
    use tlb_core::{BalanceConfig, DromPolicy, Platform, Preset};

    #[test]
    fn halo_tasks_are_pinned_mpi_and_block_edge_computes() {
        use tlb_cluster::MpiOp;
        let mut wl = StencilWorkload::new(StencilConfig::new(4, 32, 64));
        let tasks = wl.tasks(1, 0);
        // Middle rank: send+recv per neighbour + compute blocks.
        let halos: Vec<&TaskSpec> = tasks.iter().filter(|t| !t.offloadable).collect();
        assert_eq!(halos.len(), 4);
        assert!(halos.iter().all(|t| t.mpi.is_some()));
        // Every recv's halo write overlaps some compute task's reads.
        for h in halos
            .iter()
            .filter(|t| matches!(t.mpi, Some(MpiOp::Recv { .. })))
        {
            let hw = h.accesses[0].region;
            let blocked = tasks
                .iter()
                .filter(|t| t.offloadable)
                .any(|t| t.accesses.iter().any(|a| a.region.overlaps(&hw)));
            assert!(blocked, "halo write {hw:?} blocks no compute task");
        }
        // Sends and recvs of neighbouring ranks match up by tag.
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for r in 0..4 {
            for t in wl.tasks(r, 0) {
                match t.mpi {
                    Some(MpiOp::Send { to, tag, .. }) => sends.push((r, to, tag)),
                    Some(MpiOp::Recv { from, tag }) => recvs.push((from, r, tag)),
                    None => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs, "unmatched halo messages");
        // Boundary ranks have one neighbour (2 MPI tasks).
        assert_eq!(wl.tasks(0, 0).iter().filter(|t| !t.offloadable).count(), 2);
        assert_eq!(wl.tasks(3, 0).iter().filter(|t| !t.offloadable).count(), 2);
    }

    #[test]
    fn gradient_profile_creates_imbalance() {
        let wl = StencilWorkload::new(StencilConfig::new(4, 64, 64).with_gradient(0.5, 2.0));
        let works: Vec<f64> = (0..4).map(|r| wl.rank_work(r)).collect();
        let imb = tlb_core::imbalance(&works);
        assert!((imb - 1.6).abs() < 0.1, "imbalance {imb}");
    }

    #[test]
    fn cluster_run_completes_and_offloading_helps() {
        let mk = || {
            let mut cfg = StencilConfig::new(4, 128, 64).with_gradient(0.4, 2.2);
            cfg.secs_per_row = 2e-3;
            cfg.iterations = 6;
            StencilWorkload::new(cfg)
        };
        let p = Platform::homogeneous(4, 4);
        let base = ClusterSim::execute(RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Baseline),
            mk(),
        ))
        .unwrap();
        let mut bc = BalanceConfig::preset(Preset::Offload {
            degree: 3,
            drom: DromPolicy::Global,
        });
        bc.global_period = tlb_des::SimTime::from_millis(300);
        let bal = ClusterSim::execute(RunSpec::new(&p, &bc, mk())).unwrap();
        // 12 MPI tasks (send+recv per neighbour edge) + 4 ranks × 16
        // blocks (128 rows / 8 rows-per-task):
        assert_eq!(base.total_tasks, (12 + 4 * 16) * 6);
        assert!(
            bal.makespan.as_secs_f64() < 0.9 * base.makespan.as_secs_f64(),
            "stencil balanced {} vs baseline {}",
            bal.makespan,
            base.makespan
        );
        // Halos never offloaded: every offloaded task is a compute block.
        assert!(bal.offloaded_tasks > 0);
    }

    #[test]
    fn balanced_stencil_stays_mostly_home() {
        let mk = || {
            let mut cfg = StencilConfig::new(4, 64, 64);
            cfg.secs_per_row = 1e-3;
            cfg.iterations = 4;
            StencilWorkload::new(cfg)
        };
        let p = Platform::homogeneous(4, 4);
        let bal = ClusterSim::execute(RunSpec::new(
            &p,
            &BalanceConfig::preset(Preset::Offload {
                degree: 2,
                drom: DromPolicy::Global,
            }),
            mk(),
        ))
        .unwrap();
        // On 4-core nodes the helper floor is a quarter of the node, so
        // some offload traffic is inherent; it must stay well below the
        // half the scheduler would reach under real imbalance.
        assert!(
            bal.offload_fraction() < 0.45,
            "balanced stencil offloaded {:.2}",
            bal.offload_fraction()
        );
    }
}
