//! Cost model of the one simulated MPI collective.
//!
//! The runtime itself uses point-to-point messages (offload control and
//! data transfers, costed inline in the simulator); the only collective
//! an iteration is charged is the barrier that ends it, with the standard
//! logarithmic-tree (dissemination) model.

use tlb_des::SimTime;

fn log2_ceil(n: usize) -> u32 {
    debug_assert!(n > 0);
    usize::BITS - (n - 1).leading_zeros()
}

/// Barrier over `ranks` participants: `ceil(log2 n)` latency steps
/// (dissemination barrier).
pub fn barrier_cost(ranks: usize, latency: SimTime) -> SimTime {
    if ranks <= 1 {
        return SimTime::ZERO;
    }
    latency * log2_ceil(ranks) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_is_free() {
        assert_eq!(barrier_cost(1, SimTime::from_micros(2)), SimTime::ZERO);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let lat = SimTime::from_micros(2);
        assert_eq!(barrier_cost(2, lat), lat);
        assert_eq!(barrier_cost(4, lat), lat * 2);
        assert_eq!(barrier_cost(5, lat), lat * 3);
        assert_eq!(barrier_cost(8, lat), lat * 3);
        assert_eq!(barrier_cost(64, lat), lat * 6);
    }
}
