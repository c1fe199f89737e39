//! Imbalance metrics (paper §6.1).

/// A collection of per-entity loads (per apprank or per node).
pub type Loads = [f64];

/// The paper's imbalance metric (Eq. 2): `max(load) / mean(load) ≥ 1`.
///
/// 1.0 is perfect balance; the maximum possible value is the number of
/// entities (all load on one). Returns 1.0 for empty or all-zero loads
/// (nothing to balance).
pub fn imbalance(loads: &Loads) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    if mean <= 0.0 {
        return 1.0;
    }
    (max / mean).max(1.0)
}

/// Node-level imbalance over busy-core averages (Fig. 11's y-axis):
/// `max(node busy) / mean(node busy)`.
pub fn node_imbalance(node_busy: &Loads) -> f64 {
    imbalance(node_busy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_is_one() {
        assert_eq!(imbalance(&[3.0, 3.0, 3.0]), 1.0);
    }

    #[test]
    fn all_on_one_is_n() {
        assert!((imbalance(&[8.0, 0.0, 0.0, 0.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn paper_example_two() {
        // Imbalance 2.0: critical path twice the perfectly balanced one.
        assert!((imbalance(&[4.0, 1.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
    }
}
