//! Orthogonal Recursive Bisection over body positions.

/// A point mass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Mass.
    pub mass: f64,
}

impl Body {
    /// A body at rest.
    pub fn at(pos: [f64; 3], mass: f64) -> Self {
        Body {
            pos,
            vel: [0.0; 3],
            mass,
        }
    }
}

/// Partition `bodies` into `ranks` groups by recursively bisecting space
/// along the widest axis of each subset's bounding box, splitting body
/// counts proportionally to the rank counts on each side. Returns the
/// rank of every body.
///
/// This is the application-level balancer of the paper's n-body code: it
/// equalises *body counts* (a uniform-speed cost model), so it cannot
/// compensate for a slow node — the gap our runtime closes.
pub fn orb_partition(bodies: &[Body], ranks: usize) -> Vec<usize> {
    assert!(ranks > 0, "need at least one rank");
    let mut assignment = vec![0usize; bodies.len()];
    if ranks == 1 || bodies.is_empty() {
        return assignment;
    }
    let mut indices: Vec<usize> = (0..bodies.len()).collect();
    bisect(bodies, &mut indices, 0, ranks, &mut assignment);
    assignment
}

fn widest_axis(bodies: &[Body], idx: &[usize]) -> usize {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &i in idx {
        for d in 0..3 {
            lo[d] = lo[d].min(bodies[i].pos[d]);
            hi[d] = hi[d].max(bodies[i].pos[d]);
        }
    }
    let mut best = 0;
    let mut width = f64::NEG_INFINITY;
    for d in 0..3 {
        if hi[d] - lo[d] > width {
            width = hi[d] - lo[d];
            best = d;
        }
    }
    best
}

fn bisect(bodies: &[Body], idx: &mut [usize], rank0: usize, ranks: usize, out: &mut [usize]) {
    if ranks == 1 {
        for &i in idx.iter() {
            out[i] = rank0;
        }
        return;
    }
    let left_ranks = ranks / 2;
    let right_ranks = ranks - left_ranks;
    // Proportional split point (counts proportional to ranks each side).
    let split = idx.len() * left_ranks / ranks;
    let axis = widest_axis(bodies, idx);
    if split > 0 && split < idx.len() {
        idx.select_nth_unstable_by(split, |&a, &b| {
            bodies[a].pos[axis]
                .partial_cmp(&bodies[b].pos[axis])
                .expect("positions must not be NaN")
        });
    }
    let (left, right) = idx.split_at_mut(split);
    bisect(bodies, left, rank0, left_ranks, out);
    bisect(bodies, right, rank0 + left_ranks, right_ranks, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bodies(n: usize, seed: u64) -> Vec<Body> {
        let mut rng = tlb_rng::Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Body::at(
                    [
                        rng.range_f64(-1.0, 1.0),
                        rng.range_f64(-1.0, 1.0),
                        rng.range_f64(-1.0, 1.0),
                    ],
                    1.0,
                )
            })
            .collect()
    }

    fn counts(assign: &[usize], ranks: usize) -> Vec<usize> {
        let mut c = vec![0usize; ranks];
        for &r in assign {
            c[r] += 1;
        }
        c
    }

    #[test]
    fn counts_are_balanced_power_of_two() {
        let bodies = random_bodies(1024, 1);
        let assign = orb_partition(&bodies, 8);
        let c = counts(&assign, 8);
        assert_eq!(c, vec![128; 8]);
    }

    #[test]
    fn counts_are_balanced_odd_ranks() {
        let bodies = random_bodies(1000, 2);
        let assign = orb_partition(&bodies, 6);
        let c = counts(&assign, 6);
        let min = *c.iter().min().unwrap();
        let max = *c.iter().max().unwrap();
        assert!(max - min <= 2, "counts {c:?}");
        assert_eq!(c.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn single_rank_takes_all() {
        let bodies = random_bodies(10, 3);
        let assign = orb_partition(&bodies, 1);
        assert!(assign.iter().all(|&r| r == 0));
    }

    #[test]
    fn partitions_are_spatially_coherent() {
        // Bodies along the x-axis split by contiguous intervals.
        let bodies: Vec<Body> = (0..100)
            .map(|i| Body::at([i as f64, 0.0, 0.0], 1.0))
            .collect();
        let assign = orb_partition(&bodies, 4);
        // Sorted by x, rank labels must be non-decreasing after relabel:
        // each rank owns one contiguous interval.
        for w in assign.windows(2) {
            assert!(
                w[1] == w[0] || w[1] == w[0] + 1 || w[1] > w[0],
                "non-contiguous ORB split: {assign:?}"
            );
        }
        let c = counts(&assign, 4);
        assert_eq!(c, vec![25; 4]);
    }

    #[test]
    fn clustered_data_still_balances_counts() {
        // A dense cluster plus sparse outliers: ORB still equalises counts
        // (that is precisely its limitation vs work-based partitioning).
        let mut bodies = random_bodies(900, 4);
        for b in bodies.iter_mut().take(800) {
            for d in 0..3 {
                b.pos[d] *= 0.01; // dense core
            }
        }
        let assign = orb_partition(&bodies, 4);
        let c = counts(&assign, 4);
        let max = *c.iter().max().unwrap();
        let min = *c.iter().min().unwrap();
        assert!(max - min <= 2, "counts {c:?}");
    }
}
