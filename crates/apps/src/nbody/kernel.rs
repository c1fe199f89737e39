//! Barnes–Hut octree force computation.
//!
//! The force accumulation — one independent tree walk per body — can run
//! on a [`Pool`] via [`Octree::accelerations`]: each body writes only its
//! own acceleration slot, so the result is bitwise identical for any
//! thread count (no reductions cross body boundaries).

use crate::par::SendPtr;
use std::time::Instant;
use tlb_smprt::Pool;

/// Softening length avoiding singular pairwise forces.
const SOFTENING2: f64 = 1e-6;

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

#[derive(Clone, Debug)]
struct Node {
    centre: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    /// Index of the first of 8 children in the node pool, or `NONE`.
    children: usize,
    /// Body index for leaf nodes holding exactly one body.
    body: Option<usize>,
}

const NONE: usize = usize::MAX;

/// A Barnes–Hut octree over a set of bodies.
pub struct Octree {
    nodes: Vec<Node>,
    theta2: f64,
}

impl Octree {
    /// Build the tree with opening angle `theta` (typical: 0.5).
    pub fn build(bodies: &[Body], theta: f64) -> Self {
        assert!(theta > 0.0, "theta must be positive");
        // Bounding cube.
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for b in bodies {
            for d in 0..3 {
                lo[d] = lo[d].min(b.pos[d]);
                hi[d] = hi[d].max(b.pos[d]);
            }
        }
        let centre = [
            0.5 * (lo[0] + hi[0]),
            0.5 * (lo[1] + hi[1]),
            0.5 * (lo[2] + hi[2]),
        ];
        let half = (0..3).map(|d| (hi[d] - lo[d]) * 0.5).fold(1e-12, f64::max) * 1.0001;
        let mut tree = Octree {
            nodes: vec![Node {
                centre,
                half,
                mass: 0.0,
                com: [0.0; 3],
                children: NONE,
                body: None,
            }],
            theta2: theta * theta,
        };
        for (i, b) in bodies.iter().enumerate() {
            tree.insert(0, i, b, bodies, 0);
        }
        tree.summarise(0, bodies);
        tree
    }

    fn octant(centre: &[f64; 3], p: &[f64; 3]) -> usize {
        (usize::from(p[0] >= centre[0]))
            | (usize::from(p[1] >= centre[1]) << 1)
            | (usize::from(p[2] >= centre[2]) << 2)
    }

    fn child_centre(centre: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
        let q = half * 0.5;
        [
            centre[0] + if oct & 1 != 0 { q } else { -q },
            centre[1] + if oct & 2 != 0 { q } else { -q },
            centre[2] + if oct & 4 != 0 { q } else { -q },
        ]
    }

    fn split(&mut self, node: usize) {
        let (centre, half) = (self.nodes[node].centre, self.nodes[node].half);
        let first = self.nodes.len();
        for oct in 0..8 {
            self.nodes.push(Node {
                centre: Self::child_centre(&centre, half, oct),
                half: half * 0.5,
                mass: 0.0,
                com: [0.0; 3],
                children: NONE,
                body: None,
            });
        }
        self.nodes[node].children = first;
    }

    fn insert(&mut self, node: usize, idx: usize, b: &Body, bodies: &[Body], depth: usize) {
        // Identical positions would recurse forever; cap the depth and
        // let deep leaves hold one representative (mass is still summed
        // during summarise via the per-leaf body list semantics below).
        if self.nodes[node].children == NONE {
            match self.nodes[node].body {
                None => {
                    self.nodes[node].body = Some(idx);
                    return;
                }
                Some(existing) if depth < 64 => {
                    self.split(node);
                    let eb = bodies[existing];
                    self.nodes[node].body = None;
                    let oct_e = Self::octant(&self.nodes[node].centre, &eb.pos);
                    let child_e = self.nodes[node].children + oct_e;
                    self.insert(child_e, existing, &eb, bodies, depth + 1);
                }
                Some(_) => {
                    // Depth cap: drop into the same leaf (approximation
                    // for coincident points).
                    return;
                }
            }
        }
        let oct = Self::octant(&self.nodes[node].centre, &b.pos);
        let child = self.nodes[node].children + oct;
        self.insert(child, idx, b, bodies, depth + 1);
    }

    fn summarise(&mut self, node: usize, bodies: &[Body]) -> (f64, [f64; 3]) {
        let children = self.nodes[node].children;
        let (mass, com) = if children == NONE {
            match self.nodes[node].body {
                Some(i) => (bodies[i].mass, bodies[i].pos),
                None => (0.0, self.nodes[node].centre),
            }
        } else {
            let mut m = 0.0;
            let mut c = [0.0f64; 3];
            for oct in 0..8 {
                let (cm, cc) = self.summarise(children + oct, bodies);
                m += cm;
                for d in 0..3 {
                    c[d] += cm * cc[d];
                }
            }
            if m > 0.0 {
                for v in c.iter_mut() {
                    *v /= m;
                }
            } else {
                c = self.nodes[node].centre;
            }
            (m, c)
        };
        self.nodes[node].mass = mass;
        self.nodes[node].com = com;
        (mass, com)
    }

    /// Gravitational acceleration on a test position (G = 1), excluding
    /// the body at `skip` if given.
    pub fn acceleration(&self, pos: &[f64; 3], skip: Option<usize>) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        self.accumulate(0, pos, skip, &mut acc);
        acc
    }

    fn accumulate(&self, node: usize, pos: &[f64; 3], skip: Option<usize>, acc: &mut [f64; 3]) {
        let n = &self.nodes[node];
        if n.mass <= 0.0 {
            return;
        }
        let dx = [n.com[0] - pos[0], n.com[1] - pos[1], n.com[2] - pos[2]];
        let dist2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
        let width = 2.0 * n.half;
        let is_leaf = n.children == NONE;
        if is_leaf || width * width < self.theta2 * dist2 {
            if is_leaf && n.body == skip {
                return;
            }
            let r2 = dist2 + SOFTENING2;
            let inv_r3 = 1.0 / (r2 * r2.sqrt());
            for d in 0..3 {
                acc[d] += n.mass * dx[d] * inv_r3;
            }
            return;
        }
        for oct in 0..8 {
            self.accumulate(n.children + oct, pos, skip, acc);
        }
    }

    /// Accelerations for every body in `bodies` (each excluding itself),
    /// optionally spread over `pool`'s active workers. Each body's tree
    /// walk is independent and writes only its own output slot, so the
    /// result is identical to the serial loop for any thread count.
    pub fn accelerations(&self, bodies: &[Body], pool: Option<&Pool>) -> Vec<[f64; 3]> {
        let n = bodies.len();
        let mut acc = vec![[0.0f64; 3]; n];
        let ap = SendPtr::new(acc.as_mut_ptr());
        let one = |i: usize| {
            let a = self.acceleration(&bodies[i].pos, Some(i));
            // SAFETY: body `i` writes only slot `i`; `acc` outlives the
            // parallel region (parallel_for blocks until done).
            unsafe { *ap.get().add(i) = a };
        };
        match pool {
            // A tree walk costs microseconds; claim bodies a cacheline's
            // worth at a time to keep counter traffic negligible.
            Some(p) if n > 128 => p.parallel_for(n, 32, one),
            _ => (0..n).for_each(one),
        }
        acc
    }

    /// Number of tree nodes (for tests/benches).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total mass held by the tree root.
    pub fn total_mass(&self) -> f64 {
        self.nodes[0].mass
    }
}

/// Direct O(n²) accelerations — the reference for accuracy tests.
pub fn direct_accelerations(bodies: &[Body]) -> Vec<[f64; 3]> {
    let n = bodies.len();
    let mut acc = vec![[0.0f64; 3]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = [
                bodies[j].pos[0] - bodies[i].pos[0],
                bodies[j].pos[1] - bodies[i].pos[1],
                bodies[j].pos[2] - bodies[i].pos[2],
            ];
            let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + SOFTENING2;
            let inv_r3 = 1.0 / (r2 * r2.sqrt());
            for d in 0..3 {
                acc[i][d] += bodies[j].mass * dx[d] * inv_r3;
            }
        }
    }
    acc
}

/// Measure the host's Barnes–Hut cost per body per `log2(n)` — the
/// calibrated constant the cluster workload's cost model uses.
pub fn calibrate_force_cost(bodies: &[Body], theta: f64) -> f64 {
    let n = bodies.len().max(2);
    let start = Instant::now();
    let tree = Octree::build(bodies, theta);
    let mut sink = 0.0;
    for (i, b) in bodies.iter().enumerate() {
        let a = tree.acceleration(&b.pos, Some(i));
        sink += a[0];
    }
    std::hint::black_box(sink);
    let total = start.elapsed().as_secs_f64();
    total / (n as f64 * (n as f64).log2())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_bodies(n: usize, seed: u64) -> Vec<Body> {
        let mut rng = tlb_rng::Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Body {
                pos: [
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                    rng.range_f64(-1.0, 1.0),
                ],
                vel: [0.0; 3],
                mass: rng.range_f64(0.5, 2.0),
            })
            .collect()
    }

    #[test]
    fn tree_conserves_mass() {
        let bodies = random_bodies(500, 1);
        let tree = Octree::build(&bodies, 0.5);
        let total: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((tree.total_mass() - total).abs() < 1e-9 * total);
        assert!(tree.node_count() > 500 / 8);
    }

    #[test]
    fn two_bodies_attract_along_axis() {
        let bodies = vec![
            Body::at([-0.5, 0.0, 0.0], 1.0),
            Body::at([0.5, 0.0, 0.0], 1.0),
        ];
        let tree = Octree::build(&bodies, 0.5);
        let a0 = tree.acceleration(&bodies[0].pos, Some(0));
        assert!(a0[0] > 0.0, "no attraction towards the other body");
        assert!(a0[1].abs() < 1e-12 && a0[2].abs() < 1e-12);
        // Newton's third law (equal masses): symmetric magnitudes.
        let a1 = tree.acceleration(&bodies[1].pos, Some(1));
        assert!((a0[0] + a1[0]).abs() < 1e-12);
    }

    #[test]
    fn barnes_hut_matches_direct_for_small_theta() {
        let bodies = random_bodies(300, 2);
        let tree = Octree::build(&bodies, 0.2);
        let direct = direct_accelerations(&bodies);
        let mut worst = 0.0f64;
        for (i, b) in bodies.iter().enumerate() {
            let a = tree.acceleration(&b.pos, Some(i));
            let num: f64 = (0..3)
                .map(|d| (a[d] - direct[i][d]).powi(2))
                .sum::<f64>()
                .sqrt();
            let den: f64 = (0..3).map(|d| direct[i][d].powi(2)).sum::<f64>().sqrt();
            worst = worst.max(num / den.max(1e-9));
        }
        assert!(worst < 0.05, "worst relative force error {worst}");
    }

    #[test]
    fn theta_zero_limit_is_exact() {
        // With a tiny theta every interaction opens to leaves: exactly the
        // direct sum (same softening).
        let bodies = random_bodies(50, 3);
        let tree = Octree::build(&bodies, 1e-6);
        let direct = direct_accelerations(&bodies);
        for (i, b) in bodies.iter().enumerate() {
            let a = tree.acceleration(&b.pos, Some(i));
            for d in 0..3 {
                assert!(
                    (a[d] - direct[i][d]).abs() < 1e-9 * direct[i][d].abs().max(1.0),
                    "body {i} dim {d}: {} vs {}",
                    a[d],
                    direct[i][d]
                );
            }
        }
    }

    #[test]
    fn coincident_bodies_do_not_hang() {
        let mut bodies = random_bodies(10, 4);
        bodies.push(bodies[0]); // exact duplicate position
        let tree = Octree::build(&bodies, 0.5);
        assert!(tree.total_mass() > 0.0);
    }

    #[test]
    fn pool_accelerations_match_serial_bitwise() {
        let bodies = random_bodies(600, 9);
        let tree = Octree::build(&bodies, 0.5);
        let serial = tree.accelerations(&bodies, None);
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let parallel = tree.accelerations(&bodies, Some(&pool));
            for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                for d in 0..3 {
                    assert_eq!(
                        s[d].to_bits(),
                        p[d].to_bits(),
                        "{threads} threads, body {i} dim {d}: {} vs {}",
                        s[d],
                        p[d]
                    );
                }
            }
        }
    }

    #[test]
    fn calibration_is_positive() {
        let bodies = random_bodies(2000, 5);
        let c = calibrate_force_cost(&bodies, 0.5);
        assert!(c > 0.0 && c < 1.0);
    }
}
