//! In-tree deterministic pseudo-random numbers.
//!
//! The workspace must build and test with no network access, so it carries
//! its own generator instead of depending on `rand`/`rand_chacha`. Two
//! classic, public-domain algorithms cover everything the simulator needs:
//!
//! * **SplitMix64** expands a 64-bit seed (or a label hash) into
//!   well-distributed state words, and is the only mixer used when deriving
//!   substreams;
//! * **Xoshiro256++** generates the actual streams: 256 bits of state, a
//!   period of 2²⁵⁶−1, and a few nanoseconds per draw — markedly cheaper
//!   than the ChaCha20 rounds the previous external dependency ran for
//!   every sample in the expander candidate search and the workload
//!   generators.
//!
//! # Stream splitting
//!
//! [`Rng::split`] and [`Rng::split_u64`] derive *independent substreams*
//! from a parent generator without consuming any of the parent's output:
//! the substream seed is a SplitMix64 mix of the parent's *root key* and
//! the label. Two guarantees follow:
//!
//! 1. **Reproducibility** — a substream depends only on the root seed and
//!    the label path that produced it, never on how many numbers any other
//!    stream drew. Task A's randomness cannot perturb task B's.
//! 2. **Distinctness** — distinct labels give distinct SplitMix64 inputs
//!    and therefore (with overwhelming probability) unrelated streams.
//!
//! This is what lets per-candidate expander searches and per-task workload
//! draws run in parallel while staying bitwise reproducible.

#![forbid(unsafe_code)]

/// SplitMix64 step: advance `state` and return the next mixed output.
/// The standard constants from Steele, Lea & Flood (2014).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string — stable label hashing for [`Rng::split`].
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic Xoshiro256++ stream seeded via SplitMix64.
///
/// Cloning copies the stream position; [`Rng::split`] derives an
/// *independent* substream instead (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
    /// Root key this stream was derived from; splitting mixes labels into
    /// this key rather than into the evolving state, so substreams do not
    /// depend on the parent's position.
    key: u64,
}

impl Rng {
    /// Seed a stream from a 64-bit value (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // All-zero state is the one invalid Xoshiro state; SplitMix64
        // cannot produce four zero outputs in a row, but keep the guard
        // explicit for hand-rolled constructions.
        debug_assert!(s.iter().any(|&w| w != 0));
        Rng { s, key: seed }
    }

    /// The root key this stream (or its ancestors) was seeded with.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Derive the substream for a string label. Does not consume parent
    /// output; the same `(root seed, label)` pair always yields the same
    /// stream.
    pub fn split(&self, label: &str) -> Rng {
        self.split_u64(fnv1a(label.as_bytes()))
    }

    /// Derive the substream for a numeric label (e.g. a candidate or task
    /// index). `split_u64(a) != split_u64(b)` streams for `a != b`.
    pub fn split_u64(&self, label: u64) -> Rng {
        // Mix key and label through two SplitMix64 steps so that
        // (key, label) and (key', label') collide only if the full mixed
        // 64-bit seeds collide.
        let mut sm = self.key;
        let k1 = splitmix64(&mut sm);
        let mut sm2 = k1 ^ label;
        let derived = splitmix64(&mut sm2);
        Rng::seed_from_u64(derived)
    }

    /// Next 64 uniformly random bits (Xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi` or the bounds are not
    /// finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && lo.is_finite() && hi.is_finite(), "bad range");
        lo + (hi - lo) * self.f64_unit()
    }

    /// Uniform integer in `[0, bound)` by rejection sampling (unbiased).
    /// Panics if `bound == 0`.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Reject the final partial block so every residue is equally
        // likely.
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "bad range");
        lo + self.u64_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`. Panics if `lo >= hi`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.u64_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` for an empty slice.
    pub fn pick<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.u64_below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn split_is_independent_of_parent_position() {
        let parent_fresh = Rng::seed_from_u64(7);
        let mut parent_used = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            parent_used.next_u64();
        }
        let mut s1 = parent_fresh.split("task");
        let mut s2 = parent_used.split("task");
        for _ in 0..32 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn distinct_labels_distinct_streams() {
        let root = Rng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let mut s = root.split_u64(i);
            assert!(seen.insert(s.next_u64()), "stream collision at label {i}");
        }
        let mut a = root.split("alpha");
        let mut b = root.split("beta");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn nested_splits_differ() {
        let root = Rng::seed_from_u64(9);
        let mut aa = root.split("a").split("a");
        let mut ab = root.split("a").split("b");
        let mut ba = root.split("b").split("a");
        let x = aa.next_u64();
        assert_ne!(x, ab.next_u64());
        assert_ne!(x, ba.next_u64());
    }

    #[test]
    fn unit_floats_in_range_and_uniform_ish() {
        let mut rng = Rng::seed_from_u64(3);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64_unit();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_f64_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        for _ in 0..1000 {
            let v = rng.range_f64(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&v));
        }
    }

    #[test]
    fn u64_below_unbiased_small_bound() {
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.u64_below(3) as usize] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn range_usize_covers_all_values() {
        let mut rng = Rng::seed_from_u64(6);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.range_usize(0, 5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the identity (astronomically unlikely)"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::seed_from_u64(12);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn pick_empty_and_nonempty() {
        let mut rng = Rng::seed_from_u64(13);
        assert_eq!(rng.pick::<u8>(&[]), None);
        let v = [10, 20, 30];
        assert!(v.contains(rng.pick(&v).unwrap()));
    }
}
