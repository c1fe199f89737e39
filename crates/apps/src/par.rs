//! Deterministic parallel helpers shared by the application kernels.
//!
//! Every helper here produces *bitwise identical* results whether it runs
//! serially (`pool: None`) or on a [`Pool`] with any number of active
//! threads. The trick is that work is split into chunks whose boundaries
//! depend only on the problem size — never on the thread count — each
//! chunk's arithmetic is a fixed serial loop, and reductions combine the
//! per-chunk partials serially in chunk order. Threads only decide *who*
//! computes a chunk, not *what* or *in which order* partials combine.

use tlb_smprt::Pool;

/// Elements per reduction/update chunk. Large enough that the one dynamic
/// dispatch per chunk vanishes against ~4k fused multiply-adds; small
/// enough that typical CG state vectors (10⁴–10⁶ dofs) split into enough
/// chunks to feed 8 workers.
pub(crate) const CHUNK: usize = 4096;

/// A raw pointer the kernels send across threads for *disjoint* writes.
/// Safety rests with each call site: concurrent closures must write
/// non-overlapping indices, and the pointee must outlive the parallel
/// region (guaranteed because `Pool::parallel_for` blocks until done).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes closures capture the `Sync` wrapper itself — Rust
    /// 2021's disjoint capture would otherwise grab the bare `*mut T`.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `body(chunk_index)` for chunk indices `0..chunks`, on the pool if
/// one is given (one index per claim: each chunk is already coarse).
pub(crate) fn for_each_chunk(pool: Option<&Pool>, chunks: usize, body: impl Fn(usize) + Sync) {
    match pool {
        Some(p) if chunks > 1 => p.parallel_for(chunks, 1, body),
        _ => (0..chunks).for_each(body),
    }
}

/// Run `body(lo, hi)` over fixed [`CHUNK`]-sized ranges covering `0..n`.
pub(crate) fn for_each_range(pool: Option<&Pool>, n: usize, body: impl Fn(usize, usize) + Sync) {
    let chunks = n.div_ceil(CHUNK);
    for_each_chunk(pool, chunks, |c| {
        let lo = c * CHUNK;
        let hi = ((c + 1) * CHUNK).min(n);
        body(lo, hi);
    });
}

/// Deterministic dot product `a · b`: per-chunk serial partials, combined
/// serially in chunk order. The serial path runs the identical chunked
/// summation, so `None` and `Some(pool)` agree to the last bit.
pub(crate) fn det_dot(pool: Option<&Pool>, a: &[f64], b: &[f64]) -> f64 {
    let n = a.len();
    debug_assert_eq!(n, b.len());
    let chunks = n.div_ceil(CHUNK);
    let mut partials = vec![0.0f64; chunks];
    let pp = SendPtr::new(partials.as_mut_ptr());
    for_each_chunk(pool, chunks, |c| {
        let lo = c * CHUNK;
        let hi = ((c + 1) * CHUNK).min(n);
        let mut s = 0.0;
        for i in lo..hi {
            s += a[i] * b[i];
        }
        // SAFETY: each chunk index writes only its own partial slot, and
        // `partials` outlives the loop (parallel_for blocks until done).
        unsafe { *pp.get().add(c) = s };
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_dot_matches_serial_sum_closely() {
        let a: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..10_000).map(|i| (i as f64).cos()).collect();
        let serial: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let det = det_dot(None, &a, &b);
        assert!((det - serial).abs() < 1e-9 * serial.abs().max(1.0));
    }

    #[test]
    fn det_dot_bitwise_identical_across_thread_counts() {
        let a: Vec<f64> = (0..50_000).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b: Vec<f64> = (0..50_000).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let reference = det_dot(None, &a, &b);
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let got = det_dot(Some(&pool), &a, &b);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "dot differs at {threads} threads"
            );
        }
    }

    #[test]
    fn for_each_range_covers_exactly() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = CHUNK * 3 + 17;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = Pool::new(4);
        for_each_range(Some(&pool), n, |lo, hi| {
            for h in &hits[lo..hi] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
