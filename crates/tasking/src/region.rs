//! Regions of the common virtual address space.

use std::fmt;

/// A half-open byte range `[base, base + len)` in the cluster-wide common
/// virtual address space.
///
/// OmpSs-2@Cluster keeps the same virtual memory layout on every node of an
/// apprank's worker set, so a region identifies the same logical data
/// everywhere — no address translation (paper §3.2). Zero-length regions
/// are permitted and overlap nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataRegion {
    base: usize,
    len: usize,
}

impl DataRegion {
    /// Region starting at `base` covering `len` bytes.
    pub const fn new(base: usize, len: usize) -> Self {
        DataRegion { base, len }
    }

    /// Start address.
    pub const fn base(&self) -> usize {
        self.base
    }

    /// Length in bytes.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the region covers no bytes.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One-past-the-end address.
    pub const fn end(&self) -> usize {
        self.base + self.len
    }

    /// Whether two regions share at least one byte. Empty regions overlap
    /// nothing (and so never create dependencies).
    pub const fn overlaps(&self, other: &DataRegion) -> bool {
        self.len > 0 && other.len > 0 && self.base < other.end() && other.base < self.end()
    }

    /// Whether `other` lies fully inside `self`.
    pub const fn contains(&self, other: &DataRegion) -> bool {
        other.base >= self.base && other.end() <= self.end()
    }

    /// The overlapping byte range, if any.
    pub fn intersection(&self, other: &DataRegion) -> Option<DataRegion> {
        let base = self.base.max(other.base);
        let end = self.end().min(other.end());
        (end > base).then(|| DataRegion::new(base, end - base))
    }

    /// Split into `parts` contiguous chunks (last chunk takes the
    /// remainder); used by workloads to block their arrays into task
    /// accesses.
    pub fn chunks(&self, parts: usize) -> Vec<DataRegion> {
        assert!(parts > 0, "cannot split into zero chunks");
        let per = self.len / parts;
        (0..parts)
            .map(|i| {
                let base = self.base + i * per;
                let len = if i == parts - 1 {
                    self.end() - base
                } else {
                    per
                };
                DataRegion::new(base, len)
            })
            .collect()
    }
}

impl fmt::Debug for DataRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.base, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_basic() {
        let a = DataRegion::new(0, 10);
        let b = DataRegion::new(5, 10);
        let c = DataRegion::new(10, 5);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c)); // half-open: [0,10) and [10,15) disjoint
        assert!(b.overlaps(&c));
    }

    #[test]
    fn zero_length_overlaps_nothing() {
        let z = DataRegion::new(5, 0);
        let a = DataRegion::new(0, 10);
        assert!(!z.overlaps(&a));
        assert!(!a.overlaps(&z));
        assert!(z.is_empty());
    }

    #[test]
    fn containment_and_intersection() {
        let a = DataRegion::new(0, 100);
        let b = DataRegion::new(10, 20);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert_eq!(a.intersection(&b), Some(b));
        let c = DataRegion::new(90, 20);
        assert_eq!(a.intersection(&c), Some(DataRegion::new(90, 10)));
        assert_eq!(
            DataRegion::new(0, 5).intersection(&DataRegion::new(5, 5)),
            None
        );
    }

    #[test]
    fn chunks_partition_exactly() {
        let r = DataRegion::new(100, 103);
        let parts = r.chunks(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], DataRegion::new(100, 25));
        assert_eq!(parts[3], DataRegion::new(175, 28)); // remainder
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 103);
    }

    // Seeded randomized properties (in-tree `tlb-rng` instead of proptest:
    // the workspace carries no registry dependencies).

    #[test]
    fn overlap_symmetric_and_iff_intersection() {
        let mut rng = tlb_rng::Rng::seed_from_u64(0x7261_6E64_0001);
        for _ in 0..2000 {
            let a = DataRegion::new(rng.range_usize(0, 1000), rng.range_usize(0, 100));
            let b = DataRegion::new(rng.range_usize(0, 1000), rng.range_usize(0, 100));
            assert_eq!(a.overlaps(&b), b.overlaps(&a), "{a:?} vs {b:?}");
            assert_eq!(
                a.overlaps(&b),
                a.intersection(&b).is_some(),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn intersection_contained_in_both() {
        let mut rng = tlb_rng::Rng::seed_from_u64(0x7261_6E64_0002);
        for _ in 0..2000 {
            let a = DataRegion::new(rng.range_usize(0, 1000), rng.range_usize(1, 100));
            let b = DataRegion::new(rng.range_usize(0, 1000), rng.range_usize(1, 100));
            if let Some(i) = a.intersection(&b) {
                assert!(a.contains(&i), "{a:?} ∩ {b:?} = {i:?}");
                assert!(b.contains(&i), "{a:?} ∩ {b:?} = {i:?}");
            }
        }
    }

    #[test]
    fn chunks_are_disjoint_and_cover() {
        let mut rng = tlb_rng::Rng::seed_from_u64(0x7261_6E64_0003);
        for _ in 0..2000 {
            let base = rng.range_usize(0, 1000);
            let len = rng.range_usize(1, 500);
            let parts = rng.range_usize(1, 10);
            let r = DataRegion::new(base, len);
            let cs = r.chunks(parts);
            assert_eq!(cs.iter().map(|c| c.len()).sum::<usize>(), len);
            for w in cs.windows(2) {
                assert_eq!(w[0].end(), w[1].base());
            }
            assert_eq!(cs[0].base(), base);
            assert_eq!(cs.last().unwrap().end(), r.end());
        }
    }
}
