//! A dynamic interval index: the data structure behind region-dependency
//! lookup.
//!
//! [`crate::TaskGraph`] must find, for every submitted task, all *active*
//! accesses whose region overlaps one of the new task's regions. A linear
//! scan is O(active) per access; this index is an augmented randomized
//! BST (treap keyed by region start, each node carrying the maximum
//! region end in its subtree), giving `O(log n)` insert/remove and
//! `O(log n + k)` overlap enumeration — the same asymptotics as Nanos6's
//! red-black interval structures.
//!
//! The treap's priorities come from a deterministic xorshift stream, so
//! graph construction stays reproducible.

use crate::DataRegion;

/// Handle to an inserted interval (stable until removed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct EntryId(usize);

struct Node<T> {
    region: DataRegion,
    value: T,
    /// Max `region.end()` within this subtree.
    max_end: usize,
    priority: u64,
    left: Option<usize>,
    right: Option<usize>,
    /// Distinguishes entries with equal starts and breaks BST ties.
    seq: u64,
}

/// A dynamic interval index over [`DataRegion`]s with attached values.
pub(crate) struct IntervalIndex<T> {
    nodes: Vec<Option<Node<T>>>,
    free: Vec<usize>,
    root: Option<usize>,
    rng_state: u64,
    next_seq: u64,
}

impl<T> IntervalIndex<T> {
    /// An empty index.
    pub fn new() -> Self {
        IntervalIndex {
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            rng_state: 0x853C_49E6_748F_EA9B,
            next_seq: 0,
        }
    }

    /// Remove every interval, keeping the allocations: afterwards the
    /// index behaves exactly as [`IntervalIndex::new`] does.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        *self = IntervalIndex {
            nodes: std::mem::take(&mut self.nodes),
            free: std::mem::take(&mut self.free),
            ..IntervalIndex::new()
        };
    }

    fn next_priority(&mut self) -> u64 {
        // xorshift64*: deterministic, well-mixed priorities.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn alloc(&mut self, node: Node<T>) -> usize {
        if let Some(i) = self.free.pop() {
            self.nodes[i] = Some(node);
            i
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn node(&self, i: usize) -> &Node<T> {
        self.nodes[i].as_ref().expect("live node")
    }

    fn node_mut(&mut self, i: usize) -> &mut Node<T> {
        self.nodes[i].as_mut().expect("live node")
    }

    fn subtree_max_end(&self, i: Option<usize>) -> usize {
        i.map_or(0, |i| self.node(i).max_end)
    }

    fn fixup(&mut self, i: usize) {
        let left = self.node(i).left;
        let right = self.node(i).right;
        let own = self.node(i).region.end();
        let m = own
            .max(self.subtree_max_end(left))
            .max(self.subtree_max_end(right));
        self.node_mut(i).max_end = m;
    }

    fn key(&self, i: usize) -> (usize, u64) {
        let n = self.node(i);
        (n.region.base(), n.seq)
    }

    /// Split subtree `t` into (< key, >= key) by (start, seq).
    fn split(&mut self, t: Option<usize>, key: (usize, u64)) -> (Option<usize>, Option<usize>) {
        let Some(i) = t else { return (None, None) };
        if self.key(i) < key {
            let right = self.node(i).right;
            let (l, r) = self.split(right, key);
            self.node_mut(i).right = l;
            self.fixup(i);
            (Some(i), r)
        } else {
            let left = self.node(i).left;
            let (l, r) = self.split(left, key);
            self.node_mut(i).left = r;
            self.fixup(i);
            (l, Some(i))
        }
    }

    fn merge(&mut self, a: Option<usize>, b: Option<usize>) -> Option<usize> {
        match (a, b) {
            (None, b) => b,
            (a, None) => a,
            (Some(x), Some(y)) => {
                if self.node(x).priority >= self.node(y).priority {
                    let right = self.node(x).right;
                    let merged = self.merge(right, Some(y));
                    self.node_mut(x).right = merged;
                    self.fixup(x);
                    Some(x)
                } else {
                    let left = self.node(y).left;
                    let merged = self.merge(Some(x), left);
                    self.node_mut(y).left = merged;
                    self.fixup(y);
                    Some(y)
                }
            }
        }
    }

    /// Insert an interval with its value; returns a removal handle.
    /// Empty regions are stored but never reported by overlap queries.
    pub fn insert(&mut self, region: DataRegion, value: T) -> EntryId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let priority = self.next_priority();
        let idx = self.alloc(Node {
            max_end: region.end(),
            region,
            value,
            priority,
            left: None,
            right: None,
            seq,
        });
        let (l, r) = self.split(self.root, (region.base(), seq));
        let lm = self.merge(l, Some(idx));
        self.root = self.merge(lm, r);
        EntryId(idx)
    }

    /// Remove a previously inserted interval.
    ///
    /// # Panics
    /// Panics if the handle was already removed.
    pub fn remove(&mut self, id: EntryId) -> T {
        let (base, seq) = {
            let n = self.nodes[id.0].as_ref().expect("entry already removed");
            (n.region.base(), n.seq)
        };
        // Split out exactly this node: [<key] [==key] [>key].
        let (l, mr) = self.split(self.root, (base, seq));
        let (m, r) = self.split(mr, (base, seq + 1));
        debug_assert_eq!(m, Some(id.0), "split isolated the wrong node");
        self.root = self.merge(l, r);
        let node = self.nodes[id.0].take().expect("entry already removed");
        self.free.push(id.0);
        node.value
    }

    /// Visit every stored interval overlapping `query` (in start order).
    pub fn for_each_overlap(&self, query: DataRegion, mut f: impl FnMut(&DataRegion, &T)) {
        if query.is_empty() {
            return;
        }
        self.visit(self.root, &query, &mut f);
    }

    fn visit(&self, t: Option<usize>, query: &DataRegion, f: &mut impl FnMut(&DataRegion, &T)) {
        let Some(i) = t else { return };
        let n = self.node(i);
        // Prune: nothing in this subtree reaches the query start.
        if n.max_end <= query.base() {
            return;
        }
        self.visit(n.left, query, f);
        if n.region.overlaps(query) {
            f(&n.region, &n.value);
        }
        // Right subtree only if starts can still precede the query end.
        if n.region.base() < query.end() {
            self.visit(n.right, query, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of every stored interval overlapping `query`, in
    /// start order.
    fn overlaps<T: Clone>(ix: &IntervalIndex<T>, query: DataRegion) -> Vec<T> {
        let mut out = Vec::new();
        ix.for_each_overlap(query, |_, v| out.push(v.clone()));
        out
    }

    /// Everything the tests store lies in `[0, 2000)`.
    const ALL: DataRegion = DataRegion::new(0, 2000);

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut ix = IntervalIndex::new();
        let a = ix.insert(DataRegion::new(0, 10), "a");
        let _b = ix.insert(DataRegion::new(20, 10), "b");
        let _c = ix.insert(DataRegion::new(5, 10), "c");
        assert_eq!(overlaps(&ix, ALL).len(), 3);
        let hits = overlaps(&ix, DataRegion::new(8, 4));
        assert_eq!(hits, vec!["a", "c"]);
        assert_eq!(ix.remove(a), "a");
        let hits = overlaps(&ix, DataRegion::new(8, 4));
        assert_eq!(hits, vec!["c"]);
        assert_eq!(overlaps(&ix, ALL).len(), 2);
    }

    #[test]
    fn empty_query_and_empty_entries() {
        let mut ix = IntervalIndex::new();
        ix.insert(DataRegion::new(5, 0), "empty");
        ix.insert(DataRegion::new(0, 10), "full");
        assert!(overlaps(&ix, DataRegion::new(5, 0)).is_empty());
        assert_eq!(overlaps(&ix, DataRegion::new(4, 2)), vec!["full"]);
    }

    #[test]
    fn duplicate_regions_coexist() {
        let mut ix = IntervalIndex::new();
        let r = DataRegion::new(100, 50);
        let ids: Vec<EntryId> = (0..10).map(|i| ix.insert(r, i)).collect();
        assert_eq!(overlaps(&ix, r).len(), 10);
        for (k, id) in ids.into_iter().enumerate() {
            assert_eq!(ix.remove(id), k);
        }
        assert!(overlaps(&ix, ALL).is_empty());
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_remove_panics() {
        let mut ix = IntervalIndex::new();
        let id = ix.insert(DataRegion::new(0, 4), ());
        ix.remove(id);
        ix.remove(id);
    }

    #[test]
    fn matches_linear_scan_on_random_workload() {
        // Deterministic pseudo-random insert/remove/query mix, checked
        // against a Vec-based oracle.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ix = IntervalIndex::new();
        let mut oracle: Vec<(DataRegion, u64, Option<EntryId>)> = Vec::new();
        for step in 0..3000u64 {
            match next() % 3 {
                0 | 1 => {
                    let base = (next() % 1000) as usize;
                    let len = (next() % 60) as usize;
                    let r = DataRegion::new(base, len);
                    let id = ix.insert(r, step);
                    oracle.push((r, step, Some(id)));
                }
                _ => {
                    let live: Vec<usize> = oracle
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.2.is_some())
                        .map(|(i, _)| i)
                        .collect();
                    if let Some(&pick) = live.get((next() as usize) % live.len().max(1)) {
                        let id = oracle[pick].2.take().unwrap();
                        assert_eq!(ix.remove(id), oracle[pick].1);
                    }
                }
            }
            if step % 50 == 0 {
                let q = DataRegion::new((next() % 1000) as usize, (next() % 100) as usize);
                let mut got: Vec<u64> = overlaps(&ix, q);
                got.sort_unstable();
                let mut want: Vec<u64> = oracle
                    .iter()
                    .filter(|(r, _, live)| live.is_some() && r.overlaps(&q))
                    .map(|(_, v, _)| *v)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "divergence at step {step} query {q:?}");
            }
        }
    }

    #[test]
    fn visit_order_is_by_start() {
        let mut ix = IntervalIndex::new();
        for &(b, l) in &[(50usize, 10usize), (10, 100), (30, 5), (0, 200)] {
            ix.insert(DataRegion::new(b, l), b);
        }
        let mut starts = Vec::new();
        ix.for_each_overlap(DataRegion::new(0, 300), |_, &v| starts.push(v));
        assert_eq!(starts, vec![0, 10, 30, 50]);
    }
}
