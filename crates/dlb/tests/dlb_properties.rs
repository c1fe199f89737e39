//! Randomized tests: under arbitrary interleavings of acquire / release /
//! set_ownership / retire_process, the node never loses or duplicates a
//! core, never lets two processes use one core, and always converges when
//! drained.
//! Seeded `tlb-rng` loops stand in for proptest (no registry deps).

use tlb_dlb::{DlbEvent, NodeDlb, ProcId};
use tlb_rng::Rng;

fn check_global_invariants(node: &NodeDlb, procs: usize, holding: &[Vec<usize>]) {
    node.check_invariants().unwrap();
    // Each core owned by exactly one process; totals conserved.
    let total_owned: usize = (0..procs).map(|p| node.owned_count(ProcId(p))).sum();
    assert_eq!(total_owned, node.num_cores(), "ownership not conserved");
    // Users match our book-keeping.
    for (p, held) in holding.iter().enumerate() {
        assert_eq!(
            node.used_count(ProcId(p)),
            held.len(),
            "used_count mismatch for P{p}"
        );
        for &c in held {
            assert_eq!(node.core_state(c).user, Some(ProcId(p)));
        }
    }
    // No core used by two processes (holding lists are disjoint).
    let mut seen = vec![false; node.num_cores()];
    for held in holding {
        for &c in held {
            assert!(!seen[c], "core {c} held twice");
            seen[c] = true;
        }
    }
}

/// The core `acquire(p)` must hand out, by the scan over the per-core
/// records that `NodeDlb` answered with before it kept masks: the
/// lowest-index idle core owned by `p`, else (LeWI on) the lowest-index
/// idle core. The byte-pinned trace exports depend on lowest-index-first.
fn reference_acquire(node: &NodeDlb, p: ProcId, lewi: bool) -> Option<usize> {
    if node.is_retired(p) {
        return None;
    }
    let idle = |&c: &usize| node.core_state(c).user.is_none();
    (0..node.num_cores())
        .find(|c| idle(c) && node.core_state(*c).owner == p)
        .or_else(|| (0..node.num_cores()).find(idle).filter(|_| lewi))
}

/// The `(core, borrower)` reclaims a refused `acquire(p)` must post, by
/// the walk `NodeDlb` made before it kept `lent` masks: the busy cores
/// `p` owns (`owned & !idle`) in ascending order, less those `p` runs
/// itself and those reclaimed already.
fn reference_reclaims(node: &NodeDlb, p: ProcId) -> Vec<(usize, ProcId)> {
    (0..node.num_cores())
        .filter(|&c| node.core_state(c).owner == p)
        .filter_map(|c| {
            let s = node.core_state(c);
            let borrower = s.user.filter(|&u| u != p && !s.reclaim)?;
            Some((c, borrower))
        })
        .collect()
}

/// `acquire(p)`, held against [`reference_acquire`]; a refusal must post
/// exactly the [`reference_reclaims`], in order, and leave a reclaim on
/// every core of a living `p` that another process runs on. The node
/// must be recording.
fn checked_acquire(node: &mut NodeDlb, lewi: bool, p: usize, holding: &mut [Vec<usize>]) {
    let expected = reference_acquire(node, ProcId(p), lewi);
    let reclaims = reference_reclaims(node, ProcId(p));
    node.drain_events();
    let got = node.acquire(ProcId(p));
    assert_eq!(got, expected, "acquire(P{p})");
    let posted: Vec<(usize, ProcId)> = node
        .drain_events()
        .into_iter()
        .filter_map(|ev| match ev {
            DlbEvent::ReclaimPosted {
                core,
                owner,
                borrower,
            } => {
                assert_eq!(owner, ProcId(p), "reclaim posted for another owner");
                Some((core, borrower))
            }
            _ => None,
        })
        .collect();
    match got {
        Some(c) => {
            assert!(posted.is_empty(), "acquire(P{p}) succeeded and reclaimed");
            holding[p].push(c);
        }
        None if node.is_retired(ProcId(p)) => assert!(posted.is_empty()),
        None => {
            assert_eq!(posted, reclaims, "reclaims posted by refused acquire(P{p})");
            for c in 0..node.num_cores() {
                let s = node.core_state(c);
                if s.owner == ProcId(p) && s.user.is_some_and(|u| u != s.owner) {
                    assert!(
                        node.reclaim_pending(c),
                        "P{p} refused, core {c} not reclaimed"
                    );
                }
            }
        }
    }
}

/// Any interleaving of the four mutating operations, with LeWI on or off
/// (fixed at construction), on a one-word and a two-word node: `check_invariants` (which also
/// compares the cached counts and core masks, `lent` included, with a
/// fresh scan) holds after every step, and every `acquire` answers and
/// reclaims what the reference scans do.
#[test]
fn random_ops_preserve_invariants() {
    let root = Rng::seed_from_u64(0xD1B_0001);
    for case in 0..64u64 {
        let mut rng = root.split_u64(case);
        let cores = if case % 4 < 2 { 12usize } else { 70 };
        let mut live: Vec<usize> = (0..rng.range_usize(2, 5)).collect();
        let mut counts = vec![1usize; live.len()];
        counts[0] = cores - (live.len() - 1);
        let lewi = case % 2 == 0;
        let mut node = NodeDlb::with_counts(&counts, lewi);
        node.set_recording(true);
        // `holding[p]`: cores process `p` (living or retired) still runs on.
        let mut holding: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
        // The wide node starts nearly full, so that the steps below also
        // saturate it and lend out the cores of its second word.
        for _ in 12..cores {
            checked_acquire(&mut node, lewi, 0, &mut holding);
        }

        for step in 0..300 {
            match rng.range_u64(0, 9) {
                0..=3 => {
                    let p = rng.range_usize(0, holding.len());
                    checked_acquire(&mut node, lewi, p, &mut holding);
                }
                4..=6 => {
                    let p = rng.range_usize(0, holding.len());
                    if !holding[p].is_empty() {
                        let idx = rng.range_usize(0, holding[p].len());
                        let c = holding[p].swap_remove(idx);
                        node.release(ProcId(p), c).unwrap();
                    }
                }
                7 => {
                    // Random valid vector: ≥ 1 per living process, 0 for
                    // the retired ones.
                    let mut v = vec![0usize; holding.len()];
                    for &p in &live {
                        v[p] = 1;
                    }
                    for _ in 0..cores - live.len() {
                        v[live[rng.range_usize(0, live.len())]] += 1;
                    }
                    node.set_ownership(&v).unwrap();
                    assert_eq!(node.target_ownership(), v, "case {case} step {step}");
                }
                _ => {
                    if live.len() > 2 {
                        let p = live.swap_remove(rng.range_usize(0, live.len()));
                        node.retire_process(ProcId(p)).unwrap();
                    }
                }
            }
            check_global_invariants(&node, holding.len(), &holding);
            let busy: usize = holding.iter().map(Vec::len).sum();
            assert_eq!(node.busy_count(), busy, "case {case} step {step}");
        }

        // Drain: release everything, then the last ownership target must be
        // reachable (all transfers applied) and every core idle.
        for (p, held) in holding.iter_mut().enumerate() {
            for c in std::mem::take(held) {
                node.release(ProcId(p), c).unwrap();
            }
        }
        check_global_invariants(&node, holding.len(), &holding);
        let actual: Vec<usize> = (0..holding.len())
            .map(|p| node.owned_count(ProcId(p)))
            .collect();
        assert_eq!(
            actual,
            node.target_ownership(),
            "case {case}: deferred transfers not applied after drain"
        );
        assert_eq!(node.busy_count(), 0, "case {case}");
    }
}

/// With LeWI on and a single active process, it can always use every
/// core of the node (full-node utilisation of an imbalanced load).
#[test]
fn single_active_process_gets_whole_node() {
    for procs in 2usize..5 {
        let cores = 8usize;
        let mut counts = vec![1usize; procs];
        counts[0] = cores - (procs - 1);
        let mut node = NodeDlb::with_counts(&counts, true);
        let active = procs - 1; // the *smallest* owner borrows everything
        let mut got = 0;
        while node.acquire(ProcId(active)).is_some() {
            got += 1;
        }
        assert_eq!(got, cores);
        assert_eq!(node.used_count(ProcId(active)), cores);
    }
}
