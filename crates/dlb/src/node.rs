//! Per-node core ownership/lending state machine (LeWI + DROM).

use std::fmt;

/// A worker process on the node (apprank main process or helper rank).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Errors from DLB operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlbError {
    /// Ownership counts do not sum to the node's core count.
    BadOwnershipSum { got: usize, cores: usize },
    /// A process would own zero cores (below the DLB minimum).
    BelowMinimum(ProcId),
    /// Release of a core the process is not using.
    NotUser { proc: ProcId, core: usize },
    /// Operation targeted a retired (dead) process.
    Retired(ProcId),
    /// Retiring a process would leave its cores without a living owner.
    NoSurvivor,
}

impl fmt::Display for DlbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlbError::BadOwnershipSum { got, cores } => {
                write!(f, "ownership counts sum to {got}, node has {cores} cores")
            }
            DlbError::BelowMinimum(p) => write!(f, "process {p:?} would own zero cores"),
            DlbError::NotUser { proc, core } => {
                write!(f, "process {proc:?} does not hold core {core}")
            }
            DlbError::Retired(p) => write!(f, "process {p:?} is retired"),
            DlbError::NoSurvivor => {
                write!(f, "no living process remains to take over the cores")
            }
        }
    }
}

impl std::error::Error for DlbError {}

/// Externally visible state of one core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreState {
    /// Current owner.
    pub owner: ProcId,
    /// Process running a task on the core, if any.
    pub user: Option<ProcId>,
    /// Owner has requested the core back from a borrower.
    pub reclaim: bool,
    /// DROM ownership transfer deferred until the core is released.
    pub transfer_to: Option<ProcId>,
}

#[derive(Clone, Debug)]
struct Core {
    owner: ProcId,
    user: Option<ProcId>,
    reclaim: bool,
    transfer_to: Option<ProcId>,
}

impl Core {
    /// The owner once a deferred transfer lands.
    fn eff_owner(&self) -> ProcId {
        self.transfer_to.unwrap_or(self.owner)
    }
}

/// One observable DLB state transition, buffered for tracing.
///
/// `NodeDlb` knows nothing about virtual time or trace streams; it just
/// appends transitions (when recording is on) and the simulation drains
/// them with [`NodeDlb::drain_events`], attaching timestamps itself,
/// which keeps `tlb-dlb` dependency-free.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlbEvent {
    /// LeWI: `proc` borrowed idle `core` lent by `owner`.
    Borrowed {
        proc: ProcId,
        core: usize,
        owner: ProcId,
    },
    /// LeWI: `owner` posted a reclaim on `core`, used by `borrower`.
    ReclaimPosted {
        core: usize,
        owner: ProcId,
        borrower: ProcId,
    },
    /// DROM: deferred transfer of `core` from `from` to `to` applied at
    /// release.
    TransferApplied {
        core: usize,
        from: ProcId,
        to: ProcId,
    },
    /// DROM: ownership transaction targeting `counts[p]` cores per proc.
    OwnershipSet { counts: Vec<usize> },
}

/// What the node keeps counted per process, so that the questions asked
/// on every task start and end are array reads (real DLB reads them from
/// counters in shared memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct ProcCounts {
    /// Cores the process owns.
    owned: usize,
    /// Cores the process is running on (own or borrowed).
    used: usize,
}

/// Zero `counts` and recount it from `cores`; returns the busy-core total.
fn count_cores(cores: &[Core], counts: &mut [ProcCounts]) -> usize {
    counts.fill(ProcCounts::default());
    let mut busy = 0;
    for c in cores {
        counts[c.owner.0].owned += 1;
        if let Some(u) = c.user {
            counts[u.0].used += 1;
            busy += 1;
        }
    }
    busy
}

/// Word and bit of `core` in a core mask.
fn bit(core: usize) -> (usize, u64) {
    (core / 64, 1 << (core % 64))
}

/// Lowest core whose bit is set in a mask given word by word.
fn lowest_core(mask: impl Iterator<Item = u64>) -> Option<usize> {
    mask.enumerate()
        .find(|&(_, word)| word != 0)
        .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
}

/// The `idle` mask, and the `procs` `owned` and `lent` masks (one after
/// another), that `cores` imply.
fn core_masks(cores: &[Core], procs: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let words = cores.len().div_ceil(64);
    let mut idle = vec![0; words];
    let (mut owned, mut lent) = (vec![0; procs * words], vec![0; procs * words]);
    for (i, c) in cores.iter().enumerate() {
        let (w, b) = bit(i);
        let at = c.owner.0 * words + w;
        owned[at] |= b;
        match c.user {
            None => idle[w] |= b,
            Some(u) if u != c.owner && !c.reclaim => lent[at] |= b,
            Some(_) => {}
        }
    }
    (idle, owned, lent)
}

/// DLB state for the cores of one node.
///
/// Beside the per-core records the node keeps what real DLB keeps in
/// shared memory: counts per process and CPU masks (`u64` words, one on a
/// 48-core node). [`owned_count`](NodeDlb::owned_count),
/// [`used_count`](NodeDlb::used_count) and
/// [`busy_count`](NodeDlb::busy_count) are array reads. `acquire` finds
/// its core with a word operation — the lowest set bit of `idle & owned`,
/// then of `idle` — and a refused `acquire` posts its reclaims on exactly
/// the set bits of the process's `lent` mask, in ascending order, not on
/// every busy core it owns (80,782 instead of 1,476,291 cores on the
/// 32-node benchmark run). A borrow sets a `lent` bit; the reclaim walk
/// and `release` clear it. `release` is O(1). Both flip the bits and
/// counts as they flip a core's user or owner. The ownership
/// transactions (`set_ownership`, `add_process`, `retire_process`) are
/// rare, stay O(procs × cores) and rebuild counts and masks from the
/// cores when they finish.
#[derive(Clone, Debug)]
pub struct NodeDlb {
    cores: Vec<Core>,
    /// Per-process counts, at least `num_procs` long.
    counts: Vec<ProcCounts>,
    /// Cores in use by any process.
    busy: usize,
    /// Mask of the cores nobody is using.
    idle: Vec<u64>,
    /// Per-process masks of the cores owned, `idle.len()` words each, for
    /// every process `recount` last saw (which covers every owner).
    owned: Vec<u64>,
    /// Per-process masks, laid out like `owned`, of the cores owned that
    /// another process uses and that carry no reclaim yet.
    lent: Vec<u64>,
    /// LeWI lending, fixed at construction.
    lewi: bool,
    num_procs: usize,
    /// `retired[p]`: process `p` is dead. Retired processes own no cores
    /// (once pending transfers drain), cannot acquire, and are the only
    /// processes allowed a zero count in [`NodeDlb::set_ownership`].
    retired: Vec<bool>,
    record: bool,
    events: Vec<DlbEvent>,
}

impl NodeDlb {
    /// A node whose `i`-th core is initially owned by `initial_owner[i]`.
    /// `lewi` enables lending of idle cores between processes.
    pub fn new(cores: usize, initial_owner: &[ProcId], lewi: bool) -> Self {
        assert_eq!(cores, initial_owner.len(), "owner per core required");
        assert!(cores > 0, "node must have cores");
        let num_procs = initial_owner.iter().map(|p| p.0).max().unwrap_or(0) + 1;
        let mut node = NodeDlb {
            cores: initial_owner
                .iter()
                .map(|&owner| Core {
                    owner,
                    user: None,
                    reclaim: false,
                    transfer_to: None,
                })
                .collect(),
            counts: Vec::new(),
            busy: 0,
            idle: Vec::new(),
            owned: Vec::new(),
            lent: Vec::new(),
            lewi,
            num_procs,
            retired: vec![false; num_procs],
            record: false,
            events: Vec::new(),
        };
        node.recount();
        node
    }

    /// Rebuild the cached counts and masks from the cores, after an
    /// ownership transaction (which may also have added processes).
    fn recount(&mut self) {
        let procs = self.num_procs.max(self.counts.len());
        self.counts.resize(procs, ProcCounts::default());
        self.busy = count_cores(&self.cores, &mut self.counts);
        (self.idle, self.owned, self.lent) = core_masks(&self.cores, procs);
    }

    /// Word `w` of the mask of cores `proc` owns (a process the node has
    /// never counted owns none).
    fn owned_word(&self, proc: ProcId, w: usize) -> u64 {
        let at = proc.0 * self.idle.len() + w;
        self.owned.get(at).copied().unwrap_or(0)
    }

    /// Enable/disable transition recording (off by default; enabling it
    /// is the only way [`NodeDlb::drain_events`] ever returns anything).
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
        if !on {
            self.events.clear();
        }
    }

    /// Take all buffered transitions, in the order they occurred.
    pub fn drain_events(&mut self) -> Vec<DlbEvent> {
        std::mem::take(&mut self.events)
    }

    fn log(&mut self, ev: DlbEvent) {
        if self.record {
            self.events.push(ev);
        }
    }

    /// Convenience: build the paper's initial layout — each process owns
    /// `counts[p]` cores, contiguously.
    pub fn with_counts(counts: &[usize], lewi: bool) -> Self {
        let total: usize = counts.iter().sum();
        let mut owner = Vec::with_capacity(total);
        for (p, &c) in counts.iter().enumerate() {
            owner.extend(std::iter::repeat_n(ProcId(p), c));
        }
        NodeDlb::new(total, &owner, lewi)
    }

    /// Number of cores on the node.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Snapshot of one core's state.
    pub fn core_state(&self, core: usize) -> CoreState {
        let c = &self.cores[core];
        CoreState {
            owner: c.owner,
            user: c.user,
            reclaim: c.reclaim,
            transfer_to: c.transfer_to,
        }
    }

    /// Cores owned by `proc` (DROM ownership, regardless of current user).
    pub fn owned_count(&self, proc: ProcId) -> usize {
        self.counts.get(proc.0).map_or(0, |c| c.owned)
    }

    /// Cores currently being used by `proc` (own or borrowed).
    pub fn used_count(&self, proc: ProcId) -> usize {
        self.counts.get(proc.0).map_or(0, |c| c.used)
    }

    /// Cores in use by any process.
    pub fn busy_count(&self) -> usize {
        self.busy
    }

    /// Whether `core` is in use by a process other than its owner.
    pub fn is_borrowed(&self, core: usize) -> bool {
        let c = &self.cores[core];
        c.user.is_some_and(|u| u != c.owner)
    }

    /// Whether the owner has posted a reclaim for `core`.
    pub fn reclaim_pending(&self, core: usize) -> bool {
        self.cores[core].reclaim
    }

    /// Try to obtain a core for `proc` to run a task on.
    ///
    /// Search order: (1) an idle core owned by `proc`; (2) with LeWI, an
    /// idle core owned by someone else (a *borrow*). If nothing is free,
    /// posts a reclaim on every core `proc` owns that is currently
    /// borrowed, so they come home as soon as their tasks finish, and
    /// returns `None`.
    pub fn acquire(&mut self, proc: ProcId) -> Option<usize> {
        // A retired process never starts anything new (fail-stop).
        if self.is_retired(proc) {
            return None;
        }
        // On a saturated node no core is idle, so neither search can succeed.
        if self.busy < self.cores.len() {
            // (1) idle own core.
            let own = (0..self.idle.len()).map(|w| self.idle[w] & self.owned_word(proc, w));
            if let Some(i) = lowest_core(own) {
                self.start_on(proc, i);
                return Some(i);
            }
            // (2) borrow an idle foreign core. Every idle core qualifies:
            // none carries a reclaim or a deferred transfer (`release`
            // clears both; `check_invariants` rejects either).
            if self.lewi {
                if let Some(i) = lowest_core(self.idle.iter().copied()) {
                    self.start_on(proc, i);
                    let owner = self.cores[i].owner;
                    let (w, b) = bit(i);
                    self.lent[owner.0 * self.idle.len() + w] |= b;
                    self.log(DlbEvent::Borrowed {
                        proc,
                        core: i,
                        owner,
                    });
                    return Some(i);
                }
            }
        }
        // Nothing free: reclaim our lent-out cores.
        let words = self.idle.len();
        for w in 0..words {
            let Some(word) = self.lent.get_mut(proc.0 * words + w) else {
                break; // a process the node has never counted lends nothing
            };
            let mut lent = std::mem::take(word);
            while lent != 0 {
                let core = w * 64 + lent.trailing_zeros() as usize;
                lent &= lent - 1;
                let c = &mut self.cores[core];
                c.reclaim = true;
                if let Some(borrower) = c.user {
                    self.log(DlbEvent::ReclaimPosted {
                        core,
                        owner: proc,
                        borrower,
                    });
                }
            }
        }
        None
    }

    /// Put `proc` on idle `core` (a process the node has not seen before
    /// may borrow, so the count table grows on demand).
    fn start_on(&mut self, proc: ProcId, core: usize) {
        self.cores[core].user = Some(proc);
        let (w, b) = bit(core);
        self.idle[w] &= !b;
        if proc.0 >= self.counts.len() {
            self.counts.resize(proc.0 + 1, ProcCounts::default());
        }
        self.counts[proc.0].used += 1;
        self.busy += 1;
    }

    /// Release a core after a task finishes. Applies any deferred DROM
    /// ownership transfer; clears reclaim if the core returned home.
    pub fn release(&mut self, proc: ProcId, core: usize) -> Result<(), DlbError> {
        let c = &mut self.cores[core];
        if c.user != Some(proc) {
            return Err(DlbError::NotUser { proc, core });
        }
        c.user = None;
        let (w, b) = bit(core);
        let words = self.idle.len();
        self.idle[w] |= b;
        self.lent[c.owner.0 * words + w] &= !b;
        self.counts[proc.0].used -= 1;
        self.busy -= 1;
        if let Some(to) = c.transfer_to.take() {
            let from = c.owner;
            c.owner = to;
            c.reclaim = false;
            self.counts[from.0].owned -= 1;
            self.counts[to.0].owned += 1;
            self.owned[from.0 * words + w] &= !b;
            self.owned[to.0 * words + w] |= b;
            self.log(DlbEvent::TransferApplied { core, from, to });
        } else if c.reclaim {
            // The borrower returned it; it is now an idle owned core.
            c.reclaim = false;
        }
        Ok(())
    }

    /// A core `donor` effectively owns, the lowest idle one first, else
    /// the lowest busy one.
    fn pick_core(&self, donor: ProcId) -> Option<usize> {
        let owned_by = |c: &Core| c.eff_owner() == donor;
        let idle = self
            .cores
            .iter()
            .position(|c| owned_by(c) && c.user.is_none());
        idle.or_else(|| self.cores.iter().position(owned_by))
    }

    /// Give core `i` to `to`: at once if the core is idle or `to` already
    /// runs on it, else when the core is released. A transfer routed back
    /// to the core's current owner (a second DROM pass may do that)
    /// cancels the pending one rather than recording a self-transfer.
    /// The caller recounts.
    fn move_core(&mut self, i: usize, to: ProcId) {
        let c = &mut self.cores[i];
        if c.user.is_none() || c.user == Some(to) {
            c.owner = to;
            c.transfer_to = None;
            c.reclaim = false;
        } else {
            c.transfer_to = (to != c.owner).then_some(to);
        }
    }

    /// DROM: reassign ownership so that process `p` owns `counts[p]` cores.
    ///
    /// Counts must sum to the core total and be ≥ 1 for every process that
    /// appears on the node (the DLB minimum). Transfers prefer idle cores
    /// (ownership moves immediately); busy cores transfer when released;
    /// a busy core already used by its future owner transfers immediately.
    pub fn set_ownership(&mut self, counts: &[usize]) -> Result<(), DlbError> {
        let total: usize = counts.iter().sum();
        if total != self.cores.len() {
            return Err(DlbError::BadOwnershipSum {
                got: total,
                cores: self.cores.len(),
            });
        }
        // The DLB minimum of one core applies only to living processes;
        // retired processes must be at zero (they own nothing).
        for (p, &c) in counts.iter().enumerate() {
            let retired = self.retired.get(p).copied().unwrap_or(false);
            if c == 0 && !retired {
                return Err(DlbError::BelowMinimum(ProcId(p)));
            }
            if c > 0 && retired {
                return Err(DlbError::Retired(ProcId(p)));
            }
        }
        self.num_procs = self.num_procs.max(counts.len());
        self.retired.resize(self.num_procs, false);

        // Effective current ownership counting pending transfers as done
        // (`num_procs >= counts.len()` entries; `zip` reads the first).
        let have = self.target_ownership();
        // Donors give, receivers take, one core at a time (deterministic:
        // lowest core index first, idle cores preferred).
        let mut need: Vec<isize> = counts
            .iter()
            .zip(&have)
            .map(|(&want, &h)| want as isize - h as isize)
            .collect();

        for recv in 0..counts.len() {
            while need[recv] > 0 {
                // Find a donor with surplus.
                let Some(donor) = need.iter().position(|&n| n < 0) else {
                    break;
                };
                let Some(i) = self.pick_core(ProcId(donor)) else {
                    break;
                };
                self.move_core(i, ProcId(recv));
                need[donor] += 1; // donor gave one (need moves toward 0)
                need[recv] -= 1;
            }
        }
        self.recount();
        self.log(DlbEvent::OwnershipSet {
            counts: counts.to_vec(),
        });
        Ok(())
    }

    /// Register a new worker process on the node (dynamic helper-rank
    /// spawning, the paper's §5.2 future-work extension). The process
    /// immediately owns one core — the DLB minimum — taken from the
    /// current largest owner (an idle core if possible, otherwise a
    /// deferred transfer). Returns the new process id.
    ///
    /// # Panics
    /// Panics if every core already belongs to a distinct process (no
    /// donor can spare a core without dropping below its own floor).
    pub fn add_process(&mut self) -> ProcId {
        let new = ProcId(self.num_procs);
        self.num_procs += 1;
        self.retired.resize(self.num_procs, false);
        // Donor: the process owning the most cores (ties → highest id).
        let counts = self.target_ownership();
        let donor = ProcId(
            (0..self.num_procs)
                .max_by_key(|&p| counts[p])
                .expect("at least one process"),
        );
        assert!(
            counts[donor.0] >= 2,
            "no process can spare a core for a new worker"
        );
        let pick = self.pick_core(donor).expect("donor owns a core");
        self.move_core(pick, new);
        self.recount();
        new
    }

    /// Whether `proc` has been retired via [`NodeDlb::retire_process`].
    pub fn is_retired(&self, proc: ProcId) -> bool {
        self.retired.get(proc.0).copied().unwrap_or(false)
    }

    /// Retire a dead worker process: every core it (effectively) owns is
    /// handed to the living process with the fewest cores (ties → lowest
    /// id). Idle cores move immediately; cores still running the dead
    /// process's final task transfer when released (fail-stop after the
    /// current task). Returns the number of cores reassigned.
    ///
    /// Cores the process merely *borrowed* stay with their owners; its
    /// posted reclaims become moot once the transfer lands.
    pub fn retire_process(&mut self, proc: ProcId) -> Result<usize, DlbError> {
        if proc.0 >= self.num_procs {
            return Err(DlbError::Retired(proc)); // unknown proc: treat as gone
        }
        if self.is_retired(proc) {
            return Err(DlbError::Retired(proc));
        }
        self.retired.resize(self.num_procs, false);
        if !(0..self.num_procs).any(|p| p != proc.0 && !self.retired[p]) {
            return Err(DlbError::NoSurvivor);
        }
        self.retired[proc.0] = true;
        // Effective ownership of every living process, for receiver choice.
        let mut have = self.target_ownership();
        let mut moved = 0usize;
        for i in 0..self.cores.len() {
            if self.cores[i].eff_owner() != proc {
                continue;
            }
            let recv = (0..self.num_procs)
                .filter(|&p| !self.retired[p])
                .min_by_key(|&p| (have[p], p))
                .ok_or(DlbError::NoSurvivor)?;
            have[recv] += 1;
            moved += 1;
            // A busy core (the dead process's final task, or a borrower)
            // transfers on release, like any DROM transfer.
            self.move_core(i, ProcId(recv));
        }
        self.recount();
        self.log(DlbEvent::OwnershipSet {
            counts: self.target_ownership(),
        });
        Ok(moved)
    }

    /// Ownership per process, counting deferred transfers as complete
    /// (i.e. the DROM target state).
    pub fn target_ownership(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_procs];
        for c in &self.cores {
            let p = c.eff_owner().0;
            if p >= counts.len() {
                counts.resize(p + 1, 0);
            }
            counts[p] += 1;
        }
        counts
    }

    /// Check internal invariants; used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, c) in self.cores.iter().enumerate() {
            if c.reclaim && c.user.is_none() {
                return Err(format!("core {i}: reclaim pending on idle core"));
            }
            if c.reclaim && c.user == Some(c.owner) {
                return Err(format!("core {i}: reclaim pending while owner runs"));
            }
            if let Some(to) = c.transfer_to {
                if to == c.owner {
                    return Err(format!("core {i}: self-transfer"));
                }
                if c.user.is_none() {
                    return Err(format!("core {i}: deferred transfer on idle core"));
                }
            }
            let eff = c.eff_owner();
            if self.is_retired(eff) {
                return Err(format!("core {i}: effectively owned by retired {eff:?}"));
            }
        }
        // The cached counts are exactly what a scan of the cores gives.
        let mut fresh = vec![ProcCounts::default(); self.counts.len()];
        let busy = count_cores(&self.cores, &mut fresh);
        if busy != self.busy {
            return Err(format!("busy count {} cached, {busy} scanned", self.busy));
        }
        if let Some(p) = (0..fresh.len()).find(|&p| fresh[p] != self.counts[p]) {
            return Err(format!(
                "P{p}: {:?} cached, {:?} scanned",
                self.counts[p], fresh[p]
            ));
        }
        // So are the masks, which hold one `owned` mask per counted owner.
        let procs = self.owned.len() / self.cores.len().div_ceil(64);
        if let Some(i) = self.cores.iter().position(|c| c.owner.0 >= procs) {
            return Err(format!("core {i}: its owner has no mask"));
        }
        let (idle, owned, lent) = core_masks(&self.cores, procs);
        if (&idle, &owned, &lent) != (&self.idle, &self.owned, &self.lent) {
            return Err(format!(
                "idle {:x?} / owned {:x?} / lent {:x?} cached, \
                 {idle:x?} / {owned:x?} / {lent:x?} scanned",
                self.idle, self.owned, self.lent
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_proc_node(lewi: bool) -> NodeDlb {
        NodeDlb::with_counts(&[2, 2], lewi)
    }

    #[test]
    fn acquire_own_cores_first() {
        let mut n = two_proc_node(true);
        let a = n.acquire(ProcId(0)).unwrap();
        let b = n.acquire(ProcId(0)).unwrap();
        assert_eq!(n.core_state(a).owner, ProcId(0));
        assert_eq!(n.core_state(b).owner, ProcId(0));
        assert_eq!(n.used_count(ProcId(0)), 2);
    }

    #[test]
    fn lewi_borrows_idle_foreign_cores() {
        let mut n = two_proc_node(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        let c = n.acquire(ProcId(0)).unwrap();
        assert!(n.is_borrowed(c));
        assert_eq!(n.used_count(ProcId(0)), 3);
    }

    #[test]
    fn without_lewi_no_borrowing() {
        let mut n = two_proc_node(false);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        assert_eq!(n.acquire(ProcId(0)), None);
    }

    #[test]
    fn reclaim_cycle_returns_core_to_owner() {
        let mut n = two_proc_node(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        let borrowed = n.acquire(ProcId(0)).unwrap();
        let borrowed2 = n.acquire(ProcId(0)).unwrap();
        assert_eq!(n.used_count(ProcId(0)), 4);
        // Owner wants cores: nothing idle, so reclaims are posted.
        assert_eq!(n.acquire(ProcId(1)), None);
        assert!(n.reclaim_pending(borrowed));
        assert!(n.reclaim_pending(borrowed2));
        // Borrower finishes one task; the core goes home idle.
        n.release(ProcId(0), borrowed).unwrap();
        assert!(!n.reclaim_pending(borrowed));
        let got = n.acquire(ProcId(1)).unwrap();
        assert_eq!(got, borrowed);
        assert!(!n.is_borrowed(got));
    }

    #[test]
    fn reclaimed_core_not_reborrowed() {
        let mut n = two_proc_node(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        let b = n.acquire(ProcId(0)).unwrap();
        let _b2 = n.acquire(ProcId(0)).unwrap();
        assert_eq!(n.acquire(ProcId(1)), None); // posts reclaim
        n.release(ProcId(0), b).unwrap();
        // Even though the core is idle, it belongs to P1; P0 may borrow
        // it again only because P1 has not taken it yet — LeWI would
        // allow that, but then P1's acquire must still eventually win.
        let again = n.acquire(ProcId(0)).unwrap();
        assert_eq!(again, b); // borrowed once more (idle, no reclaim flag)
        assert_eq!(n.acquire(ProcId(1)), None); // reclaim posted again
        n.release(ProcId(0), again).unwrap();
        assert_eq!(n.acquire(ProcId(1)), Some(b));
    }

    #[test]
    fn release_requires_user() {
        let mut n = two_proc_node(true);
        let a = n.acquire(ProcId(0)).unwrap();
        assert!(matches!(
            n.release(ProcId(1), a),
            Err(DlbError::NotUser { .. })
        ));
        n.release(ProcId(0), a).unwrap();
        assert!(n.release(ProcId(0), a).is_err()); // double release
    }

    #[test]
    fn drom_moves_idle_cores_immediately() {
        let mut n = two_proc_node(true);
        n.set_ownership(&[3, 1]).unwrap();
        assert_eq!(n.owned_count(ProcId(0)), 3);
        assert_eq!(n.owned_count(ProcId(1)), 1);
    }

    #[test]
    fn drom_defers_busy_core_transfer() {
        let mut n = two_proc_node(true);
        let c0 = n.acquire(ProcId(1)).unwrap();
        let c1 = n.acquire(ProcId(1)).unwrap();
        // Give both of P1's cores to P0 — but P1 is running on them.
        n.set_ownership(&[3, 1]).unwrap();
        // One busy core is marked for transfer; ownership unchanged yet.
        let deferred = [c0, c1]
            .iter()
            .filter(|&&c| n.core_state(c).transfer_to == Some(ProcId(0)))
            .count();
        assert_eq!(deferred, 1);
        assert_eq!(n.owned_count(ProcId(0)), 2);
        assert_eq!(n.target_ownership(), vec![3, 1]);
        // Release applies the transfer.
        let moving = if n.core_state(c0).transfer_to.is_some() {
            c0
        } else {
            c1
        };
        n.release(ProcId(1), moving).unwrap();
        assert_eq!(n.owned_count(ProcId(0)), 3);
        n.check_invariants().unwrap();
    }

    #[test]
    fn drom_prefers_moving_idle_cores() {
        let mut n = two_proc_node(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        let borrowed = n.acquire(ProcId(0)).unwrap(); // P0 borrows one P1 core
        assert!(n.is_borrowed(borrowed));
        // P1 still has one idle core; DROM should move that one, leaving
        // the borrowed core alone (no needless deferred transfer).
        n.set_ownership(&[3, 1]).unwrap();
        assert_eq!(n.owned_count(ProcId(0)), 3);
        assert!(n.is_borrowed(borrowed)); // still P1's core, lent out
        assert!(n.core_state(borrowed).transfer_to.is_none());
        n.check_invariants().unwrap();
    }

    #[test]
    fn drom_transfer_to_current_user_is_immediate() {
        let mut n = two_proc_node(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        // P0 borrows *both* of P1's cores: no idle donor core remains.
        let b1 = n.acquire(ProcId(0)).unwrap();
        let b2 = n.acquire(ProcId(0)).unwrap();
        assert!(n.is_borrowed(b1) && n.is_borrowed(b2));
        // DROM gives one P1 core to P0: the chosen core is already being
        // used by its future owner, so the transfer applies immediately.
        n.set_ownership(&[3, 1]).unwrap();
        assert_eq!(n.owned_count(ProcId(0)), 3);
        assert_eq!([b1, b2].iter().filter(|&&c| n.is_borrowed(c)).count(), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    fn drom_rejects_bad_counts() {
        let mut n = two_proc_node(true);
        assert!(matches!(
            n.set_ownership(&[4, 1]),
            Err(DlbError::BadOwnershipSum { .. })
        ));
        assert_eq!(
            n.set_ownership(&[4, 0]),
            Err(DlbError::BelowMinimum(ProcId(1)))
        );
    }

    #[test]
    fn ownership_total_is_conserved() {
        let mut n = NodeDlb::with_counts(&[10, 1, 1], true);
        n.set_ownership(&[4, 4, 4]).unwrap();
        assert_eq!(n.target_ownership().iter().sum::<usize>(), 12);
        n.set_ownership(&[1, 1, 10]).unwrap();
        assert_eq!(n.target_ownership(), vec![1, 1, 10]);
    }

    #[test]
    fn add_process_takes_a_core_from_the_largest_owner() {
        let mut n = NodeDlb::with_counts(&[5, 3], true);
        let p = n.add_process();
        assert_eq!(p, ProcId(2));
        assert_eq!(n.owned_count(ProcId(0)), 4);
        assert_eq!(n.owned_count(ProcId(1)), 3);
        assert_eq!(n.owned_count(p), 1);
        // The new process can acquire its core.
        assert!(n.acquire(p).is_some());
        n.check_invariants().unwrap();
        // Between equal owners the highest id donates.
        let mut n = NodeDlb::with_counts(&[2, 2], true);
        n.add_process();
        assert_eq!(n.target_ownership(), vec![2, 1, 1]);
        n.check_invariants().unwrap();
    }

    #[test]
    fn add_process_defers_when_donor_is_busy() {
        let mut n = NodeDlb::with_counts(&[2, 1], true);
        let c0 = n.acquire(ProcId(0)).unwrap();
        let c1 = n.acquire(ProcId(0)).unwrap();
        let p = n.add_process();
        // Both of P0's cores are busy: the transfer waits for a release.
        assert_eq!(n.owned_count(p), 0);
        assert_eq!(n.target_ownership(), vec![1, 1, 1]);
        n.release(ProcId(0), c0).unwrap();
        n.release(ProcId(0), c1).unwrap();
        assert_eq!(n.owned_count(p), 1, "exactly one core moved");
        assert_eq!(n.owned_count(ProcId(0)), 1);
        n.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "spare")]
    fn add_process_panics_when_full() {
        let mut n = NodeDlb::with_counts(&[1, 1], true);
        n.add_process();
    }

    #[test]
    fn events_record_borrow_reclaim_transfer_and_ownership() {
        let mut n = two_proc_node(true);
        n.set_recording(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        let b1 = n.acquire(ProcId(0)).unwrap(); // borrow from P1
        let b2 = n.acquire(ProcId(0)).unwrap(); // borrow P1's other core
        let evs = n.drain_events();
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(
                    e,
                    DlbEvent::Borrowed {
                        proc: ProcId(0),
                        owner: ProcId(1),
                        ..
                    }
                ))
                .count(),
            2
        );
        // Nothing free for P1: reclaims are posted on both borrowed cores.
        assert_eq!(n.acquire(ProcId(1)), None);
        let evs = n.drain_events();
        for core in [b1, b2] {
            assert!(evs.iter().any(
                |e| matches!(e, DlbEvent::ReclaimPosted { owner: ProcId(1), borrower: ProcId(0), core: c } if *c == core)
            ));
        }
        // DROM ownership transaction; the busy donor core transfers on
        // release.
        n.set_ownership(&[1, 3]).unwrap();
        let evs = n.drain_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, DlbEvent::OwnershipSet { counts } if counts == &vec![1, 3])));
        n.release(ProcId(0), 0).unwrap();
        let evs = n.drain_events();
        assert!(evs.iter().any(|e| matches!(
            e,
            DlbEvent::TransferApplied {
                from: ProcId(0),
                to: ProcId(1),
                ..
            }
        )));
        n.check_invariants().unwrap();
    }

    #[test]
    fn recording_off_buffers_nothing() {
        let mut n = two_proc_node(true);
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        n.acquire(ProcId(0)).unwrap();
        n.set_ownership(&[3, 1]).unwrap();
        assert!(n.drain_events().is_empty());
    }

    #[test]
    fn retire_moves_idle_cores_to_smallest_survivor() {
        let mut n = NodeDlb::with_counts(&[3, 2, 1], true);
        let moved = n.retire_process(ProcId(1)).unwrap();
        assert_eq!(moved, 2);
        assert!(n.is_retired(ProcId(1)));
        assert_eq!(n.owned_count(ProcId(1)), 0);
        // Both cores went to P2 (fewest cores: 1 vs P0's 3).
        assert_eq!(n.owned_count(ProcId(2)), 3);
        assert_eq!(n.owned_count(ProcId(0)), 3);
        assert_eq!(n.acquire(ProcId(1)), None, "retired proc cannot acquire");
        n.check_invariants().unwrap();
    }

    #[test]
    fn retire_defers_transfer_of_busy_core_until_release() {
        let mut n = two_proc_node(true);
        let c0 = n.acquire(ProcId(1)).unwrap();
        let c1 = n.acquire(ProcId(1)).unwrap();
        n.retire_process(ProcId(1)).unwrap();
        // P1's final tasks still run; ownership transfers on release.
        assert_eq!(n.owned_count(ProcId(0)), 2);
        assert_eq!(n.target_ownership(), vec![4, 0]);
        n.release(ProcId(1), c0).unwrap();
        n.release(ProcId(1), c1).unwrap();
        assert_eq!(n.owned_count(ProcId(0)), 4);
        n.check_invariants().unwrap();
    }

    #[test]
    fn set_ownership_allows_zero_only_for_retired() {
        let mut n = NodeDlb::with_counts(&[2, 1, 1], true);
        n.retire_process(ProcId(2)).unwrap();
        n.set_ownership(&[3, 1, 0]).unwrap();
        assert_eq!(n.target_ownership(), vec![3, 1, 0]);
        // Zero for a living proc is still rejected...
        assert_eq!(
            n.set_ownership(&[4, 0, 0]),
            Err(DlbError::BelowMinimum(ProcId(1)))
        );
        // ...and a retired proc cannot be given cores back.
        assert_eq!(
            n.set_ownership(&[2, 1, 1]),
            Err(DlbError::Retired(ProcId(2)))
        );
    }

    #[test]
    fn retire_errors() {
        let mut n = two_proc_node(true);
        n.retire_process(ProcId(1)).unwrap();
        assert_eq!(
            n.retire_process(ProcId(1)),
            Err(DlbError::Retired(ProcId(1)))
        );
        assert_eq!(n.retire_process(ProcId(0)), Err(DlbError::NoSurvivor));
    }

    #[test]
    fn helper_rank_minimum_one_core() {
        // Paper: each helper rank starts with one owned core; appranks
        // split the rest. MareNostrum node: 48 cores, 2 appranks + 4
        // helpers → 22 cores per apprank.
        let n = NodeDlb::with_counts(&[22, 22, 1, 1, 1, 1], true);
        assert_eq!(n.num_cores(), 48);
        assert_eq!(n.owned_count(ProcId(2)), 1);
    }
}
