//! Heap bytes per simulated task, on the 8-node shape of the synthetic
//! benchmark run (imbalance 2.0, two appranks per node, 25 tasks per
//! core, 4 iterations, degree-4 offloading under the global solver).
//!
//! The input stores each iteration's tasks once: iterations share one
//! list per rank, so the workload costs about a quarter of a 32-byte
//! `TaskSpec` per simulated task, and the generator collects each list
//! straight into its shared slice, so building it never holds a second
//! copy of the input. `ClusterSim::execute` adds a few bytes
//! per task of one iteration: the task graph keeps three small arrays per
//! task and no per-task record for tasks without accesses, and it is
//! reused from iteration to iteration.
//!
//! A file of its own is a test binary of its own: the counting
//! allocator sees no other test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tlb::apps::synthetic::{synthetic_workload, SyntheticConfig};
use tlb::cluster::{ClusterSim, RunSpec, TaskSpec};
use tlb::core::{BalanceConfig, DromPolicy, Platform, Preset};

/// Bytes live on the heap now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Most bytes live at once since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting the bytes it hands out.
struct Counting;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (so `System`)
        // returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came
        // from this allocator with `layout`, and `new_size` is valid.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

#[test]
fn heap_bytes_per_simulated_task_stay_small() {
    const NODES: usize = 8;
    let platform = Platform::mn4(NODES);
    let mut cfg = SyntheticConfig::new(2 * NODES, 2.0);
    cfg.tasks_per_core = 25;
    cfg.iterations = 4;
    let balance = BalanceConfig::preset(Preset::Offload {
        degree: 4,
        drom: DromPolicy::Global,
    });

    reset_peak();
    let before = live();
    let workload = synthetic_workload(&cfg, &platform);
    let input = live() - before;
    let build_peak = PEAK.load(Ordering::Relaxed) - before;
    let spec = RunSpec::new(&platform, &balance, workload);

    reset_peak();
    let base = live();
    let report = ClusterSim::execute(spec).expect("the run completes");
    let peak = PEAK.load(Ordering::Relaxed) - base;

    let tasks = report.total_tasks;
    let tasks_per_rank = 24 * 25;
    assert_eq!(tasks, NODES * 2 * tasks_per_rank * cfg.iterations);
    // A list built in a `Vec` and then copied into its `Arc` holds one
    // whole rank's list beside the input at the copy; building in place
    // holds none.
    let rank_list = tasks_per_rank * std::mem::size_of::<TaskSpec>();
    assert!(
        build_peak < input + rank_list / 2,
        "building the input peaks at {build_peak} B: more than half a rank's list \
         ({rank_list} B) above the {input} B it keeps"
    );
    let (input_per_task, peak_per_task) = (input / tasks, peak / tasks);
    println!(
        "{tasks} tasks: input {input_per_task} B/task (build peak {build_peak} B over {input} B kept), \
         execute peak {peak_per_task} B/task"
    );
    assert!(
        input_per_task <= 12,
        "input holds {input_per_task} B per task (bound 12)"
    );
    assert!(
        peak_per_task <= 48,
        "execute peaks at {peak_per_task} B per task (bound 48)"
    );
}
