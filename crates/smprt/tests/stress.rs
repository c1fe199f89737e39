//! Stress and scenario tests for the shared-memory runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tlb_smprt::{GraphRun, Pool};
use tlb_tasking::{DataRegion, TaskDef};

/// A diamond-heavy random-ish DAG executes correctly under contention.
#[test]
fn layered_dag_runs_in_order() {
    let pool = Pool::new(8);
    let mut run = GraphRun::new();
    let layer_done: Vec<Arc<AtomicUsize>> = (0..6).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let layers = 6usize;
    let width = 24usize;
    // Layer k writes region k; reads region k-1: full barrier between layers.
    let regions: Vec<DataRegion> = (0..layers)
        .map(|k| DataRegion::new(k * 0x1000, 0x1000))
        .collect();
    for k in 0..layers {
        for _ in 0..width {
            let mine = Arc::clone(&layer_done[k]);
            let prev = k.checked_sub(1).map(|p| Arc::clone(&layer_done[p]));
            let mut def = TaskDef::new(format!("layer{k}"));
            // Writers of layer k conflict with readers of layer k+1 via
            // region k. Each task reads the previous layer's region and
            // writes a distinct chunk of its own.
            if k > 0 {
                def = def.reads(regions[k - 1]);
            }
            let chunk = regions[k].chunks(width)[mine.load(Ordering::Relaxed) % width];
            def = def.writes(chunk);
            run.task(def, move || {
                if let Some(prev) = prev {
                    assert_eq!(
                        prev.load(Ordering::SeqCst),
                        width,
                        "layer started before previous completed"
                    );
                }
                mine.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
    }
    let stats = pool.run(run);
    assert_eq!(stats.tasks_executed, layers * width);
    assert!(layer_done.iter().all(|l| l.load(Ordering::SeqCst) == width));
}

/// Many short runs back-to-back never deadlock or leak state.
#[test]
fn rapid_fire_runs() {
    let pool = Pool::new(4);
    for round in 0..50 {
        let mut run = GraphRun::new();
        let n = 1 + round % 17;
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..n {
            let c = Arc::clone(&count);
            run.task(TaskDef::new("t"), move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(pool.run(run).tasks_executed, n);
        assert_eq!(count.load(Ordering::Relaxed), n);
        assert_eq!(pool.load(), 0);
    }
}

/// Pool drop while idle terminates promptly (no hung worker threads).
#[test]
fn drop_is_clean() {
    for _ in 0..10 {
        let pool = Pool::new(3);
        let mut run = GraphRun::new();
        run.task(TaskDef::new("t"), || {}).unwrap();
        pool.run(run);
        drop(pool); // must join workers without hanging
    }
}
