//! What the harness asks of the host: parallelism, memory high-water
//! mark, CPU time, and a scratch directory inside the checkout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hardware threads visible to this process.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool jobs and client connections the workloads use: every visible
/// hardware thread, at most four.
pub fn jobs() -> usize {
    parallelism().min(4)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used so far, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`);
/// 0 where `/proc` does not say.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name is parenthesised and may contain spaces; the
    // numbered fields resume after the closing parenthesis at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => 0.0,
    }
}

/// `benchmark/out`: where spans, results and scratch files go. Ignored
/// by git; inside the checkout, so a run touches nothing outside it.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh scratch directory for this process, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    /// Create `benchmark/out/tmp/<pid>`.
    pub fn new() -> std::io::Result<Scratch> {
        let root = out_dir().join("tmp").join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A path for a new, not yet existing subdirectory.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{tag}_{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_and_scratch_cleans_up() {
        assert!(parallelism() >= 1);
        assert!((1..=4).contains(&jobs()));
        assert!(peak_rss_mb() >= 0.0);
        assert!(cpu_seconds() >= 0.0);
        let root;
        {
            let scratch = Scratch::new().expect("scratch dir inside benchmark/out");
            let a = scratch.fresh("cache");
            let b = scratch.fresh("cache");
            assert_ne!(a, b);
            std::fs::create_dir_all(&a).expect("create scratch subdir");
            root = a.parent().expect("scratch root").to_path_buf();
            assert!(root.starts_with(out_dir()));
        }
        assert!(!root.exists());
    }
}
