//! Paraver-style trace recording: the timelines behind Figs. 5, 9 and 11,
//! plus the structured event log and counters registry (`tlb-trace`).

use tlb_core::ProcessLayout;
use tlb_des::{SimTime, Timeline};
use tlb_trace::{Counters, EventKind, TraceConfig, TraceLog};

/// Recorded timelines of one simulation.
///
/// Worker processes are addressed by `(node, proc)` where `proc` is the
/// node-local index from [`ProcessLayout::workers_on`]; each worker
/// belongs to exactly one apprank, so `(node, proc)` also identifies
/// "apprank X's cores on node Y" — the coloured bands of Fig. 9.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// `busy[node][proc]`: cores currently executing tasks for that worker.
    pub busy: Vec<Vec<Timeline>>,
    /// `owned[node][proc]`: DROM-owned cores of that worker.
    pub owned: Vec<Vec<Timeline>>,
    /// Total busy cores per node (for the node-imbalance series, Fig. 11).
    pub node_busy: Vec<Timeline>,
    /// Apprank of each `(node, proc)` worker.
    pub worker_apprank: Vec<Vec<usize>>,
    /// Virtual times at which each iteration ended (all appranks done).
    pub iteration_ends: Vec<SimTime>,
    /// Structured event log (task lifecycle, DLB, solver records).
    pub log: TraceLog,
    /// Runtime counters and gauges, dumped into every run report.
    pub counters: Counters,
    /// What records: `None` nothing (large sweeps), otherwise the
    /// timelines, plus the event log and counters at
    /// [`TraceConfig::all`].
    pub level: Option<TraceConfig>,
}

impl Trace {
    /// A trace sized for `layout`, recording at `level`.
    pub fn new(layout: &ProcessLayout, level: Option<TraceConfig>) -> Self {
        let nodes = layout.nodes();
        let shape = |make: fn() -> Timeline| {
            (0..nodes)
                .map(|n| (0..layout.workers_on(n).len()).map(|_| make()).collect())
                .collect::<Vec<Vec<Timeline>>>()
        };
        Trace {
            busy: shape(Timeline::new),
            owned: shape(Timeline::new),
            node_busy: (0..nodes).map(|_| Timeline::new()).collect(),
            worker_apprank: (0..nodes)
                .map(|n| layout.workers_on(n).iter().map(|w| w.apprank).collect())
                .collect(),
            iteration_ends: Vec::new(),
            log: TraceLog::new(),
            counters: Counters::new(),
            level,
        }
    }

    /// True when the timelines record.
    pub fn timelines(&self) -> bool {
        self.level.is_some()
    }

    /// True when the event log and the counters record. Handlers test
    /// this once per section, before building any payload.
    pub fn events(&self) -> bool {
        self.level.is_some_and(|level| level.events())
    }

    /// Record one occurrence: count it under its kind and append it to
    /// `stream`. The caller has tested [`Trace::events`].
    pub fn emit(&mut self, stream: usize, at: SimTime, kind: EventKind) {
        self.counters.note(&kind);
        self.log.push(stream, at, kind);
    }

    /// Count `delta` occurrences that no event stands for, when
    /// counters record.
    pub fn count(&mut self, name: &str, delta: u64) {
        if self.events() {
            self.counters.add(name, delta);
        }
    }

    /// Accumulate a measurement into gauge `name`, when counters record.
    pub fn gauge(&mut self, name: &str, delta: f64) {
        if self.events() {
            self.counters.add_gauge(name, delta);
        }
    }

    /// Record a worker's busy-core count.
    pub fn record_busy(&mut self, at: SimTime, node: usize, proc: usize, cores: usize) {
        if self.timelines() {
            self.busy[node][proc].record(at, cores as f64);
        }
    }

    /// Record a worker's owned-core count.
    pub fn record_owned(&mut self, at: SimTime, node: usize, proc: usize, cores: usize) {
        if self.timelines() {
            self.owned[node][proc].record(at, cores as f64);
        }
    }

    /// Record a node's total busy cores.
    pub fn record_node_busy(&mut self, at: SimTime, node: usize, cores: usize) {
        if self.timelines() {
            self.node_busy[node].record(at, cores as f64);
        }
    }

    /// Mark an iteration boundary.
    pub fn mark_iteration_end(&mut self, at: SimTime) {
        if self.timelines() {
            self.iteration_ends.push(at);
        }
    }

    /// Busy cores an apprank had on a node at time `t` (0 if it has no
    /// worker there).
    pub fn apprank_busy_at(&self, node: usize, apprank: usize, t: SimTime) -> f64 {
        self.worker_apprank[node]
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == apprank)
            .map(|(p, _)| self.busy[node][p].value_at(t).unwrap_or(0.0))
            .sum()
    }

    /// Node-imbalance series (Fig. 11): resample every node's busy-core
    /// timeline onto `points` instants over `[0, end]` using a trailing
    /// mean over `window`, then compute `max/mean` across nodes per
    /// instant. Zero-width windows (at `t = 0`, or everywhere when
    /// `window` is zero) report the instantaneous value rather than an
    /// artificially widened mean. Returns `(seconds, imbalance)` pairs.
    pub fn node_imbalance_series(
        &self,
        end: SimTime,
        window: SimTime,
        points: usize,
    ) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two sample points");
        let mut out = Vec::with_capacity(points);
        let span = end.as_nanos();
        for i in 0..points {
            let t = SimTime::from_nanos(span * i as u64 / (points as u64 - 1));
            let from = t.saturating_sub(window);
            let loads: Vec<f64> = self
                .node_busy
                .iter()
                .map(|tl| tl.mean_or_instant(from, t))
                .collect();
            out.push((t.as_secs_f64(), tlb_core::node_imbalance(&loads)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlb_expander::{generate_circulant, ExpanderConfig};

    fn layout() -> ProcessLayout {
        let g = generate_circulant(&ExpanderConfig::new(2, 2, 2), &[1]).unwrap();
        ProcessLayout::new(&g, 4)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let l = layout();
        let mut t = Trace::new(&l, None);
        t.record_busy(SimTime::ZERO, 0, 0, 3);
        assert!(t.busy[0][0].is_empty());
    }

    #[test]
    fn apprank_busy_sums_workers() {
        let l = layout();
        let mut t = Trace::new(&l, Some(TraceConfig::off()));
        // Node 0 hosts apprank 0 (proc 0, main) and apprank 1 (proc 1, helper).
        assert_eq!(t.worker_apprank[0], vec![0, 1]);
        t.record_busy(SimTime::ZERO, 0, 0, 3);
        t.record_busy(SimTime::ZERO, 0, 1, 1);
        assert_eq!(t.apprank_busy_at(0, 0, SimTime::from_millis(1)), 3.0);
        assert_eq!(t.apprank_busy_at(0, 1, SimTime::from_millis(1)), 1.0);
    }

    #[test]
    fn imbalance_series_balanced_is_one() {
        let l = layout();
        let mut t = Trace::new(&l, Some(TraceConfig::off()));
        t.record_node_busy(SimTime::ZERO, 0, 4);
        t.record_node_busy(SimTime::ZERO, 1, 4);
        let series = t.node_imbalance_series(SimTime::from_secs(1), SimTime::from_millis(100), 5);
        assert_eq!(series.len(), 5);
        for (_, imb) in &series[1..] {
            assert!((imb - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_width_windows_report_instantaneous_imbalance() {
        // Regression: the old `t.max(1ns)` guard silently widened the
        // first window and returned 0.0 for every zero-width window at
        // t ≥ 1ns (window = 0 → mean over [t, t) = 0). The series must
        // instead report the value that *holds* at each instant.
        let l = layout();
        let mut t = Trace::new(&l, Some(TraceConfig::off()));
        t.record_node_busy(SimTime::ZERO, 0, 4);
        t.record_node_busy(SimTime::ZERO, 1, 2);
        let series = t.node_imbalance_series(SimTime::from_secs(1), SimTime::ZERO, 3);
        assert_eq!(series.len(), 3);
        for (secs, imb) in &series {
            // Imbalance of loads [4, 2] is max/mean = 4/3 at every point,
            // including t = 0.
            assert!((imb - 4.0 / 3.0).abs() < 1e-9, "t={secs}: imbalance {imb}");
        }
    }

    #[test]
    fn imbalance_series_detects_hot_node() {
        let l = layout();
        let mut t = Trace::new(&l, Some(TraceConfig::off()));
        t.record_node_busy(SimTime::ZERO, 0, 4);
        t.record_node_busy(SimTime::ZERO, 1, 0);
        let series = t.node_imbalance_series(SimTime::from_secs(1), SimTime::from_millis(100), 3);
        let (_, imb) = series.last().unwrap();
        assert!((imb - 2.0).abs() < 1e-9, "imbalance {imb}");
    }
}
