//! `tlb-trace`: structured, deterministic, low-overhead event tracing
//! and runtime counters for the whole runtime stack.
//!
//! The paper reads every headline result (Figs. 5, 9, 11; the §5.4.2
//! solver-cost table) off Paraver traces. This crate is our equivalent
//! telemetry layer: per-task lifecycle events with causal edges, DLB
//! events (LeWI lend/borrow/reclaim, DROM ownership transactions, TALP
//! window snapshots), global-solver records, and a counters registry.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Events carry *virtual* timestamps
//!    ([`tlb_des::SimTime`]) and are buffered per stream with sequence
//!    numbers; [`TraceLog::merged`] orders them by `(time, stream, seq)`,
//!    so the merged event list — and therefore every export — is
//!    bitwise-identical across host machines. Anything wall-clock
//!    (solver wall time) lives in the [`Counters`] gauges or in bench
//!    JSON, never in the event stream.
//! 2. **Near-zero cost when disabled.** What records is one level
//!    ([`TraceConfig`]); below [`TraceConfig::all`] a handler tests that
//!    level once per section, builds no payload and allocates nothing.
//! 3. **One road from an occurrence to the file.** An event is pushed
//!    once; the counter of its kind is derived at the push
//!    ([`Counters::note`]), and both exporters borrow the log in
//!    canonical order ([`TraceLog::iter`]) and append bytes directly:
//!    Chrome trace-event JSON ([`chrome_trace`], loadable in Perfetto /
//!    `chrome://tracing`, numbers formatted by `tlb-json`'s byte
//!    kernels) and long-format CSV rows in the `trace_to_csv` schema
//!    ([`Event::csv_fields`]). Either streams into an `io::Write` a
//!    chunk at a time ([`spill`]).

#![forbid(unsafe_code)]

mod chrome;
mod counters;
mod event;

pub use chrome::{chrome_trace, spill, write_chrome_trace, EXPORT_CHUNK};
pub use counters::Counters;
pub use event::{
    DecisionReason, Event, EventKind, FallbackReason, SolverRecord, TaskKey, TraceLog,
    GLOBAL_STREAM,
};

/// How much a traced run records — the one distinction there is. A run
/// is untraced (nothing is recorded), or traced at one of two levels:
/// [`TraceConfig::off`] keeps the Paraver-style timelines and nothing
/// else, [`TraceConfig::all`] adds the structured event log and the
/// counters. Every event kind and every counter records at `all`; there
/// is no per-family switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    events: bool,
}

impl TraceConfig {
    /// Timelines, the event log and the counters.
    pub fn all() -> Self {
        TraceConfig { events: true }
    }

    /// Timelines only: the event log and the counters stay empty. The
    /// ledger runs this level to price the event subsystem alone
    /// (`trace.timelines_overhead_pct`).
    pub fn off() -> Self {
        TraceConfig { events: false }
    }

    /// True when events and counters record.
    pub fn events(&self) -> bool {
        self.events
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

#[cfg(test)]
/// `tlb_rng::splitmix64`, copied for this crate's seeded tests: it
/// does not depend on `tlb-rng`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_levels() {
        assert!(TraceConfig::all().events());
        assert!(!TraceConfig::off().events());
        assert_eq!(TraceConfig::default(), TraceConfig::off());
    }
}
