//! Batch execution engine for the paper's parameter studies.
//!
//! The experiments behind Figs. 5–11 are all *sweeps*: the same
//! application re-run over a grid of appranks, offloading degrees,
//! balancing policies, and seeds. This crate makes that grid a value:
//!
//! * [`Scenario`] — a declarative description of one sweep (application,
//!   platform, fixed knobs, and the axes to vary), serialized through
//!   `tlb-json` under a versioned, *strict* schema: unknown keys are
//!   rejected at parse time so a typo cannot silently run the wrong
//!   experiment.
//! * [`Scenario::expand`] — the deterministic cartesian product of the
//!   axes, in a fixed nesting order, so point *N* means the same
//!   configuration on every machine and at every `--jobs` level.
//! * [`run_sweep`] — shards the points across a `tlb-smprt` pool's
//!   `parallel_for` (one simulation per index and one result slot per
//!   point; each simulation is the ordinary single-threaded DES), then
//!   aggregates sequentially in point order.
//!   The sweep report is **bitwise identical** across 1/2/4/8 pool
//!   threads because nothing about the parallel schedule feeds into the
//!   output.
//! * [`Cache`] / [`point_key`] — an incremental result cache keyed by an
//!   FNV-1a content hash of the scenario point plus every code-relevant
//!   knob. Re-running a sweep with `resume` skips every point whose
//!   result is already on disk; editing any knob changes the key and
//!   forces re-execution.
//!
//! ```
//! use tlb_sweep::{run_sweep, Scenario, SweepOptions};
//!
//! let sc = Scenario::from_json_str(
//!     r#"{"schema_version": 1, "name": "demo", "app": "synthetic",
//!         "nodes": 2, "iterations": 2,
//!         "axes": {"degree": [1, 2], "policy": ["baseline", "lewi+drom-global"]}}"#,
//! )
//! .unwrap();
//! assert_eq!(sc.expand().len(), 4);
//! let out = run_sweep(&sc, &SweepOptions::default()).unwrap();
//! assert_eq!(out.stats.executed, 4);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod engine;
mod scenario;

pub use cache::{fnv1a64, key_of, point_key, point_key_input, Cache, ENGINE_VERSION};
pub use engine::{
    aggregate, run_point, run_sweep, simulate_point, SweepError, SweepOptions, SweepOutcome,
    SweepStats,
};
pub use scenario::{
    Axes, Scenario, ScenarioError, SweepApp, SweepMachine, SweepPoint, MAX_POINTS, SCHEMA_VERSION,
};
