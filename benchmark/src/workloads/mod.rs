//! The five workloads. Each runs in a process of its own, takes its
//! inputs from the seed alone, measures for the requested seconds, and
//! checks what the library produced before reporting a number for it.

pub mod serve;
pub mod sim;
pub mod sweep;

use crate::host::{self, Scratch};
use crate::measure::{self, Samples};
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats;

/// What a workload is given.
pub struct Ctx {
    /// Drives every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Harness spans; enabled for the per-layer pass (`--trace 1`).
    pub rec: Recorder,
    /// Scratch space inside the checkout.
    pub scratch: Scratch,
}

impl Ctx {
    /// Whether this is the per-layer pass.
    pub fn trace(&self) -> bool {
        self.rec.enabled()
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase, plus one per
    /// correctness check made outside it.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failure or violated check.
    pub violations: Vec<String>,
    /// End-to-end metric values.
    pub e2e: Values,
    /// Per-layer metric values (per-layer pass only).
    pub layer: Values,
    /// Digest of the simulated results / reports this run produced, so
    /// two commits can be compared by eye.
    pub digest: u64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one correctness check; a failed one counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(what());
        }
    }

    /// Fold a measured loop in: its counts, its failures, and the
    /// end-to-end figures every workload reports.
    ///
    /// `tail_q` is the latency quantile the per-layer pass reports as
    /// `harness.op_tail_ms`: the highest of p50/p75/p90/p95/p99 that
    /// keeps at least ten samples beyond it at this workload's operation
    /// rate, fixed per workload so the figure means the same thing on
    /// every run.
    pub fn fold_loop(
        &mut self,
        ctx: &Ctx,
        samples: &Samples,
        clients: usize,
        units: f64,
        tail_q: f64,
        cpu_s: f64,
    ) {
        self.attempted += samples.attempted();
        self.failed += samples.failures.len() as u64;
        self.violations
            .extend(samples.failures.iter().take(5).cloned());
        let sum = measure::summarize(samples, clients, units);
        self.e2e.set("op_p50_ms", sum.p50_ms);
        self.e2e.set("ops_per_s", sum.per_s);
        self.notes.push(format!(
            "measured {} ops ({} in the quiet slices), host noise ratio {:.2}",
            samples.ops.len(),
            sum.kept,
            sum.noise_ratio
        ));
        if stats::tail_quantile(sum.kept) < tail_q {
            self.notes.push(format!(
                "note: fewer than ten of the {} kept ops lie beyond p{:.0}",
                sum.kept,
                tail_q * 100.0
            ));
        }
        if ctx.trace() {
            self.layer
                .set("harness.ops_total", samples.ops.len() as f64);
            self.layer.set("harness.ops_kept", sum.kept as f64);
            self.layer.set("harness.host_noise_ratio", sum.noise_ratio);
            self.layer.set(
                "harness.op_tail_ms",
                measure::quiet_quantile_ms(samples, tail_q),
            );
            self.layer.set(
                "harness.trace_overhead_pct",
                measure::trace_overhead_pct(samples),
            );
            self.layer.set(
                "harness.cpu_s_per_op",
                cpu_s / samples.ops.len().max(1) as f64,
            );
        }
    }

    /// Last step of every workload: memory is read when everything the
    /// workload allocates has been allocated.
    pub fn finish(mut self, setup_s: f64) -> Outcome {
        self.e2e.set("setup_s", setup_s);
        self.e2e.set("peak_rss_mb", host::peak_rss_mb());
        self
    }
}

/// Run the workload called `name`.
pub fn run(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "sim_synth_32n" => sim::run(ctx, &sim::SIM_SYNTH_32N),
        "trace_synth_4n" => sim::run(ctx, &sim::TRACE_SYNTH_4N),
        "sweep_grid" => sweep::run_grid(ctx),
        "serve_warm" => serve::run(ctx, &serve::SERVE_WARM),
        "serve_mix" => serve::run(ctx, &serve::SERVE_MIX),
        _ => return None,
    })
}
