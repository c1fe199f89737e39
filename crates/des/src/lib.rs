//! Deterministic discrete-event simulation engine.
//!
//! This crate is the substrate on which the OmpSs-2@Cluster runtime
//! reproduction executes: it provides a virtual clock ([`SimTime`]), an
//! event queue with deterministic tie-breaking ([`Simulator`]), and
//! time-series recording utilities ([`Timeline`], [`BusyIntegral`]) used to
//! regenerate the paper's traces and convergence plots.
//!
//! # Determinism
//!
//! Events scheduled for the same virtual instant are delivered in the order
//! they were scheduled (FIFO per timestamp), so a simulation driven by a
//! seeded RNG is fully reproducible. This mirrors the requirement in the
//! paper's methodology that experiment configurations be re-runnable.
//!
//! # Example
//!
//! ```
//! use tlb_des::{Simulator, SimTime, World, Ctx};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<Ev>, _ev: Ev) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             ctx.schedule_in(SimTime::from_millis(10), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! let mut world = Counter { fired: 0 };
//! let end = sim.run(&mut world);
//! assert_eq!(world.fired, 3);
//! assert_eq!(end, SimTime::from_millis(20));
//! ```

#![forbid(unsafe_code)]

mod queue;
mod stats;
mod time;
mod timeline;

pub use queue::{Ctx, EventQueue, Simulator, World};
pub use stats::BusyIntegral;
pub use time::SimTime;
pub use timeline::{Timeline, TimelineSample};
