//! Sweep-as-a-service: a resident daemon that turns the batch sweep
//! engine into a shared, always-warm facility.
//!
//! The paper's parameter studies are batch jobs; a research group (or
//! a CI fleet) re-runs overlapping grids all day. This crate keeps one
//! process resident so the cache stays hot and identical work is never
//! done twice — even when two clients ask for it *at the same moment*:
//!
//! * [`Server`] — a TCP daemon speaking a line-delimited JSON protocol
//!   ([`protocol`]): scenario in, streamed per-point records out as
//!   each lands, then the aggregate report — bitwise identical to an
//!   offline `tlb-run sweep` of the same scenario, because both sides
//!   share `tlb_sweep::run_point` and `tlb_sweep::aggregate`.
//! * [`Executor`] — bounded admission in front of `jobs` lanes, one
//!   `tlb-smprt` `parallel_for` index each, every lane popping the next
//!   queued point as soon as it frees up. Each request's points are
//!   atomically classified *cached* (served without touching a lane),
//!   *in flight* (deduped: subscribe to the other request's
//!   completion), or *new* (enqueued). A request that would overflow
//!   the queue is shed whole with a structured retry-after reply
//!   derived from the points queued and executing per lane and an EMA
//!   of point times.
//! * Graceful shutdown: a `shutdown` request drains every admitted
//!   point, flushes the cache, and only then acks — so a killed-while
//!   -busy daemon leaves a cache a later `tlb-run sweep --resume` can
//!   trust.
//! * A `stats` request exposes the `serve.*` counters (requests,
//!   sweeps, cache hits/misses, dedup hits, sheds, executed points)
//!   plus live queue depth, in-flight count, and pool saturation
//!   (points executing per lane).
//!
//! Start one with `tlb-run serve --addr 127.0.0.1:7070 --jobs 4
//! --cache-dir .tlb-cache`, drive it with [`Client`].

#![forbid(unsafe_code)]

mod client;
mod executor;
mod server;

pub mod protocol;

pub use client::{Client, SweepResponse};
pub use executor::{Admission, AdmittedRequest, Executor, ExecutorConfig, ExecutorStats};
pub use server::{validate_addr, Server};
