//! `serve_warm` and `serve_mix`: an in-process `tlb-serve` daemon on a
//! loopback port, driven through `Client` connections.
//!
//! Both are **closed loops** with `min(nproc, 4)` client connections
//! (one thread each): a sweep client waits for its report before it
//! submits again, so that is what the load looks like. The daemon runs
//! `jobs = min(nproc, 4)` pool threads with a queue bound of 4096 and a
//! cache directory of its own, primed during set-up with eight
//! four-point scenarios (`scenarios/serve_point.json`: synthetic app, 2
//! ideal nodes, 2 iterations, degree 2, four policies; seeds S..S+7).
//!
//! * `serve_warm` — every submission is one of the eight primed
//!   scenarios: wire protocol, `LineReader`, `tlb-json`, admission,
//!   cache reads and streaming do all the work; the simulator none.
//! * `serve_mix` — every sixth submission is a scenario with a seed the
//!   daemon has never seen: cold points occupy the pool while warm hits
//!   are served around them. The reported operation is the *warm*
//!   submission (its median, and its p95 as the tail); throughput
//!   counts every submission, so cold work shows there.

use std::net::SocketAddr;
use std::time::Instant;

use tlb_json::Value;
use tlb_serve::{Admission, Client, ExecutorConfig, Server, SweepResponse};
use tlb_sweep::{run_sweep, Scenario, SweepOptions};

use super::{Ctx, Outcome};
use crate::digest::text_digest;
use crate::host;
use crate::measure::{self, run_for, Samples, Setups};
use crate::replay::{json_throughput, time_batches};

const SERVE_POINT: &str = include_str!("../../scenarios/serve_point.json");
/// Scenarios primed into the daemon's cache during set-up.
const PRIMED: u64 = 8;
/// Daemon starts (each with priming) timed before the load phase, and
/// again after it.
const SETUP_REPEATS: usize = 4;
const QUEUE_BOUND: usize = 4096;
/// Points in every scenario of these workloads.
const POINTS: usize = 4;

/// The two traffic mixes.
pub struct Shape {
    name: &'static str,
    /// Every `cold_every`-th submission of a client is a never-seen
    /// scenario; 0 for none.
    cold_every: usize,
    /// Quantile reported as the tail (see `Outcome::fold_loop`).
    tail_q: f64,
}

/// All submissions hit the cache.
pub const SERVE_WARM: Shape = Shape {
    name: "serve_warm",
    cold_every: 0,
    tail_q: 0.99,
};

/// One cold submission in six.
pub const SERVE_MIX: Shape = Shape {
    name: "serve_mix",
    cold_every: 6,
    tail_q: 0.95,
};

fn scenario_json(seed: u64) -> Value {
    let mut sc = Scenario::from_json_str(SERVE_POINT).expect("checked-in scenario parses");
    sc.axes.seed = vec![seed];
    sc.to_json()
}

/// Seeds no primed scenario and no other client uses.
fn cold_seed(base: u64, client: usize, n: usize) -> u64 {
    base + 1_000 + (client as u64) * 1_000_000 + n as u64
}

/// A running daemon with a primed cache. Dropping it drains and stops
/// it; [`Daemon::stop`] does the same and says how that went.
struct Daemon {
    server: Option<Server>,
    addr: SocketAddr,
    primed: Vec<Value>,
    start_s: f64,
    prime_s: f64,
}

fn start_daemon(ctx: &Ctx) -> Result<Daemon, String> {
    let t = Instant::now();
    let server = Server::start(
        "127.0.0.1:0",
        ExecutorConfig {
            jobs: host::jobs(),
            queue_bound: QUEUE_BOUND,
            cache_dir: Some(ctx.scratch.fresh("daemon")),
        },
    )
    .map_err(|e| format!("daemon start: {e}"))?;
    let addr = server.local_addr();
    let start_s = t.elapsed().as_secs_f64();
    let primed: Vec<Value> = (0..PRIMED).map(|k| scenario_json(ctx.seed + k)).collect();
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for sc in &primed {
        submit(&mut client, sc)?;
    }
    Ok(Daemon {
        server: Some(server),
        addr,
        primed,
        start_s,
        prime_s: t.elapsed().as_secs_f64() - start_s,
    })
}

impl Daemon {
    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("daemon is running until stopped")
    }

    /// Drain, acknowledge, and join the daemon's threads.
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let ack = Client::connect(self.addr)
            .and_then(|mut client| client.shutdown())
            .map_err(|e| format!("daemon shutdown: {e}"));
        if ack.is_err() {
            server.shutdown();
        }
        server.join();
        ack.map(|_| ())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A completed submission: the ack, the streamed points, the report.
struct Completed {
    ack: Value,
    points: Vec<Value>,
    report: Value,
}

impl Completed {
    /// Bytes the daemon sent for this submission: one compact JSON line
    /// per reply, the report inside its `{"type":"report",...}` line.
    fn reply_bytes(&self) -> usize {
        let line = |v: &Value| v.to_string_compact().len() + 1;
        line(&self.ack)
            + self.points.iter().map(line).sum::<usize>()
            + line(&tlb_serve::protocol::report_reply(&self.report))
    }
}

/// One submission; anything but a completed sweep is a failure.
fn submit(client: &mut Client, scenario: &Value) -> Result<Completed, String> {
    match client.sweep(scenario).map_err(|e| format!("submit: {e}"))? {
        SweepResponse::Completed {
            ack,
            points,
            report,
        } => {
            if points.len() != POINTS {
                return Err(format!("{} point replies, expected {POINTS}", points.len()));
            }
            Ok(Completed {
                ack,
                points,
                report,
            })
        }
        SweepResponse::Shed(reply) => Err(format!("shed: {}", reply.to_string_compact())),
        SweepResponse::Error(message) => Err(format!("error reply: {message}")),
    }
}

fn counter(server: &Server, name: &str) -> u64 {
    server
        .executor()
        .stats()
        .counters
        .get("counters")
        .get(name)
        .as_u64()
        .unwrap_or(0)
}

/// The served report must be the bytes an offline sweep produces.
fn same_as_offline(served: &Value, scenario: &Value) -> Result<(), String> {
    let sc = Scenario::from_json(scenario).map_err(|e| e.to_string())?;
    let offline = run_sweep(&sc, &SweepOptions::default()).map_err(|e| e.to_string())?;
    if served.to_string_pretty() == offline.report.to_string_pretty() {
        Ok(())
    } else {
        Err("served report differs from the offline run_sweep report".into())
    }
}

/// One client's closed loop. `cold[i]` is true where completed
/// operation `i` was a cold submission.
struct ClientLoop {
    samples: Samples,
    cold: Vec<bool>,
    cold_sent: usize,
}

fn client_loop(
    ctx: &Ctx,
    shape: &Shape,
    daemon: &Daemon,
    client_id: usize,
    origin: Instant,
) -> Result<ClientLoop, String> {
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let rec = &ctx.rec;
    let mut n = 0usize;
    let mut cold_sent = 0usize;
    let mut cold = Vec::new();
    let samples = run_for(rec, origin, ctx.seconds, 100, |record| {
        n += 1;
        // Clients start their cold cycle at different phases.
        let is_cold = shape.cold_every > 0 && (n + client_id * 3).is_multiple_of(shape.cold_every);
        let scenario = if is_cold {
            cold_sent += 1;
            scenario_json(cold_seed(ctx.seed, client_id, cold_sent))
        } else {
            daemon.primed[(n + client_id) % daemon.primed.len()].clone()
        };
        let start = rec.now_s();
        let outcome = submit(&mut client, &scenario);
        let end = rec.now_s();
        if record {
            let name = if is_cold {
                "serve.submit_cold"
            } else {
                "serve.submit_warm"
            };
            rec.record(name, start, end, None);
        }
        outcome?;
        cold.push(is_cold);
        Ok(end - start)
    });
    Ok(ClientLoop {
        samples,
        cold,
        cold_sent,
    })
}

/// Run one of the two serve workloads.
pub fn run(ctx: &Ctx, shape: &Shape) -> Outcome {
    let mut out = Outcome::default();
    let clients = host::jobs();

    // Set-up: a daemon with a primed cache. Repeated; the previous
    // daemon is dropped (drained and stopped) outside the timed part.
    let mut setups = Setups::new();
    let mut daemon = match setups.repeat(SETUP_REPEATS, || start_daemon(ctx)) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || e);
            return out.finish(setups.quiet_s());
        }
    };
    out.check(
        counter(daemon.server(), "serve.points_executed") == PRIMED * POINTS as u64,
        || "priming did not execute each primed point exactly once".into(),
    );

    // First submission of the process, and the identity it must keep.
    let first = Instant::now();
    let first_report = Client::connect(daemon.addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| submit(&mut c, &daemon.primed[0]));
    let first_op_s = first.elapsed().as_secs_f64();
    let mut reply_bytes = 0;
    match first_report {
        Ok(done) => {
            reply_bytes = done.reply_bytes();
            out.digest = text_digest(&done.report.to_string_pretty());
            let same = same_as_offline(&done.report, &daemon.primed[0]);
            out.check(same.is_ok(), || same.unwrap_err());
        }
        Err(e) => out.check(false, || e),
    }

    // The load phase: one thread per client connection.
    let executed_before = counter(daemon.server(), "serve.points_executed");
    let hits_before = counter(daemon.server(), "serve.cache_hits");
    let cpu_before = host::cpu_seconds();
    let origin = Instant::now();
    let loops: Vec<Result<ClientLoop, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let daemon = &daemon;
                s.spawn(move || client_loop(ctx, shape, daemon, id, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let cpu_s = host::cpu_seconds() - cpu_before;
    let (mut warm_parts, mut cold_parts, mut all_parts) = (Vec::new(), Vec::new(), Vec::new());
    let mut cold_sent = 0usize;
    for l in loops {
        match l {
            Ok(l) => {
                cold_sent += l.cold_sent;
                warm_parts.push(l.samples.filter(|i| !l.cold[i]));
                cold_parts.push(l.samples.filter(|i| l.cold[i]));
                all_parts.push(l.samples);
            }
            Err(e) => out.check(false, || e),
        }
    }
    let warm = Samples::merge(warm_parts);
    let cold = Samples::merge(cold_parts);
    let all = Samples::merge(all_parts);

    // Latency of the warm submission; throughput of all of them.
    out.fold_loop(ctx, &warm, clients, 1.0, shape.tail_q, cpu_s);
    out.attempted += all.attempted() - warm.attempted();
    out.failed += all.failures.len() as u64;
    out.violations.extend(all.failures.iter().take(5).cloned());
    out.e2e
        .set("ops_per_s", measure::summarize(&all, clients, 1.0).per_s);

    // What the daemon did during the load phase, from its own counters.
    let executed = counter(daemon.server(), "serve.points_executed") - executed_before;
    let expected = (cold_sent * POINTS) as u64;
    out.check(executed == expected, || {
        format!(
            "daemon executed {executed} points in the load phase; \
             {cold_sent} cold submissions should execute exactly {expected}"
        )
    });
    let hits = counter(daemon.server(), "serve.cache_hits") - hits_before;
    out.check(hits == (warm.attempted() as usize * POINTS) as u64, || {
        format!(
            "{hits} cache hits for {} warm submissions",
            warm.attempted()
        )
    });
    // A cold scenario submitted during the load phase, served again
    // (now from cache), still equals the offline sweep.
    if cold_sent > 0 {
        let sc = scenario_json(cold_seed(ctx.seed, 0, 1));
        let served = Client::connect(daemon.addr)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| submit(&mut c, &sc))
            .and_then(|done| same_as_offline(&done.report, &sc));
        out.check(served.is_ok(), || served.unwrap_err());
    }
    out.notes.push(format!(
        "{}: closed loop, {clients} clients, {} warm + {} cold submissions, \
         {executed} points executed, report digest {:016x}",
        shape.name,
        warm.ops.len(),
        cold.ops.len(),
        out.digest
    ));

    if ctx.trace() {
        out.layer.set("harness.first_op_ms", first_op_s * 1e3);
        layers(shape, &daemon, &warm, &cold, clients, reply_bytes, &mut out);
    }
    let shed = counter(daemon.server(), "serve.shed");
    out.check(shed == 0, || format!("{shed} submissions were shed"));
    if let Err(e) = daemon.stop() {
        out.check(false, || e);
    }
    for _ in 0..SETUP_REPEATS {
        if let Err(e) = setups.time(|| start_daemon(ctx)) {
            out.check(false, || e);
        }
    }
    out.finish(setups.quiet_s())
}

/// The per-layer pass: wire-only and admission-only costs, the split
/// latencies, message sizes and the daemon's counters.
fn layers(
    shape: &Shape,
    daemon: &Daemon,
    warm: &Samples,
    cold: &Samples,
    clients: usize,
    reply_bytes: usize,
    out: &mut Outcome,
) {
    let l = &mut out.layer;
    l.set("serve.daemon_start_ms", daemon.start_s * 1e3);
    l.set("serve.prime_s", daemon.prime_s);
    let p50 = measure::summarize(warm, clients, 1.0).p50_ms;
    let p99 = measure::quiet_quantile_ms(warm, 0.99);
    if shape.cold_every == 0 {
        l.set("serve.warm_p50_ms", p50);
        l.set("serve.warm_p99_ms", p99);
    } else {
        let c = measure::summarize(cold, clients, 1.0);
        l.set("serve.mix_warm_p50_ms", p50);
        l.set("serve.mix_warm_p99_ms", p99);
        l.set("serve.mix_cold_p50_ms", c.p50_ms);
        l.set("serve.mix_cold_per_s", c.per_s);
        l.set("cluster.execute_s", c.p50_ms / 1e3 / POINTS as f64);
    }
    let request = Value::object(vec![
        ("cmd", "sweep".into()),
        ("scenario", daemon.primed[0].clone()),
    ]);
    l.set(
        "serve.request_bytes",
        (request.to_string_compact().len() + 1) as f64,
    );
    l.set("serve.reply_bytes", reply_bytes as f64);
    // The daemon's counter names are the metric names.
    for name in [
        "serve.cache_hits",
        "serve.dedup_hits",
        "serve.points_executed",
        "serve.shed",
    ] {
        l.set(name, counter(daemon.server(), name) as f64);
    }

    // Wire only: a ping is one line each way and touches nothing else.
    if let Ok(mut client) = Client::connect(daemon.addr) {
        let secs = time_batches(7, || {
            for _ in 0..300 {
                let _ = client.ping();
            }
        });
        l.set("serve.ping_rtt_us", secs * 1e6 / 300.0);
    }
    // Admission only: no socket, every point a cache hit.
    if let Ok(sc) = Scenario::from_json(&daemon.primed[0]) {
        let exec = daemon.server().executor();
        let secs = time_batches(7, || {
            for _ in 0..300 {
                if let Admission::Admitted(req) = exec.admit(&sc) {
                    std::hint::black_box(req.cache_hits);
                }
            }
        });
        l.set("serve.admit_warm_us", secs * 1e6 / 300.0);
    }
    if let Some((parse, write)) = json_throughput(&request.to_string_compact()) {
        l.set("json.parse_mb_per_s", parse);
        l.set("json.write_mb_per_s", write);
    }
}
