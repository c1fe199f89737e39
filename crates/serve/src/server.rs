//! The TCP front end: accept loop, per-connection handlers, and
//! graceful shutdown.
//!
//! Connections speak the line-delimited protocol of
//! [`crate::protocol`]. Each connection gets its own handler thread.
//! Handlers poll a shared stop flag (reads carry a short timeout); the
//! accept loop blocks in `accept`, and whoever sets the flag wakes it
//! with one loopback connect. So a `shutdown` request on *any*
//! connection winds the whole server down: the executor drains its
//! admitted points (flushing the cache), new sweeps are shed while
//! draining, and only then is the `shutdown_ack` written.

use std::io::{self, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tlb_json::Value;
use tlb_sweep::{aggregate, Scenario};

use crate::executor::{Admission, Executor, ExecutorConfig};
use crate::protocol::{
    ack_reply, error_reply, parse_request, point_reply, pong_reply, report_reply, shed_reply,
    shutdown_ack_reply, stats_reply, Request,
};

/// How often blocked reads wake up to poll the stop flag, and how long
/// the accept loop backs off after a failed `accept` (say, `EMFILE`).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The server-wide stop flag, and the address that wakes the accept
/// loop out of its blocking `accept` once the flag is set.
struct Stop {
    flag: AtomicBool,
    /// The listener's address, an unspecified IP replaced by loopback.
    wake: SocketAddr,
}

impl Stop {
    fn is_set(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Set the flag; the first call also wakes the accept loop with one
    /// connection, which it closes unserved when it sees the flag.
    fn set(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }
}

/// Longest request line accepted, in bytes without its newline. A longer
/// one is answered with an `error` and discarded unbuffered.
const MAX_LINE_BYTES: usize = 1 << 20;

/// A running daemon: listener address, executor, and thread handles.
pub struct Server {
    addr: SocketAddr,
    executor: Arc<Executor>,
    stop: Arc<Stop>,
    accept: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port), start
    /// the executor and the accept loop, and return immediately.
    pub fn start(addr: &str, config: ExecutorConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut wake = local;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let executor = Executor::start(config)?;
        let stop = Arc::new(Stop {
            flag: AtomicBool::new(false),
            wake,
        });
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let executor = Arc::clone(&executor);
            let stop = Arc::clone(&stop);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("tlb-serve-accept".into())
                .spawn(move || {
                    loop {
                        match listener.accept() {
                            Ok(_) if stop.is_set() => break,
                            Ok((stream, _peer)) => {
                                // Replies are many small writes (ack,
                                // streamed points, report); Nagle would
                                // add ~40ms to every round trip.
                                let _ = stream.set_nodelay(true);
                                let executor = Arc::clone(&executor);
                                let stop = Arc::clone(&stop);
                                let spawned = std::thread::Builder::new()
                                    .name("tlb-serve-conn".into())
                                    .spawn(move || handle_connection(stream, executor, stop));
                                // A handler that cannot be spawned takes its
                                // stream with it (the client sees EOF); the
                                // loop keeps accepting.
                                if let Ok(handle) = spawned {
                                    handlers.lock().unwrap().push(handle);
                                }
                            }
                            Err(_) if stop.is_set() => break,
                            Err(_) => std::thread::sleep(POLL_INTERVAL),
                        }
                    }
                })?
        };

        Ok(Server {
            addr: local,
            executor,
            stop,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The executor, for direct stats access in tests and benches.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.executor
    }

    /// True until a shutdown (request or [`Server::shutdown`]) landed.
    pub fn running(&self) -> bool {
        !self.stop.is_set()
    }

    /// Drain the executor and stop accepting. Identical to receiving a
    /// `shutdown` request; idempotent.
    pub fn shutdown(&self) {
        self.executor.drain();
        self.stop.set();
    }

    /// Block until the server has stopped and every thread has exited.
    /// The normal daemon lifecycle is `start(...)` then `join()`; the
    /// process leaves `join` when some client sends `shutdown`.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.handlers.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Safety net for tests that drop without an explicit shutdown:
        // stop accepting and unblock handlers. (Does not drain; call
        // `shutdown()` first for a graceful exit.)
        self.stop.set();
        self.join_threads();
    }
}

/// Incremental line reader over a stream with a read timeout, so
/// handlers can poll the stop flag while idle without dropping bytes
/// of a partially received line. Each byte is searched for `\n` once,
/// and at most [`MAX_LINE_BYTES`] plus one read are buffered.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no `\n`.
    scanned: usize,
    /// The line being received is over the limit: its bytes are dropped
    /// up to and including its newline.
    discarding: bool,
    /// The one read made after the stop flag was seen has happened.
    last_read_done: bool,
}

/// What [`LineReader::next_line`] hands out.
enum Line {
    /// A complete line, without its newline.
    Text(String),
    /// A line longer than [`MAX_LINE_BYTES`], refused.
    TooLong,
}

impl LineReader {
    fn new(stream: TcpStream) -> io::Result<LineReader> {
        stream.set_read_timeout(Some(POLL_INTERVAL))?;
        Ok(LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            discarding: false,
            last_read_done: false,
        })
    }

    /// Next full line, or `None` on EOF / server stop. A stopping
    /// server reads each connection one last time, under the same poll
    /// timeout, and still hands out every complete line it then holds:
    /// a client that sends on seeing another connection's
    /// `shutdown_ack` is answered — a sweep with the `draining` shed —
    /// instead of finding the socket closed under it.
    fn next_line(&mut self, stop: &AtomicBool) -> Option<Line> {
        let mut chunk = [0u8; 4096];
        loop {
            let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            if let Some(end) = newline.map(|pos| self.scanned + pos) {
                let line = if std::mem::take(&mut self.discarding) {
                    None // the tail of a line refused already
                } else if end > MAX_LINE_BYTES {
                    Some(Line::TooLong)
                } else {
                    let text = String::from_utf8_lossy(&self.buf[..end]).into_owned();
                    Some(Line::Text(text))
                };
                self.buf.drain(..=end);
                self.scanned = 0;
                if line.is_some() {
                    return line;
                }
                continue;
            }
            self.scanned = self.buf.len();
            if self.discarding || self.scanned > MAX_LINE_BYTES {
                self.buf.clear();
                self.scanned = 0;
                if !std::mem::replace(&mut self.discarding, true) {
                    return Some(Line::TooLong);
                }
            }
            if self.last_read_done {
                return None;
            }
            self.last_read_done = stop.load(Ordering::Acquire);
            match self.stream.read(&mut chunk) {
                Ok(0) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => return None,
            }
        }
    }
}

fn write_reply(out: &mut impl Write, reply: &Value) -> io::Result<()> {
    let mut line = reply.to_string_compact();
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn handle_connection(stream: TcpStream, executor: Arc<Executor>, stop: Arc<Stop>) {
    let mut out = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = match LineReader::new(stream) {
        Ok(r) => r,
        Err(_) => return,
    };
    while let Some(line) = reader.next_line(&stop.flag) {
        let line = match line {
            Line::Text(text) => text,
            Line::TooLong => {
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                if write_reply(&mut out, &error_reply(&message)).is_err() {
                    return;
                }
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let outcome = match parse_request(&line) {
            Err(e) => write_reply(&mut out, &error_reply(&e.message)),
            Ok(Request::Ping) => write_reply(&mut out, &pong_reply()),
            Ok(Request::Stats) => {
                let stats = executor.stats();
                write_reply(
                    &mut out,
                    &stats_reply(
                        stats.queue_depth,
                        stats.inflight,
                        stats.pool_saturation,
                        &stats.counters,
                    ),
                )
            }
            Ok(Request::Shutdown) => {
                executor.drain();
                stop.set();
                let _ = write_reply(&mut out, &shutdown_ack_reply());
                return;
            }
            Ok(Request::Sweep(scenario_json)) => handle_sweep(&executor, &scenario_json, &mut out),
        };
        if outcome.is_err() {
            return; // client went away mid-reply
        }
    }
}

/// Validate, admit, stream, and report one sweep request. The replies go
/// through one buffer over the connection, written out before each wait
/// for a point and after the last line: a sweep answered from the cache
/// is one `write`, and a point that lands is on the wire before the
/// handler waits for the next.
fn handle_sweep(executor: &Executor, scenario_json: &Value, out: &mut TcpStream) -> io::Result<()> {
    let mut out = BufWriter::new(out);
    stream_sweep(executor, scenario_json, &mut out)?;
    out.flush()
}

/// [`handle_sweep`]'s replies, into `out`.
fn stream_sweep(
    executor: &Executor,
    scenario_json: &Value,
    out: &mut impl Write,
) -> io::Result<()> {
    // The same strict parser (and validator) as `tlb-run sweep` — but a
    // schema error becomes a structured reply instead of an exit code.
    let scenario = match Scenario::from_json(scenario_json) {
        Ok(s) => s,
        Err(e) => return write_reply(out, &error_reply(&format!("invalid scenario: {e}"))),
    };

    let admitted = match executor.admit(&scenario) {
        Admission::Shed {
            retry_after_ms,
            queue_depth,
            queue_bound,
            draining,
        } => {
            return write_reply(
                out,
                &shed_reply(retry_after_ms, queue_depth, queue_bound, draining),
            )
        }
        Admission::Admitted(req) => req,
    };

    write_reply(
        out,
        &ack_reply(
            admitted.points.len(),
            admitted.cache_hits,
            admitted.dedup_hits,
            admitted.enqueued,
        ),
    )?;

    // Stream cache hits immediately (in index order), then live
    // completions as they land, each key's points in index order. A
    // pending key has no slot filled: a cache hit fills all of its key's.
    let mut slots = admitted.slots;
    for (i, slot) in slots.iter().enumerate() {
        if let Some(record) = slot {
            write_reply(out, &point_reply(i, admitted.keys[i], record))?;
        }
    }
    let mut failure: Option<String> = None;
    for _ in 0..admitted.pending {
        out.flush()?;
        match admitted.rx.recv() {
            Ok((key, Ok(record))) => {
                for i in admitted.by_key.indices_of(key) {
                    write_reply(out, &point_reply(i, key, &record))?;
                    slots[i] = Some(record.clone());
                }
            }
            Ok((_key, Err(message))) => {
                failure.get_or_insert(message);
            }
            Err(_) => {
                failure.get_or_insert_with(|| "executor stopped".into());
                break;
            }
        }
    }
    if let Some(message) = failure {
        return write_reply(out, &error_reply(&format!("point failed: {message}")));
    }

    // Every slot is filled; aggregate sequentially in expansion order —
    // the same pure function the offline sweep uses, so the report is
    // bitwise identical to `tlb-run sweep` on this scenario.
    let records: Vec<Value> = slots
        .into_iter()
        .map(|s| s.expect("all points resolved"))
        .collect();
    let report = aggregate(&scenario, &admitted.points, records);
    write_reply(out, &report_reply(&report))
}

/// Resolve-and-bind helper shared by the CLI: surfaces a clear message
/// when `addr` does not parse instead of a bare io error.
pub fn validate_addr(addr: &str) -> Result<(), String> {
    addr.to_socket_addrs()
        .map(|_| ())
        .map_err(|e| format!("invalid --addr {addr:?}: {e}"))
}
