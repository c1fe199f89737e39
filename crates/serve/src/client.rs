//! A small blocking client for the serve protocol, used by the CLI,
//! the tests, and the `benchmark/` serve workloads. One request at a time per
//! connection; open several clients for concurrency.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use tlb_json::Value;

/// A connected protocol client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The full outcome of one `sweep` request.
#[derive(Debug)]
pub enum SweepResponse {
    /// Admitted and completed: the ack, every streamed `point` reply
    /// in arrival order, and the final aggregate report.
    Completed {
        /// The `ack` reply.
        ack: Value,
        /// Streamed `point` replies, in the order they arrived.
        points: Vec<Value>,
        /// The `report` reply's `"report"` payload.
        report: Value,
    },
    /// Shed by admission control; the full `shed` reply (including
    /// `retry_after_ms`).
    Shed(Value),
    /// A structured `error` reply (invalid scenario, failed point).
    Error(String),
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    fn send(&mut self, request: &Value) -> io::Result<()> {
        let mut line = request.to_string_compact();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    fn read_reply(&mut self) -> io::Result<Value> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        tlb_json::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply JSON: {e}")))
    }

    /// Send one request object and read exactly one reply line.
    pub fn request(&mut self, request: &Value) -> io::Result<Value> {
        self.send(request)?;
        self.read_reply()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Value> {
        self.request(&Value::object(vec![("cmd", "ping".into())]))
    }

    /// Executor counters and load snapshot.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.request(&Value::object(vec![("cmd", "stats".into())]))
    }

    /// Drain-and-stop; returns the `shutdown_ack` (sent only after the
    /// drain completed and the cache was flushed).
    pub fn shutdown(&mut self) -> io::Result<Value> {
        self.request(&Value::object(vec![("cmd", "shutdown".into())]))
    }

    /// Submit a scenario and collect the streamed response, invoking
    /// `on_point` for every `point` reply as it arrives.
    pub fn sweep_with(
        &mut self,
        scenario: &Value,
        mut on_point: impl FnMut(&Value),
    ) -> io::Result<SweepResponse> {
        self.send(&Value::object(vec![
            ("cmd", "sweep".into()),
            ("scenario", scenario.clone()),
        ]))?;
        let first = self.read_reply()?;
        match first.get("type").as_str() {
            Some("shed") => return Ok(SweepResponse::Shed(first)),
            Some("error") => {
                return Ok(SweepResponse::Error(
                    first.get("message").as_str().unwrap_or("").to_string(),
                ))
            }
            Some("ack") => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected reply type {other:?}"),
                ))
            }
        }
        let total = first.get("points_total").as_usize().unwrap_or(0);
        let mut points = Vec::with_capacity(total);
        loop {
            let reply = self.read_reply()?;
            match reply.get("type").as_str() {
                Some("point") => {
                    on_point(&reply);
                    points.push(reply);
                }
                Some("report") => {
                    return Ok(SweepResponse::Completed {
                        ack: first,
                        points,
                        report: reply.get("report").clone(),
                    })
                }
                Some("error") => {
                    return Ok(SweepResponse::Error(
                        reply.get("message").as_str().unwrap_or("").to_string(),
                    ))
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected mid-stream reply type {other:?}"),
                    ))
                }
            }
        }
    }

    /// [`Client::sweep_with`] without a streaming callback.
    pub fn sweep(&mut self, scenario: &Value) -> io::Result<SweepResponse> {
        self.sweep_with(scenario, |_| {})
    }
}
