//! A blocking `ssr-serve/v1` client: one TCP connection, line-oriented
//! request/response exchange.
//!
//! The protocol multiplexes streamed `job` lines with direct
//! request/response pairs on the same connection, so control operations
//! issued *while a submission is streaming* would have to skip stream
//! lines to find their answer.  The intended shape — and what `ssr
//! submit` does — is one connection per concern: a streaming connection
//! per submission, and a fresh connection for each `cancel`/`status`/
//! `shutdown`.  The server routes cancellation by request id, not by
//! connection, so cancelling from a second connection is the normal path.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ssr_engine::{CampaignReport, CampaignSpec, JobResult};

use crate::protocol::{
    cancel_request, parse_response, shutdown_request, status_request, submit_request, Response,
    StatusEntry,
};

/// A connected client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A submission acknowledged by the server.
#[derive(Debug, Clone)]
pub struct Submission {
    /// The id the server assigned (use it to cancel).
    pub id: u64,
    /// Journal file name on the server, when persistence is on.
    pub journal: Option<String>,
}

/// The terminated result stream of one submission.
#[derive(Debug, Clone)]
pub struct Completed {
    /// The final report (partial when cancelled).
    pub report: CampaignReport,
    /// `true` when the run was cancelled before finishing.
    pub cancelled: bool,
}

impl Client {
    /// Connects to a serving daemon.
    ///
    /// A refused connection is retried twice with a deterministic bounded
    /// backoff (100 ms, then 200 ms): the common race is a daemon that is
    /// still binding its listener — or restarting under a supervisor — and
    /// `ConnectionRefused` is the one error that is both transient and
    /// instantaneous, so retrying it cannot stack timeouts.  Every other
    /// error (unreachable host, resolution failure) propagates at once.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let mut refused = None;
        for attempt in 0..3u32 {
            if attempt > 0 {
                std::thread::sleep(std::time::Duration::from_millis(100 << (attempt - 1)));
            }
            match TcpStream::connect(&addr) {
                Ok(writer) => {
                    // Each request is one small line: without this the
                    // kernel holds it back until the peer's delayed ACK.
                    writer.set_nodelay(true)?;
                    let reader = BufReader::new(writer.try_clone()?);
                    return Ok(Client { reader, writer });
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => refused = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(refused.expect("loop exits early unless every attempt was refused"))
    }

    fn send_line(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("connection lost while sending: {e}"))
    }

    /// Reads and parses the next response line.
    ///
    /// # Errors
    /// Connection loss (including a server that closed the stream) and
    /// protocol violations.
    pub fn next_response(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("connection lost while reading: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        parse_response(line.trim_end())
    }

    /// Submits a campaign and waits for the ack.
    ///
    /// # Errors
    /// Connection errors, protocol violations, and server-side rejections
    /// (`error` responses: unknown spec names, full queue, bad resume
    /// journal) — all as human-readable messages.
    pub fn submit(
        &mut self,
        spec: &CampaignSpec,
        priority: u32,
        resume: Option<&str>,
    ) -> Result<Submission, String> {
        self.send_line(&submit_request(spec, priority, resume).render())?;
        match self.next_response()? {
            Response::Ack { id, journal, .. } => Ok(Submission { id, journal }),
            Response::Error { message, .. } => Err(message),
            other => Err(format!("expected ack, got {other:?}")),
        }
    }

    /// Consumes this submission's stream until the terminating report,
    /// feeding each streamed job to `on_job`.
    ///
    /// # Errors
    /// Connection loss before the report arrives, protocol violations,
    /// and request-scoped `error` responses.
    pub fn stream_to_completion(
        &mut self,
        id: u64,
        mut on_job: impl FnMut(&JobResult),
    ) -> Result<Completed, String> {
        loop {
            match self.next_response()? {
                Response::Job { id: job_id, result } if job_id == id => on_job(&result),
                Response::Report {
                    id: report_id,
                    cancelled,
                    report,
                } if report_id == id => {
                    return Ok(Completed { report, cancelled });
                }
                Response::Error { message, .. } => return Err(message),
                // Lines for other submissions on a shared connection (or
                // future additive response types) are skipped.
                _ => {}
            }
        }
    }

    /// [`Client::submit`] + [`Client::stream_to_completion`] in one call.
    ///
    /// # Errors
    /// See the two steps.
    pub fn run(
        &mut self,
        spec: &CampaignSpec,
        priority: u32,
        resume: Option<&str>,
        on_job: impl FnMut(&JobResult),
    ) -> Result<Completed, String> {
        let submission = self.submit(spec, priority, resume)?;
        self.stream_to_completion(submission.id, on_job)
    }

    /// Cancels request `id`; returns the state it was found in (`queued`,
    /// `running`, `finished`, `cancelled` or `unknown`).
    ///
    /// # Errors
    /// Connection errors and protocol violations.
    pub fn cancel(&mut self, id: u64) -> Result<String, String> {
        self.send_line(&cancel_request(id).render())?;
        loop {
            match self.next_response()? {
                Response::Cancelled {
                    id: cancelled_id,
                    state,
                } if cancelled_id == id => return Ok(state),
                Response::Error { message, .. } => return Err(message),
                // Skip stream lines if this connection also submitted.
                _ => {}
            }
        }
    }

    /// Fetches the status snapshot: `(queue depth, request rows)`.
    ///
    /// # Errors
    /// Connection errors and protocol violations.
    pub fn status(&mut self) -> Result<(u64, Vec<StatusEntry>), String> {
        self.send_line(&status_request().render())?;
        loop {
            match self.next_response()? {
                Response::Status {
                    queue_len,
                    requests,
                } => return Ok((queue_len, requests)),
                Response::Error { message, .. } => return Err(message),
                _ => {}
            }
        }
    }

    /// Asks the daemon to shut down; resolves once acknowledged.
    ///
    /// # Errors
    /// Connection errors and protocol violations.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send_line(&shutdown_request().render())?;
        loop {
            match self.next_response()? {
                Response::ShuttingDown => return Ok(()),
                Response::Error { message, .. } => return Err(message),
                _ => {}
            }
        }
    }

    /// Sends a raw line (protocol tests: malformed and oversized input).
    ///
    /// # Errors
    /// Connection errors.
    pub fn send_raw(&mut self, line: &str) -> Result<(), String> {
        self.send_line(line)
    }
}
