//! The campaign-serving daemon: TCP accept loop, per-connection protocol
//! handling, and the dispatcher threads that run queued campaigns.
//!
//! ## Architecture
//!
//! One nonblocking accept loop hands each connection to its own reader
//! thread.  Requests are parsed line by line; `submit` registers the
//! request, opens its journal and enqueues it on the bounded
//! [`PriorityQueue`]; a fixed set of dispatcher threads pop requests and
//! run them on the engine's worker pool via
//! [`CampaignSpec::run_with_hooks`].  Responses are *multiplexed* back
//! over the submitting connection: each client socket is wrapped in a
//! mutex-guarded sink, and every response is one line written atomically
//! under that lock, so streamed `job` lines from a dispatcher interleave
//! safely with `ack`/`status` lines from the reader thread.
//!
//! A client that disconnects mid-stream only makes its sink's writes fail;
//! the dispatcher ignores the failure and the campaign runs to completion
//! (its journal survives, so the work is not lost), and every other
//! connection keeps streaming.
//!
//! ## Durability
//!
//! With a journal directory configured, every accepted request opens a
//! `req-<id>.journal` checkpoint before it is enqueued, and every finished
//! job is flushed to it as it lands.  A daemon killed mid-campaign
//! therefore loses no completed job: restart it on the same directory and
//! resubmit with `resume: "req-<id>.journal"` — recorded results are
//! identity-validated and reused, and the resumed report is canonically
//! identical to an uninterrupted run.  Journals of successfully delivered,
//! uncancelled campaigns are deleted; cancelled or undeliverable ones are
//! kept as resume material.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ssr_engine::json::Json;
use ssr_engine::persist::Checkpoint;
use ssr_engine::{load_partial, CampaignReport, CampaignSpec, CancelToken, JobResult, RunHooks};

use crate::protocol::{
    ack_response, cancelled_response, error_response, job_response, parse_request, report_response,
    shutdown_response, status_response, Request, RequestState, StatusEntry, MAX_LINE_BYTES,
};
use crate::queue::PriorityQueue;

/// Configuration for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (e.g. `127.0.0.1:7878`; port `0` picks a free one —
    /// read it back from [`Server::local_addr`]).
    pub addr: String,
    /// Pending requests the priority queue holds before rejecting submits.
    pub queue_capacity: usize,
    /// Dispatcher threads: campaigns running concurrently.
    pub dispatchers: usize,
    /// Worker threads per campaign (`0` = one per CPU).  Overrides
    /// whatever the submitted spec asked for: thread count is the
    /// server's resource to allocate, and it never changes verdicts or
    /// canonical reports.
    pub job_threads: usize,
    /// Directory for per-request checkpoint journals (`None` disables
    /// persistence and `resume`).
    pub journal_dir: Option<PathBuf>,
    /// Per-connection socket write timeout in milliseconds (`0` = never).
    /// A client that stops reading mid-stream would otherwise block a
    /// dispatcher inside a `job` line write forever; with the timeout the
    /// write fails, the sink reports the client gone, and the campaign
    /// finishes into its journal as usual.
    pub write_timeout_ms: u64,
    /// Reap a connection that has been idle longer than this many
    /// milliseconds *and* has no queued or running submission of its own
    /// (`0` = never reap).  Streaming clients are never reaped: a live
    /// request keeps its connection alive however long the campaign runs.
    pub idle_timeout_ms: u64,
    /// Log accepted requests and completions to stderr.
    pub verbose: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            dispatchers: 1,
            job_threads: 0,
            journal_dir: None,
            write_timeout_ms: 30_000,
            idle_timeout_ms: 0,
            verbose: false,
        }
    }
}

/// One registered request's bookkeeping, shared between the connection
/// thread (acks, cancel) and the dispatcher (state transitions, streams).
#[derive(Debug)]
struct RequestEntry {
    id: u64,
    priority: u32,
    cancel: CancelToken,
    state: Mutex<RequestState>,
    sink: Sink,
    journal: Option<String>,
}

impl RequestEntry {
    fn state(&self) -> RequestState {
        *self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn set_state(&self, state: RequestState) {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) = state;
    }
}

/// A queued unit of work: the request entry plus everything the dispatcher
/// needs to run it.
#[derive(Debug)]
struct QueuedRequest {
    entry: Arc<RequestEntry>,
    spec: CampaignSpec,
    prior: Vec<JobResult>,
    checkpoint: Option<Checkpoint>,
}

/// A mutex-guarded client socket: one response line per `send`, written
/// atomically.  Write failures (client gone) are swallowed — the daemon
/// never lets one client's disconnect disturb another's service.
#[derive(Debug, Clone)]
struct Sink(Arc<Mutex<TcpStream>>);

impl Sink {
    fn new(stream: TcpStream) -> Self {
        Sink(Arc::new(Mutex::new(stream)))
    }

    /// Closes the underlying socket (both halves).  Needed when evicting a
    /// client: merely dropping the connection thread's handles is not
    /// enough, because sinks cloned into the request registry keep the
    /// stream alive.
    fn close(&self) {
        let stream = self.0.lock().unwrap_or_else(|p| p.into_inner());
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    /// Locks the sink for a multi-step critical section.  Used by submit
    /// admission: holding the guard across the queue push and the ack
    /// write guarantees the ack is the first line of the request's
    /// conversation — a dispatcher that pops the request immediately
    /// (instant for fully-reused resume submissions) blocks on this same
    /// lock before it can stream the first `job` line.
    fn locked(&self) -> SinkGuard<'_> {
        SinkGuard(self.0.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Writes one response line; `false` if the client is gone.
    fn send(&self, response: &Json) -> bool {
        self.locked().send(response)
    }
}

/// An exclusively held [`Sink`]; line writes stay atomic per `send`.
struct SinkGuard<'a>(std::sync::MutexGuard<'a, TcpStream>);

impl SinkGuard<'_> {
    fn send(&mut self, response: &Json) -> bool {
        let mut line = response.render();
        line.push('\n');
        self.0
            .write_all(line.as_bytes())
            .and_then(|()| self.0.flush())
            .is_ok()
    }
}

#[derive(Debug)]
struct Shared {
    queue: PriorityQueue<QueuedRequest>,
    registry: Mutex<BTreeMap<u64, Arc<RequestEntry>>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    job_threads: usize,
    journal_dir: Option<PathBuf>,
    write_timeout_ms: u64,
    idle_timeout_ms: u64,
    verbose: bool,
}

impl Shared {
    fn registry(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<RequestEntry>>> {
        self.registry.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn log(&self, message: std::fmt::Arguments<'_>) {
        if self.verbose {
            eprintln!("[serve] {message}");
        }
    }

    /// Flips the daemon into shutdown: the accept loop exits, the queue
    /// drains to `None`, and every outstanding request is cancelled.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        for entry in self.registry().values() {
            entry.cancel.cancel();
        }
    }
}

/// A running campaign-serving daemon.  Dropping the handle does *not* stop
/// it; call [`Server::shutdown`] (or send a protocol `shutdown` request
/// and [`Server::join`]).
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, starts the accept loop and the dispatcher
    /// threads, and returns the running server.
    ///
    /// # Errors
    /// Propagates binding and journal-directory I/O errors.
    pub fn spawn(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let mut first_free_id = 1;
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir)?;
            // Never reuse the id — and thus truncate the journal — of a
            // request from a previous daemon life on this directory.
            first_free_id = highest_journal_id(dir)? + 1;
        }

        let shared = Arc::new(Shared {
            queue: PriorityQueue::new(config.queue_capacity.max(1)),
            registry: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(first_free_id),
            shutdown: AtomicBool::new(false),
            job_threads: config.job_threads,
            journal_dir: config.journal_dir.clone(),
            write_timeout_ms: config.write_timeout_ms,
            idle_timeout_ms: config.idle_timeout_ms,
            verbose: config.verbose,
        });

        let mut threads = Vec::new();
        for worker in 0..config.dispatchers.max(1) {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ssr-serve-dispatch-{worker}"))
                    .spawn(move || dispatch_loop(&shared))?,
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("ssr-serve-accept".into())
                    .spawn(move || accept_loop(listener, &shared))?,
            );
        }

        Ok(Server {
            local_addr,
            shared,
            threads,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the daemon stops (a protocol `shutdown` request, or a
    /// prior [`Server::shutdown`] call from another handle).
    pub fn join(self) {
        for handle in self.threads {
            let _ = handle.join();
        }
    }

    /// Stops the daemon — cancels all outstanding requests, drains the
    /// queue — and waits for its threads.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }
}

/// Highest `req-<N>.journal` id present in `dir`, or 0.
fn highest_journal_id(dir: &std::path::Path) -> std::io::Result<u64> {
    let mut highest = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix("req-")
            .and_then(|rest| rest.strip_suffix(".journal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            highest = highest.max(id);
        }
    }
    Ok(highest)
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                shared.log(format_args!("connection from {peer}"));
                let shared = Arc::clone(shared);
                // Connection threads are not joined: they exit on client
                // EOF (or oversized-line eviction), and process exit reaps
                // any stragglers.
                let _ = std::thread::Builder::new()
                    .name(format!("ssr-serve-conn-{peer}"))
                    .spawn(move || serve_connection(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                shared.log(format_args!("accept error: {e}"));
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (without its `\n`).
    Line,
    /// Clean end of stream.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`]; the stream cannot be
    /// resynchronised.
    Oversized,
    /// The socket's read timeout elapsed with no data.  Any partial line
    /// stays in `buf`; call again to keep reading it.
    Idle,
}

/// Reads one `\n`-terminated line into `buf`, never buffering more than
/// [`MAX_LINE_BYTES`] + one chunk.  An unterminated final line before EOF
/// is returned as a line (clients that close without a trailing newline
/// still get their last request served).  The caller clears `buf` between
/// lines — not this function — so an [`LineRead::Idle`] wakeup never drops
/// the bytes of a line still in flight.
fn read_line_bounded<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> std::io::Result<LineRead> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(LineRead::Idle)
            }
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(if buf.len() > MAX_LINE_BYTES {
                    LineRead::Oversized
                } else {
                    LineRead::Line
                });
            }
            None => {
                let taken = chunk.len();
                buf.extend_from_slice(chunk);
                reader.consume(taken);
                if buf.len() > MAX_LINE_BYTES {
                    return Ok(LineRead::Oversized);
                }
            }
        }
    }
}

/// `true` while any of this connection's submissions is queued or running
/// — such a connection is *streaming*, not idle, and must not be reaped.
fn has_live_submission(shared: &Shared, submitted: &[u64]) -> bool {
    let registry = shared.registry();
    submitted.iter().any(|id| {
        registry.get(id).is_some_and(|entry| {
            matches!(entry.state(), RequestState::Queued | RequestState::Running)
        })
    })
}

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Socket-level hardening.  The write timeout bounds how long a
    // dispatcher can be held by a client that stopped reading; the read
    // timeout doubles as the idle-reap poll tick (a timed-out read is the
    // only moment this thread can notice it has been abandoned).  Every
    // response is one small line, which Nagle's algorithm would hold back
    // until the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    if shared.write_timeout_ms > 0 {
        let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.write_timeout_ms)));
    }
    let idle_timeout =
        (shared.idle_timeout_ms > 0).then(|| Duration::from_millis(shared.idle_timeout_ms));
    if let Some(idle) = idle_timeout {
        let tick = (idle / 4).clamp(Duration::from_millis(10), Duration::from_millis(1000));
        let _ = stream.set_read_timeout(Some(tick));
    }
    let reader_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let sink = Sink::new(stream);
    let mut reader = BufReader::new(reader_stream);
    let mut buf = Vec::new();
    let mut submitted: Vec<u64> = Vec::new();
    let mut last_activity = std::time::Instant::now();
    loop {
        buf.clear();
        let outcome = loop {
            match read_line_bounded(&mut reader, &mut buf) {
                Ok(LineRead::Idle) => {
                    let Some(idle) = idle_timeout else { continue };
                    if has_live_submission(shared, &submitted) {
                        last_activity = std::time::Instant::now();
                    } else if last_activity.elapsed() >= idle {
                        shared.log(format_args!(
                            "reaping connection idle for {} ms",
                            last_activity.elapsed().as_millis()
                        ));
                        sink.close();
                        return;
                    }
                }
                other => break other,
            }
        };
        match outcome {
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::Oversized) => {
                sink.send(&error_response(
                    None,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                ));
                sink.close();
                return;
            }
            Ok(LineRead::Line) => {}
            Ok(LineRead::Idle) => unreachable!("Idle is consumed by the inner loop"),
        }
        last_activity = std::time::Instant::now();
        let Ok(line) = std::str::from_utf8(&buf) else {
            sink.send(&error_response(None, "request line is not UTF-8"));
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line) {
            Err(message) => {
                sink.send(&error_response(None, &message));
            }
            Ok(Request::Submit {
                spec,
                priority,
                resume,
            }) => {
                if let Some(id) = handle_submit(shared, &sink, *spec, priority, resume) {
                    submitted.push(id);
                }
            }
            Ok(Request::Status) => {
                let entries: Vec<StatusEntry> = shared
                    .registry()
                    .values()
                    .map(|e| StatusEntry {
                        id: e.id,
                        priority: e.priority,
                        state: e.state().name().to_owned(),
                    })
                    .collect();
                sink.send(&status_response(&entries, shared.queue.len()));
            }
            Ok(Request::Cancel { id }) => handle_cancel(shared, &sink, id),
            Ok(Request::Shutdown) => {
                shared.log(format_args!("shutdown requested"));
                sink.send(&shutdown_response());
                shared.begin_shutdown();
                return;
            }
        }
    }
}

/// Admits one submission; returns the assigned id if the request was
/// accepted (the connection tracks its ids for idle-reap exemption).
fn handle_submit(
    shared: &Arc<Shared>,
    sink: &Sink,
    mut spec: CampaignSpec,
    priority: u32,
    resume: Option<String>,
) -> Option<u64> {
    // Execution parameters are the server's business: worker threads come
    // from the daemon's config, and stderr verbosity stays off.  Resource
    // budgets, by contrast, are the *client's* choice and ride through —
    // an exhausted budget becomes a structured `budget_*` error record in
    // the streamed report, never a dead dispatcher.
    spec.threads = shared.job_threads;
    spec.verbose = false;

    // Load resume material *before* creating the new journal: a client may
    // resume from the very file the new request is about to truncate (same
    // id after a restart), and the recorded results must be read first.
    let mut prior = Vec::new();
    if let Some(name) = &resume {
        let Some(dir) = &shared.journal_dir else {
            sink.send(&error_response(
                None,
                "server has no journal directory; resume is unavailable",
            ));
            return None;
        };
        let path = dir.join(name);
        let loaded = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read journal `{name}`: {e}"))
            .and_then(|text| load_partial(&text).map_err(|e| format!("journal `{name}`: {e}")));
        match loaded {
            Ok(partial) => prior = partial.jobs,
            Err(message) => {
                sink.send(&error_response(None, &message));
                return None;
            }
        }
    }

    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let jobs = spec.jobs();

    // Durability before admission: the journal exists (header written and
    // flushed) by the time the ack goes out, so an accepted request can
    // always be resumed, even if the daemon dies before a job finishes.
    let mut checkpoint = None;
    let mut journal_name = None;
    if let Some(dir) = &shared.journal_dir {
        let name = format!("req-{id}.journal");
        match Checkpoint::create(&dir.join(&name), spec.granularity.name(), jobs.len()) {
            Ok(cp) => {
                checkpoint = Some(cp);
                journal_name = Some(name);
            }
            Err(e) => {
                sink.send(&error_response(
                    Some(id),
                    &format!("cannot create journal: {e}"),
                ));
                return None;
            }
        }
    }

    let entry = Arc::new(RequestEntry {
        id,
        priority,
        cancel: CancelToken::new(),
        state: Mutex::new(RequestState::Queued),
        sink: sink.clone(),
        journal: journal_name,
    });
    shared.registry().insert(id, Arc::clone(&entry));

    let queued = QueuedRequest {
        entry: Arc::clone(&entry),
        spec,
        prior,
        checkpoint,
    };
    // The ack must be the first line of this request's conversation.  A
    // dispatcher can pop the request the instant it is pushed — and a
    // fully-reused resume submission streams its first `job` line with no
    // computation in between — so the push happens while this guard holds
    // the sink: the dispatcher's first write blocks until the ack is out.
    let mut gate = sink.locked();
    match shared.queue.push(id, priority, queued) {
        Ok(queue_len) => {
            shared.log(format_args!(
                "request {id} accepted (priority {priority}, {} jobs, queue {queue_len})",
                jobs.len()
            ));
            gate.send(&ack_response(id, queue_len, entry.journal.as_deref()));
            Some(id)
        }
        Err(full) => {
            // Rejected: withdraw the registration and drop the journal —
            // the request never existed as far as clients are concerned.
            shared.registry().remove(&id);
            if let (Some(dir), Some(name)) = (&shared.journal_dir, &entry.journal) {
                let _ = std::fs::remove_file(dir.join(name));
            }
            gate.send(&error_response(Some(id), &full.to_string()));
            None
        }
    }
}

fn handle_cancel(shared: &Arc<Shared>, sink: &Sink, id: u64) {
    let entry = shared.registry().get(&id).cloned();
    let Some(entry) = entry else {
        sink.send(&cancelled_response(id, "unknown"));
        return;
    };
    match entry.state() {
        RequestState::Finished => {
            sink.send(&cancelled_response(id, "finished"));
        }
        RequestState::Cancelled => {
            sink.send(&cancelled_response(id, "cancelled"));
        }
        RequestState::Queued | RequestState::Running => {
            // Set the token first: if the dispatcher pops the request
            // between our remove attempt and its admission check, the
            // check still sees the cancellation and no job ever starts.
            entry.cancel.cancel();
            if let Some(removed) = shared.queue.remove(id) {
                removed.entry.set_state(RequestState::Cancelled);
                let report = empty_report(&removed.spec);
                removed.entry.sink.send(&report_response(id, true, &report));
                shared.log(format_args!("request {id} cancelled while queued"));
                sink.send(&cancelled_response(id, "queued"));
            } else {
                shared.log(format_args!("request {id} cancelled while running"));
                sink.send(&cancelled_response(id, "running"));
            }
        }
    }
}

/// The terminating report of a request that never ran any job.
fn empty_report(spec: &CampaignSpec) -> CampaignReport {
    CampaignReport {
        threads: 0,
        granularity: spec.granularity.name().to_owned(),
        jobs: Vec::new(),
        total_wall_ms: 0,
    }
}

fn dispatch_loop(shared: &Arc<Shared>) {
    while let Some((id, request)) = shared.queue.pop() {
        let entry = &request.entry;
        if entry.cancel.is_cancelled() {
            // Cancelled (or daemon shutdown) after queuing but before any
            // job started: terminate the stream with a cancelled report.
            entry.set_state(RequestState::Cancelled);
            entry
                .sink
                .send(&report_response(id, true, &empty_report(&request.spec)));
            continue;
        }
        entry.set_state(RequestState::Running);
        shared.log(format_args!(
            "request {id} starts ({} jobs)",
            request.spec.jobs().len()
        ));

        let on_job = |result: &JobResult| {
            entry.sink.send(&job_response(id, result));
        };
        let hooks = RunHooks {
            cancel: Some(&entry.cancel),
            on_job: Some(&on_job),
        };
        let report =
            request
                .spec
                .run_with_hooks(&request.prior, request.checkpoint.as_ref(), None, hooks);

        let cancelled = entry.cancel.is_cancelled();
        entry.set_state(if cancelled {
            RequestState::Cancelled
        } else {
            RequestState::Finished
        });
        let delivered = entry.sink.send(&report_response(id, cancelled, &report));
        shared.log(format_args!(
            "request {id} {} ({} jobs, delivered: {delivered})",
            if cancelled { "cancelled" } else { "finished" },
            report.jobs.len(),
        ));

        // A delivered, uncancelled campaign no longer needs its journal;
        // cancelled or undelivered ones keep it as resume material.
        if delivered && !cancelled {
            if let Some(checkpoint) = &request.checkpoint {
                let _ = std::fs::remove_file(checkpoint.path());
            }
        }
    }
}
