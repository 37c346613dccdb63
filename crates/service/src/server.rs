//! `std`-only TCP server: one accept thread plus a bounded worker pool,
//! hardened against hostile and slow peers.
//!
//! Connections are accepted on a dedicated thread and pushed onto a
//! `Mutex<VecDeque<TcpStream>>`; `workers` pool threads pop connections
//! and run each one to completion (connection-per-worker). A connection
//! is served by one loop: read a frame, handle it, write the answer
//! tagged with the request's id. Answers therefore leave in request
//! order, and a client may pipeline by sending several frames before
//! reading any answer.
//!
//! Answers are written into a buffer, which is flushed after each answer
//! unless the read buffer already holds the whole next frame. A pipelined
//! burst is thus answered with one write, and the loop never blocks on
//! the socket while an answer sits unflushed.
//!
//! # Robustness
//!
//! * Every connection carries **read/write deadlines**
//!   ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`]),
//!   so a stalled client can pin a worker for at most one read deadline:
//!   an idle peer is closed silently, one that went quiet mid-frame gets a
//!   best-effort `Timeout` error frame first.
//! * Each request has a **time budget**
//!   ([`ServerConfig::request_budget`]); a response produced after the
//!   budget is replaced by a `Timeout` error (a blocking engine call
//!   cannot be interrupted, so the budget is enforced at response time).
//! * A request whose handling **panics** is answered with an
//!   `EngineError` frame on its own id; the worker and the connection
//!   live on.
//! * The accept queue is **bounded** ([`ServerConfig::max_queued`]):
//!   excess connections are answered immediately with an `Overloaded`
//!   error frame and closed — shed, not queued. Sheds are counted on
//!   [`ServerHandle::shed_count`].
//! * **Shutdown drains**: stop accepting, shed the queued backlog, let
//!   in-flight requests finish up to [`ServerConfig::drain_deadline`],
//!   then force-close the remaining sockets and join every thread.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::proto::{
    holds_whole_frame, read_frame, write_frame, ErrorCode, FrameError, Request, Response,
};
use crate::registry::EmbeddingRegistry;

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads serving connections (minimum 1).
    pub workers: usize,
    /// Per-connection read deadline. A peer that sends nothing for this
    /// long is disconnected (silently when idle between requests, with a
    /// `Timeout` error frame when it stalled mid-frame). `None` disables
    /// the deadline — a stalled client then pins its worker indefinitely,
    /// and drain can only finish by force-closing the socket.
    pub read_timeout: Option<Duration>,
    /// Per-connection write deadline; bounds how long a non-reading peer
    /// can block a response (or shed notice) being written.
    pub write_timeout: Option<Duration>,
    /// Per-request time budget. A request whose handling exceeds it is
    /// answered with a `Timeout` error instead of the late result.
    /// `None` disables the budget.
    pub request_budget: Option<Duration>,
    /// Accept-queue bound: when this many connections are already queued
    /// waiting for a worker, new connections are shed (answered with an
    /// `Overloaded` error frame and closed) instead of queued.
    pub max_queued: usize,
    /// How long shutdown waits for in-flight connections to finish before
    /// force-closing their sockets.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            request_budget: Some(Duration::from_secs(10)),
            max_queued: 64,
            drain_deadline: Duration::from_secs(2),
        }
    }
}

/// The embedding service's TCP front end. Construct with [`Server::bind`];
/// the returned [`ServerHandle`] owns the threads.
pub struct Server;

/// A running server: address accessor plus explicit shutdown/join.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    tracker: Arc<ConnTracker>,
    shed: Arc<AtomicU64>,
    drain_deadline: Duration,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

struct ConnQueue {
    deque: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// Clones of the sockets workers are currently serving, so shutdown can
/// force-close stragglers once the drain deadline passes.
struct ConnTracker {
    conns: Mutex<HashMap<u64, TcpStream>>,
    next: AtomicU64,
}

impl ConnTracker {
    fn register(&self, conn: &TcpStream) -> Option<u64> {
        let clone = conn.try_clone().ok()?;
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().unwrap().insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns.lock().unwrap().remove(&id);
        }
    }

    fn active(&self) -> usize {
        self.conns.lock().unwrap().len()
    }

    fn force_close_all(&self) {
        for conn in self.conns.lock().unwrap().values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Everything a worker needs to serve connections.
struct WorkerCtx {
    registry: Arc<EmbeddingRegistry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    tracker: Arc<ConnTracker>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `registry` with `config.workers` pool threads.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<EmbeddingRegistry>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(ConnQueue {
            deque: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        let tracker = Arc::new(ConnTracker {
            conns: Mutex::new(HashMap::new()),
            next: AtomicU64::new(0),
        });
        let shed = Arc::new(AtomicU64::new(0));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            let shed = Arc::clone(&shed);
            let max_queued = config.max_queued;
            let write_timeout = config.write_timeout;
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    let backlog = {
                        let mut q = queue.deque.lock().unwrap();
                        if q.len() < max_queued {
                            q.push_back(conn);
                            None
                        } else {
                            Some(conn)
                        }
                    };
                    match backlog {
                        None => queue.ready.notify_one(),
                        Some(conn) => {
                            // Queue full: shed. Answered outside the queue
                            // lock; the write deadline bounds how long a
                            // non-reading peer can stall the accept loop.
                            shed.fetch_add(1, Ordering::Relaxed);
                            shed_connection(conn, write_timeout, "accept queue full");
                        }
                    }
                }
            })
        };

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let ctx = WorkerCtx {
                    registry: Arc::clone(&registry),
                    config: config.clone(),
                    shutdown: Arc::clone(&shutdown),
                    tracker: Arc::clone(&tracker),
                };
                std::thread::spawn(move || loop {
                    let conn = {
                        let mut q = queue.deque.lock().unwrap();
                        loop {
                            if ctx.shutdown.load(Ordering::SeqCst) {
                                break None;
                            }
                            if let Some(conn) = q.pop_front() {
                                break Some(conn);
                            }
                            q = queue.ready.wait(q).unwrap();
                        }
                    };
                    match conn {
                        Some(conn) => serve_connection(conn, &ctx),
                        None => return,
                    }
                })
            })
            .collect();

        Ok(ServerHandle {
            addr,
            shutdown,
            queue,
            tracker,
            shed,
            drain_deadline: config.drain_deadline,
            accept: Some(accept),
            workers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections shed so far (answered `Overloaded` because the accept
    /// queue was full, plus any backlog shed during shutdown).
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, shed the queued backlog, let
    /// in-flight requests finish up to the drain deadline, force-close
    /// whatever remains, then join all threads. Idempotent; also invoked
    /// by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop: it only re-checks the flag per incoming
        // connection, so hand it one.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Nobody will serve the queued backlog anymore — shed it rather
        // than leaving the peers to hit their own read deadlines.
        let backlog: Vec<TcpStream> = self.queue.deque.lock().unwrap().drain(..).collect();
        for conn in backlog {
            self.shed.fetch_add(1, Ordering::Relaxed);
            shed_connection(conn, Some(Duration::from_millis(200)), "server draining");
        }
        // Take and release the queue lock before notifying: a worker that
        // loaded shutdown==false is either still holding the lock (it will
        // reach wait() before we can acquire, so the notify lands) or
        // already waiting — either way no wakeup is missed.
        drop(self.queue.deque.lock().unwrap());
        self.queue.ready.notify_all();
        // Drain: in-flight connections close themselves after their current
        // request (workers re-check the flag per request, and read
        // deadlines bound the wait for a next request that never comes).
        let deadline = Instant::now() + self.drain_deadline;
        while self.tracker.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Past the deadline: force-close the stragglers' sockets so their
        // workers' blocking reads/writes fail and the threads exit.
        self.tracker.force_close_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Best-effort `Overloaded` answer on a connection that will not be
/// served, then close. Runs on a short-lived detached thread so the
/// accept loop never blocks on a shed peer; the thread half-closes and
/// then drains briefly so the close doesn't turn into an RST that
/// destroys the error frame before the peer reads it (closing a socket
/// with unread inbound data resets the connection).
fn shed_connection(conn: TcpStream, write_timeout: Option<Duration>, why: &'static str) {
    std::thread::spawn(move || {
        let _ = conn.set_write_timeout(write_timeout.or(Some(Duration::from_secs(1))));
        let resp = Response::Error {
            code: ErrorCode::Overloaded,
            message: why.to_string(),
        };
        let mut writer = &conn;
        if write_frame(&mut writer, 0, &resp.encode()).is_err() {
            return;
        }
        let _ = conn.shutdown(Shutdown::Write);
        let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
        let mut sink = [0u8; 4096];
        let mut reader = &conn;
        while matches!(io::Read::read(&mut reader, &mut sink), Ok(n) if n > 0) {}
    });
}

/// Decode, dispatch, and budget-check one request. A panic in the
/// handler becomes an `EngineError` answer, so one poisonous request
/// cannot take its worker down.
fn process_request(payload: &[u8], ctx: &WorkerCtx) -> Response {
    let started = Instant::now();
    let mut resp = match Request::decode(payload) {
        Ok(req) => catch_unwind(AssertUnwindSafe(|| {
            crate::handle_request(&ctx.registry, &req)
        }))
        .unwrap_or_else(|panic| Response::Error {
            code: ErrorCode::EngineError,
            message: format!("request handler panicked: {}", panic_message(&*panic)),
        }),
        // Framing stays intact on a malformed *payload* — only this
        // request is poisoned — so answer and keep the connection.
        Err(code) => Response::Error {
            code,
            message: match code {
                ErrorCode::UnknownOpcode => "unknown request opcode".into(),
                _ => "malformed request payload".into(),
            },
        },
    };
    if let Some(budget) = ctx.config.request_budget {
        let spent = started.elapsed();
        if spent > budget {
            resp = Response::Error {
                code: ErrorCode::Timeout,
                message: format!(
                    "request exceeded its {}ms budget (took {}ms)",
                    budget.as_millis(),
                    spent.as_millis()
                ),
            };
        }
    }
    resp
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Answer a frame-read failure (best effort); the connection is over
/// either way. These failures belong to no request, so their error
/// frames carry id 0.
fn answer_read_error(err: FrameError, writer: &mut impl Write) {
    match err {
        FrameError::Closed | FrameError::Truncated | FrameError::Io(_) => {}
        FrameError::TimedOut { mid_frame } => {
            // Disconnect either way — the deadline is how a stalled
            // client's worker returns to the pool. A peer that went
            // quiet mid-frame can still be reading, so tell it why.
            if mid_frame {
                let resp = Response::Error {
                    code: ErrorCode::Timeout,
                    message: "read deadline expired mid-frame".into(),
                };
                let _ = write_frame(writer, 0, &resp.encode());
            }
        }
        FrameError::TooLarge(n) => {
            // The announced body was never read, so the stream is out
            // of sync: answer with a structured error, then close.
            let resp = Response::Error {
                code: ErrorCode::FrameTooLarge,
                message: format!("declared frame of {n} bytes exceeds the cap"),
            };
            let _ = write_frame(writer, 0, &resp.encode());
        }
    }
}

/// Run one connection to completion, bounded by the configured deadlines
/// and the drain flag: read a frame, handle it, answer it on its id.
fn serve_connection(conn: TcpStream, ctx: &WorkerCtx) {
    if conn.set_read_timeout(ctx.config.read_timeout).is_err()
        || conn.set_write_timeout(ctx.config.write_timeout).is_err()
    {
        return;
    }
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let id = ctx.tracker.register(&conn);
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(conn);
    loop {
        let (req_id, payload) = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(e) => {
                answer_read_error(e, &mut writer);
                break;
            }
        };
        let resp = process_request(&payload, ctx);
        if write_frame(&mut writer, req_id, &resp.encode()).is_err() {
            break;
        }
        // Hold the answer back only while the next request is already
        // here: the next read then cannot block with it unflushed.
        if !holds_whole_frame(reader.buffer()) && writer.flush().is_err() {
            break;
        }
        // Draining: finish the in-flight request (just answered), then
        // close instead of waiting for another.
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    let _ = writer.flush();
    ctx.tracker.unregister(id);
}
