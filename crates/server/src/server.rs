//! The threaded job server: accept loop, a *fixed* pool of connection
//! handlers fed by a bounded queue, and the job execution path that hands
//! compute to the multi-job stage scheduler through the stage cache.
//!
//! One thread accepts and enqueues connections; a fixed pool of
//! [`ServerConfig::handlers`] threads drains the queue and runs the frame
//! loop — the server's thread count is a constant, not a function of how
//! many peers connect. When the queue already holds
//! [`ServerConfig::queue_depth`] connections the acceptor refuses the
//! newcomer with a typed [`ErrorCode::Overloaded`] frame and closes it:
//! saturation is an explicit, machine-readable condition, never an
//! unbounded thread spawn or a silent hang.
//!
//! Submissions resolve through [`StageCache::get_or_compute`], so
//! concurrent identical jobs coalesce on one computation and an evicted
//! job is served from its spilled response. The computation itself does
//! not run on the connection thread: it is submitted to the process-wide
//! [`Scheduler`] in the lane the request's priority byte names, where its
//! stages interleave with every other admitted job (see
//! `jigsaw_core::sched`). A response is always the same bytes `run_jigsaw`
//! would produce solo — the staged pipeline is deterministic at every
//! thread count and the encoded `JigsawResult` excludes wall clocks —
//! regardless of lane or interleaving.
//!
//! Serving counters — jobs, overload refusals and the cache's outcomes —
//! live in a [`Registry`] the server owns, so two servers in one process
//! never share a count. The metrics frame renders that registry, then
//! [`telemetry::global`] with the scheduler, stage and distributed-sweep
//! families.
//!
//! Shutdown is cooperative: a [`FrameKind::Shutdown`] frame (or
//! [`ServerHandle::shutdown`]) raises a flag, a self-connection unblocks
//! the acceptor, handler read loops notice the flag at their next read
//! timeout, every thread is joined, and the scheduler drains before the
//! listener drops.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jigsaw_core::dist::ShardRequest;
use jigsaw_core::lockcheck::{Condvar, Mutex};
use jigsaw_core::sched::{JobError, SchedConfig, Scheduler};
use jigsaw_core::telemetry::{self, Counter, Registry};
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_pmf::ShardPartial;

use crate::cache::StageCache;
use crate::protocol::{
    decode_shard, decode_submit, ErrorCode, Frame, FrameKind, JobRejection, JobRequest,
    ProtocolError,
};

/// How often an idle handler re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port.
    pub addr: String,
    /// Ready-entry capacity of the stage cache.
    pub capacity: usize,
    /// Directory evicted responses spill into.
    pub spill_dir: PathBuf,
    /// Fixed number of connection-handler threads (min 1).
    pub handlers: usize,
    /// Accepted connections waiting for a free handler beyond this bound
    /// are refused with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Stage-scheduler configuration (worker pool, admission capacity).
    pub sched: SchedConfig,
}

impl ServerConfig {
    /// A loopback server on a free port with the given spill directory,
    /// a default capacity of 8 ready cache entries, 8 handler threads over
    /// a 64-deep connection queue, and a default scheduler.
    #[must_use]
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            capacity: 8,
            spill_dir: spill_dir.into(),
            handlers: 8,
            queue_depth: 64,
            sched: SchedConfig::default(),
        }
    }

    /// Overrides the cache capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the handler-pool size.
    #[must_use]
    pub fn with_handlers(mut self, handlers: usize) -> Self {
        self.handlers = handlers;
        self
    }

    /// Overrides the pending-connection queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Overrides the scheduler configuration.
    #[must_use]
    pub fn with_sched(mut self, sched: SchedConfig) -> Self {
        self.sched = sched;
        self
    }
}

/// The bounded queue of accepted-but-unhandled connections.
struct ConnQueue {
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        Self {
            pending: Mutex::new("server.conn_queue", VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues a connection; a full queue hands the stream back so the
    /// caller can refuse it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut pending = self.pending.lock();
        if pending.len() >= self.depth {
            return Err(stream);
        }
        pending.push_back(stream);
        drop(pending);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next connection, or `None` once `shutdown` is set and
    /// the queue is drained.
    fn pop(&self, shutdown: &AtomicBool) -> Option<TcpStream> {
        let mut pending = self.pending.lock();
        loop {
            if let Some(stream) = pending.pop_front() {
                return Some(stream);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self.ready.wait_timeout(pending, POLL_INTERVAL);
            pending = guard;
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<ConnQueue>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for every connection handler and in-flight
    /// job to finish, and returns once the process holds no server
    /// threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until a peer shuts the server down (a [`FrameKind::Shutdown`]
    /// frame), then joins every thread. The worker binary's main loop.
    pub fn wait(mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL_INTERVAL);
        }
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor: it only re-checks the flag per accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.conns.ready.notify_all();
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
        // The scheduler (shared by the handlers) drops with its last Arc,
        // joining its workers after any in-flight jobs complete.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.handlers.is_empty() {
            self.stop();
        }
    }
}

/// The server's own metrics registry and the serving counters it holds;
/// the cache registers into the same registry.
#[derive(Clone)]
struct ServerMetrics {
    registry: Arc<Registry>,
    jobs: Counter,
    refused: Counter,
}

impl ServerMetrics {
    fn register(registry: Arc<Registry>) -> Self {
        Self {
            jobs: registry.counter("jigsaw_server_jobs_total", &[]),
            refused: registry.counter("jigsaw_server_overloaded_total", &[]),
            registry,
        }
    }
}

/// Binds and starts a job server.
///
/// # Errors
///
/// Propagates binding and spill-directory I/O failures.
pub fn serve(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let registry = Arc::new(Registry::default());
    let cache = Arc::new(StageCache::new(config.capacity, &config.spill_dir, &registry)?);
    let scheduler = Arc::new(Scheduler::new(config.sched.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnQueue::new(config.queue_depth));
    let metrics = ServerMetrics::register(registry);

    let acceptor = {
        let shutdown = Arc::clone(&shutdown);
        let conns = Arc::clone(&conns);
        let metrics = metrics.clone();
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Err(mut refused) = conns.push(stream) {
                        metrics.refused.inc();
                        refuse_connection(&mut refused);
                    }
                }
                Err(_) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        })
    };

    let handlers = (0..config.handlers.max(1))
        .map(|_| {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let cache = Arc::clone(&cache);
            let scheduler = Arc::clone(&scheduler);
            let metrics = metrics.clone();
            std::thread::spawn(move || {
                while let Some(stream) = conns.pop(&shutdown) {
                    handle_connection(stream, &cache, &scheduler, &shutdown, &metrics, addr);
                }
            })
        })
        .collect();

    Ok(ServerHandle { addr, shutdown, conns, acceptor: Some(acceptor), handlers })
}

/// Writes the typed overload refusal to a connection the queue cannot
/// admit, then drops it.
fn refuse_connection(stream: &mut TcpStream) {
    let rejection =
        JobRejection::new(ErrorCode::Overloaded, "server connection queue is full; retry later");
    let frame = Frame { kind: FrameKind::JobError, digest: 0, payload: encode_to_vec(&rejection) };
    let _ = frame.write_to(stream);
}

/// One connection's frame loop.
fn handle_connection(
    mut stream: TcpStream,
    cache: &StageCache,
    scheduler: &Scheduler,
    shutdown: &Arc<AtomicBool>,
    metrics: &ServerMetrics,
    self_addr: SocketAddr,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let stop = || shutdown.load(Ordering::SeqCst);
    loop {
        let frame = match Frame::read_interruptible(&mut stream, &stop) {
            Ok(Some(frame)) => frame,
            // Clean EOF, or shutdown while idle: the connection is done.
            Ok(None) => break,
            Err(error) => {
                // Malformed framing leaves the stream position unknown:
                // report and close rather than resynchronise.
                let rejection = JobRejection::new(ErrorCode::Malformed, error.to_string());
                let reply = Frame {
                    kind: FrameKind::JobError,
                    digest: 0,
                    payload: encode_to_vec(&rejection),
                };
                let _ = reply.write_to(&mut stream);
                break;
            }
        };
        let keep_going = match frame.kind {
            FrameKind::SubmitJob => handle_submit(&mut stream, &frame, cache, scheduler, metrics),
            FrameKind::SubmitShard => handle_shard(&mut stream, &frame, scheduler),
            FrameKind::MetricsRequest => {
                let mut text = metrics.registry.render_text();
                text.push_str(&telemetry::global().render_text());
                Frame { kind: FrameKind::MetricsText, digest: 0, payload: text.into_bytes() }
                    .write_to(&mut stream)
                    .is_ok()
            }
            FrameKind::Shutdown => {
                let _ = Frame::empty(FrameKind::ShutdownAck).write_to(&mut stream);
                shutdown.store(true, Ordering::SeqCst);
                // Nudge the acceptor off its blocking accept.
                let _ = TcpStream::connect(self_addr);
                false
            }
            // Server-to-client kinds arriving here are a protocol misuse.
            FrameKind::JobResult
            | FrameKind::JobError
            | FrameKind::MetricsText
            | FrameKind::ShutdownAck
            | FrameKind::ShardResult
            | FrameKind::ShardError => {
                let rejection = JobRejection::new(
                    ErrorCode::Malformed,
                    format!("unexpected client frame kind {:?}", frame.kind),
                );
                Frame { kind: FrameKind::JobError, digest: 0, payload: encode_to_vec(&rejection) }
                    .write_to(&mut stream)
                    .is_ok()
            }
        };
        if !keep_going {
            break;
        }
    }
}

/// Resolves one submission through the cache and writes the reply frame.
/// Returns whether the connection should stay open.
fn handle_submit(
    stream: &mut TcpStream,
    frame: &Frame,
    cache: &StageCache,
    scheduler: &Scheduler,
    metrics: &ServerMetrics,
) -> bool {
    let request = match decode_submit(frame) {
        Ok(request) => request,
        Err(error) => {
            let code = match error {
                ProtocolError::DigestMismatch { .. } => ErrorCode::DigestMismatch,
                _ => ErrorCode::Malformed,
            };
            let rejection = JobRejection::new(code, error.to_string());
            return Frame {
                kind: FrameKind::JobError,
                digest: frame.digest,
                payload: encode_to_vec(&rejection),
            }
            .write_to(stream)
            .is_ok();
        }
    };
    metrics.jobs.inc();
    let digest = frame.digest;
    let (result, _outcome) = cache.get_or_compute(digest, || compute_job(scheduler, &request));
    let reply = match result {
        Ok(response) => Frame { kind: FrameKind::JobResult, digest, payload: (*response).clone() },
        Err(rejection) => {
            Frame { kind: FrameKind::JobError, digest, payload: encode_to_vec(&rejection) }
        }
    };
    reply.write_to(stream).is_ok()
}

/// Resolves one shard submission through the scheduler's priority lanes
/// and writes the reply frame. Returns whether the connection should stay
/// open.
///
/// Shards are *not* routed through the stage cache: a sweep driver never
/// re-asks for a shard it already holds, and a shard retried after a worker
/// dies lands on a *different* worker, whose cache could not hold it.
fn handle_shard(stream: &mut TcpStream, frame: &Frame, scheduler: &Scheduler) -> bool {
    let request = match decode_shard(frame) {
        Ok(request) => request,
        Err(error) => {
            telemetry::dist_shards("error").inc();
            let code = match error {
                ProtocolError::DigestMismatch { .. } => ErrorCode::DigestMismatch,
                _ => ErrorCode::Malformed,
            };
            let rejection = JobRejection::new(code, error.to_string());
            return Frame {
                kind: FrameKind::ShardError,
                digest: frame.digest,
                payload: encode_to_vec(&rejection),
            }
            .write_to(stream)
            .is_ok();
        }
    };
    let digest = frame.digest;
    let reply = match compute_shard(scheduler, request) {
        Ok(partial) => {
            telemetry::dist_shards("ok").inc();
            Frame { kind: FrameKind::ShardResult, digest, payload: encode_to_vec(&partial) }
        }
        Err(rejection) => {
            telemetry::dist_shards("error").inc();
            Frame { kind: FrameKind::ShardError, digest, payload: encode_to_vec(&rejection) }
        }
    };
    reply.write_to(stream).is_ok()
}

/// Submits one decoded shard to the stage scheduler in its priority lane
/// and waits for the partial. The partial's bytes are what
/// `dist::execute_shard` produces in-process — per-CPM seeds are pinned
/// by index, so which worker runs the shard never shows in the result.
fn compute_shard(
    scheduler: &Scheduler,
    request: ShardRequest,
) -> Result<ShardPartial, JobRejection> {
    let ticket = scheduler
        .submit_shard(Arc::new(request.stage), request.shard, request.priority)
        .map_err(|e| reject_job(&e))?;
    ticket.wait().map_err(|e| reject_job(&e))
}

/// Maps a scheduler refusal or failure onto the wire's error codes.
fn reject_job(error: &JobError) -> JobRejection {
    let code = match error {
        JobError::Overloaded { .. } => ErrorCode::Overloaded,
        JobError::Plan(_) => ErrorCode::PlanRejected,
        JobError::Failed(_) | JobError::Shutdown => ErrorCode::ComputeFailed,
    };
    JobRejection::new(code, error.to_string())
}

/// Submits the request to the stage scheduler in its priority lane and
/// waits for the encoded result. Identical to `run_jigsaw` in result
/// bytes: the scheduler preserves per-job bit-identity under interleaving,
/// and the result encoding excludes wall clocks.
fn compute_job(scheduler: &Scheduler, request: &JobRequest) -> Result<Vec<u8>, JobRejection> {
    let ticket = scheduler
        .submit(&request.program, &request.device, &request.config, request.priority)
        .map_err(|e| reject_job(&e))?;
    let result = ticket.wait().map_err(|e| reject_job(&e))?;
    Ok(encode_to_vec(&result))
}
