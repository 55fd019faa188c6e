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
//! A worker keeps the sweep stages shards run against in a small store
//! keyed by config digest ([`STAGE_STORE_CAPACITY`] entries, least recently
//! used evicted first), so a driver ships each stage once per worker and
//! names it by digest after that (protocol v6, `docs/FORMAT.md` §7).
//!
//! Serving counters — jobs, overload refusals, the cache's outcomes and
//! the stage store's misses and stores — live in a [`Registry`] the server
//! owns, so two servers in one process never share a count. The metrics
//! frame renders that registry, then [`telemetry::global`] with the
//! scheduler, stage and distributed-sweep families.
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

use jigsaw_core::dist::Shard;
use jigsaw_core::lockcheck::{Condvar, Mutex};
use jigsaw_core::pipeline::SubsetsSelected;
use jigsaw_core::sched::{JobError, Priority, SchedConfig, Scheduler};
use jigsaw_core::telemetry::{self, Counter, Registry};
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_pmf::ShardPartial;

use crate::cache::StageCache;
use crate::protocol::{
    decode_shard, decode_submit, write_frame, ErrorCode, Frame, FrameKind, JobRejection,
    JobRequest, ProtocolError,
};

/// How often an idle handler re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Sweep stages a server holds for by-reference shards. A sweep driver
/// works through one stage at a time, so a few entries cover concurrent
/// drivers; a stage evicted early costs one inline resend.
pub const STAGE_STORE_CAPACITY: usize = 4;

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

/// The decoded sweep stages by-reference shards run against, keyed by
/// config digest, most recently used last. An inline stage was bound to its
/// digest when its frame decoded, so a stored entry is trusted exactly as
/// far as that binding.
struct StageStore {
    stages: Mutex<VecDeque<(u64, Arc<SubsetsSelected>)>>,
}

impl StageStore {
    fn new() -> Self {
        Self { stages: Mutex::new("server.stage_store", VecDeque::new()) }
    }

    /// Stores (or refreshes) `stage` under `digest`, evicting the least
    /// recently used entry beyond [`STAGE_STORE_CAPACITY`].
    fn insert(&self, digest: u64, stage: Arc<SubsetsSelected>) {
        let mut stages = self.stages.lock();
        stages.retain(|(held, _)| *held != digest);
        stages.push_back((digest, stage));
        while stages.len() > STAGE_STORE_CAPACITY {
            stages.pop_front();
        }
    }

    /// The stage held under `digest`, marked most recently used.
    fn get(&self, digest: u64) -> Option<Arc<SubsetsSelected>> {
        let mut stages = self.stages.lock();
        let at = stages.iter().position(|(held, _)| *held == digest)?;
        let entry = stages.remove(at)?;
        let stage = Arc::clone(&entry.1);
        stages.push_back(entry);
        Some(stage)
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
    /// By-reference shards answered [`ErrorCode::StageMissing`].
    stage_misses: Counter,
    /// Inline stages stored for later by-reference shards.
    stages_stored: Counter,
}

impl ServerMetrics {
    fn register(registry: Arc<Registry>) -> Self {
        Self {
            jobs: registry.counter("jigsaw_server_jobs_total", &[]),
            refused: registry.counter("jigsaw_server_overloaded_total", &[]),
            stage_misses: registry.counter("jigsaw_server_shard_stage_misses_total", &[]),
            stages_stored: registry.counter("jigsaw_server_shard_stages_stored_total", &[]),
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
    let stages = Arc::new(StageStore::new());
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
            let stages = Arc::clone(&stages);
            let scheduler = Arc::clone(&scheduler);
            let metrics = metrics.clone();
            std::thread::spawn(move || {
                while let Some(stream) = conns.pop(&shutdown) {
                    handle_connection(
                        stream, &cache, &stages, &scheduler, &shutdown, &metrics, addr,
                    );
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
    reply_rejection(stream, FrameKind::JobError, 0, &rejection);
}

/// Writes a typed refusal frame. Returns whether the write succeeded.
fn reply_rejection(
    stream: &mut TcpStream,
    kind: FrameKind,
    digest: u64,
    rejection: &JobRejection,
) -> bool {
    write_frame(stream, kind, digest, &encode_to_vec(rejection)).is_ok()
}

/// The refusal a request frame that fails to decode or bind earns.
fn decode_refusal(error: &ProtocolError) -> JobRejection {
    let code = match error {
        ProtocolError::DigestMismatch { .. } => ErrorCode::DigestMismatch,
        _ => ErrorCode::Malformed,
    };
    JobRejection::new(code, error.to_string())
}

/// One connection's frame loop.
fn handle_connection(
    mut stream: TcpStream,
    cache: &StageCache,
    stages: &StageStore,
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
                reply_rejection(&mut stream, FrameKind::JobError, 0, &rejection);
                break;
            }
        };
        let keep_going = match frame.kind {
            FrameKind::SubmitJob => handle_submit(&mut stream, &frame, cache, scheduler, metrics),
            FrameKind::SubmitShard => handle_shard(&mut stream, &frame, stages, scheduler, metrics),
            FrameKind::MetricsRequest => {
                let mut text = metrics.registry.render_text();
                text.push_str(&telemetry::global().render_text());
                write_frame(&mut stream, FrameKind::MetricsText, 0, text.as_bytes()).is_ok()
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
                reply_rejection(&mut stream, FrameKind::JobError, 0, &rejection)
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
    let digest = frame.digest;
    let request = match decode_submit(frame) {
        Ok(request) => request,
        Err(error) => {
            return reply_rejection(stream, FrameKind::JobError, digest, &decode_refusal(&error))
        }
    };
    metrics.jobs.inc();
    let (result, _outcome) = cache.get_or_compute(digest, || compute_job(scheduler, &request));
    match result {
        Ok(response) => write_frame(stream, FrameKind::JobResult, digest, &response).is_ok(),
        Err(rejection) => reply_rejection(stream, FrameKind::JobError, digest, &rejection),
    }
}

/// Resolves one shard submission's stage, runs the shard through the
/// scheduler's priority lanes and writes the reply frame. Returns whether
/// the connection should stay open.
///
/// The *stage* is kept per worker (the stage store), so a sweep ships it
/// once per worker. The *partial* is not cached: a driver asks for a shard
/// twice only after a by-reference miss, which computed nothing, and a
/// shard retried after a worker dies lands on a different worker, whose
/// cache could not hold it. The miss is answered [`ErrorCode::StageMissing`]
/// on an open connection and counts as neither a served nor a failed shard.
fn handle_shard(
    stream: &mut TcpStream,
    frame: &Frame,
    stages: &StageStore,
    scheduler: &Scheduler,
    metrics: &ServerMetrics,
) -> bool {
    let digest = frame.digest;
    let outcome = decode_shard(frame).map_err(|error| decode_refusal(&error)).and_then(|request| {
        let stage = resolve_stage(digest, request.stage, &request.shard, stages, metrics)?;
        compute_shard(scheduler, stage, request.shard, request.priority)
    });
    match outcome {
        Ok(partial) => {
            telemetry::dist_shards("ok").inc();
            write_frame(stream, FrameKind::ShardResult, digest, &encode_to_vec(&partial)).is_ok()
        }
        Err(rejection) => {
            if rejection.code != ErrorCode::StageMissing {
                telemetry::dist_shards("error").inc();
            }
            reply_rejection(stream, FrameKind::ShardError, digest, &rejection)
        }
    }
}

/// The stage a decoded shard runs against. An inline stage, already bound
/// to `digest` and range-checked by [`decode_shard`], is stored; a
/// by-reference shard takes the held stage and is range-checked here, so an
/// untrusted range is refused as malformed before any compute.
fn resolve_stage(
    digest: u64,
    inline: Option<SubsetsSelected>,
    shard: &Shard,
    stages: &StageStore,
    metrics: &ServerMetrics,
) -> Result<Arc<SubsetsSelected>, JobRejection> {
    if let Some(stage) = inline {
        let stage = Arc::new(stage);
        stages.insert(digest, Arc::clone(&stage));
        metrics.stages_stored.inc();
        return Ok(stage);
    }
    let Some(stage) = stages.get(digest) else {
        metrics.stage_misses.inc();
        return Err(JobRejection::new(
            ErrorCode::StageMissing,
            format!("no stage held for digest {digest:016x}; resend it inline"),
        ));
    };
    shard
        .check_within(&stage)
        .map_err(|e| JobRejection::new(ErrorCode::Malformed, e.to_string()))?;
    Ok(stage)
}

/// Submits one resolved shard to the stage scheduler in its priority lane
/// and waits for the partial. The partial's bytes are what
/// `dist::execute_shard` produces in-process — per-CPM seeds are pinned
/// by index, so which worker runs the shard never shows in the result.
fn compute_shard(
    scheduler: &Scheduler,
    stage: Arc<SubsetsSelected>,
    shard: Shard,
    priority: Priority,
) -> Result<ShardPartial, JobRejection> {
    let ticket = scheduler.submit_shard(stage, shard, priority).map_err(|e| reject_job(&e))?;
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
