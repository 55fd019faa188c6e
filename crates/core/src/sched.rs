//! Multi-job stage scheduler: priority lanes and stage interleaving on one
//! fixed worker pool.
//!
//! A solo driver runs one [`JigsawPipeline`] to completion, which is right
//! for a workstation and wrong for a service: N concurrent distinct jobs
//! each monopolise the worker team in turn, dividing throughput by N, and
//! an interactive query stalls behind a running sweep. The staged pipeline
//! decomposes every job into seed-deterministic stages — exactly the unit
//! a scheduler can interleave — so this module runs *many* jobs as a queue
//! of [`StageTask`]s over a fixed pool of workers. Each dispatch runs
//! exactly one [`StageTask::advance`], or one distributed-sweep shard,
//! behind a panic fault barrier:
//!
//! * **Priority lanes.** Every job is submitted into one of three lanes —
//!   [`Priority::Interactive`] > [`Priority::Sweep`] >
//!   [`Priority::Background`] — and after every stage a job goes back
//!   through lane selection, so an interactive query overtakes a sweep at
//!   the next stage boundary instead of waiting for its completion. Strict
//!   priority is tempered by aging: every [`AGING_PERIOD`]-th dispatch
//!   picks from the *lowest* non-empty lane, so background work always
//!   makes progress under sustained interactive load.
//! * **Bounded admission.** At most [`SchedConfig::capacity`] jobs are
//!   admitted at once; the next submission is refused with a typed
//!   [`JobError::Overloaded`] instead of queueing without limit.
//!
//! The invariant everything above must preserve — and
//! `tests/sched_determinism.rs` enforces — is **per-job bit-identity**:
//! every job's [`JigsawResult`] is byte-identical to a solo
//! [`run_jigsaw`](crate::run_jigsaw) of the same request, regardless of
//! lane, interleaving or worker count. This falls out of the pipeline's
//! seed discipline: stage streams depend only on the experiment seed and
//! the stage identity, never on scheduling.
//!
//! Telemetry: per-lane queue-wait histograms
//! (`jigsaw_sched_queue_wait_seconds`) and per-lane admission counters
//! (`jigsaw_sched_jobs_total`) land in [`crate::telemetry::global`], so
//! the job server's metrics frame exposes them alongside the stage walls.
//!
//! # Examples
//!
//! ```
//! use jigsaw_circuit::bench;
//! use jigsaw_core::sched::{Priority, SchedConfig, Scheduler};
//! use jigsaw_core::{run_jigsaw, JigsawConfig};
//! use jigsaw_device::Device;
//! # use jigsaw_compiler::CompilerOptions;
//!
//! let sched = Scheduler::new(SchedConfig::default().with_workers(2));
//! let device = Device::toronto();
//! let config = JigsawConfig {
//! #     compiler: CompilerOptions { max_seeds: 2, ..CompilerOptions::default() },
//!     ..JigsawConfig::jigsaw(400)
//! };
//! let ticket = sched
//!     .submit(bench::ghz(4).circuit(), &device, &config, Priority::Interactive)
//!     .expect("admitted");
//! let result = ticket.wait().expect("job ran");
//! assert_eq!(result, run_jigsaw(bench::ghz(4).circuit(), &device, &config));
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use jigsaw_circuit::Circuit;
use jigsaw_device::Device;
use jigsaw_pmf::ShardPartial;

use crate::dist;
use crate::jigsaw::{JigsawConfig, JigsawResult};
use crate::lockcheck::{Condvar, Mutex};
use crate::pipeline::{JigsawPipeline, PlanError, StageOutcome, StageTask, SubsetsSelected};
use crate::telemetry;

/// Every this-many dispatches, the pick order inverts (lowest lane first)
/// so background jobs cannot starve under sustained interactive load.
pub const AGING_PERIOD: u64 = 4;

/// The scheduling lane of a job, in descending precedence. The wire codes
/// are part of the SubmitJob frame (docs/FORMAT.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// A user is waiting on this job right now.
    Interactive,
    /// One point of a parameter sweep.
    Sweep,
    /// Re-tuning, prefetching — work nobody is waiting on.
    Background,
}

impl Priority {
    /// All lanes, highest precedence first.
    pub const ALL: [Self; 3] = [Self::Interactive, Self::Sweep, Self::Background];

    /// The wire tag of this lane.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Self::Interactive => 0,
            Self::Sweep => 1,
            Self::Background => 2,
        }
    }

    /// Parses a wire tag.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Self::Interactive),
            1 => Some(Self::Sweep),
            2 => Some(Self::Background),
            _ => None,
        }
    }

    /// Lane index, 0 = highest precedence.
    #[must_use]
    fn index(self) -> usize {
        self.code() as usize
    }

    /// The lane's metrics label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Sweep => "sweep",
            Self::Background => "background",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a job did not produce a result. Every variant is typed — a refused
/// or failed job must never panic the scheduler or hang its waiter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Admission refused: the scheduler already holds `capacity` jobs.
    /// Resubmit after some complete — nothing about the job itself is
    /// wrong.
    Overloaded {
        /// The configured admission capacity.
        capacity: usize,
    },
    /// The request itself is unusable (see [`PlanError`]).
    Plan(PlanError),
    /// A stage panicked; the panic was contained and the message captured.
    Failed(String),
    /// The scheduler shut down before the job completed.
    Shutdown,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { capacity } => {
                write!(f, "scheduler overloaded: {capacity} jobs already admitted")
            }
            Self::Plan(e) => write!(f, "plan rejected: {e}"),
            Self::Failed(detail) => write!(f, "job stage failed: {detail}"),
            Self::Shutdown => f.write_str("scheduler shut down before the job completed"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlanError> for JobError {
    fn from(e: PlanError) -> Self {
        Self::Plan(e)
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Worker threads executing stage tasks (min 1).
    pub workers: usize,
    /// Maximum jobs admitted at once (queued + running); the next
    /// submission gets [`JobError::Overloaded`].
    pub capacity: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(2, usize::from).min(8);
        Self { workers, capacity: 64 }
    }
}

impl SchedConfig {
    /// Overrides the worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the admission capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

/// Shared completion cell: the worker fills it, the [`Ticket`] waits on
/// it. Job and shard cells share the `sched.cell.slot` lock rank — no
/// thread ever holds two cells at once.
struct Cell<T> {
    slot: Mutex<Option<Result<T, JobError>>>,
    done: Condvar,
}

impl<T> Cell<T> {
    fn new() -> Arc<Self> {
        Arc::new(Self { slot: Mutex::new("sched.cell.slot", None), done: Condvar::new() })
    }
}

/// A claim on one submitted unit of work. [`Self::wait`] blocks until the
/// scheduler completes (or refuses) it.
pub struct Ticket<T> {
    cell: Arc<Cell<T>>,
}

/// A claim on one submitted job ([`Scheduler::submit`]).
pub type JobTicket = Ticket<JigsawResult>;

/// A claim on one submitted shard ([`Scheduler::submit_shard`]).
pub type ShardTicket = Ticket<ShardPartial>;

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let decided = self.cell.slot.lock().is_some();
        f.debug_struct("Ticket").field("decided", &decided).finish()
    }
}

impl<T> Ticket<T> {
    /// Blocks until the work completes and returns its output: the job's
    /// result (byte-identical to a solo [`run_jigsaw`](crate::run_jigsaw))
    /// or the shard's partial.
    ///
    /// # Errors
    ///
    /// The [`JobError`] the scheduler refused or failed the work with.
    ///
    /// # Panics
    ///
    /// Panics if the completion lock is poisoned (a scheduler bug: job
    /// code never runs under it).
    pub fn wait(self) -> Result<T, JobError> {
        let mut slot = self.cell.slot.lock();
        loop {
            if let Some(verdict) = slot.take() {
                return verdict;
            }
            slot = self.cell.done.wait(slot);
        }
    }
}

/// The payload of one queued dispatch unit.
enum Work {
    /// A pipeline job parked at a stage boundary.
    Stage { cell: Arc<Cell<JigsawResult>>, task: Box<StageTask> },
    /// One distributed-sweep shard ([`Scheduler::submit_shard`]),
    /// resolved through [`dist::execute_shard`].
    Shard { cell: Arc<Cell<ShardPartial>>, stage: Arc<SubsetsSelected>, shard: dist::Shard },
}

/// One queued unit of work sitting in a lane.
struct Pending {
    work: Work,
    lane: Priority,
    enqueued: Instant,
}

/// Scheduler metrics, registered in [`telemetry::global`].
struct Metrics {
    queue_wait: [telemetry::Histogram; 3],
    lane_jobs: [telemetry::Counter; 3],
}

impl Metrics {
    fn register() -> Self {
        Self {
            queue_wait: Priority::ALL.map(|p| telemetry::sched_queue_wait(p.label())),
            lane_jobs: Priority::ALL.map(|p| telemetry::sched_lane_jobs(p.label())),
        }
    }
}

struct State {
    lanes: [VecDeque<Pending>; 3],
    /// Jobs admitted and not yet completed (the [`SchedConfig::capacity`]
    /// bound).
    admitted: usize,
    /// Dispatch counter driving the aging inversion.
    picks: u64,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work: Condvar,
    config: SchedConfig,
    metrics: Metrics,
}

/// The multi-job stage scheduler. See the [module docs](self) for the
/// scheduling model and the bit-identity invariant.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool.
    #[must_use]
    pub fn new(config: SchedConfig) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(
                "sched.state",
                State {
                    lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                    admitted: 0,
                    picks: 0,
                    shutdown: false,
                },
            ),
            work: Condvar::new(),
            metrics: Metrics::register(),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || Self::worker_loop(&inner))
            })
            .collect();
        Self { inner, workers }
    }

    /// Jobs currently admitted (queued or running).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a bug: job code never
    /// runs under it).
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.inner.state.lock().admitted
    }

    /// Submits one job into `priority`'s lane.
    ///
    /// Admission is synchronous: a full scheduler refuses immediately with
    /// [`JobError::Overloaded`], and an unusable request with
    /// [`JobError::Plan`] — neither consumes capacity.
    ///
    /// # Errors
    ///
    /// [`JobError::Overloaded`], [`JobError::Plan`], or
    /// [`JobError::Shutdown`] when the scheduler is stopping.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a bug: job code never
    /// runs under it).
    pub fn submit(
        &self,
        program: &Circuit,
        device: &Device,
        config: &JigsawConfig,
        priority: Priority,
    ) -> Result<JobTicket, JobError> {
        let planned = JigsawPipeline::try_plan(program, device, config)?;
        let cell = Cell::new();
        let task = Box::new(StageTask::Planned(planned));
        self.admit(Work::Stage { cell: Arc::clone(&cell), task }, priority)?;
        Ok(Ticket { cell })
    }

    /// Submits one distributed-sweep shard into `priority`'s lane: the
    /// worker runs [`dist::execute_shard`] over the range when the lane
    /// discipline dispatches it. Shards share the job admission bound —
    /// a saturated worker refuses shard traffic with the same typed
    /// [`JobError::Overloaded`] the server relays to drivers.
    ///
    /// # Errors
    ///
    /// [`JobError::Overloaded`], [`JobError::Shutdown`], or
    /// [`JobError::Failed`] when the shard range does not fit the stage's
    /// work list (decoded requests are pre-validated, so this indicates
    /// caller misuse).
    ///
    /// # Panics
    ///
    /// Panics if the scheduler lock is poisoned (a bug: shard code never
    /// runs under it).
    pub fn submit_shard(
        &self,
        stage: Arc<SubsetsSelected>,
        shard: dist::Shard,
        priority: Priority,
    ) -> Result<ShardTicket, JobError> {
        let items = stage.layers().iter().map(|layer| layer.subsets.len()).sum::<usize>() as u64;
        if shard.is_empty() || shard.hi > items {
            return Err(JobError::Failed(format!(
                "shard range {}..{} invalid for a {items}-item work list",
                shard.lo, shard.hi
            )));
        }
        let cell = Cell::new();
        self.admit(Work::Shard { cell: Arc::clone(&cell), stage, shard }, priority)?;
        Ok(Ticket { cell })
    }

    /// Shared admission: bounds capacity, enqueues, wakes one worker.
    fn admit(&self, work: Work, priority: Priority) -> Result<(), JobError> {
        {
            let mut state = self.inner.state.lock();
            if state.shutdown {
                return Err(JobError::Shutdown);
            }
            if state.admitted >= self.inner.config.capacity {
                return Err(JobError::Overloaded { capacity: self.inner.config.capacity });
            }
            state.admitted += 1;
            state.lanes[priority.index()].push_back(Pending {
                work,
                lane: priority,
                enqueued: Instant::now(),
            });
        }
        self.inner.metrics.lane_jobs[priority.index()].inc();
        self.inner.work.notify_one();
        Ok(())
    }

    /// Stops the workers: queued jobs fail with [`JobError::Shutdown`],
    /// in-flight stages finish, and every worker thread is joined.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let drained: Vec<Pending> = {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
            state.lanes.iter_mut().flat_map(std::mem::take).collect()
        };
        self.inner.work.notify_all();
        for pending in drained {
            Self::fail_pending(&self.inner, pending.work);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Completes a never-dispatched unit with [`JobError::Shutdown`].
    fn fail_pending(inner: &Inner, work: Work) {
        match work {
            Work::Stage { cell, .. } => Self::complete(inner, &cell, Err(JobError::Shutdown)),
            Work::Shard { cell, .. } => Self::complete(inner, &cell, Err(JobError::Shutdown)),
        }
    }

    /// Picks the next dispatch under the lane discipline.
    fn pick(state: &mut State) -> Option<Pending> {
        let aging = state.picks % AGING_PERIOD == AGING_PERIOD - 1;
        let order: [usize; 3] = if aging { [2, 1, 0] } else { [0, 1, 2] };
        let lane = order.into_iter().find(|&l| !state.lanes[l].is_empty())?;
        state.picks += 1;
        state.lanes[lane].pop_front()
    }

    fn worker_loop(inner: &Inner) {
        loop {
            let pending = {
                let mut state = inner.state.lock();
                loop {
                    if let Some(pending) = Self::pick(&mut state) {
                        break pending;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = inner.work.wait(state);
                }
            };
            Self::execute(inner, pending);
        }
    }

    /// Runs one dispatch — a single stage transition or a single shard —
    /// behind the fault barrier, then completes or requeues it.
    fn execute(inner: &Inner, pending: Pending) {
        let Pending { work, lane, enqueued } = pending;
        inner.metrics.queue_wait[lane.index()].observe(enqueued.elapsed());
        match work {
            Work::Shard { cell, stage, shard } => {
                let verdict =
                    contain(|| dist::execute_shard(&stage, &shard)).map_err(JobError::Failed);
                Self::complete(inner, &cell, verdict);
            }
            Work::Stage { cell, task } => match contain(move || task.advance()) {
                Ok(StageOutcome::Next(task)) => {
                    let work = Work::Stage { cell, task };
                    let mut state = inner.state.lock();
                    if state.shutdown {
                        drop(state);
                        Self::fail_pending(inner, work);
                        return;
                    }
                    state.lanes[lane.index()].push_back(Pending {
                        work,
                        lane,
                        enqueued: Instant::now(),
                    });
                    drop(state);
                    inner.work.notify_one();
                }
                Ok(StageOutcome::Done(result)) => Self::complete(inner, &cell, Ok(*result)),
                Err(detail) => Self::complete(inner, &cell, Err(JobError::Failed(detail))),
            },
        }
    }

    /// Releases the unit's admission slot and hands its verdict to the
    /// waiting ticket.
    fn complete<T>(inner: &Inner, cell: &Cell<T>, verdict: Result<T, JobError>) {
        {
            let mut state = inner.state.lock();
            state.admitted = state.admitted.saturating_sub(1);
        }
        let mut slot = cell.slot.lock();
        *slot = Some(verdict);
        drop(slot);
        cell.done.notify_all();
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// The fault barrier: a panicking stage becomes a typed failure message.
fn contain<R>(job: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_jigsaw;
    use jigsaw_circuit::bench;
    use jigsaw_compiler::CompilerOptions;
    use jigsaw_pmf::codec::encode_to_vec;

    fn quick_config(seed: u64) -> JigsawConfig {
        let mut config = JigsawConfig::jigsaw(1_000).with_seed(seed);
        config.compiler = CompilerOptions { max_seeds: 2, ..CompilerOptions::default() };
        config.run.threads = 1;
        config
    }

    #[test]
    fn scheduled_jobs_match_solo_runs_bit_for_bit() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(3));
        let lanes = [Priority::Interactive, Priority::Sweep, Priority::Background];
        let tickets: Vec<_> = (0..6)
            .map(|i| {
                let config = quick_config(i);
                let ticket = sched
                    .submit(bench::ghz(5).circuit(), &device, &config, lanes[i as usize % 3])
                    .expect("admitted");
                (config, ticket)
            })
            .collect();
        for (config, ticket) in tickets {
            let result = ticket.wait().expect("job ran");
            let solo = run_jigsaw(bench::ghz(5).circuit(), &device, &config);
            assert_eq!(encode_to_vec(&result), encode_to_vec(&solo));
        }
        assert_eq!(sched.admitted(), 0);
    }

    #[test]
    fn admission_is_bounded_with_a_typed_overload() {
        // Zero workers would hang; use one worker and fill capacity faster
        // than it can drain by admission-checking synchronously.
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(1));
        let device = Device::toronto();
        let first = sched
            .submit(bench::ghz(5).circuit(), &device, &quick_config(0), Priority::Sweep)
            .expect("first admitted");
        // Capacity counts admitted-not-completed, so this is deterministic:
        // the first job cannot have completed before we submit (its ticket
        // has not been waited and the check happens under the same lock).
        let refused =
            sched.submit(bench::ghz(5).circuit(), &device, &quick_config(1), Priority::Interactive);
        match refused {
            Err(JobError::Overloaded { capacity: 1 }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let _ = first.wait().expect("first job still completes");
    }

    #[test]
    fn plan_defects_are_refused_without_consuming_capacity() {
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(1));
        let device = Device::toronto();
        let mut measured = bench::ghz(4).circuit().clone();
        measured.measure_all();
        match sched.submit(&measured, &device, &quick_config(0), Priority::Interactive) {
            Err(JobError::Plan(PlanError::Premeasured)) => {}
            other => panic!("expected Plan(Premeasured), got {other:?}"),
        }
        assert_eq!(sched.admitted(), 0);
    }

    #[test]
    fn a_panicking_stage_fails_only_its_own_job() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(2));
        // `Random { count }` requesting more distinct subsets than exist
        // panics inside select_subsets — the fault barrier must convert it.
        let mut poisoned = quick_config(3);
        poisoned.selection = crate::subsets::SubsetSelection::Random { count: 1_000_000 };
        let bad = sched
            .submit(bench::ghz(4).circuit(), &device, &poisoned, Priority::Sweep)
            .expect("admitted");
        let good_config = quick_config(4);
        let good = sched
            .submit(bench::ghz(4).circuit(), &device, &good_config, Priority::Sweep)
            .expect("admitted");
        match bad.wait() {
            Err(JobError::Failed(_)) => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        let result = good.wait().expect("unaffected job completes");
        assert_eq!(result, run_jigsaw(bench::ghz(4).circuit(), &device, &good_config));
    }

    #[test]
    fn shards_resolve_through_the_lanes_and_merge_bit_identically() {
        let device = Device::toronto();
        let config = quick_config(17).without_recompilation();
        let program_bench = bench::ghz(5);
        let program = program_bench.circuit();
        let solo = encode_to_vec(&run_jigsaw(program, &device, &config));
        let stage = Arc::new(
            JigsawPipeline::plan(program, &device, &config)
                .compile_global()
                .run_global()
                .select_subsets(),
        );
        let items = stage.layers().iter().map(|l| l.subsets.len()).sum::<usize>();
        let sched = Scheduler::new(SchedConfig::default().with_workers(2));

        // An out-of-range shard is refused without consuming capacity.
        let bogus = dist::Shard { index: 0, lo: 0, hi: items as u64 + 1 };
        assert!(matches!(
            sched.submit_shard(Arc::clone(&stage), bogus, Priority::Sweep),
            Err(JobError::Failed(_))
        ));
        assert_eq!(sched.admitted(), 0);

        let lanes = [Priority::Interactive, Priority::Sweep, Priority::Background];
        let tickets: Vec<_> = dist::plan_shards(items, 3)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                sched.submit_shard(Arc::clone(&stage), shard, lanes[i % 3]).expect("shard admitted")
            })
            .collect();
        let partials: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("shard ran")).collect();
        let merged =
            dist::merge_partials((*stage).clone(), partials).expect("partials tile the work list");
        assert_eq!(encode_to_vec(&merged), solo);
        assert_eq!(sched.admitted(), 0);
    }

    #[test]
    fn background_jobs_complete_under_sustained_interactive_load() {
        let device = Device::toronto();
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(256));
        let background_config = quick_config(100);
        let background = sched
            .submit(bench::ghz(5).circuit(), &device, &background_config, Priority::Background)
            .expect("admitted");
        // A steady stream of interactive jobs submitted *while* the
        // background job is queued: aging guarantees the background job a
        // dispatch every AGING_PERIOD picks, so it finishes long before
        // the stream drains.
        let interactive: Vec<_> = (0..24)
            .map(|i| {
                sched
                    .submit(
                        bench::ghz(5).circuit(),
                        &device,
                        &quick_config(200 + i),
                        Priority::Interactive,
                    )
                    .expect("admitted")
            })
            .collect();
        let result = background.wait().expect("background job completed");
        assert_eq!(result, run_jigsaw(bench::ghz(5).circuit(), &device, &background_config));
        for ticket in interactive {
            let _ = ticket.wait().expect("interactive job completed");
        }
    }

    #[test]
    fn shutdown_fails_queued_jobs_instead_of_hanging_them() {
        let sched = Scheduler::new(SchedConfig::default().with_workers(1).with_capacity(64));
        let device = Device::toronto();
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                sched
                    .submit(
                        bench::ghz(5).circuit(),
                        &device,
                        &quick_config(300 + i),
                        Priority::Sweep,
                    )
                    .expect("admitted")
            })
            .collect();
        sched.shutdown();
        let mut completed = 0;
        let mut shut_down = 0;
        for ticket in tickets {
            match ticket.wait() {
                Ok(_) => completed += 1,
                Err(JobError::Shutdown) => shut_down += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert_eq!(completed + shut_down, 8, "every waiter observes a verdict");
    }
}
