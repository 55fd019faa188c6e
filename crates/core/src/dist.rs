//! Distributed CPM sweeps: scatter a checkpointed [`SubsetsSelected`]
//! stage's work list across workers and merge the partial results back
//! **bit-identically** to a solo [`run_jigsaw`](crate::run_jigsaw).
//!
//! The CPM stage dominates JigSaw's cost — thousands of small circuits
//! fanned off one global run — and it is embarrassingly parallel: every
//! [`CpmWork`] item carries its own index-pinned seed, so *where* it runs
//! cannot change *what* it produces. This module turns that property into
//! a scatter/merge protocol:
//!
//! 1. [`plan_shards`] partitions the canonical CPM order into contiguous
//!    [`Shard`] ranges.
//! 2. Each shard is executed somewhere — in-process via [`execute_shard`],
//!    or on a `jigsaw-server` worker via the protocol's shard frames —
//!    yielding a [`ShardPartial`] of raw per-CPM histograms.
//! 3. [`merge_partials`] reassembles the partials **in shard-index
//!    order**, dedupes by shard index (duplicate deliveries are
//!    harmless), validates coverage against the stage's own work list,
//!    and finishes the pipeline. Normalisation (`Counts::to_pmf`) is
//!    deterministic, so the merged [`JigsawResult`] is byte-identical to
//!    the in-process run regardless of worker count, shard size,
//!    completion order, or which worker ran which shard.
//!
//! [`run_sharded`] is the fault-tolerant driver over any set of
//! [`ShardRunner`]s: a failed runner is retired and its shard reassigned
//! to a survivor (same seeds → same bytes); a shard that exhausts
//! [`DistConfig::max_attempts`] or outlives [`DistConfig::watchdog`]
//! surfaces a typed [`DistError`] instead of hanging.
//!
//! `tests/dist_determinism.rs` proptests the bit-identity invariant
//! across worker counts × shard sizes × delivery orders;
//! `tests/dist_faults.rs` injects worker deaths, duplicate and dropped
//! results.

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::time::Duration;

use jigsaw_pmf::codec::{CodecError, Decode, Encode, Reader, Writer};
use jigsaw_pmf::{CpmHistogram, ShardPartial};

use crate::bayes::Marginal;
use crate::jigsaw::JigsawResult;
use crate::lockcheck::{Condvar, Mutex};
use crate::pipeline::{CpmWork, SubsetsSelected};
use crate::sched::Priority;
use crate::telemetry;

/// How long a blocked driver thread sleeps between re-checks of the
/// shared sweep state. Watchdog time is accumulated in units of this
/// poll, so the codec-module ban on wall-clock reads holds here too.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Driver-side knobs for a distributed sweep.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// CPM work items per shard (≥ 1; the last shard may be shorter).
    pub shard_size: usize,
    /// Total executions allowed per shard before the sweep fails with
    /// [`DistError::ShardFailed`] (≥ 1).
    pub max_attempts: usize,
    /// Upper bound on the driver's wait for the next shard to finish. On
    /// expiry the sweep fails with [`DistError::Timeout`] instead of
    /// hanging on a silent worker; a sweep that keeps finishing shards
    /// never expires, however long it runs.
    pub watchdog: Duration,
    /// Priority lane shard requests ride on remote workers' schedulers.
    pub priority: Priority,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            shard_size: 8,
            max_attempts: 3,
            watchdog: Duration::from_secs(120),
            priority: Priority::Sweep,
        }
    }
}

impl DistConfig {
    /// Sets the shard size.
    #[must_use]
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size;
        self
    }

    /// Sets the per-shard attempt budget.
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the driver watchdog.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Duration) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Sets the remote priority lane.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// A contiguous range of the canonical CPM work list, the unit of
/// distribution. Seeds are *not* carried: they are index-pinned in the
/// work list itself ([`SubsetsSelected::cpm_work`]), so any worker
/// re-derives identical streams from the range alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Position in the driver's shard plan; the merge and dedup key.
    pub index: u64,
    /// First work-list index covered (inclusive).
    pub lo: u64,
    /// One past the last work-list index covered (exclusive).
    pub hi: u64,
}

impl Shard {
    /// Number of CPM work items in the shard.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the range is empty (never true for planned shards).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }
}

/// Wire format: `index`, `lo`, `hi`, each `u64`.
impl Encode for Shard {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.index);
        w.put_u64(self.lo);
        w.put_u64(self.hi);
    }
}

impl Decode for Shard {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let index = r.u64()?;
        let lo = r.u64()?;
        let hi = r.u64()?;
        if lo >= hi {
            return Err(CodecError::InvalidValue {
                what: "Shard",
                detail: format!("empty or inverted range {lo}..{hi}"),
            });
        }
        Ok(Self { index, lo, hi })
    }
}

/// Partitions `items` work-list entries into contiguous shards of
/// `shard_size` (the last may be shorter). Empty work lists plan zero
/// shards.
#[must_use]
pub fn plan_shards(items: usize, shard_size: usize) -> Vec<Shard> {
    let size = shard_size.max(1) as u64;
    let items = items as u64;
    (0..items.div_ceil(size))
        .map(|index| Shard { index, lo: index * size, hi: ((index + 1) * size).min(items) })
        .collect()
}

/// A shard execution request as shipped to a worker: the range to run, the
/// scheduler lane to run it on, and the [`SubsetsSelected`] stage it runs
/// against (global artifact and config, so a worker compiles or reuses each
/// CPM exactly as a solo run would) — or, with `stage: None`, nothing but
/// the frame's config digest, for a worker that already holds the stage
/// (protocol v6, `docs/FORMAT.md` §7).
///
/// The stage is owned once decoded and may be borrowed when encoding
/// (`ShardRequest<&SubsetsSelected>`), so a driver frames every shard of
/// one sweep from the same stage without cloning it.
#[derive(Debug, Clone)]
pub struct ShardRequest<S = SubsetsSelected> {
    /// The work-list range to execute.
    pub shard: Shard,
    /// The worker-side scheduler lane.
    pub priority: Priority,
    /// The stage inline, or `None` to name it by the frame's digest alone.
    pub stage: Option<S>,
}

/// Wire format: the [`Shard`], the priority code byte, a presence byte
/// (`0` by reference, `1` inline), then — inline only — the persist
/// encoding of the [`SubsetsSelected`] stage.
impl<S: Borrow<SubsetsSelected>> Encode for ShardRequest<S> {
    fn encode(&self, w: &mut Writer) {
        self.shard.encode(w);
        w.put_u8(self.priority.code());
        match &self.stage {
            None => w.put_u8(0),
            Some(stage) => {
                w.put_u8(1);
                stage.borrow().encode(w);
            }
        }
    }
}

impl Decode for ShardRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let shard = Shard::decode(r)?;
        let code = r.u8()?;
        let priority = Priority::from_code(code)
            .ok_or(CodecError::InvalidTag { what: "ShardRequest priority", tag: code })?;
        let stage = match r.u8()? {
            0 => None,
            1 => {
                let stage = SubsetsSelected::decode(r)?;
                shard.check_within(&stage)?;
                Some(stage)
            }
            tag => return Err(CodecError::InvalidTag { what: "ShardRequest stage presence", tag }),
        };
        Ok(Self { shard, priority, stage })
    }
}

impl Shard {
    /// Checks that the range lies inside `stage`'s work list: a request can
    /// only name work its stage contains. Decoding runs it against an
    /// inline stage; a worker runs it against the stage it holds for a
    /// by-reference request, before the shard reaches [`execute_shard`].
    ///
    /// # Errors
    ///
    /// [`CodecError::InvalidValue`] naming the range and the work-list
    /// length.
    pub fn check_within(&self, stage: &SubsetsSelected) -> Result<(), CodecError> {
        let items = cpm_count(stage) as u64;
        if self.hi > items {
            return Err(CodecError::InvalidValue {
                what: "ShardRequest",
                detail: format!(
                    "shard range {}..{} exceeds the {items}-item work list",
                    self.lo, self.hi
                ),
            });
        }
        Ok(())
    }
}

/// Number of CPM work items the stage will fan out, without
/// materialising the work list.
fn cpm_count(stage: &SubsetsSelected) -> usize {
    stage.layers().iter().map(|layer| layer.subsets.len()).sum()
}

/// Executes one shard against `stage`, in-process: runs
/// [`SubsetsSelected::run_cpm_item_counts`] over the range. A recompiling
/// stage compiles each CPM on whichever process runs it; the one compile
/// count is the `run-cpms` record [`merge_partials`] writes through
/// [`SubsetsSelected::finish_cpms`].
///
/// # Panics
///
/// Panics if the shard range is empty or exceeds the stage's work list;
/// a worker range-checks every request ([`Shard::check_within`]) before it
/// runs, so this indicates driver misuse.
#[must_use]
pub fn execute_shard(stage: &SubsetsSelected, shard: &Shard) -> ShardPartial {
    let work = stage.cpm_work();
    assert!(
        !shard.is_empty() && shard.hi as usize <= work.len(),
        "shard range {}..{} invalid for a {}-item work list",
        shard.lo,
        shard.hi,
        work.len()
    );
    let items = &work[shard.lo as usize..shard.hi as usize];
    let histograms: Vec<CpmHistogram> = items
        .iter()
        .enumerate()
        .map(|(offset, item)| CpmHistogram {
            cpm_index: shard.lo + offset as u64,
            qubits: item.subset.clone(),
            counts: stage.run_cpm_item_counts(item),
        })
        .collect();
    ShardPartial { shard_index: shard.index, lo: shard.lo, hi: shard.hi, histograms }
}

/// A distributed sweep failure. Every variant is terminal and typed —
/// the driver never hangs and never merges a partial result set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// The driver was handed an empty runner set.
    NoWorkers,
    /// A shard ran out of attempts (or out of surviving workers).
    ShardFailed {
        /// The failing shard's plan index.
        shard_index: u64,
        /// Executions attempted before giving up.
        attempts: usize,
        /// The last runner's error message.
        last_error: String,
    },
    /// The watchdog expired with results still outstanding.
    Timeout {
        /// How long the driver waited.
        waited: Duration,
        /// Shards still unmerged at expiry.
        unfinished: usize,
    },
    /// The collected partials do not reassemble into the stage's work
    /// list (gap, overlap, or a histogram contradicting the work list).
    Merge {
        /// What failed to line up.
        detail: String,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoWorkers => write!(f, "distributed sweep needs at least one worker"),
            Self::ShardFailed { shard_index, attempts, last_error } => {
                write!(f, "shard {shard_index} failed after {attempts} attempt(s): {last_error}")
            }
            Self::Timeout { waited, unfinished } => write!(
                f,
                "watchdog expired after {waited:?} with {unfinished} shard(s) outstanding"
            ),
            Self::Merge { detail } => write!(f, "partials do not merge: {detail}"),
        }
    }
}

impl Error for DistError {}

/// Merges shard partials back into the pipeline: sorts by shard index,
/// drops duplicate deliveries (first wins — identical seeds make every
/// delivery of a shard byte-identical anyway), validates that the
/// partials tile exactly `0..work.len()` and agree with the stage's own
/// work list, then normalises and finishes the run. The marginal order
/// is the canonical work-list order, so the result is bit-identical to
/// [`SubsetsSelected::run_cpms`] + `reconstruct`.
///
/// # Errors
///
/// [`DistError::Merge`] when coverage has a gap or overlap, or a
/// histogram's subset/width/trial count contradicts the work list.
pub fn merge_partials(
    stage: SubsetsSelected,
    partials: Vec<ShardPartial>,
) -> Result<JigsawResult, DistError> {
    let work = stage.cpm_work();
    let mut partials = partials;
    partials.sort_by_key(|p| p.shard_index);
    partials.dedup_by_key(|p| p.shard_index);
    let merge_err = |detail: String| DistError::Merge { detail };
    let mut next = 0u64;
    let mut marginals: Vec<Marginal> = Vec::with_capacity(work.len());
    for partial in &partials {
        if partial.lo != next {
            return Err(merge_err(format!(
                "shard {} covers {}..{} but the next unmerged CPM index is {next}",
                partial.shard_index, partial.lo, partial.hi
            )));
        }
        for histogram in &partial.histograms {
            let index = histogram.cpm_index;
            let item: &CpmWork = work.get(index as usize).ok_or_else(|| {
                merge_err(format!("CPM index {index} exceeds the {}-item work list", work.len()))
            })?;
            if histogram.qubits != item.subset {
                return Err(merge_err(format!(
                    "CPM {index} measured subset {:?} but the work list says {:?}",
                    histogram.qubits, item.subset
                )));
            }
            if histogram.counts.total() != item.trials {
                return Err(merge_err(format!(
                    "CPM {index} recorded {} trials but the work list allocates {}",
                    histogram.counts.total(),
                    item.trials
                )));
            }
            marginals.push(Marginal::new(item.subset.clone(), histogram.counts.to_pmf()));
        }
        next = partial.hi;
    }
    if next != work.len() as u64 {
        return Err(merge_err(format!(
            "partials cover only {next} of {} CPM work items",
            work.len()
        )));
    }
    Ok(stage.finish_cpms(marginals).reconstruct())
}

/// Anything that can execute a shard somewhere: in-process
/// ([`LocalRunner`]), over TCP against a `jigsaw-server` worker
/// (`jigsaw_server::dist::RemoteRunner`), or a test fake injecting
/// faults.
pub trait ShardRunner: Send {
    /// Executes one shard of `stage`'s work list and returns its partial.
    ///
    /// # Errors
    ///
    /// A transport or compute failure, as a human-readable message. The
    /// driver retires an erring runner and reassigns the shard to a
    /// survivor — implementations need not retry internally.
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        priority: Priority,
    ) -> Result<ShardPartial, String>;
}

/// The trivial in-process runner; `N` of these reproduce the distributed
/// merge path without any sockets.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalRunner;

impl ShardRunner for LocalRunner {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        _priority: Priority,
    ) -> Result<ShardPartial, String> {
        Ok(execute_shard(stage, shard))
    }
}

/// Shared driver state: the work queue plus completion bookkeeping.
struct SweepState {
    /// Shards awaiting a runner, with their attempt counts so far.
    pending: VecDeque<(Shard, usize)>,
    /// Collected partials, in completion order (merge re-sorts).
    results: Vec<ShardPartial>,
    /// First terminal failure; set once, ends the sweep.
    failure: Option<DistError>,
    /// Runners not yet retired by an error.
    active: usize,
    /// Shards currently executing on some runner.
    in_flight: usize,
}

/// The driver's shared queue. Lock rank 5 (`dist.queue`): acquired
/// before any scheduler or cell lock a [`ShardRunner`] might take.
struct Sweep {
    queue: Mutex<SweepState>,
    changed: Condvar,
}

/// Scatters `stage`'s CPM work across `runners` and merges the partials
/// into the final result. One driver thread per runner pulls shards from
/// a shared queue; a runner that errors is **retired** (its in-flight
/// shard requeued for a survivor, counting one attempt), so worker death
/// degrades capacity instead of failing the sweep. Results merge through
/// [`merge_partials`], preserving bit-identity with the solo run.
///
/// # Errors
///
/// * [`DistError::NoWorkers`] — `runners` is empty.
/// * [`DistError::ShardFailed`] — a shard exhausted
///   [`DistConfig::max_attempts`] or no runner survives to retry it.
/// * [`DistError::Timeout`] — the watchdog expired with shards
///   outstanding (e.g. every remaining runner is silently wedged).
/// * [`DistError::Merge`] — a worker returned partials inconsistent with
///   the stage's work list.
pub fn run_sharded(
    stage: &SubsetsSelected,
    runners: Vec<Box<dyn ShardRunner>>,
    config: &DistConfig,
) -> Result<JigsawResult, DistError> {
    if runners.is_empty() {
        return Err(DistError::NoWorkers);
    }
    let shards = plan_shards(cpm_count(stage), config.shard_size);
    let total = shards.len();
    let sweep = Sweep {
        queue: Mutex::new(
            "dist.queue",
            SweepState {
                pending: shards.into_iter().map(|s| (s, 0)).collect(),
                results: Vec::new(),
                failure: None,
                active: runners.len(),
                in_flight: 0,
            },
        ),
        changed: Condvar::new(),
    };
    std::thread::scope(|scope| {
        for mut runner in runners {
            let sweep = &sweep;
            scope.spawn(move || runner_loop(sweep, stage, runner.as_mut(), config, total));
        }
        watch(&sweep, config, total);
    });
    let mut state = sweep.queue.lock();
    if let Some(failure) = state.failure.take() {
        return Err(failure);
    }
    let results = std::mem::take(&mut state.results);
    drop(state);
    merge_partials(stage.clone(), results)
}

/// The watchdog: waits for completion or failure, accumulating wait time
/// since the last finished shard in [`POLL_INTERVAL`] units, and converts
/// expiry into a typed [`DistError::Timeout`] so a silent worker can never
/// hang the driver. Only a poll that times out counts (a wake-up before it
/// is a shard event), and each finished shard restarts the count, so a
/// sweep still making progress never runs its watchdog down.
fn watch(sweep: &Sweep, config: &DistConfig, total: usize) {
    let mut waited = Duration::ZERO;
    let mut finished = 0;
    let mut state = sweep.queue.lock();
    loop {
        if state.failure.is_some() || state.results.len() == total {
            break;
        }
        if state.results.len() > finished {
            finished = state.results.len();
            waited = Duration::ZERO;
        }
        if waited >= config.watchdog {
            state.failure =
                Some(DistError::Timeout { waited, unfinished: total - state.results.len() });
            break;
        }
        let (guard, poll) = sweep.changed.wait_timeout(state, POLL_INTERVAL);
        state = guard;
        if poll.timed_out() {
            waited += POLL_INTERVAL;
        }
    }
    drop(state);
    sweep.changed.notify_all();
}

/// One driver thread: pull a shard, run it on this runner, report. An
/// error retires the runner after requeueing (or failing) its shard.
fn runner_loop(
    sweep: &Sweep,
    stage: &SubsetsSelected,
    runner: &mut dyn ShardRunner,
    config: &DistConfig,
    total: usize,
) {
    loop {
        let (shard, attempts) = {
            let mut state = sweep.queue.lock();
            loop {
                if state.failure.is_some() || state.results.len() == total {
                    return;
                }
                if let Some((shard, attempts)) = state.pending.pop_front() {
                    state.in_flight += 1;
                    break (shard, attempts);
                }
                let (guard, _) = sweep.changed.wait_timeout(state, POLL_INTERVAL);
                state = guard;
            }
        };
        match runner.run_shard(stage, &shard, config.priority) {
            Ok(partial) => {
                telemetry::dist_shards("ok").inc();
                let mut state = sweep.queue.lock();
                state.in_flight -= 1;
                state.results.push(partial);
                drop(state);
                sweep.changed.notify_all();
            }
            Err(message) => {
                telemetry::dist_shards("error").inc();
                let attempts = attempts + 1;
                let mut state = sweep.queue.lock();
                state.in_flight -= 1;
                state.active -= 1;
                let mut requeued = false;
                if state.failure.is_some() {
                    // The sweep already failed terminally (e.g. the
                    // watchdog expired while this runner was wedged);
                    // the first failure wins.
                } else if attempts >= config.max_attempts.max(1) {
                    state.failure = Some(DistError::ShardFailed {
                        shard_index: shard.index,
                        attempts,
                        last_error: message,
                    });
                } else if state.active == 0 {
                    state.failure = Some(DistError::ShardFailed {
                        shard_index: shard.index,
                        attempts,
                        last_error: format!("no surviving workers: {message}"),
                    });
                } else {
                    state.pending.push_back((shard, attempts));
                    requeued = true;
                }
                drop(state);
                if requeued {
                    telemetry::dist_retries().inc();
                }
                sweep.changed.notify_all();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shards_tiles_the_work_list() {
        assert!(plan_shards(0, 4).is_empty());
        let shards = plan_shards(10, 4);
        assert_eq!(
            shards,
            vec![
                Shard { index: 0, lo: 0, hi: 4 },
                Shard { index: 1, lo: 4, hi: 8 },
                Shard { index: 2, lo: 8, hi: 10 },
            ]
        );
        // A zero shard size is clamped, never a divide-by-zero.
        assert_eq!(plan_shards(3, 0).len(), 3);
        let one = plan_shards(5, 16);
        assert_eq!(one, vec![Shard { index: 0, lo: 0, hi: 5 }]);
    }

    #[test]
    fn shard_decode_rejects_inverted_ranges() {
        use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
        let shard = Shard { index: 1, lo: 3, hi: 9 };
        assert_eq!(decode_from_slice::<Shard>(&encode_to_vec(&shard)).unwrap(), shard);
        let mut w = Writer::new();
        w.put_u64(0);
        w.put_u64(5);
        w.put_u64(5);
        assert!(decode_from_slice::<Shard>(&w.into_bytes()).is_err());
    }

    #[test]
    fn dist_error_displays_every_variant() {
        let cases = [
            (DistError::NoWorkers, "at least one worker"),
            (
                DistError::ShardFailed { shard_index: 3, attempts: 2, last_error: "boom".into() },
                "shard 3 failed after 2",
            ),
            (
                DistError::Timeout { waited: Duration::from_millis(50), unfinished: 4 },
                "4 shard(s) outstanding",
            ),
            (DistError::Merge { detail: "gap".into() }, "do not merge: gap"),
        ];
        for (err, needle) in cases {
            assert!(format!("{err}").contains(needle), "{err}");
        }
    }
}
