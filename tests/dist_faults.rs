//! Fault-injection battery for distributed CPM sweeps: workers die
//! mid-shard, results get dropped, duplicated or delivered out of order —
//! and the driver must either merge the *exact* solo bytes or fail with a
//! typed [`DistError`], always within a bounded wall time, never a hang.
//!
//! Fault surfaces exercised:
//!
//! * **Worker killed mid-shard** — an in-test fake worker reads one
//!   `SubmitShard` frame, then drops the connection and its listener; the
//!   driver retires it, reassigns the shard to a survivor, and the merged
//!   bytes are unchanged (index-pinned seeds make the retry identical).
//! * **Dropped result** — a flaky runner erroring on first contact is the
//!   same observable as a `ShardResult` lost in flight; retry, identical.
//! * **Duplicate / out-of-order delivery** — [`merge_partials`] dedupes
//!   by shard index and sorts, so the merged bytes are delivery-free.
//! * **Exhausted retries, dead fleets, wedged workers** — typed
//!   `ShardFailed` / `NoWorkers` / watchdog `Timeout`, promptly.

use std::net::TcpListener;
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::dist::{
    execute_shard, merge_partials, plan_shards, run_sharded, DistConfig, DistError, LocalRunner,
    Shard, ShardRunner,
};
use jigsaw_repro::core::pipeline::{JigsawPipeline, SubsetsSelected};
use jigsaw_repro::core::sched::Priority;
use jigsaw_repro::core::{run_jigsaw, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;
use jigsaw_repro::pmf::ShardPartial;
use jigsaw_repro::server::protocol::{Frame, FrameKind};
use jigsaw_repro::server::{serve, RemoteRunner, ServerConfig};

fn sweep_inputs(seed: u64) -> (jigsaw_repro::circuit::Circuit, Device, JigsawConfig) {
    let mut config = JigsawConfig::jigsaw(1_200).without_recompilation().with_seed(seed);
    config.compiler.max_seeds = 3;
    (bench::ghz(6).circuit().clone(), Device::toronto(), config)
}

fn sweep_stage(seed: u64) -> SubsetsSelected {
    let (program, device, config) = sweep_inputs(seed);
    JigsawPipeline::plan(&program, &device, &config).compile_global().run_global().select_subsets()
}

fn solo_bytes(seed: u64) -> Vec<u8> {
    let (program, device, config) = sweep_inputs(seed);
    encode_to_vec(&run_jigsaw(&program, &device, &config))
}

fn cpm_count(stage: &SubsetsSelected) -> usize {
    stage.layers().iter().map(|layer| layer.subsets.len()).sum()
}

/// A runner that errors on its first `failures` calls, then executes
/// in-process — the observable shape of a worker that ate a shard (a
/// dropped `ShardResult` and a crashed worker look identical from the
/// driver's side: the attempt is charged and the shard reassigned).
struct FlakyRunner {
    failures: usize,
}

impl ShardRunner for FlakyRunner {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        _priority: Priority,
    ) -> Result<ShardPartial, String> {
        if self.failures > 0 {
            self.failures -= 1;
            return Err(format!("injected fault on shard {}", shard.index));
        }
        Ok(execute_shard(stage, shard))
    }
}

/// A runner whose shards never fail — they just never finish quickly.
/// From the driver's side this is a silently wedged worker; only the
/// watchdog can end the sweep.
struct WedgedRunner {
    stall: Duration,
}

impl ShardRunner for WedgedRunner {
    fn run_shard(
        &mut self,
        _stage: &SubsetsSelected,
        _shard: &Shard,
        _priority: Priority,
    ) -> Result<ShardPartial, String> {
        std::thread::sleep(self.stall);
        Err("wedged worker finally gave up".to_owned())
    }
}

/// A runner that takes `delay` over every shard, then executes it
/// in-process: a slow but healthy worker.
struct SlowRunner {
    delay: Duration,
}

impl ShardRunner for SlowRunner {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        _priority: Priority,
    ) -> Result<ShardPartial, String> {
        std::thread::sleep(self.delay);
        Ok(execute_shard(stage, shard))
    }
}

/// A remote runner that holds its first shard until the doomed worker has
/// read one, so the fault fires on every run whatever the thread timing.
struct AfterFault {
    inner: RemoteRunner,
    fault: Option<Receiver<FrameKind>>,
}

impl ShardRunner for AfterFault {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        priority: Priority,
    ) -> Result<ShardPartial, String> {
        if let Some(fault) = self.fault.take() {
            let kind =
                fault.recv_timeout(Duration::from_secs(30)).expect("doomed worker got a shard");
            assert_eq!(kind, FrameKind::SubmitShard, "the doomed worker must die mid-shard");
        }
        self.inner.run_shard(stage, shard, priority)
    }
}

/// A worker killed mid-shard: a fake worker accepts one connection, reads
/// its `SubmitShard` frame, then drops the stream and the listener. The
/// driver sees what a dead worker process shows it — EOF where the reply
/// should be, then connection refused — retires the worker, and the
/// surviving in-process server absorbs the reassigned shard with the
/// merged bytes unchanged.
#[test]
fn killed_worker_process_is_reassigned_with_identical_bytes() {
    let solo = solo_bytes(7);
    let stage = sweep_stage(7);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind doomed worker");
    let doomed = RemoteRunner::new(listener.local_addr().expect("doomed worker address"));
    let (died, fault) = channel();
    let doomed_worker = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("driver connects");
        let frame = Frame::read_from(&mut stream).expect("well-formed frame").expect("a frame");
        drop((stream, listener));
        died.send(frame.kind).expect("survivor is waiting");
    });
    let spill = std::env::temp_dir().join(format!("jigsaw-dist-faults-{}", std::process::id()));
    let survivor = serve(&ServerConfig::new(spill)).expect("bind survivor");

    let runners: Vec<Box<dyn ShardRunner>> = vec![
        Box::new(doomed),
        Box::new(AfterFault { inner: RemoteRunner::new(survivor.addr()), fault: Some(fault) }),
    ];
    let merged = run_sharded(&stage, runners, &DistConfig::default().with_shard_size(2))
        .expect("sweep survives one worker death");
    assert_eq!(
        encode_to_vec(&merged),
        solo,
        "merge after a mid-shard worker death diverged from solo"
    );
    doomed_worker.join().expect("doomed worker thread");
    survivor.shutdown();
}

/// A dropped/errored first attempt is retried on a survivor and the
/// bytes are unchanged — with every injected fault visible in the retry
/// accounting rather than the result.
#[test]
fn dropped_results_are_retried_with_identical_bytes() {
    let solo = solo_bytes(11);
    let stage = sweep_stage(11);
    let runners: Vec<Box<dyn ShardRunner>> =
        vec![Box::new(FlakyRunner { failures: 1 }), Box::new(LocalRunner)];
    let merged = run_sharded(&stage, runners, &DistConfig::default().with_shard_size(2))
        .expect("sweep survives a dropped result");
    assert_eq!(encode_to_vec(&merged), solo, "retried sweep diverged from solo");
}

/// Duplicate and out-of-order deliveries are merge-level no-ops: dedupe
/// by shard index (first wins; identical seeds make every delivery of a
/// shard byte-identical anyway), then sort.
#[test]
fn duplicate_and_out_of_order_deliveries_merge_identically() {
    let solo = solo_bytes(13);
    let stage = sweep_stage(13);
    let partials: Vec<ShardPartial> = plan_shards(cpm_count(&stage), 2)
        .iter()
        .map(|shard| execute_shard(&stage, shard))
        .collect();

    // Reversed order with the first and last shard delivered twice.
    let mut delivered = partials.clone();
    delivered.reverse();
    delivered.push(partials.first().expect("non-empty plan").clone());
    delivered.push(partials.last().expect("non-empty plan").clone());

    let merged = merge_partials(stage, delivered).expect("merge");
    assert_eq!(encode_to_vec(&merged), solo, "duplicated/shuffled delivery changed the bytes");
}

/// Exhausted retries surface as a typed `ShardFailed` carrying the last
/// error — quickly, not as a hang.
#[test]
fn exhausted_retries_fail_typed_and_bounded() {
    let stage = sweep_stage(17);
    let started = Instant::now();
    let runners: Vec<Box<dyn ShardRunner>> = vec![
        Box::new(FlakyRunner { failures: usize::MAX }),
        Box::new(FlakyRunner { failures: usize::MAX }),
    ];
    let error = run_sharded(&stage, runners, &DistConfig::default().with_max_attempts(2))
        .expect_err("an all-faulty fleet cannot succeed");
    assert!(started.elapsed() < Duration::from_secs(60), "failure must be prompt, not a hang");
    match error {
        DistError::ShardFailed { attempts, ref last_error, .. } => {
            assert!(attempts >= 1, "at least one attempt must be charged");
            assert!(
                last_error.contains("injected fault") || last_error.contains("no surviving"),
                "last error should name the injected fault, got: {last_error}"
            );
        }
        other => panic!("expected ShardFailed, got {other}"),
    }
}

/// An empty fleet is refused up front.
#[test]
fn empty_fleet_is_refused_typed() {
    let stage = sweep_stage(19);
    let error =
        run_sharded(&stage, Vec::new(), &DistConfig::default()).expect_err("no workers, no sweep");
    assert_eq!(error, DistError::NoWorkers);
}

/// A silently wedged fleet cannot outlive the watchdog: the sweep ends
/// with a typed `Timeout` naming the outstanding shard count, within a
/// small multiple of the configured bound.
#[test]
fn wedged_workers_trip_the_watchdog_not_a_hang() {
    let stage = sweep_stage(23);
    let started = Instant::now();
    let runners: Vec<Box<dyn ShardRunner>> =
        vec![Box::new(WedgedRunner { stall: Duration::from_secs(2) })];
    let error = run_sharded(
        &stage,
        runners,
        &DistConfig::default().with_watchdog(Duration::from_millis(200)),
    )
    .expect_err("a wedged fleet must time out");
    assert!(started.elapsed() < Duration::from_secs(30), "watchdog expiry must bound the sweep");
    match error {
        DistError::Timeout { waited, unfinished } => {
            assert!(waited >= Duration::from_millis(200), "watchdog fired early: {waited:?}");
            assert!(unfinished >= 1, "a timeout with nothing outstanding is a merge bug");
        }
        other => panic!("expected Timeout, got {other}"),
    }
}

/// The watchdog bounds the wait for the next finished shard, not the
/// sweep: a 600 ms watchdog lets through 48 one-CPM shards at 5 ms each
/// (many completion wake-ups) and 12 four-CPM shards at 60 ms each (many
/// quiet polls, 720 ms in all), and both merge to the solo bytes.
#[test]
fn a_sweep_still_making_progress_does_not_trip_the_watchdog() {
    let mut config = JigsawConfig::jigsaw_m(4_800).without_recompilation().with_seed(29);
    config.compiler.max_seeds = 3;
    let program = bench::ghz(12).circuit().clone();
    let device = Device::toronto();
    let stage = JigsawPipeline::plan(&program, &device, &config)
        .compile_global()
        .run_global()
        .select_subsets();
    assert_eq!(cpm_count(&stage), 48);
    let solo = encode_to_vec(&run_jigsaw(&program, &device, &config));
    for (shard_size, delay_ms) in [(1, 5), (4, 60)] {
        let runners: Vec<Box<dyn ShardRunner>> =
            vec![Box::new(SlowRunner { delay: Duration::from_millis(delay_ms) })];
        let dist = DistConfig::default()
            .with_shard_size(shard_size)
            .with_watchdog(Duration::from_millis(600));
        let merged = run_sharded(&stage, runners, &dist).unwrap_or_else(|e| {
            panic!("{shard_size}-CPM shards at {delay_ms} ms each must not time out: {e}")
        });
        assert_eq!(encode_to_vec(&merged), solo, "{shard_size}-CPM shards diverged from solo");
    }
}
