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
//! * **A worker without the stage** — restarted, or with the stage evicted
//!   from its store — answers the by-reference shard `StageMissing`; the
//!   runner resends that shard inline once, and the miss costs the driver
//!   no attempt, no retry and no failed shard.

use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::dist::{
    execute_shard, merge_partials, plan_shards, run_sharded, DistConfig, DistError, LocalRunner,
    Shard, ShardRunner,
};
use jigsaw_repro::core::pipeline::{JigsawPipeline, SubsetsSelected};
use jigsaw_repro::core::sched::Priority;
use jigsaw_repro::core::{run_jigsaw, JigsawConfig, JigsawResult};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;
use jigsaw_repro::pmf::ShardPartial;
use jigsaw_repro::server::protocol::{Frame, FrameKind};
use jigsaw_repro::server::server::STAGE_STORE_CAPACITY;
use jigsaw_repro::server::{serve, Client, RemoteRunner, ServerConfig};

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

/// A remote runner that tallies the driver's attempts and failed attempts.
struct Counted {
    inner: RemoteRunner,
    attempts: Arc<AtomicUsize>,
    failures: Arc<AtomicUsize>,
}

impl ShardRunner for Counted {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &Shard,
        priority: Priority,
    ) -> Result<ShardPartial, String> {
        self.attempts.fetch_add(1, Ordering::SeqCst);
        let out = self.inner.run_shard(stage, shard, priority);
        if out.is_err() {
            self.failures.fetch_add(1, Ordering::SeqCst);
        }
        out
    }
}

/// One sweep of `stage` on the worker at `addr`, in 2-CPM shards. Returns
/// the merged result and the driver's (attempts, failed attempts).
fn counted_sweep(stage: &SubsetsSelected, addr: SocketAddr) -> (JigsawResult, usize, usize) {
    let attempts = Arc::new(AtomicUsize::new(0));
    let failures = Arc::new(AtomicUsize::new(0));
    let runner = Counted {
        inner: RemoteRunner::new(addr),
        attempts: Arc::clone(&attempts),
        failures: Arc::clone(&failures),
    };
    let merged =
        run_sharded(stage, vec![Box::new(runner)], &DistConfig::default().with_shard_size(2))
            .expect("sweep");
    (merged, attempts.load(Ordering::SeqCst), failures.load(Ordering::SeqCst))
}

/// One counter from a worker's metrics frame (0 when not yet rendered).
fn worker_counter(addr: SocketAddr, series: &str) -> u64 {
    let text = Client::connect(addr).expect("connect").metrics().expect("metrics frame");
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

const MISSES: &str = "jigsaw_server_shard_stage_misses_total";
const STORED: &str = "jigsaw_server_shard_stages_stored_total";

/// Spawns one real `jigsaw-worker` process and parses its `PORT=` line.
fn spawn_worker_process() -> (std::process::Child, SocketAddr) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_jigsaw-worker"))
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn jigsaw-worker");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line).expect("worker PORT line");
    let port: u16 = line
        .trim()
        .strip_prefix("PORT=")
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("worker printed {line:?}, expected PORT=<n>"));
    (child, SocketAddr::from(([127, 0, 0, 1], port)))
}

/// A worker process restarted between two sweeps has an empty store: each
/// sweep's first shard misses, the runner resends it inline once, and the
/// rest run by reference. The worker counts no failed shard, the driver
/// charges no extra attempt and no failure, and both sweeps merge to the
/// solo bytes. The driver keeps no per-worker state, so a restart at a new
/// port is the same case as one at the old port.
#[test]
fn a_restarted_worker_gets_the_stage_resent_once_with_identical_bytes() {
    let solo = solo_bytes(31);
    let stage = sweep_stage(31);
    let shards = plan_shards(cpm_count(&stage), 2).len() as u64;
    for life in 0..2 {
        let (mut child, addr) = spawn_worker_process();
        let (merged, attempts, failures) = counted_sweep(&stage, addr);
        let traffic = (worker_counter(addr, MISSES), worker_counter(addr, STORED));
        let served = worker_counter(addr, "jigsaw_dist_shards_total{outcome=\"ok\"}");
        let failed = worker_counter(addr, "jigsaw_dist_shards_total{outcome=\"error\"}");
        Client::connect(addr).expect("connect").shutdown_server().expect("shutdown acknowledged");
        child.wait().expect("worker exits");

        assert_eq!(encode_to_vec(&merged), solo, "worker life {life}: diverged from solo");
        assert_eq!(traffic, (1, 1), "worker life {life}: one miss, one inline resend");
        assert_eq!((served, failed), (shards, 0), "worker life {life}: a miss is no failed shard");
        assert_eq!(
            (attempts as u64, failures),
            (shards, 0),
            "worker life {life}: a miss is no driver attempt"
        );
    }
}

/// Pushing bound + 1 distinct stages through one worker evicts the first:
/// sweeping it again misses once, resends it inline once, charges the
/// driver nothing extra and merges to the solo bytes. A stage still held
/// is swept without a miss.
#[test]
fn an_evicted_stage_is_resent_once_with_identical_bytes() {
    let spill = std::env::temp_dir().join(format!("jigsaw-dist-evict-{}", std::process::id()));
    let worker = serve(&ServerConfig::new(spill)).expect("bind worker");
    let addr = worker.addr();
    let seeds: Vec<u64> = (0..=STAGE_STORE_CAPACITY as u64).map(|i| 61 + i).collect();
    let sweep = |seed: u64| {
        let stage = sweep_stage(seed);
        let shards = plan_shards(cpm_count(&stage), 2).len();
        let before = (worker_counter(addr, MISSES), worker_counter(addr, STORED));
        let (merged, attempts, failures) = counted_sweep(&stage, addr);
        let after = (worker_counter(addr, MISSES), worker_counter(addr, STORED));
        assert_eq!(encode_to_vec(&merged), solo_bytes(seed), "seed {seed}: diverged from solo");
        assert_eq!((attempts, failures), (shards, 0), "seed {seed}: a miss is no driver attempt");
        (after.0 - before.0, after.1 - before.1)
    };

    assert_eq!(sweep(seeds[0]), (1, 1), "first contact misses once");
    assert_eq!(sweep(seeds[0]), (0, 0), "a held stage is never resent");
    for &seed in &seeds[1..] {
        assert_eq!(sweep(seed), (1, 1), "seed {seed}: a new stage misses once");
    }
    assert_eq!(sweep(seeds[0]), (1, 1), "the evicted stage misses once and is resent once");
    assert_eq!(sweep(seeds[seeds.len() - 1]), (0, 0), "the newest stage is still held");
    worker.shutdown();
}
