//! Determinism battery for the multi-job stage scheduler: K jobs across
//! mixed priority lanes and worker counts must each produce a result
//! *byte-identical* to a solo `run_jigsaw`, each result reporting exactly
//! its one global compile — and a saturated server must refuse with a
//! typed `Overloaded` instead of hanging.
//!
//! Compile accounting: every config here is `without_recompilation`, so
//! the only compile a job can cost is its global one, and each result's
//! own `compiles()` must read exactly 1.

use std::sync::Barrier;
use std::time::Duration;

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::sched::{Priority, SchedConfig, Scheduler};
use jigsaw_repro::core::{run_jigsaw, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;
use jigsaw_repro::server::client::{Client, ClientError};
use jigsaw_repro::server::protocol::ErrorCode;
use jigsaw_repro::server::server::{serve, ServerConfig};
use proptest::prelude::*;

/// A fast job whose digest is fully determined by `seed`.
fn job(seed: u64) -> (jigsaw_repro::circuit::Circuit, Device, JigsawConfig) {
    let mut config = JigsawConfig::jigsaw(1_200).without_recompilation().with_seed(seed);
    config.compiler.max_seeds = 3;
    (bench::ghz(6).circuit().clone(), Device::toronto(), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline invariant: whatever the lane mix or worker count,
    /// every job's bytes equal its solo run and every job pays exactly one
    /// global compile.
    #[test]
    fn mixed_lane_jobs_are_bit_identical_to_solo_runs(
        base in 0u64..500,
        jobs in 2usize..6,
        workers in 1usize..5,
    ) {
        let solos: Vec<Vec<u8>> = (0..jobs)
            .map(|i| {
                let (program, device, config) = job(base + i as u64);
                encode_to_vec(&run_jigsaw(&program, &device, &config))
            })
            .collect();

        let sched = Scheduler::new(SchedConfig::default().with_workers(workers));
        let lanes = [Priority::Interactive, Priority::Sweep, Priority::Background];
        let tickets: Vec<_> = (0..jobs)
            .map(|i| {
                let (program, device, config) = job(base + i as u64);
                sched
                    .submit(&program, &device, &config, lanes[i % 3])
                    .expect("admitted")
            })
            .collect();
        let results: Vec<_> =
            tickets.into_iter().map(|t| t.wait().expect("job ran")).collect();

        for (i, (result, solo)) in results.iter().zip(&solos).enumerate() {
            prop_assert_eq!(result.compiles(), 1, "job {} paid other than one global compile", i);
            prop_assert_eq!(&encode_to_vec(result), solo, "job {} diverged from its solo run", i);
        }
    }
}

/// Saturation through the whole server stack: with a capacity-1 scheduler
/// and simultaneous distinct submissions, the surplus must surface as a
/// typed `Overloaded` rejection — quickly, not as a hang — while admitted
/// jobs still return solo-identical bytes.
#[test]
fn saturated_server_refuses_with_typed_overloaded() {
    const CLIENTS: usize = 6;
    let spill = std::env::temp_dir()
        .join("jigsaw-sched-determinism-tests")
        .join(format!("overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);

    // A heavier job widens the window in which the one admitted job is
    // still running while the other clients hit admission.
    let slow_job = |seed: u64| {
        let mut config = JigsawConfig::jigsaw(40_000).without_recompilation().with_seed(seed);
        config.compiler.max_seeds = 3;
        config.run.threads = 1;
        (bench::ghz(6).circuit().clone(), Device::toronto(), config)
    };
    let solos: Vec<Vec<u8>> = (0..CLIENTS as u64)
        .map(|i| {
            let (program, device, config) = slow_job(i);
            encode_to_vec(&run_jigsaw(&program, &device, &config))
        })
        .collect();

    let sched = SchedConfig::default().with_workers(1).with_capacity(1);
    let handle = serve(&ServerConfig::new(&spill).with_sched(sched)).expect("bind");
    let addr = handle.addr();

    let barrier = std::sync::Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS as u64)
        .map(|seed| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let (program, device, config) = slow_job(seed);
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                (seed, client.submit_bytes(&program, &device, &config))
            })
        })
        .collect();

    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for worker in workers {
        assert!(std::time::Instant::now() < deadline, "saturated server hung");
        let (seed, outcome) = worker.join().expect("client thread");
        match outcome {
            Ok(payload) => {
                assert_eq!(&payload, &solos[seed as usize], "admitted job diverged from solo");
                ok += 1;
            }
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(rejection.code, ErrorCode::Overloaded, "unexpected: {rejection}");
                overloaded += 1;
            }
            Err(other) => panic!("expected result or typed Overloaded, got {other}"),
        }
    }
    handle.shutdown();
    assert_eq!(ok + overloaded, CLIENTS, "every client observed a typed outcome");
    assert!(ok >= 1, "at least the first admitted job completes");
    assert!(overloaded >= 1, "capacity 1 under {CLIENTS} simultaneous jobs must refuse some");
}
