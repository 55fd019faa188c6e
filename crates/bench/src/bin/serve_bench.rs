//! Duplicate-submission benchmark and CI smoke for the job server.
//!
//! The acceptance bar of the serving layer: K concurrent *identical*
//! submissions must complete with exactly **one** computation — one cache
//! miss in the server's own metrics frame, hence one global compile — and
//! every response must be bit-identical to a solo `run_jigsaw` of the
//! same job, at every tested client count.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin serve_bench              # full sweep
//! cargo run --release -p jigsaw-bench --bin serve_bench -- --smoke  # CI: one fast round
//! ```
//!
//! The smoke round additionally drives a duplicate + a distinct job over
//! three concurrent clients, checks the metrics frame, exercises the
//! clean shutdown path, and saturates a capacity-1 server to prove the
//! surplus surfaces as a typed `Overloaded` refusal instead of a hang —
//! the CI workflow asserts on the PASS lines.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use jigsaw_bench::cli::Args;
use jigsaw_circuit::bench;
use jigsaw_core::sched::SchedConfig;
use jigsaw_core::{run_jigsaw, JigsawConfig, StageKind};
use jigsaw_device::Device;
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_server::client::{Client, ClientError};
use jigsaw_server::protocol::ErrorCode;
use jigsaw_server::server::{serve, ServerConfig};

/// A fresh spill directory per round so rounds never share cache state.
fn spill_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("jigsaw-serve-bench")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One unlabelled counter of the server at `addr`, read from its own
/// metrics frame.
fn server_counter(addr: SocketAddr, name: &str) -> u64 {
    let text = Client::connect(addr).expect("connect").metrics().expect("metrics frame");
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from the metrics frame:\n{text}"))
}

/// `without_recompilation` keeps a computation's compile bill at its one
/// global compile, so one cache miss is one compile.
fn job_config(trials: u64, seed: u64) -> JigsawConfig {
    let mut config = JigsawConfig::jigsaw(trials).without_recompilation();
    config.seed = seed;
    config
}

/// Runs one round: `clients` concurrent submissions of the same job
/// against a fresh server. Returns (cache misses, wall time), asserting
/// every response matches `expected` bit-for-bit.
fn duplicate_round(clients: usize, trials: u64, expected: &[u8]) -> (u64, f64) {
    let handle =
        serve(&ServerConfig::new(spill_dir(&format!("x{clients}")))).expect("bind loopback server");
    let addr = handle.addr();
    let device = Device::toronto();
    let program = bench::ghz(8).circuit().clone();
    let config = job_config(trials, 7);

    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let program = program.clone();
            let device = device.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .submit_bytes(&program, &device, &config, StageKind::GlobalRun)
                    .expect("job accepted")
            })
        })
        .collect();
    for worker in workers {
        let payload = worker.join().expect("client thread");
        assert_eq!(payload, expected, "response must be bit-identical to solo run_jigsaw");
    }
    let wall = start.elapsed().as_secs_f64();
    let misses = server_counter(addr, "jigsaw_server_cache_misses_total");
    handle.shutdown();
    (misses, wall)
}

/// Saturates a workers=1, capacity=1 server with simultaneous *distinct*
/// jobs. Every client must observe a typed outcome — a result or an
/// `Overloaded` rejection — within the deadline; a hang fails the round.
fn saturation_round(trials: u64) {
    const CLIENTS: usize = 6;
    let sched = SchedConfig::default().with_workers(1).with_capacity(1);
    let handle = serve(&ServerConfig::new(spill_dir("saturate")).with_sched(sched))
        .expect("bind loopback server");
    let addr = handle.addr();

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let workers: Vec<_> = (0..CLIENTS as u64)
        .map(|seed| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let program = bench::ghz(6).circuit().clone();
                let device = Device::toronto();
                // Distinct seeds: no digest coalescing, so the surplus has
                // to go through admission rather than the stage cache.
                let config = job_config(trials, 100 + seed);
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.submit_bytes(&program, &device, &config, StageKind::GlobalRun)
            })
        })
        .collect();

    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut ok, mut overloaded) = (0usize, 0usize);
    for worker in workers {
        assert!(Instant::now() < deadline, "saturated server hung past the deadline");
        match worker.join().expect("client thread") {
            Ok(_) => ok += 1,
            Err(ClientError::Rejected(rejection)) => {
                assert_eq!(
                    rejection.code,
                    ErrorCode::Overloaded,
                    "saturation must refuse with Overloaded, got {rejection}"
                );
                overloaded += 1;
            }
            Err(other) => panic!("expected result or typed Overloaded, got {other}"),
        }
    }
    handle.shutdown();
    assert_eq!(ok + overloaded, CLIENTS, "every client observed a typed outcome");
    assert!(ok >= 1, "at least the admitted job completes");
    assert!(overloaded >= 1, "capacity 1 under {CLIENTS} simultaneous jobs must refuse some");
    println!("PASS saturation: {CLIENTS} clients -> {ok} served, {overloaded} typed Overloaded");
}

fn smoke() {
    let dir = spill_dir("smoke");
    let handle = serve(&ServerConfig::new(dir)).expect("bind loopback server");
    let addr = handle.addr();
    let device = Device::toronto();
    let dup_program = bench::ghz(6).circuit().clone();
    let dup_config = job_config(2_048, 3);
    let distinct_program = bench::ghz(5).circuit().clone();
    let distinct_config = job_config(2_048, 4);

    let dup_a = {
        let (p, d, c) = (dup_program.clone(), device.clone(), dup_config.clone());
        std::thread::spawn(move || {
            Client::connect(addr)
                .expect("connect")
                .submit_bytes(&p, &d, &c, StageKind::GlobalRun)
                .expect("duplicate A")
        })
    };
    let dup_b = {
        let (p, d, c) = (dup_program.clone(), device.clone(), dup_config.clone());
        std::thread::spawn(move || {
            Client::connect(addr)
                .expect("connect")
                .submit_bytes(&p, &d, &c, StageKind::GlobalRun)
                .expect("duplicate B")
        })
    };
    let distinct = {
        let (p, d, c) = (distinct_program, device.clone(), distinct_config);
        std::thread::spawn(move || {
            Client::connect(addr)
                .expect("connect")
                .submit_bytes(&p, &d, &c, StageKind::GlobalRun)
                .expect("distinct job")
        })
    };
    let a = dup_a.join().expect("dup A");
    let b = dup_b.join().expect("dup B");
    let _ = distinct.join().expect("distinct");
    let misses = server_counter(addr, "jigsaw_server_cache_misses_total");

    assert_eq!(a, b, "duplicate submissions must return identical bytes");
    assert_eq!(misses, 2, "one computation per distinct digest, got {misses}");
    println!("PASS smoke-dedup: 3 clients, 2 digests, {misses} cache misses");

    let solo = encode_to_vec(&run_jigsaw(&dup_program, &device, &dup_config));
    assert_eq!(a, solo, "served bytes must equal solo run_jigsaw");
    println!("PASS smoke-identity: served payload == solo run_jigsaw ({} bytes)", solo.len());

    let mut client = Client::connect(addr).expect("connect");
    let metrics = client.metrics().expect("metrics frame");
    assert!(metrics.contains("jigsaw_server_jobs_total"), "metrics expose job counter");
    assert!(metrics.contains("jigsaw_stage_wall_seconds"), "metrics expose stage histograms");
    println!("PASS smoke-metrics: exposition has {} lines", metrics.lines().count());

    client.shutdown_server().expect("shutdown acknowledged");
    handle.shutdown();
    println!("PASS smoke-shutdown: clean");

    saturation_round(20_000);
}

fn main() {
    let args = Args::from_env();
    if args.flag("smoke") {
        smoke();
        return;
    }
    let trials = args.u64_or("trials", 8_192);

    // The identity reference: one solo pipeline run of the exact job.
    let expected = encode_to_vec(&run_jigsaw(
        bench::ghz(8).circuit(),
        &Device::toronto(),
        &job_config(trials, 7),
    ));

    println!("serve_bench — duplicate-submission scaling (ghz8, {trials} trials)");
    println!();
    println!("{:>8}  {:>9}  {:>9}", "clients", "misses", "wall (s)");
    for clients in [1usize, 2, 4, 8] {
        let (misses, wall) = duplicate_round(clients, trials, &expected);
        assert_eq!(misses, 1, "{clients} duplicate clients must share one computation");
        println!("{clients:>8}  {misses:>9}  {wall:>9.3}");
    }
    println!();
    println!("PASS: 1 computation and bit-identical responses at every client count");

    saturation_round(40_000);
}
