//! Concurrency battery for the job server's single-flight cache: K
//! threads submitting the *same* `(program, device, config)` interleaved
//! with distinct jobs must produce bit-identical payloads per digest and
//! exactly one computation per *distinct* digest — and a cache of
//! capacity 1 must never deadlock under that load.
//!
//! Compile accounting: every config here is `without_recompilation`, so a
//! computation's only compile is its global one and the server's miss
//! count equals the global compiles it paid. Counts are read from the
//! server's own metrics frame; each server keeps its own registry, so
//! sibling tests in this binary cannot disturb them.

use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::Duration;

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::{run_jigsaw, JigsawConfig, StageKind};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;
use jigsaw_repro::server::client::Client;
use jigsaw_repro::server::server::{serve, ServerConfig};
use proptest::prelude::*;

fn spill_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("jigsaw-server-dedup-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fast job whose digest is fully determined by `seed`.
fn job(seed: u64) -> (jigsaw_repro::circuit::Circuit, Device, JigsawConfig) {
    let mut config = JigsawConfig::jigsaw(1_200).without_recompilation().with_seed(seed);
    config.compiler.max_seeds = 3;
    (bench::ghz(6).circuit().clone(), Device::toronto(), config)
}

/// Submits `(seed)`'s job over its own connection, returning the raw
/// response payload.
fn submit(addr: SocketAddr, seed: u64) -> Vec<u8> {
    let (program, device, config) = job(seed);
    Client::connect(addr)
        .expect("connect")
        .submit_bytes(&program, &device, &config, StageKind::GlobalRun)
        .expect("job accepted")
}

/// One unlabelled counter of the server at `addr`, from its metrics frame.
fn counter(addr: SocketAddr, name: &str) -> u64 {
    let text = Client::connect(addr).expect("connect").metrics().expect("metrics frame");
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from exposition:\n{text}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline property: duplicates coalesce, distinct jobs don't,
    /// and every byte matches the solo pipeline.
    #[test]
    fn duplicates_share_one_compile_and_every_byte(
        seed in 0u64..500,
        duplicates in 2usize..7,
    ) {
        let (program, device, config) = job(seed);
        let solo_dup = encode_to_vec(&run_jigsaw(&program, &device, &config));
        let (p2, d2, c2) = job(seed + 1000);
        let solo_distinct = encode_to_vec(&run_jigsaw(&p2, &d2, &c2));

        let handle = serve(&ServerConfig::new(spill_dir(&format!("prop-{seed}-{duplicates}"))))
            .expect("bind");
        let addr = handle.addr();

        let mut workers = Vec::new();
        for i in 0..duplicates + 1 {
            // Interleave: worker 0 carries the distinct job, the rest are
            // duplicates of one digest.
            let job_seed = if i == 0 { seed + 1000 } else { seed };
            workers.push(std::thread::spawn(move || (job_seed, submit(addr, job_seed))));
        }
        let mut responses = Vec::new();
        for worker in workers {
            responses.push(worker.join().expect("client thread"));
        }
        let misses = counter(addr, "jigsaw_server_cache_misses_total");
        let shared = counter(addr, "jigsaw_server_cache_hits_total")
            + counter(addr, "jigsaw_server_cache_coalesced_total");
        handle.shutdown();

        prop_assert_eq!(misses, 2, "exactly one global compile per distinct digest");
        prop_assert_eq!(shared, duplicates as u64 - 1, "the other duplicates share that computation");
        for (job_seed, payload) in responses {
            let expected = if job_seed == seed { &solo_dup } else { &solo_distinct };
            prop_assert_eq!(&payload, expected, "payload must be bit-identical to solo run");
        }
    }
}

/// Capacity 1 with many concurrent distinct + duplicate jobs: in-flight
/// work must not count against capacity, so nothing can deadlock. A
/// watchdog bounds the wait — a deadlock fails the test instead of
/// hanging the suite.
#[test]
fn capacity_one_cache_never_deadlocks() {
    let handle =
        serve(&ServerConfig::new(spill_dir("capacity-one")).with_capacity(1)).expect("bind");
    let addr = handle.addr();

    let (tx, rx) = mpsc::channel();
    let seeds = [7u64, 7, 8, 8, 9, 9, 7, 8];
    for &seed in &seeds {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let payload = submit(addr, seed);
            tx.send((seed, payload)).expect("result channel");
        });
    }
    drop(tx);

    let mut by_seed: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
    for _ in 0..seeds.len() {
        let (seed, payload) = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a worker starved: capacity-1 cache deadlocked");
        // Every response for one digest must be the same bytes, whether it
        // was computed, coalesced, served from memory or rehydrated from
        // an eviction archive.
        let previous = by_seed.entry(seed).or_insert_with(|| payload.clone());
        assert_eq!(previous, &payload, "divergent payloads for seed {seed}");
    }
    handle.shutdown();
    assert_eq!(by_seed.len(), 3, "three distinct digests were in play");
}

/// Duplicates arriving on one shared connection (sequential frames)
/// behave identically to duplicates on parallel connections.
#[test]
fn sequential_resubmission_serves_cached_bytes() {
    let handle = serve(&ServerConfig::new(spill_dir("sequential"))).expect("bind");
    let addr = handle.addr();
    let (program, device, config) = job(42);

    let mut client = Client::connect(addr).expect("connect");
    let first = client
        .submit_bytes(&program, &device, &config, StageKind::GlobalRun)
        .expect("first submission");
    let second = client
        .submit_bytes(&program, &device, &config, StageKind::GlobalRun)
        .expect("second submission");
    let misses = counter(addr, "jigsaw_server_cache_misses_total");
    let hits = counter(addr, "jigsaw_server_cache_hits_total");
    handle.shutdown();

    assert_eq!(first, second, "cache hit must serve identical bytes");
    assert_eq!(misses, 1, "the second submission must not compile");
    assert_eq!(hits, 1, "the second submission is served from memory");
}
