//! Eviction equivalence: filling the cache past capacity forces a spilled
//! eviction; resubmitting the evicted digest must serve a
//! **byte-identical** response without recomputing it — the rehydration
//! path reads the spilled response frame back, so the server's miss count
//! (one global compile per miss) does not move. A spill that fails its
//! checks is a miss, never a lasting error.
//!
//! Every count is read from the server's own metrics frame: each server
//! keeps its own registry, so sibling tests in this binary cannot disturb
//! it.

use std::net::SocketAddr;

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::persist::config_digest;
use jigsaw_repro::core::{run_jigsaw, telemetry, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;
use jigsaw_repro::server::client::Client;
use jigsaw_repro::server::server::{serve, ServerConfig};

const MISSES: &str = "jigsaw_server_cache_misses_total";
const EVICTIONS: &str = "jigsaw_server_cache_evictions_total";
const REHYDRATIONS: &str = "jigsaw_server_cache_rehydrations_total";

fn spill_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("jigsaw-server-eviction-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(seed: u64) -> (jigsaw_repro::circuit::Circuit, Device, JigsawConfig) {
    let mut config = JigsawConfig::jigsaw(1_200).without_recompilation().with_seed(seed);
    config.compiler.max_seeds = 3;
    (bench::ghz(6).circuit().clone(), Device::toronto(), config)
}

fn submit(client: &mut Client, seed: u64) -> Vec<u8> {
    let (program, device, config) = job(seed);
    client.submit_bytes(&program, &device, &config).expect("job accepted")
}

/// One unlabelled counter of the server at `addr`, from its metrics frame.
fn counter(addr: SocketAddr, name: &str) -> u64 {
    let text = Client::connect(addr).expect("connect").metrics().expect("metrics frame");
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("counter {name} missing from exposition:\n{text}"))
}

#[test]
fn evicted_digest_rehydrates_byte_identically_with_zero_compiles() {
    let spill = spill_dir("equivalence");
    let handle = serve(&ServerConfig::new(spill.clone()).with_capacity(1)).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Job A fills the single slot; job B forces A's eviction to disk.
    let first_a = submit(&mut client, 1);
    let _b = submit(&mut client, 2);
    assert_eq!(counter(addr, EVICTIONS), 1, "capacity 1 must evict A");
    let spilled: Vec<_> = std::fs::read_dir(&spill)
        .expect("spill dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "jigsaw"))
        .collect();
    assert!(!spilled.is_empty(), "eviction must leave an archive behind");

    // Resubmit A: identical bytes, served from the archive, no fresh
    // computation and hence no global compile.
    let second_a = submit(&mut client, 1);
    assert_eq!(first_a, second_a, "rehydrated response must be byte-identical");
    assert_eq!(counter(addr, REHYDRATIONS), 1, "served via the rehydrate path");
    assert_eq!(counter(addr, MISSES), 2, "rehydration must not recompute anything");
    handle.shutdown();
}

/// A spill that fails its checks is deleted and the job computed fresh in
/// the same request: flipping one byte of an evicted job's spill costs
/// one recomputation, and the resubmission still gets its solo bytes.
#[test]
fn corrupt_spill_is_recomputed_to_solo_bytes() {
    let spill = spill_dir("corrupt");
    let handle = serve(&ServerConfig::new(spill.clone()).with_capacity(1)).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Job A fills the single slot; job B evicts it to disk.
    let (program, device, config) = job(31);
    let _a = submit(&mut client, 31);
    let _b = submit(&mut client, 32);
    let path = spill.join(format!("{:016x}.jigsaw", config_digest(&program, &device, &config)));
    let mut bytes = std::fs::read(&path).expect("eviction spilled A");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt the spill");

    let solo = encode_to_vec(&run_jigsaw(&program, &device, &config));
    assert_eq!(submit(&mut client, 31), solo, "a corrupt spill must not reach the client");
    assert_eq!(counter(addr, REHYDRATIONS), 0, "the corrupt spill was not served");
    assert_eq!(counter(addr, MISSES), 3, "A was computed fresh, counted as a miss");
    handle.shutdown();
}

/// Rehydration is observable in the metrics exposition the server serves
/// over its own protocol, with exact per-server counts, and the serving
/// families stay out of the process-global registry.
#[test]
fn rehydration_counter_shows_in_the_metrics_frame() {
    let handle = serve(&ServerConfig::new(spill_dir("metrics")).with_capacity(1)).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    let _a = submit(&mut client, 21);
    let _b = submit(&mut client, 22);
    let _a_again = submit(&mut client, 21);

    // B evicts A, and A's rehydration evicts B in turn.
    assert_eq!(counter(addr, EVICTIONS), 2, "evictions counted");
    assert_eq!(counter(addr, REHYDRATIONS), 1, "rehydrations counted");
    assert_eq!(counter(addr, "jigsaw_server_jobs_total"), 3, "jobs counted");
    let text = Client::connect(addr).expect("connect").metrics().expect("metrics frame");
    assert!(text.contains("jigsaw_stage_wall_seconds"), "stage walls missing:\n{text}");
    let global = telemetry::global().render_text();
    assert!(!global.contains("jigsaw_server_"), "serving families leaked into the global registry");
    handle.shutdown();
}
