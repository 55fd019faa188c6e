//! Determinism battery for distributed CPM sweeps: scatter a checkpointed
//! `SubsetsSelected` across worker processes (real spawned binaries and
//! in-process servers), merge the partials, and require the result to be
//! *byte-identical* to a solo `run_jigsaw` — at every worker count, shard
//! size, completion order and shard-to-worker assignment — with no compile
//! beyond the global one that built the stage (the shipped stage already
//! carries every compiled artifact).

use std::io::BufRead;
use std::net::SocketAddr;

use jigsaw_repro::circuit::bench;
use jigsaw_repro::core::dist::{execute_shard, merge_partials, plan_shards, DistConfig};
use jigsaw_repro::core::pipeline::{JigsawPipeline, SubsetsSelected};
use jigsaw_repro::core::{run_jigsaw, JigsawConfig};
use jigsaw_repro::device::Device;
use jigsaw_repro::pmf::codec::encode_to_vec;
use jigsaw_repro::server::dist::run_distributed;
use jigsaw_repro::server::server::{serve, ServerConfig, ServerHandle};
use jigsaw_repro::server::Client;
use proptest::prelude::*;

/// The sweep under test: ghz(6) on toronto, recompilation off, so the
/// compile bill is exactly the one global compile that *built* the stage —
/// executing any number of its shards adds none.
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

/// Shuts a spawned worker down and checks that it removed its spill
/// directory on the way out.
fn stop_worker_process(mut child: std::process::Child, addr: SocketAddr) {
    if let Ok(mut client) = Client::connect(addr) {
        client.shutdown_server().expect("shutdown acknowledged");
    }
    let spill = std::env::temp_dir().join(format!("jigsaw-worker-{}", child.id()));
    let _ = child.wait();
    assert!(!spill.exists(), "worker left its spill directory {} behind", spill.display());
}

/// In-process worker fleet: N TCP servers in this process.
fn spawn_fleet(n: usize) -> (Vec<ServerHandle>, Vec<SocketAddr>) {
    let spill_base = std::env::temp_dir()
        .join("jigsaw-dist-determinism-tests")
        .join(format!("fleet-{}", std::process::id()));
    let handles: Vec<ServerHandle> = (0..n)
        .map(|i| serve(&ServerConfig::new(spill_base.join(i.to_string()))).expect("bind worker"))
        .collect();
    let addrs = handles.iter().map(ServerHandle::addr).collect();
    (handles, addrs)
}

/// The headline cross-process theorem: two *real* worker processes serve
/// the sweep's shards over TCP, the merged bytes equal a solo
/// `run_jigsaw`, and the merged result reports only the stage's global
/// compile.
#[test]
fn two_real_worker_processes_merge_bit_identical_to_solo() {
    let solo = solo_bytes(41);
    let stage = sweep_stage(41);

    let workers: Vec<_> = (0..2).map(|_| spawn_worker_process()).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|&(_, addr)| addr).collect();

    let merged = run_distributed(&stage, &addrs, &DistConfig::default().with_shard_size(2))
        .expect("distributed sweep");

    for (child, addr) in workers {
        stop_worker_process(child, addr);
    }
    assert_eq!(
        encode_to_vec(&merged),
        solo,
        "distributed merge across real processes diverged from solo run_jigsaw"
    );
    assert_eq!(merged.compiles(), 1, "the sweep must add no compile to the stage's global one");
}

/// A worker process answers each shard of a shipped stage with the
/// partial for that shard, and its metrics frame counts the shards.
#[test]
fn real_worker_answers_each_shard_and_counts_it() {
    let stage = sweep_stage(42);
    let (child, addr) = spawn_worker_process();
    let mut client = Client::connect(addr).expect("connect");
    for shard in plan_shards(cpm_count(&stage), 3) {
        let request = jigsaw_repro::core::dist::ShardRequest {
            shard,
            priority: jigsaw_repro::core::sched::Priority::Sweep,
            stage: Some(&stage),
        };
        let partial = client.submit_shard(stage.config_digest(), &request).expect("shard served");
        assert_eq!(partial.shard_index, shard.index);
    }
    // The worker's metrics frame exposes the sweep counters it fed.
    let metrics = client.metrics().expect("metrics frame");
    assert!(
        metrics.contains("jigsaw_dist_shards_total{outcome=\"ok\"}"),
        "worker metrics missing shard counter:\n{metrics}"
    );
    stop_worker_process(child, addr);
}

/// One counter from a worker's metrics frame (0 when not yet rendered).
fn worker_counter(addr: SocketAddr, name: &str) -> u64 {
    let text = Client::connect(addr).expect("connect").metrics().expect("metrics frame");
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// Each worker's (stage misses, inline stages stored) so far.
fn stage_traffic(addrs: &[SocketAddr]) -> Vec<(u64, u64)> {
    addrs
        .iter()
        .map(|&addr| {
            (
                worker_counter(addr, "jigsaw_server_shard_stage_misses_total"),
                worker_counter(addr, "jigsaw_server_shard_stages_stored_total"),
            )
        })
        .collect()
}

/// The stage crosses the wire once per worker, not once per shard: against
/// two real worker processes the first sweep stores it at most once on
/// each (every store answering a miss), an identical second sweep misses
/// nothing and ships no stage, and both sweeps merge to the solo bytes.
#[test]
fn a_repeated_sweep_ships_its_stage_once_per_worker() {
    let solo = solo_bytes(43);
    let stage = sweep_stage(43);
    let workers: Vec<_> = (0..2).map(|_| spawn_worker_process()).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|&(_, addr)| addr).collect();
    let config = DistConfig::default().with_shard_size(2);
    assert!(cpm_count(&stage) > 2 * addrs.len(), "the sweep needs several shards per worker");

    let first = run_distributed(&stage, &addrs, &config).expect("first sweep");
    let after_first = stage_traffic(&addrs);
    let second = run_distributed(&stage, &addrs, &config).expect("second sweep");
    let after_second = stage_traffic(&addrs);

    for (child, addr) in workers {
        stop_worker_process(child, addr);
    }
    assert_eq!(encode_to_vec(&first), solo, "first sweep diverged from solo");
    assert_eq!(encode_to_vec(&second), solo, "second sweep diverged from solo");
    assert!(after_first.iter().any(|&(_, stored)| stored == 1), "no worker got the stage");
    for (worker, &(misses, stored)) in after_first.iter().enumerate() {
        assert!(stored <= 1, "worker {worker} stored the stage {stored} times in one sweep");
        assert_eq!(misses, stored, "worker {worker}: each inline stage must answer one miss");
    }
    assert_eq!(after_second, after_first, "a sweep of a held stage must miss and ship nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whatever the worker count, shard size or seed, the distributed
    /// sweep is byte-identical to solo and reports no compile beyond the
    /// one that built the stage.
    #[test]
    fn any_fleet_shape_is_bit_identical_to_solo(
        seed in 0u64..500,
        workers in 1usize..5,
        shard_size in 1usize..6,
    ) {
        let solo = solo_bytes(seed);
        let stage = sweep_stage(seed);

        let (handles, addrs) = spawn_fleet(workers);
        let merged = run_distributed(
            &stage,
            &addrs,
            &DistConfig::default().with_shard_size(shard_size),
        )
        .expect("distributed sweep");
        for handle in handles {
            handle.shutdown();
        }

        prop_assert_eq!(merged.compiles(), 1, "sweep execution must pay zero compiles at any fleet shape");
        prop_assert_eq!(
            encode_to_vec(&merged),
            solo,
            "{} workers x shard size {} diverged from solo", workers, shard_size
        );
    }

    /// Completion order is a merge-input permutation, and the merge is
    /// order-free: shuffled partial arrival produces the same bytes.
    #[test]
    fn merge_is_invariant_under_completion_order(
        seed in 0u64..500,
        shard_size in 1usize..6,
        rotation in 0usize..16,
        reverse in any::<bool>(),
    ) {
        let solo = solo_bytes(seed);
        let stage = sweep_stage(seed);
        let mut partials: Vec<_> = plan_shards(cpm_count(&stage), shard_size)
            .iter()
            .map(|shard| execute_shard(&stage, shard))
            .collect();
        // An arbitrary completion order: rotate, optionally reverse.
        let cut = rotation % partials.len().max(1);
        partials.rotate_left(cut);
        if reverse {
            partials.reverse();
        }
        let merged = merge_partials(stage, partials).expect("merge");
        prop_assert_eq!(
            encode_to_vec(&merged),
            solo,
            "merge depended on completion order (cut {}, reverse {})", cut, reverse
        );
    }
}
