//! Distributed-sweep benchmark and CI smoke: scatter/merge over the wire
//! against real worker processes, proven bit-identical to the in-process
//! sweep.
//!
//! The distributed claim (`jigsaw_core::dist`, `jigsaw_server::dist`) is
//! that a checkpointed `SubsetsSelected` stage can be sharded across any
//! number of worker *processes* and the merged `JigsawResult` is the same
//! bytes the solo pipeline produces. This binary exercises that claim the
//! only way it can be fully trusted: by spawning real `jigsaw-worker`
//! processes and driving them over TCP.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin dist_bench              # 1/2/4 workers
//! cargo run --release -p jigsaw-bench --bin dist_bench -- --smoke  # CI round, 2 workers
//! ```
//!
//! Every round asserts **bit-identity** between the merged distributed
//! result and the solo `run_cpms().reconstruct()` finish (which the core
//! test battery proves equal to `run_jigsaw`), plus a real-process
//! zero-recompile check: one shard submitted directly to a worker must
//! report `compiles == 0`, because the shipped stage already carries the
//! compiled CPM artifacts. Results land in `BENCH_dist.json` (override
//! with `--out PATH`).
//!
//! The worker binary is resolved as a sibling of this executable
//! (`target/<profile>/jigsaw-worker`), overridable with `--worker PATH`
//! or the `JIGSAW_WORKER` environment variable.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use jigsaw_bench::cli::Args;
use jigsaw_circuit::bench;
use jigsaw_core::dist::{DistConfig, Shard, ShardRequest};
use jigsaw_core::pipeline::{JigsawPipeline, SubsetsSelected};
use jigsaw_core::sched::Priority;
use jigsaw_core::JigsawConfig;
use jigsaw_device::Device;
use jigsaw_pmf::codec::encode_to_vec;
use jigsaw_server::dist::run_distributed;
use jigsaw_server::Client;

/// A spawned worker process and the address it printed.
struct Worker {
    child: Child,
    addr: SocketAddr,
}

/// Resolves the worker binary: `--worker PATH`, then `JIGSAW_WORKER`,
/// then the sibling `jigsaw-worker` next to this executable.
fn worker_binary(args: &Args) -> PathBuf {
    if let Some(path) = args.path("worker") {
        return path;
    }
    if let Ok(path) = std::env::var("JIGSAW_WORKER") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("current executable path");
    exe.parent()
        .expect("executable directory")
        .join(format!("jigsaw-worker{}", std::env::consts::EXE_SUFFIX))
}

/// Spawns one worker and parses its `PORT=<n>` line.
fn spawn_worker(binary: &Path) -> Worker {
    let mut child = Command::new(binary).stdout(Stdio::piped()).spawn().unwrap_or_else(|e| {
        panic!(
            "failed to spawn {}: {e}\nbuild it first (`cargo build --release -p \
                 jigsaw-repro`) or point --worker / JIGSAW_WORKER at it",
            binary.display()
        )
    });
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("worker PORT line");
    let port: u16 = line
        .trim()
        .strip_prefix("PORT=")
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("worker printed {line:?}, expected PORT=<n>"));
    Worker { child, addr: SocketAddr::from(([127, 0, 0, 1], port)) }
}

/// Shuts a worker down cooperatively and reaps the process.
fn stop_worker(mut worker: Worker) {
    if let Ok(mut client) = Client::connect(worker.addr) {
        let _ = client.shutdown_server();
    }
    let _ = worker.child.wait();
}

/// The checkpointed stage every round scatters: ghz(6) on toronto with
/// recompilation off, so the shipped artifacts make worker-side compiles
/// provably zero.
fn sweep_stage(trials: u64) -> SubsetsSelected {
    let config = JigsawConfig::jigsaw(trials).without_recompilation();
    JigsawPipeline::plan(bench::ghz(6).circuit(), &Device::toronto(), &config)
        .compile_global()
        .run_global()
        .select_subsets()
}

struct Row {
    workers: usize,
    wall: f64,
}

fn write_json(path: &Path, trials: u64, shard_size: usize, solo_wall: f64, rows: &[Row]) {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"dist_bench\",");
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(out, "  \"shard_size\": {shard_size},");
    let _ = writeln!(out, "  \"solo_wall_s\": {solo_wall:.6},");
    let _ = writeln!(out, "  \"distributed\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"workers\": {}, \"wall_s\": {:.6}, \"speedup_vs_solo\": {:.3}}}{comma}",
            row.workers,
            row.wall,
            solo_wall / row.wall
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH_dist.json");
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let trials = args.trials(if smoke { 1_200 } else { 8_192 });
    let shard_size = args.u64_or("shard-size", 2) as usize;
    let out_path = args.path("out").unwrap_or_else(|| PathBuf::from("BENCH_dist.json"));
    let binary = worker_binary(&args);

    println!("dist_bench — distributed CPM sweep (ghz6, {trials} trials, shard size {shard_size})");
    println!("worker binary: {}", binary.display());
    println!();

    let stage = sweep_stage(trials);
    let start = Instant::now();
    let solo = encode_to_vec(&stage.clone().run_cpms().reconstruct());
    let solo_wall = start.elapsed().as_secs_f64();
    println!("solo finish: {solo_wall:.3} s");

    // Real-process zero-recompile check: one shard over the wire must
    // report zero compiles on the worker.
    {
        let worker = spawn_worker(&binary);
        let mut client = Client::connect(worker.addr).expect("connect to worker");
        let request = ShardRequest {
            stage: stage.clone(),
            shard: Shard { index: 0, lo: 0, hi: 1 },
            priority: Priority::Sweep,
        };
        let partial = client.submit_shard(&request).expect("shard served");
        assert_eq!(partial.compiles, 0, "a worker executing a shipped stage must never recompile");
        stop_worker(worker);
        println!("PASS compiles: worker served a shard with 0 compiles");
    }

    let worker_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };
    let config = DistConfig::default().with_shard_size(shard_size);
    let mut rows = Vec::new();
    println!();
    println!("{:>8}  {:>10}  {:>8}", "workers", "wall (s)", "speedup");
    for &n in worker_counts {
        let workers: Vec<Worker> = (0..n).map(|_| spawn_worker(&binary)).collect();
        let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
        let start = Instant::now();
        let merged = run_distributed(&stage, &addrs, &config).expect("distributed sweep");
        let wall = start.elapsed().as_secs_f64();
        for worker in workers {
            stop_worker(worker);
        }
        assert_eq!(
            encode_to_vec(&merged),
            solo,
            "{n}-worker distributed sweep must be bit-identical to the solo finish"
        );
        println!("{n:>8}  {wall:>10.3}  {:>7.2}x", solo_wall / wall);
        rows.push(Row { workers: n, wall });
    }
    println!("PASS identity: every distributed merge bit-identical to solo at every worker count");

    write_json(&out_path, trials, shard_size, solo_wall, &rows);
    println!("PASS json: wrote {}", out_path.display());
}
