//! Scheduler benchmark and CI smoke: multi-job throughput scaling and
//! interactive latency under a competing background sweep.
//!
//! Two questions, straight from the serving story:
//!
//! 1. **Throughput** — N concurrent digest-adjacent jobs (same device +
//!    executor config, different seeds) through the stage scheduler vs.
//!    the same N jobs executed serially back-to-back (the pre-scheduler
//!    behavior). Stage interleaving plus cross-job fan-out batching should
//!    scale aggregate throughput with concurrency instead of dividing it.
//! 2. **Latency lanes** — interactive p50/p99 with and without a running
//!    background sweep. Priority lanes mean an interactive query overtakes
//!    sweep work at the next stage boundary, so the contended p99 stays
//!    within a small factor of the uncontended p99.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin sched_bench              # full sweep
//! cargo run --release -p jigsaw-bench --bin sched_bench -- --smoke  # CI round
//! ```
//!
//! Both modes assert per-job **bit-identity** with solo `run_jigsaw` and
//! each job's compile count read from its result, and write
//! `BENCH_sched.json` (override with `--out PATH`). Perf-ratio assertions
//! (>=2x aggregate throughput at 4 clients, contended p99 <= 3x
//! uncontended) are enforced in full mode
//! on multi-core hosts and reported as SKIP on single-core ones, where a
//! parallel speedup is physically unavailable.

use std::fmt::Write as _;
use std::time::Instant;

use jigsaw_bench::cli::Args;
use jigsaw_circuit::bench;
use jigsaw_core::sched::{Priority, SchedConfig, Scheduler};
use jigsaw_core::{run_jigsaw, JigsawConfig, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::encode_to_vec;

/// Digest-adjacent job family: one device + executor config, seeds vary.
/// `without_recompilation` keeps each job's compile bill at its one global
/// compile; `run.threads = 1` makes the serial baseline genuinely serial so
/// the comparison isolates what the *scheduler* adds.
fn job(trials: u64, seed: u64) -> (jigsaw_circuit::Circuit, Device, JigsawConfig) {
    let mut config = JigsawConfig::jigsaw(trials).without_recompilation().with_seed(seed);
    config.compiler.max_seeds = 3;
    config.run.threads = 1;
    (bench::ghz(6).circuit().clone(), Device::toronto(), config)
}

/// Solo-reference payloads for seeds `0..n`.
fn solo_payloads(trials: u64, n: usize) -> Vec<Vec<u8>> {
    (0..n as u64)
        .map(|seed| {
            let (program, device, config) = job(trials, seed);
            encode_to_vec(&run_jigsaw(&program, &device, &config))
        })
        .collect()
}

/// Serial baseline: the same `n` jobs, back-to-back on one thread.
fn serial_round(trials: u64, n: usize) -> f64 {
    let start = Instant::now();
    for seed in 0..n as u64 {
        let (program, device, config) = job(trials, seed);
        let _ = run_jigsaw(&program, &device, &config);
    }
    start.elapsed().as_secs_f64()
}

/// Scheduler round: `n` client threads each submit one digest-adjacent
/// job and wait. Returns the wall time; asserts bit-identity and that the
/// results report exactly one global compile per job.
fn sched_round(trials: u64, n: usize, solos: &[Vec<u8>]) -> f64 {
    let sched = std::sync::Arc::new(Scheduler::new(SchedConfig::default()));
    let start = Instant::now();
    let workers: Vec<_> = (0..n as u64)
        .map(|seed| {
            let sched = std::sync::Arc::clone(&sched);
            std::thread::spawn(move || {
                let (program, device, config) = job(trials, seed);
                let ticket = sched
                    .submit(&program, &device, &config, Priority::Sweep, None)
                    .expect("admitted");
                ticket.wait().expect("job ran").result
            })
        })
        .collect();
    let results: Vec<JigsawResult> =
        workers.into_iter().map(|w| w.join().expect("client")).collect();
    let wall = start.elapsed().as_secs_f64();
    let compiles: u64 = results.iter().map(JigsawResult::compiles).sum();
    assert_eq!(compiles, n as u64, "{n} digest-adjacent jobs must pay exactly {n} compiles");
    for (i, result) in results.iter().enumerate() {
        assert_eq!(encode_to_vec(result), solos[i], "scheduled job {i} must equal solo");
    }
    wall
}

/// Sorted-percentile (nearest-rank) of per-job wall times, in seconds.
fn percentile(walls: &mut [f64], p: f64) -> f64 {
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
    let rank = ((p * walls.len() as f64).ceil() as usize).clamp(1, walls.len());
    walls[rank - 1]
}

/// Measures interactive per-job latency: `samples` jobs submitted one at
/// a time. With `sweep`, a sustained stream of background jobs contends
/// for the same worker pool throughout.
fn latency_round(trials: u64, samples: usize, sweep: bool) -> (f64, f64) {
    let sched = Scheduler::new(SchedConfig::default().with_capacity(4096));
    let mut sweep_tickets = Vec::new();
    if sweep {
        // Enough background jobs that the sweep outlives the sampling.
        for seed in 0..(samples as u64 * 4) {
            let (program, device, config) = job(trials, 10_000 + seed);
            sweep_tickets.push(
                sched
                    .submit(&program, &device, &config, Priority::Background, None)
                    .expect("sweep admitted"),
            );
        }
    }
    let mut walls = Vec::with_capacity(samples);
    for seed in 0..samples as u64 {
        let (program, device, config) = job(trials, 20_000 + seed);
        let start = Instant::now();
        let ticket = sched
            .submit(&program, &device, &config, Priority::Interactive, None)
            .expect("interactive admitted");
        let _ = ticket.wait().expect("interactive job ran");
        walls.push(start.elapsed().as_secs_f64());
    }
    // Drain the sweep so its jobs complete rather than being shut down.
    for ticket in sweep_tickets {
        let _ = ticket.wait().expect("sweep job ran");
    }
    (percentile(&mut walls.clone(), 0.50), percentile(&mut walls, 0.99))
}

struct ThroughputRow {
    clients: usize,
    serial_wall: f64,
    sched_wall: f64,
}

impl ThroughputRow {
    fn speedup(&self) -> f64 {
        self.serial_wall / self.sched_wall
    }
    fn jobs_per_sec(&self) -> f64 {
        self.clients as f64 / self.sched_wall
    }
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &std::path::Path,
    trials: u64,
    rows: &[ThroughputRow],
    p50_free: f64,
    p99_free: f64,
    p50_sweep: f64,
    p99_sweep: f64,
    cores: usize,
) {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"sched_bench\",");
    let _ = writeln!(out, "  \"trials\": {trials},");
    let _ = writeln!(out, "  \"cores\": {cores},");
    let _ = writeln!(out, "  \"throughput\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"clients\": {}, \"serial_wall_s\": {:.6}, \"sched_wall_s\": {:.6}, \
             \"jobs_per_sec\": {:.3}, \"speedup_vs_serial\": {:.3}}}{comma}",
            row.clients,
            row.serial_wall,
            row.sched_wall,
            row.jobs_per_sec(),
            row.speedup()
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"interactive_latency\": {{");
    let _ = writeln!(out, "    \"uncontended_p50_s\": {p50_free:.6},");
    let _ = writeln!(out, "    \"uncontended_p99_s\": {p99_free:.6},");
    let _ = writeln!(out, "    \"under_sweep_p50_s\": {p50_sweep:.6},");
    let _ = writeln!(out, "    \"under_sweep_p99_s\": {p99_sweep:.6},");
    let _ = writeln!(out, "    \"p99_ratio\": {:.3}", p99_sweep / p99_free);
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH_sched.json");
}

fn main() {
    let args = Args::from_env();
    let smoke = args.flag("smoke");
    let trials = args.trials(if smoke { 1_200 } else { 8_192 });
    let samples = if smoke { 8 } else { 30 };
    let out_path = args.path("out").unwrap_or_else(|| std::path::PathBuf::from("BENCH_sched.json"));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    println!("sched_bench — multi-job scheduler (ghz6, {trials} trials, {cores} cores)");
    println!();

    let client_counts: &[usize] = &[1, 2, 4, 8];
    let max_clients = *client_counts.last().expect("non-empty");
    let solos = solo_payloads(trials, max_clients);

    println!(
        "{:>8}  {:>12}  {:>12}  {:>10}  {:>9}",
        "clients", "serial (s)", "sched (s)", "jobs/s", "speedup"
    );
    let mut rows = Vec::new();
    for &clients in client_counts {
        let serial_wall = serial_round(trials, clients);
        let sched_wall = sched_round(trials, clients, &solos);
        let row = ThroughputRow { clients, serial_wall, sched_wall };
        println!(
            "{clients:>8}  {serial_wall:>12.3}  {sched_wall:>12.3}  {:>10.2}  {:>8.2}x",
            row.jobs_per_sec(),
            row.speedup()
        );
        rows.push(row);
    }
    println!("PASS identity: every scheduled job bit-identical to solo run_jigsaw");
    println!("PASS compiles: every result reports one global compile at every client count");

    let (p50_free, p99_free) = latency_round(trials, samples, false);
    let (p50_sweep, p99_sweep) = latency_round(trials, samples, true);
    let ratio = p99_sweep / p99_free;
    println!();
    println!("interactive latency ({samples} samples):");
    println!("  uncontended   p50 {:>8.2} ms   p99 {:>8.2} ms", p50_free * 1e3, p99_free * 1e3);
    println!("  under sweep   p50 {:>8.2} ms   p99 {:>8.2} ms", p50_sweep * 1e3, p99_sweep * 1e3);
    println!("  p99 ratio {ratio:.2}x");

    write_json(&out_path, trials, &rows, p50_free, p99_free, p50_sweep, p99_sweep, cores);
    println!("PASS json: wrote {}", out_path.display());

    // Perf ratios are physical claims about parallel hardware; on a
    // single core the scheduler can only interleave, not overlap.
    let four = rows.iter().find(|r| r.clients == 4).expect("4-client row");
    if smoke || cores < 2 {
        println!(
            "SKIP perf-assert: {} (4-client speedup {:.2}x, p99 ratio {ratio:.2}x recorded)",
            if smoke { "smoke mode" } else { "single-core host" },
            four.speedup()
        );
        return;
    }
    assert!(
        four.speedup() >= 2.0,
        "4 concurrent digest-adjacent jobs must beat serial by >=2x, got {:.2}x",
        four.speedup()
    );
    println!("PASS throughput: 4-client speedup {:.2}x >= 2x", four.speedup());
    assert!(
        ratio <= 3.0,
        "interactive p99 under sweep must stay within 3x of uncontended, got {ratio:.2}x"
    );
    println!("PASS latency: contended p99 within 3x of uncontended ({ratio:.2}x)");
}
