//! The repository benchmark: three JigSaw workloads driven through the
//! public APIs, every output checked, end-to-end metrics from an untraced
//! run and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path jigbench/Cargo.toml -- \
//!     --workload <dense-batch|serve-mix|dist-scatter> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a readable report goes to standard
//! error. Any wrong output or failed job makes the run exit with code 1.
//! See `jigbench/README.md` for the metrics and what moves them.

mod dist;
mod exposition;
mod gen;
mod inproc;
mod jobs;
mod layers;
mod relay;
mod report;
mod serve;
mod stats;
mod trace;
mod worker;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workloads, with why each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "dense-batch",
        "short dense-support jobs where per-job fixed overhead and statevector runs weigh",
    ),
    ("serve-mix", "job server under a repeat/fresh stream: codec, stage cache and scheduler lanes"),
    (
        "dist-scatter",
        "paper-scale ghz40 CPM sweep scattered to worker processes, reconstructed on the driver",
    ),
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// One run's options, from the command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Where spans, spill archives and other run files go.
    pub out_dir: PathBuf,
    /// Threads and connections a workload may use: the machine's cores.
    pub nproc: usize,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload {workload}; choose one of {}", names.join(", ")));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(".jigbench_out"),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// Steal and total jiffies over all CPUs from `/proc/stat`: on a shared
/// host, stolen time explains run-to-run spread the program did not cause.
fn host_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker::serve_main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("jigbench: {e}");
            eprintln!("usage: jigbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("jigbench: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let steal_before = host_steal();
    let tracer = trace::Tracer::new();
    let mut measured = match opts.workload.as_str() {
        "dense-batch" => inproc::dense_batch(&opts, process_start, &tracer),
        "serve-mix" => serve::serve_mix(&opts, process_start, &tracer),
        _ => dist::dist_scatter(&opts, process_start, &tracer),
    };
    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("jigbench: cannot write {}: {e}", path.display()),
        }
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, host_steal()) {
        let share = 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        measured.notes.push(format!("host CPU steal during the run: {share:.1} %"));
    }
    let e2e = report::end_to_end(&measured);
    eprint!("{}", report::describe(&opts.workload, &measured, &e2e, opts.trace));
    let (line, correct) = report::json_line(&measured, &e2e, opts.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
