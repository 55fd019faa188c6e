//! Reconstruction-scaling scenario: drives the sharded Bayesian
//! reconstruction core on synthetic supports of 10⁴–10⁶ observed outcomes
//! (the wide-Clifford regime unlocked by the stabilizer backend) and
//! reports (a) linearity in support size, per §7.3, (b) wall-clock scaling
//! across the `fan_out` worker team — with the outputs checked
//! bit-identical at every thread count before any timing is trusted — and
//! (c) the per-round kernel cost of an iterated `reconstruct`.
//!
//! Sections (a) and (b) time single rounds through
//! `reconstruction_round_over_entries`, so each includes building the
//! marginals' projection indices, a once-per-layer cost. Section (c) runs
//! 32 rounds of `reconstruct` on one index, so its per-round figure is the
//! hash-free round kernel itself.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin recon_scaling
//! cargo run --release -p jigsaw-bench --bin recon_scaling -- --max-entries 100000 --cpms 8
//! ```

use std::time::Instant;

use jigsaw_bench::{cli, table};
use jigsaw_core::{reconstruct, reconstruction_round_over_entries, Marginal, ReconstructionConfig};
use jigsaw_pmf::BitString;

const N_BITS: usize = 40;

/// Rounds of the iterated case; a zero tolerance means none stops early.
const ITERATED_ROUNDS: usize = 32;

type Entries = Vec<(BitString, f64)>;

fn timed_round(support: &Entries, ms: &[Marginal], threads: usize, reps: u64) -> (Entries, f64) {
    // One warm-up, then the best of `reps` (the stable estimator for a
    // single-digit-second scenario binary).
    let mut out = reconstruction_round_over_entries(support, ms, threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        out = reconstruction_round_over_entries(support, ms, threads);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (out, best)
}

fn main() {
    let args = cli::Args::from_env();
    let seed = args.seed();
    let max_entries = args.u64_or("max-entries", 1_000_000) as usize;
    let cpms = args.u64_or("cpms", 8) as usize;
    let reps = args.u64_or("reps", 2);

    println!("Reconstruction scaling — sharded Bayesian updates (§7.3 linearity claim)");
    println!();

    let marginals = jigsaw_bench::synthetic::marginals(N_BITS, cpms, 2, seed ^ 0xC0FFEE);

    // --- Linearity in support size (serial, one worker) -------------------
    let mut sizes = vec![10_000usize, 100_000, 1_000_000];
    sizes.retain(|&s| s <= max_entries);
    let mut rows = Vec::new();
    let mut per_entry_ns = Vec::new();
    for &entries in &sizes {
        let support = jigsaw_bench::synthetic::global_pmf(N_BITS, entries, seed).sorted_entries();
        let (_, secs) = timed_round(&support, &marginals, 1, reps);
        let ns = secs * 1e9 / entries as f64;
        per_entry_ns.push(ns);
        rows.push(vec![
            entries.to_string(),
            cpms.to_string(),
            format!("{:.1} ms", secs * 1e3),
            format!("{ns:.0} ns"),
        ]);
    }
    println!("{}", table::render(&["Entries", "CPMs", "Round time", "Per entry"], &rows));
    if let (Some(first), Some(last)) = (per_entry_ns.first(), per_entry_ns.last()) {
        println!(
            "Per-entry cost drift across {}x support growth: {:.2}x (≈1.0 = linear scaling)",
            if sizes.len() > 1 { sizes[sizes.len() - 1] / sizes[0] } else { 1 },
            last / first
        );
    }
    println!();

    // --- Per-round kernel cost (iterated reconstruct) ---------------------
    let config = ReconstructionConfig { tolerance: 0.0, max_rounds: ITERATED_ROUNDS, threads: 1 };
    let mut iterated_rows = Vec::new();
    for entries in [10_000usize, 100_000].into_iter().filter(|&s| s <= max_entries) {
        let p = jigsaw_bench::synthetic::global_pmf(N_BITS, entries, seed);
        let t0 = Instant::now();
        let r = reconstruct(&p, &marginals, &config);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(r.rounds, ITERATED_ROUNDS, "a zero tolerance runs every round");
        let per_round = secs / ITERATED_ROUNDS as f64;
        iterated_rows.push(vec![
            entries.to_string(),
            cpms.to_string(),
            format!("{:.1} ms", secs * 1e3),
            format!("{:.3} ms", per_round * 1e3),
            format!("{:.1} ns", per_round * 1e9 / entries as f64),
        ]);
    }
    println!("Iterated reconstruct, {ITERATED_ROUNDS} rounds on one projection index (serial):");
    println!();
    println!(
        "{}",
        table::render(
            &["Entries", "CPMs", "Total", "Per round", "Per entry·round"],
            &iterated_rows
        )
    );
    println!();

    // --- Thread scaling on the largest support ----------------------------
    let entries = *sizes.last().expect("at least one support size");
    let support = jigsaw_bench::synthetic::global_pmf(N_BITS, entries, seed).sorted_entries();
    let (reference, serial_secs) = timed_round(&support, &marginals, 1, reps);
    let mut thread_rows =
        vec![vec!["1".into(), format!("{:.1} ms", serial_secs * 1e3), "1.00x".into(), "—".into()]];
    for threads in [2usize, 4, 8] {
        let (out, secs) = timed_round(&support, &marginals, threads, reps);
        let identical = out == reference;
        assert!(identical, "thread count {threads} changed the reconstruction output");
        thread_rows.push(vec![
            threads.to_string(),
            format!("{:.1} ms", secs * 1e3),
            format!("{:.2}x", serial_secs / secs),
            "bit-identical".into(),
        ]);
    }
    println!("Thread scaling on the {entries}-entry support ({cpms} CPMs):");
    println!();
    println!("{}", table::render(&["Threads", "Round time", "Speedup", "vs serial"], &thread_rows));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "Host exposes {cores} core(s); speedups saturate at the core count. \
         Output equality above is asserted, not assumed."
    );
}
