//! Table 7: the analytical scalability model (memory in GB, operations in
//! millions) for 100- and 500-qubit programs, plus a measured timing check
//! that reconstruction really scales linearly in entries and CPMs.
//!
//! Each measured row is the median of five rounds. The binary exits
//! non-zero when the per-entry time at 8 000 entries exceeds three times the
//! per-entry time at 1 000, or the per-CPM time at 40 CPMs exceeds three
//! times that at 10: a linear round reads at most ~1×, a quadratic one ~8×
//! (entries) or ~4× (CPMs).
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin tab7_scalability
//! ```

use std::hint::black_box;
use std::time::Instant;

use jigsaw_bench::{synthetic, table};
use jigsaw_core::reconstruction_round;
use jigsaw_core::scalability::ScalabilityInput;

fn main() {
    println!("Table 7 — Analytical scalability of JigSaw and JigSaw-M");
    println!();

    let mut rows = Vec::new();
    for n in [100usize, 500] {
        for eps in [0.05f64, 1.0] {
            for trials in [32u64 * 1024, 1024 * 1024] {
                let j = ScalabilityInput::paper_jigsaw(n, eps, trials);
                let m = ScalabilityInput::paper_jigsaw_m(n, eps, trials);
                rows.push(vec![
                    n.to_string(),
                    format!("{eps}"),
                    if trials >= 1024 * 1024 { "1024K".into() } else { "32K".into() },
                    format!("{:.2}", j.memory_gb()),
                    format!("{:.2}", j.operations_millions()),
                    format!("{:.2}", m.memory_gb()),
                    format!("{:.2}", m.operations_millions()),
                ]);
            }
        }
    }
    println!(
        "{}",
        table::render(
            &[
                "Qubits",
                "eps=delta",
                "Trials",
                "JigSaw Mem GB",
                "JigSaw OPs M",
                "JigSaw-M Mem GB",
                "JigSaw-M OPs M"
            ],
            &rows
        )
    );

    // Measured confirmation of linearity: reconstruction-round wall time vs
    // entry count and CPM count on synthetic PMFs.
    println!("Measured reconstruction-round time (synthetic 40-qubit PMFs, median of {REPEATS}):");
    println!();
    let mut timing_rows = Vec::new();
    let mut per_entry = Vec::new();
    for entries in [1000usize, 2000, 4000, 8000] {
        let p = synthetic::global_pmf(40, entries, 7);
        let ms = synthetic::marginals(40, 20, 2, 7 + entries as u64);
        let dt = median_ms(|| black_box(reconstruction_round(&p, &ms, 1)));
        timing_rows.push(vec![entries.to_string(), "20".into(), format!("{dt:.2} ms")]);
        per_entry.push(dt / entries as f64);
    }
    let mut per_cpm = Vec::new();
    for cpms in [10usize, 40] {
        let p = synthetic::global_pmf(40, 4000, 8);
        let ms = synthetic::marginals(40, cpms, 2, 8 + cpms as u64);
        let dt = median_ms(|| black_box(reconstruction_round(&p, &ms, 1)));
        timing_rows.push(vec!["4000".into(), cpms.to_string(), format!("{dt:.2} ms")]);
        per_cpm.push(dt / cpms as f64);
    }
    println!("{}", table::render(&["Entries", "CPMs", "Round time"], &timing_rows));

    let entry_growth = per_entry[3] / per_entry[0];
    let cpm_growth = per_cpm[1] / per_cpm[0];
    println!(
        "Per-entry time at 8000 entries: {entry_growth:.2}x that at 1000. \
         Per-CPM time at 40 CPMs: {cpm_growth:.2}x that at 10. \
         Linear rounds read <= 1x; the check fails above {MAX_GROWTH}x."
    );
    if entry_growth > MAX_GROWTH || cpm_growth > MAX_GROWTH {
        eprintln!("reconstruction round scales super-linearly (limit {MAX_GROWTH}x)");
        std::process::exit(1);
    }
}

/// Rounds timed per measured row; the row reports their median.
const REPEATS: usize = 5;

/// Largest tolerated growth of per-entry (per-CPM) round time between the
/// smallest and largest row.
const MAX_GROWTH: f64 = 3.0;

/// Median wall time of [`REPEATS`] calls of `f`, in milliseconds.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPEATS / 2]
}
