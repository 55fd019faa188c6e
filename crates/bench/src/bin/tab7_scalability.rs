//! Table 7: the analytical scalability model (memory in GB, operations in
//! millions) for 100- and 500-qubit programs, plus a measured timing check
//! that reconstruction really scales linearly in entries and CPMs.
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin tab7_scalability
//! ```

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
    println!("Measured reconstruction-round time (synthetic 40-qubit PMFs):");
    println!();
    let mut timing_rows = Vec::new();
    for entries in [1000usize, 2000, 4000, 8000] {
        let p = synthetic::global_pmf(40, entries, 7);
        let ms = synthetic::marginals(40, 20, 2, 7 + entries as u64);
        let t0 = Instant::now();
        let _ = reconstruction_round(&p, &ms, 1);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        timing_rows.push(vec![entries.to_string(), "20".into(), format!("{dt:.2} ms")]);
    }
    for cpms in [10usize, 40] {
        let p = synthetic::global_pmf(40, 4000, 8);
        let ms = synthetic::marginals(40, cpms, 2, 8 + cpms as u64);
        let t0 = Instant::now();
        let _ = reconstruction_round(&p, &ms, 1);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        timing_rows.push(vec!["4000".into(), cpms.to_string(), format!("{dt:.2} ms")]);
    }
    println!("{}", table::render(&["Entries", "CPMs", "Round time"], &timing_rows));
    println!("Expected shape: time doubles when entries or CPMs double (linear complexity).");
}
