#![forbid(unsafe_code)]
//! Experiment harness for the JigSaw (MICRO 2021) reproduction.
//!
//! One binary per table/figure of the paper's evaluation lives in
//! `src/bin/`; run them as
//!
//! ```text
//! cargo run --release -p jigsaw-bench --bin fig8_pst -- --trials 8192 --seed 2021
//! ```
//!
//! The [`harness`] module hosts the shared policy-evaluation engine
//! (Baseline / EDM / JigSaw / JigSaw-M under equal trial budgets, §5.4),
//! [`cli`] the tiny option parser, [`table`] the text-table renderer, and
//! [`synthetic`] the seeded reconstruction inputs behind
//! `tab7_scalability`'s measured linearity check (§7.3). Performance is
//! measured by the separate `jigbench` workspace, not here.
//!
//! `fig9_adaptive` is the checkpointing sweep: it saves each benchmark's
//! shared `GlobalRun` to `--checkpoint-dir` (the `jigsaw_core::persist`
//! archive format) and resumes a killed sweep with zero global recompiles
//! — see the README's "Persistence & resume" walkthrough.

pub mod cli;
pub mod harness;
pub mod synthetic;
pub mod table;
