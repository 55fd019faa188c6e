//! The in-process workload, `dense-batch`: back-to-back jobs through the
//! staged pipeline, cycling over a small set of specs.
//!
//! The first job of each spec is the reference: it is checked
//! structurally and scored, and every later job of that spec must encode
//! to the same bytes. In a traced run the reference job runs untraced and
//! every later job runs traced, so traced bytes are compared against
//! untraced ones and the two walls give the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use jigsaw_circuit::bench;
use jigsaw_core::{JigsawConfig, JigsawResult};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};

use crate::gen::derive;
use crate::jobs::{self, Ctx, ReplayInput, Spec};
use crate::layers::{self, JobReading, SpecReading};
use crate::report::Measured;
use crate::trace::{Spans, Tracer};
use crate::{Opts, SETUP_REPEATS};

/// Experiment seed of the `dense-batch` and `dist-scatter` jobs and of
/// the `serve-mix` scoring panel. It is fixed, not drawn from `--seed`: a job's cost and fidelity
/// swing by 10–30 % between experiment seeds (placement and noise luck),
/// which would drown the system's own run-to-run spread. `--seed` orders
/// the work instead.
pub const EXPERIMENT_SEED: u64 = 2021;

/// The paper-scale spec `dist-scatter` sweeps: GHZ-40 on Manhattan under
/// JigSaw-M at 16 384 trials, CPMs recompiled, on all cores.
pub fn ghz40_spec(nproc: usize) -> Spec {
    let mut config = JigsawConfig::jigsaw_m(16_384).with_seed(EXPERIMENT_SEED);
    config.run.threads = nproc;
    Spec::new(bench::ghz(40), Device::manhattan(), config)
}

/// The `dense-batch` specs, in cycle order: rotated by `--seed`, so the
/// seed picks which spec runs first.
fn dense_specs(seed: u64, nproc: usize) -> Vec<Spec> {
    let toronto = Device::toronto();
    let mut specs: Vec<Spec> = [bench::ising(10, 3), bench::qaoa_maxcut(8, 2), bench::ghz(12)]
        .into_iter()
        .map(|b| {
            let mut config = JigsawConfig::jigsaw_m(8_192).with_seed(EXPERIMENT_SEED);
            config.run.threads = nproc;
            Spec::new(b, toronto.clone(), config)
        })
        .collect();
    let len = specs.len() as u64;
    specs.rotate_left((derive(seed, "dense-batch order") % len) as usize);
    specs
}

/// Builds the specs and warms up by running each spec's pipeline prefix
/// (plan, global compile, global run) once.
fn setup(opts: &Opts) -> Vec<Spec> {
    let specs = dense_specs(opts.seed, opts.nproc);
    for spec in &specs {
        let _ = jigsaw_core::pipeline::JigsawPipeline::plan(
            spec.bench.circuit(),
            &spec.device,
            &spec.config,
        )
        .compile_global()
        .run_global();
    }
    specs
}

/// A spec's reference job: its bytes and scores.
struct Reference {
    bytes: Vec<u8>,
    pst: f64,
    rel_pst: f64,
    wire_bytes: usize,
}

pub fn dense_batch(opts: &Opts, process_start: Instant, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let mut specs = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let start = if rep == 0 { process_start } else { Instant::now() };
        specs = setup(opts);
        m.setup_secs.push(start.elapsed().as_secs_f64());
    }

    let n = specs.len();
    let mut refs: Vec<Option<Reference>> = (0..n).map(|_| None).collect();
    let mut keep: Vec<Option<(ReplayInput, JigsawResult)>> = (0..n).map(|_| None).collect();
    let mut readings: Vec<SpecReading> = vec![SpecReading::default(); n];
    let mut untraced_wall: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut traced_wall: BTreeMap<usize, Vec<f64>> = BTreeMap::new();

    let window = Instant::now();
    let mut job = 0u64;
    while (job as usize) < n || window.elapsed() < opts.window {
        let k = job as usize % n;
        let spec = &specs[k];
        m.attempted += 1;
        let traced = opts.trace && refs[k].is_some();
        let t0 = Instant::now();
        let outcome = if traced {
            tracer.span("job", job, None, |id| {
                let ctx = Ctx { tracer, job, parent: id };
                let (result, replay) = jobs::run_traced(spec, ctx, keep[k].is_none());
                let bytes = ctx.span("codec.encode", |_| encode_to_vec(&result));
                let reference = refs[k].as_ref().expect("traced jobs follow their reference");
                if bytes != reference.bytes {
                    return Err(format!(
                        "{}: traced job {job} differs from the untraced bytes",
                        spec.label()
                    ));
                }
                readings[k].jobs.push(JobReading::of(job, &result, bytes.len()));
                if let Some(replay) = replay {
                    keep[k] = Some((replay, result));
                }
                Ok(())
            })
        } else {
            let result = jobs::run_plain(spec);
            let bytes = encode_to_vec(&result);
            match &refs[k] {
                Some(reference) if reference.bytes != bytes => {
                    Err(format!("{}: job {job} differs from the spec's first job", spec.label()))
                }
                Some(_) => Ok(()),
                None => jobs::check(spec, &result, &bytes).map(|()| {
                    let (pst, rel_pst) = jobs::scores(spec, &result);
                    m.notes.push(format!(
                        "{}: backend {}, pst {pst:.6}, rel_pst {rel_pst:.6}, rounds {}, {} CPMs",
                        spec.label(),
                        result.backend,
                        result.rounds,
                        result.marginals.len()
                    ));
                    let wire_bytes = jobs::served_frame_bytes(spec, &bytes);
                    refs[k] = Some(Reference { bytes, pst, rel_pst, wire_bytes });
                }),
            }
        };
        let wall = t0.elapsed().as_secs_f64();
        // Traced runs also time decoding the job's bytes, outside its wall.
        let outcome = outcome.and_then(|()| match (traced, &refs[k]) {
            (true, Some(reference)) => tracer
                .span("codec.decode", job, None, |_| {
                    decode_from_slice::<JigsawResult>(&reference.bytes)
                })
                .map(drop)
                .map_err(|e| format!("{}: decode: {e}", spec.label())),
            _ => Ok(()),
        });
        match outcome {
            Ok(()) => {
                m.latencies.push(wall);
                let walls = if traced { &mut traced_wall } else { &mut untraced_wall };
                walls.entry(k).or_default().push(wall);
            }
            Err(e) => m.fail(e),
        }
        job += 1;
    }
    m.window_secs = window.elapsed().as_secs_f64();

    let done: Vec<&Reference> = refs.iter().flatten().collect();
    if done.len() == n {
        let mean = |f: fn(&Reference) -> f64| done.iter().map(|r| f(r)).sum::<f64>() / n as f64;
        m.pst = mean(|r| r.pst);
        m.rel_pst = mean(|r| r.rel_pst);
        m.wire_bytes_per_job = mean(|r| r.wire_bytes as f64);
    }

    if opts.trace {
        for (k, kept) in keep.iter().enumerate() {
            let Some((input, result)) = kept else { continue };
            let job = readings[k].jobs.first().map_or(0, |j| j.job);
            let outcome = tracer.span("bayes.replay", job, None, |id| {
                jobs::replay(input, &specs[k].config, result, Ctx { tracer, job, parent: id })
            });
            match outcome {
                Ok(replay) => readings[k].replay = Some(replay),
                Err(e) => m.fail(format!("{}: {e}", specs[k].label())),
            }
        }
        if readings.iter().any(|r| r.jobs.is_empty()) {
            m.fail("the window ended before every spec ran a traced job; raise --seconds".into());
        }
        layers::fill(&mut m, &Spans(tracer.spans()), &readings);
        m.set("trace.overhead_s", layers::overhead(&untraced_wall, &traced_wall));
    }
    m
}
