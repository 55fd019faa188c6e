//! `dist-scatter`: the `SubsetsSelected` stage of a paper-scale GHZ-40
//! JigSaw-M job, prepared in set-up, scattered over protocol v3 to one spawned worker process per
//! core at the default shard size, then merged and reconstructed on the
//! driver. Every sweep must be byte-identical to the in-process finish of
//! the same stage.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jigsaw_core::dist::{run_sharded, DistConfig, ShardRunner};
use jigsaw_core::pipeline::{JigsawPipeline, SubsetsSelected};
use jigsaw_core::sched::Priority;
use jigsaw_core::{telemetry, JigsawResult};
use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
use jigsaw_pmf::ShardPartial;
use jigsaw_server::dist::{run_distributed, RemoteRunner};

use crate::exposition::Snapshot;
use crate::inproc::ghz40_spec;
use crate::jobs::{self, Ctx, Spec};
use crate::layers::{self, JobReading, SpecReading};
use crate::relay::Relay;
use crate::report::Measured;
use crate::serve::sched_layers;
use crate::stats::{mean, median};
use crate::trace::{Spans, Tracer};
use crate::worker::Worker;
use crate::{Opts, SETUP_REPEATS};

/// Job id of the traced in-process reference.
const REFERENCE_JOB: u64 = 1 << 40;

struct Setup {
    spec: Spec,
    stage: SubsetsSelected,
    workers: Vec<Worker>,
    /// One byte-counting relay in front of each worker; the driver
    /// reaches the workers only through these.
    relays: Vec<Relay>,
}

fn setup(opts: &Opts, rep: usize) -> Result<Setup, String> {
    let spec = ghz40_spec(opts.nproc);
    let stage = JigsawPipeline::plan(spec.bench.circuit(), &spec.device, &spec.config)
        .compile_global()
        .run_global()
        .select_subsets();
    let mut workers = Vec::new();
    for i in 0..opts.nproc.max(1) {
        let spill = opts.out_dir.join(format!("worker-{}-{rep}-{i}", std::process::id()));
        let worker = Worker::spawn(&spill)?;
        worker.metrics()?;
        workers.push(worker);
    }
    let relays = workers
        .iter()
        .map(|w| Relay::start(w.addr).map_err(|e| format!("relay: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Setup { spec, stage, workers, relays })
}

/// Sum of the workers' metrics frames.
fn worker_metrics(workers: &[Worker]) -> Result<Snapshot, String> {
    let snapshots: Result<Vec<Snapshot>, String> =
        workers.iter().map(|w| w.metrics().map(|t| Snapshot::parse(&t))).collect();
    Ok(Snapshot::sum(&snapshots?))
}

/// A `RemoteRunner` that records when each shard went out and came back.
struct TimedRunner {
    inner: RemoteRunner,
    shards: Arc<Mutex<Vec<(Instant, Instant)>>>,
}

impl ShardRunner for TimedRunner {
    fn run_shard(
        &mut self,
        stage: &SubsetsSelected,
        shard: &jigsaw_core::dist::Shard,
        priority: Priority,
    ) -> Result<ShardPartial, String> {
        let start = Instant::now();
        let out = self.inner.run_shard(stage, shard, priority);
        self.shards.lock().expect("shard span lock").push((start, Instant::now()));
        out
    }
}

/// One traced sweep: shard round trips and the driver's merge-and-
/// reconstruct tail as spans under the job span.
fn traced_sweep(
    stage: &SubsetsSelected,
    addrs: &[SocketAddr],
    config: &DistConfig,
    ctx: Ctx<'_>,
) -> Result<JigsawResult, String> {
    let shards = Arc::new(Mutex::new(Vec::new()));
    let runners: Vec<Box<dyn ShardRunner>> = addrs
        .iter()
        .map(|&addr| {
            Box::new(TimedRunner { inner: RemoteRunner::new(addr), shards: Arc::clone(&shards) })
                as Box<dyn ShardRunner>
        })
        .collect();
    let result = run_sharded(stage, runners, config);
    let done = Instant::now();
    let shards = shards.lock().expect("shard span lock").clone();
    for &(start, end) in &shards {
        ctx.tracer.record("dist.shard", ctx.job, Some(ctx.parent), start, end);
    }
    if let Some(last) = shards.iter().map(|s| s.1).max() {
        ctx.tracer.record("dist.driver_finish", ctx.job, Some(ctx.parent), last, done);
    }
    result.map_err(|e| e.to_string())
}

pub fn dist_scatter(opts: &Opts, process_start: Instant, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let mut current = None;
    for rep in 0..SETUP_REPEATS {
        let start = if rep == 0 { process_start } else { Instant::now() };
        drop(current.take()); // the previous repetition's workers stop first
        match setup(opts, rep) {
            Ok(s) => current = Some(s),
            Err(e) => {
                m.attempted += 1;
                m.fail(format!("set-up: {e}"));
                return m;
            }
        }
        m.setup_secs.push(start.elapsed().as_secs_f64());
    }
    let Setup { spec, stage, workers, relays } = current.expect("set-up ran");
    let config = DistConfig::default();
    // The seed orders the fleet: which worker the driver feeds first.
    let mut addrs: Vec<_> = relays.iter().map(|r| r.addr).collect();
    let len = addrs.len() as u64;
    addrs.rotate_left((crate::gen::derive(opts.seed, "dist-scatter order") % len) as usize);

    let before = worker_metrics(&workers);
    let retries_before = telemetry::dist_retries().get();
    let wire_before: u64 = relays.iter().map(Relay::total).sum();
    let sent_before: u64 = relays.iter().map(|r| r.tally.sent.load(Ordering::SeqCst)).sum();
    let mut first: Option<Vec<u8>> = None;
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut traced_jobs = Vec::new();
    let window = Instant::now();
    let mut job = 0u64;
    while job == 0 || window.elapsed() < opts.window {
        m.attempted += 1;
        let traced = opts.trace && first.is_some();
        let t0 = Instant::now();
        let outcome = if traced {
            traced_jobs.push(job);
            tracer.span("job", job, None, |id| {
                let ctx = Ctx { tracer, job, parent: id };
                traced_sweep(&stage, &addrs, &config, ctx)
                    .map(|r| ctx.span("codec.encode", |_| encode_to_vec(&r)))
            })
        } else {
            run_distributed(&stage, &addrs, &config)
                .map(|r| encode_to_vec(&r))
                .map_err(|e| e.to_string())
        };
        let outcome = outcome.and_then(|bytes| match &first {
            Some(f) if *f != bytes => Err(format!("sweep {job} differs from the first sweep")),
            Some(_) => Ok(()),
            None => {
                first = Some(bytes);
                Ok(())
            }
        });
        let wall = t0.elapsed().as_secs_f64();
        // Traced runs also time decoding the sweep's bytes, outside its wall.
        let outcome = outcome.and_then(|()| match (traced, &first) {
            (true, Some(bytes)) => tracer
                .span("codec.decode", job, None, |_| decode_from_slice::<JigsawResult>(bytes))
                .map(drop)
                .map_err(|e| format!("sweep {job}: decode: {e}")),
            _ => Ok(()),
        });
        match outcome {
            Ok(()) => {
                m.latencies.push(wall);
                if traced { &mut traced_wall } else { &mut untraced_wall }.push(wall);
            }
            Err(e) => m.fail(e),
        }
        job += 1;
    }
    m.window_secs = window.elapsed().as_secs_f64();
    let retries = telemetry::dist_retries().get() - retries_before;
    let wire = relays.iter().map(Relay::total).sum::<u64>() - wire_before;
    let sent =
        relays.iter().map(|r| r.tally.sent.load(Ordering::SeqCst)).sum::<u64>() - sent_before;
    m.wire_bytes_per_job = wire as f64 / job as f64;
    let window_metrics = match (before, worker_metrics(&workers)) {
        (Ok(before), Ok(after)) => after.since(&before),
        (Err(e), _) | (_, Err(e)) => {
            m.fail(format!("worker metrics: {e}"));
            Snapshot::default()
        }
    };
    drop(relays);
    drop(workers);
    let Some(first) = first else { return m };

    // The in-process finish of the same stage, which every sweep must equal.
    let reference = if opts.trace {
        let (result, replay) = tracer.span("job", REFERENCE_JOB, None, |id| {
            jobs::run_traced(&spec, Ctx { tracer, job: REFERENCE_JOB, parent: id }, true)
        });
        let mut reading = SpecReading {
            jobs: vec![JobReading::of(REFERENCE_JOB, &result, first.len())],
            replay: None,
        };
        if let Some(input) = replay {
            match tracer.span("bayes.replay", REFERENCE_JOB, None, |id| {
                jobs::replay(
                    &input,
                    &spec.config,
                    &result,
                    Ctx { tracer, job: REFERENCE_JOB, parent: id },
                )
            }) {
                Ok(r) => reading.replay = Some(r),
                Err(e) => m.fail(e),
            }
        }
        layers::fill(&mut m, &Spans(tracer.spans()), &[reading]);
        result
    } else {
        stage.run_cpms().reconstruct()
    };
    if encode_to_vec(&reference) != first {
        m.fail("distributed sweep differs from the in-process finish of the same stage".into());
    }
    (m.pst, m.rel_pst) = jobs::scores(&spec, &reference);
    m.notes.push(format!(
        "{} workers, {:.0} bytes on the wire per sweep, {:.0} of them to the workers",
        addrs.len(),
        m.wire_bytes_per_job,
        sent as f64 / job as f64
    ));

    if opts.trace {
        let spans = Spans(tracer.spans());
        let by_job = spans.by_job();
        let shards: Vec<f64> = traced_jobs
            .iter()
            .filter_map(|j| by_job.get(j)?.get("dist.shard"))
            .map(|&(n, _)| n as f64)
            .collect();
        let shards = mean(&shards).unwrap_or(0.0);
        m.set("dist.shards", shards);
        let per_sweep = sent as f64 / job as f64;
        m.set("dist.request_bytes_per_shard", if shards > 0.0 { per_sweep / shards } else { 0.0 });
        m.set("dist.shard_rtt_p50_s", median(&spans.secs("dist.shard")).unwrap_or(0.0));
        m.set("dist.retries", retries as f64);
        m.set("dist.driver_finish_s", mean(&spans.secs("dist.driver_finish")).unwrap_or(0.0));
        sched_layers(&mut m, &window_metrics);
        if traced_wall.is_empty() {
            m.fail("the window ended before a traced sweep ran; raise --seconds".into());
        }
        let overhead = layers::overhead(
            &BTreeMap::from([(0, untraced_wall)]),
            &BTreeMap::from([(0, traced_wall)]),
        );
        m.set("trace.overhead_s", overhead);
    }
    m
}
