//! `serve-mix`: an in-process job server on localhost, driven closed-loop
//! by one `Client` connection per core over a seeded request stream of
//! small JigSaw jobs. About half the requests repeat a recent digest and a
//! quarter ride the Interactive lane; the cache holds fewer entries than
//! the repeat window, so repeats hit, coalesce, or rehydrate a spilled
//! archive.
//!
//! Every served payload must equal a solo `run_jigsaw` of the same job,
//! byte for byte; the solo runs happen after the window. Set-up serves a
//! fixed panel of jobs once (the warm-up); `pst` and `rel_pst` score that
//! panel, so they do not depend on the seed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use jigsaw_circuit::bench;
use jigsaw_circuit::Circuit;
use jigsaw_core::sched::Priority;
use jigsaw_core::{JigsawConfig, JigsawResult, StageKind};
use jigsaw_device::Device;
use jigsaw_pmf::codec::{decode_from_slice, encode_to_vec};
use jigsaw_server::protocol::{Frame, JobRequest};
use jigsaw_server::server::{serve, ServerConfig, ServerHandle};
use jigsaw_server::Client;

use crate::exposition::Snapshot;
use crate::gen::{JobKey, ServeStream, SERVE_PROGRAMS};
use crate::inproc::EXPERIMENT_SEED;
use crate::jobs::{self, Ctx, Spec};
use crate::layers::{self, JobReading, SpecReading};
use crate::report::Measured;
use crate::stats::{mean, median};
use crate::trace::{Spans, Tracer};
use crate::{Opts, SETUP_REPEATS};

/// Trial budget of every `serve-mix` job.
const SERVE_TRIALS: u64 = 4_096;

/// Ready entries the server's stage cache holds: half the repeat window.
const CACHE_CAPACITY: usize = crate::gen::REPEAT_WINDOW / 2;

/// Experiment seeds per program in the scoring panel.
const PANEL_SEEDS: u64 = 4;

/// Job ids of traced panel jobs start here, clear of stream indices.
const PANEL_JOB_BASE: u64 = 1 << 40;

/// The fixed scoring panel: every program at `PANEL_SEEDS` experiment
/// seeds. Stream keys are drawn from the seed and never collide with it.
fn panel() -> Vec<JobKey> {
    (0..SERVE_PROGRAMS)
        .flat_map(|program| {
            (0..PANEL_SEEDS).map(move |i| JobKey { program, job_seed: EXPERIMENT_SEED + i })
        })
        .collect()
}

fn program(key: JobKey) -> bench::Benchmark {
    match key.program {
        0 => bench::ghz(6),
        1 => bench::ghz(8),
        _ => bench::qaoa_maxcut(6, 1),
    }
}

fn config(key: JobKey) -> JigsawConfig {
    let mut config = JigsawConfig::jigsaw(SERVE_TRIALS).with_seed(key.job_seed);
    // Concurrency comes from the clients; each job stays on one thread.
    config.run.threads = 1;
    config
}

fn spec(key: JobKey, device: &Device) -> Spec {
    Spec::new(program(key), device.clone(), config(key))
}

/// FNV-1a over a payload: each reply is kept as its digest and length,
/// so memory does not grow with the number of jobs served.
fn fingerprint(bytes: &[u8]) -> (u64, usize) {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    (h, bytes.len())
}

struct Setup {
    device: Device,
    programs: Vec<Circuit>,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    spill: PathBuf,
    /// The panel's served payloads, from the warm-up.
    panel: BTreeMap<JobKey, Vec<u8>>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.spill);
    }
}

impl Setup {
    fn request(&self, key: JobKey, priority: Priority) -> JobRequest {
        JobRequest {
            hint: StageKind::GlobalRun,
            ..JobRequest::new(self.programs[key.program].clone(), self.device.clone(), config(key))
                .with_priority(priority)
        }
    }
}

/// Starts the server, connects one client per core, and serves the panel.
fn setup(opts: &Opts, rep: usize) -> Result<Setup, String> {
    let spill = opts.out_dir.join(format!("spill-{}-{rep}", std::process::id()));
    let clients = opts.nproc.max(1);
    let config = ServerConfig::new(&spill).with_capacity(CACHE_CAPACITY).with_handlers(clients);
    let server = serve(&config).map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr();
    let programs = (0..SERVE_PROGRAMS)
        .map(|p| program(JobKey { program: p, job_seed: 0 }).circuit().clone())
        .collect();
    let mut setup = Setup {
        device: Device::toronto(),
        programs,
        server: Some(server),
        clients: Vec::new(),
        spill,
        panel: BTreeMap::new(),
    };
    for _ in 0..clients {
        let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        setup.clients.push(client);
    }
    for key in panel() {
        let request = setup.request(key, Priority::Interactive);
        let payload =
            setup.clients[0].submit_request(&request).map_err(|e| format!("warm-up: {e}"))?;
        setup.panel.insert(key, payload);
    }
    Ok(setup)
}

/// One answered request.
struct Sample {
    key: JobKey,
    repeat: bool,
    latency: f64,
    response_bytes: usize,
}

/// What the client threads share.
#[derive(Default)]
struct Shared {
    samples: Mutex<Vec<Sample>>,
    /// First reply per job, as a fingerprint.
    replies: Mutex<BTreeMap<JobKey, (u64, usize)>>,
    failures: Mutex<Vec<String>>,
    attempted: AtomicU64,
    /// Traced runs: each request's wall measured around its span.
    span_walls: Mutex<Vec<f64>>,
}

/// One client's closed loop: next request, submit, wait, record.
fn client_loop(
    opts: &Opts,
    tracer: &Tracer,
    setup: &Setup,
    client: &mut Client,
    stream: &Mutex<ServeStream>,
    shared: &Shared,
    window: Instant,
) {
    let fail = |e: String| shared.failures.lock().expect("failure lock").push(e);
    while window.elapsed() < opts.window {
        let req = stream.lock().expect("stream lock").next_request();
        shared.attempted.fetch_add(1, Ordering::Relaxed);
        let priority = if req.interactive { Priority::Interactive } else { Priority::Sweep };
        let request = setup.request(req.key, priority);
        let t0 = Instant::now();
        let reply = if opts.trace {
            tracer.span("client.submit", req.index, None, |_| client.submit_request(&request))
        } else {
            client.submit_request(&request)
        };
        let latency = t0.elapsed().as_secs_f64();
        let payload = match reply {
            Ok(payload) => payload,
            Err(e) => {
                fail(format!("request {}: {e}", req.index));
                continue;
            }
        };
        if opts.trace {
            shared.span_walls.lock().expect("span wall lock").push(latency);
            let decoded = tracer.span("codec.decode", req.index, None, |_| {
                decode_from_slice::<JigsawResult>(&payload)
            });
            if let Err(e) = decoded {
                fail(format!("request {}: {e}", req.index));
                continue;
            }
        }
        let print = fingerprint(&payload);
        let first = *shared.replies.lock().expect("reply lock").entry(req.key).or_insert(print);
        if first != print {
            fail(format!(
                "request {}: reply differs from an earlier reply for the same job",
                req.index
            ));
            continue;
        }
        shared.samples.lock().expect("sample lock").push(Sample {
            key: req.key,
            repeat: req.repeat,
            latency,
            response_bytes: payload.len(),
        });
    }
}

pub fn serve_mix(opts: &Opts, process_start: Instant, tracer: &Tracer) -> Measured {
    let mut m = Measured::default();
    let mut current = None;
    for rep in 0..SETUP_REPEATS {
        let start = if rep == 0 { process_start } else { Instant::now() };
        drop(current.take()); // the previous repetition's server shuts down first
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
    let mut setup = current.expect("set-up ran");
    let before = setup.clients[0].metrics().map(|t| Snapshot::parse(&t));
    let stream = Mutex::new(ServeStream::new(opts.seed));
    let shared = Shared::default();

    let window = Instant::now();
    let mut clients = std::mem::take(&mut setup.clients);
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (setup, stream, shared) = (&setup, &stream, &shared);
            scope.spawn(move || client_loop(opts, tracer, setup, client, stream, shared, window));
        }
    });
    m.window_secs = window.elapsed().as_secs_f64();
    setup.clients = clients;
    let after = setup.clients[0].metrics().map(|t| Snapshot::parse(&t));
    let window_metrics = match (before, after) {
        (Ok(before), Ok(after)) => after.since(&before),
        (Err(e), _) | (_, Err(e)) => {
            m.fail(format!("metrics frame: {e}"));
            Snapshot::default()
        }
    };
    let device = setup.device.clone();
    let panel_replies = std::mem::take(&mut setup.panel);
    let request_bytes =
        |key: JobKey| Frame::submit(&setup.request(key, Priority::Sweep)).to_bytes().len();
    let Shared { samples, replies, failures, attempted, span_walls } = shared;
    m.attempted = attempted.into_inner();
    for e in failures.into_inner().expect("failure lock") {
        m.fail(e);
    }
    let samples = samples.into_inner().expect("sample lock");
    let replies = replies.into_inner().expect("reply lock");
    m.latencies = samples.iter().map(|s| s.latency).collect();

    // Wire bytes: each request's SubmitJob frame plus its JobResult frame.
    let sent_by_key: BTreeMap<JobKey, usize> =
        replies.keys().map(|&k| (k, request_bytes(k))).collect();
    let sent = mean(&samples.iter().map(|s| sent_by_key[&s.key] as f64).collect::<Vec<_>>())
        .unwrap_or(0.0);
    let received = mean(
        &samples
            .iter()
            .map(|s| jobs::result_frame_bytes(s.response_bytes) as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    m.wire_bytes_per_job = sent + received;
    drop(setup);

    // Verify every distinct job served against a solo run, split over the
    // cores, and the panel byte for byte.
    let keys: Vec<(JobKey, (u64, usize))> = replies.iter().map(|(k, p)| (*k, *p)).collect();
    let checked = jigsaw_pmf::parallel::fan_out(keys, opts.nproc, |(key, served)| {
        let solo = encode_to_vec(&jobs::run_plain(&spec(key, &device)));
        (fingerprint(&solo) != served)
            .then(|| format!("{key:?}: served bytes differ from a solo run_jigsaw"))
    });
    for e in checked.into_iter().flatten() {
        m.fail(e);
    }
    let mut scores = Vec::new();
    let mut solo_panel = BTreeMap::new();
    for (key, served) in &panel_replies {
        let spec = spec(*key, &device);
        let solo = jobs::run_plain(&spec);
        if encode_to_vec(&solo) != *served {
            m.fail(format!("panel {key:?}: served bytes differ from a solo run_jigsaw"));
        }
        scores.push(jobs::scores(&spec, &solo));
        solo_panel.insert(*key, solo);
    }
    m.pst = mean(&scores.iter().map(|s| s.0).collect::<Vec<_>>()).unwrap_or(0.0);
    m.rel_pst = mean(&scores.iter().map(|s| s.1).collect::<Vec<_>>()).unwrap_or(0.0);
    m.notes.push(format!(
        "{} requests answered, {} distinct jobs, cache capacity {CACHE_CAPACITY}, panel of {}",
        samples.len(),
        replies.len(),
        panel_replies.len()
    ));

    if opts.trace {
        trace_panel(&mut m, tracer, &device, &solo_panel);
        m.set("server.request_bytes", sent);
        m.set("server.response_bytes", received);
        let p50 = |repeat: bool| {
            median(
                &samples
                    .iter()
                    .filter(|s| s.repeat == repeat)
                    .map(|s| s.latency)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0)
        };
        m.set("server.repeat_p50_s", p50(true));
        m.set("server.fresh_p50_s", p50(false));
        for (metric, series) in [
            ("server.hits", "jigsaw_server_cache_hits_total"),
            ("server.misses", "jigsaw_server_cache_misses_total"),
            ("server.coalesced", "jigsaw_server_cache_coalesced_total"),
            ("server.evictions", "jigsaw_server_cache_evictions_total"),
            ("server.rehydrations", "jigsaw_server_cache_rehydrations_total"),
            ("server.overloaded", "jigsaw_server_overloaded_total"),
        ] {
            m.set(metric, window_metrics.get(series));
        }
        sched_layers(&mut m, &window_metrics);
        // Overhead: request wall around the span minus the span itself.
        let outer = mean(&span_walls.into_inner().expect("span wall lock")).unwrap_or(0.0);
        let inner = mean(&Spans(tracer.spans()).secs("client.submit")).unwrap_or(0.0);
        m.set("trace.overhead_s", outer - inner);
    }
    m
}

/// Scheduler readings from a metrics-frame diff.
pub fn sched_layers(m: &mut Measured, window: &Snapshot) {
    for (metric, lane) in [
        ("sched.queue_wait_p50_s.interactive", "interactive"),
        ("sched.queue_wait_p50_s.sweep", "sweep"),
    ] {
        let label = format!("lane=\"{lane}\"");
        m.set(
            metric,
            window.histogram_median("jigsaw_sched_queue_wait_seconds", &label).unwrap_or(0.0),
        );
    }
    m.set("sched.batched_jobs", window.get("jigsaw_sched_batched_jobs_total"));
}

/// Runs the panel through the traced pipeline, checks each job against
/// its solo run, and fills the pipeline-level readings from them.
fn trace_panel(
    m: &mut Measured,
    tracer: &Tracer,
    device: &Device,
    solo: &BTreeMap<JobKey, JigsawResult>,
) {
    let mut readings = Vec::new();
    for (i, (key, expected)) in solo.iter().enumerate() {
        let job = PANEL_JOB_BASE + i as u64;
        let spec = spec(*key, device);
        let (result, replay, bytes) = tracer.span("job", job, None, |id| {
            let ctx = Ctx { tracer, job, parent: id };
            let (result, replay) = jobs::run_traced(&spec, ctx, true);
            let bytes = ctx.span("codec.encode", |_| encode_to_vec(&result));
            (result, replay, bytes)
        });
        if bytes != encode_to_vec(expected) {
            m.fail(format!("panel {key:?}: traced bytes differ from the untraced solo run"));
            continue;
        }
        let mut reading =
            SpecReading { jobs: vec![JobReading::of(job, &result, bytes.len())], replay: None };
        if let Some(input) = replay {
            match tracer.span("bayes.replay", job, None, |id| {
                jobs::replay(&input, &spec.config, &result, Ctx { tracer, job, parent: id })
            }) {
                Ok(r) => reading.replay = Some(r),
                Err(e) => m.fail(format!("panel {key:?}: {e}")),
            }
        }
        readings.push(reading);
    }
    layers::fill(m, &Spans(tracer.spans()), &readings);
}
