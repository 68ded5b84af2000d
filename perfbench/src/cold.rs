//! The cold workloads: every job computes its result from scratch.
//!
//! * `fullscan_suite` and `tptime_suite` submit BLIF text to an
//!   in-process `JobService` at program defaults, one job in flight.
//! * `industrial_250k` submits ~250k-gate designs over a v2 session to
//!   one in-process `tpi-netd` backend, one job in flight.
//!
//! A run measures whole passes over its inputs until `--seconds` have
//! elapsed. Each pass starts a fresh service, so every job is cold, and
//! every pass after the first must reproduce the first pass's payloads
//! byte for byte.

use crate::check::{Answer, Checker, Quality};
use crate::inputs::{self, Design};
use crate::stats::{self, histogram_quantile_ms};
use crate::trace::{self, add_counters, ms, FlowSpans, Layers, Replay, Tracer};
use crate::{Outcome, Run, Totals};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tpi_core::{CounterSnapshot, PartialScanMethod, TpGreedConfig};
use tpi_net::{Connection, NetServer, ServerConfig, ServerHandle, WireRequest};
use tpi_obs::{FlowMetrics, HistogramSnapshot};
use tpi_serve::{CacheKey, FlowKind, JobService, JobSpec, NetlistSource, ServiceConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cold {
    FullScanSuite,
    TpTimeSuite,
    Industrial,
}

impl Cold {
    fn flow(self) -> FlowKind {
        match self {
            Cold::TpTimeSuite => FlowKind::Partial(PartialScanMethod::TpTime),
            _ => FlowKind::FullScan(TpGreedConfig::default()),
        }
    }

    fn wire(self) -> bool {
        self == Cold::Industrial
    }

    fn inputs(self, run: &Run) -> Vec<Design> {
        let suite = |specs: Vec<tpi_workloads::CircuitSpec>| {
            specs.iter().map(|s| Design::new(&tpi_workloads::generate(s))).collect()
        };
        match (self, run.tiny) {
            (Cold::Industrial, _) => (0..industrial_jobs(run.tiny))
                .map(|i| inputs::industrial_design(industrial_stages(run.tiny), run.seed, i))
                .collect(),
            (_, true) => suite(inputs::tiny_suite(run.seed)),
            (Cold::FullScanSuite, false) => suite(inputs::fullscan_suite(run.seed)),
            (Cold::TpTimeSuite, false) => suite(inputs::paper_suite(run.seed)),
        }
    }
}

/// Designs per `industrial_250k` pass.
fn industrial_jobs(tiny: bool) -> u64 {
    if tiny {
        2
    } else {
        3
    }
}

fn industrial_stages(tiny: bool) -> usize {
    if tiny {
        8
    } else {
        inputs::INDUSTRIAL_STAGES
    }
}

/// Where jobs go: a service in this thread's process, or the same
/// service behind a `tpi-netd` server reached over a v2 session.
enum Backend {
    InProcess(JobService),
    Wire {
        service: Arc<JobService>,
        server: ServerHandle,
        join: JoinHandle<std::io::Result<()>>,
        conn: Connection,
    },
}

/// One finished job as the client saw it.
struct Job {
    answer: Answer,
    latency: Duration,
    /// The in-process report's flow spans and counters (absent over
    /// the wire, where reports carry neither).
    metrics: Option<(FlowMetrics, CounterSnapshot)>,
}

impl Backend {
    fn start(wire: bool) -> Result<Backend, String> {
        if !wire {
            return Ok(Backend::InProcess(JobService::new(ServiceConfig::default())));
        }
        let service = Arc::new(JobService::new(ServiceConfig::default()));
        let server = NetServer::bind(ServerConfig::default(), Arc::clone(&service))
            .map_err(|e| format!("binding tpi-netd: {e}"))?;
        let addr = server.local_addr().to_string();
        let (server, join) = server.spawn();
        let conn = Connection::open(&addr).map_err(|e| format!("connecting to tpi-netd: {e}"))?;
        Ok(Backend::Wire { service, server, join, conn })
    }

    fn service(&self) -> &JobService {
        match self {
            Backend::InProcess(s) => s,
            Backend::Wire { service, .. } => service,
        }
    }

    fn run(&self, flow: &FlowKind, design: &Design) -> Result<Job, String> {
        match self {
            Backend::InProcess(service) => {
                let spec = JobSpec {
                    source: NetlistSource::Blif(design.blif.clone()),
                    flow: flow.clone(),
                    options: tpi_core::FlowOptions::new(),
                };
                let t = Instant::now();
                let report = service.submit(spec).wait();
                let latency = t.elapsed();
                Ok(Job {
                    answer: Answer::from(&report),
                    latency,
                    metrics: Some((report.metrics, report.counters)),
                })
            }
            Backend::Wire { conn, .. } => {
                let req = WireRequest {
                    flow: flow.clone(),
                    deadline: None,
                    blif: design.blif.clone(),
                    peers: Vec::new(),
                };
                let t = Instant::now();
                let report =
                    conn.submit(&req).and_then(|p| conn.wait(p)).map_err(|e| e.to_string())?;
                Ok(Job { answer: report.into(), latency: t.elapsed(), metrics: None })
            }
        }
    }

    fn stop(self) {
        if let Backend::Wire { server, join, conn, .. } = self {
            drop(conn);
            server.shutdown();
            let _ = join.join();
        }
    }
}

/// Everything one pass over the inputs left for the per-layer table.
#[derive(Default)]
struct PassTrace {
    walls: Vec<Duration>,
    /// Flow root and phase µs per job, when the report carried them.
    flows: Vec<Option<FlowSpans>>,
    counters: CounterSnapshot,
    lookups: Vec<Duration>,
    queue: HistogramSnapshot,
    pings: Vec<f64>,
    requests_busy: f64,
}

/// Measured passes of one run.
struct Passes {
    totals: Totals,
    quality: Quality,
    first: PassTrace,
    count: usize,
}

fn measure(
    kind: Cold,
    run: &Run,
    designs: &[Design],
    mut backend: Option<Backend>,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Passes {
    let flow = kind.flow();
    let mut totals = Totals::default();
    let mut quality = Quality::default();
    let mut first_payloads: Vec<Option<String>> = vec![None; designs.len()];
    let mut first = PassTrace::default();
    let mut pass = 0usize;
    loop {
        let be = match backend.take().map_or_else(|| Backend::start(kind.wire()), Ok) {
            Ok(be) => be,
            Err(e) => {
                checker.error("backend", e);
                break;
            }
        };
        let started = Instant::now();
        let mut trimming = Duration::ZERO;
        for (i, d) in designs.iter().enumerate() {
            let t = Instant::now();
            crate::release_free_memory();
            trimming += t.elapsed();
            let request = (pass as u64) << 32 | i as u64;
            let what = format!("pass {pass} {}", d.name);
            let span = tracer.begin("request", None, request);
            let submitted = Instant::now();
            let job = be.run(&flow, d);
            tracer.end(span);
            let job = match job {
                Ok(job) => job,
                Err(e) => {
                    checker.error(&what, e);
                    continue;
                }
            };
            let earlier = first_payloads[i].as_deref();
            if checker.cold(&what, &job.answer, earlier) {
                totals.add(d.gates, job.latency);
                if pass == 0 {
                    let payload = job.answer.payload.clone().unwrap_or_default();
                    quality.add(&payload);
                    first_payloads[i] = Some(payload);
                }
            }
            if pass == 0 {
                first.walls.push(job.answer.wall);
                let flow_spans = job.metrics.map(|(m, c)| {
                    let dequeued = submitted + job.latency.saturating_sub(job.answer.wall);
                    trace::record_flow(tracer, span, request, dequeued, &m);
                    add_counters(&mut first.counters, &c);
                    trace::phase_micros(&m)
                });
                first.flows.push(flow_spans);
                if tracer.enabled() {
                    if let Some(key) = job.answer.key {
                        let t = Instant::now();
                        std::hint::black_box(be.service().lookup(CacheKey(key)));
                        first.lookups.push(t.elapsed());
                    }
                }
            }
        }
        totals.wall += started.elapsed().saturating_sub(trimming);
        if pass == 0 {
            totals.peak_rss_mib = crate::peak_rss_mib();
            first.queue = be.service().metrics().queue_latency;
            if let (true, Backend::Wire { conn, .. }) = (tracer.enabled(), &be) {
                first.pings = ping_us(conn, if run.tiny { 20 } else { 200 });
                first.requests_busy = conn
                    .metrics_json()
                    .ok()
                    .and_then(|j| crate::json::Value::parse(&j).ok())
                    .and_then(|v| v.num("requests_busy"))
                    .unwrap_or(0.0);
            }
        }
        be.stop();
        pass += 1;
        if totals.wall >= run.seconds {
            break;
        }
    }
    Passes { totals, quality, first, count: pass }
}

/// Round-trip times of `n` pings over a live session, in µs.
pub fn ping_us(conn: &Connection, n: usize) -> Vec<f64> {
    (0..n)
        .filter_map(|_| {
            let t = Instant::now();
            conn.ping().ok().map(|()| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

pub fn run(kind: Cold, run: &Run) -> Outcome {
    let mut checker = Checker::default();
    // Set-up: generate and render the inputs, start the first pass's
    // backend. Repeated so setup_s is a median; the last copy is used.
    let mut setup = Vec::new();
    let mut prepared: Option<(Vec<Design>, Result<Backend, String>)> = None;
    while run.more_setup(&setup) {
        if let Some((_, Ok(be))) = prepared.take() {
            be.stop();
        }
        let t = Instant::now();
        let designs = kind.inputs(run);
        let backend = Backend::start(kind.wire());
        setup.push(t.elapsed());
        prepared = Some((designs, backend));
    }
    let (designs, backend) = prepared.expect("at least one set-up");
    let backend = backend.map_err(|e| checker.error("backend", e)).ok();
    let record = inputs::record(run.workload.name(), run.seed, &designs.iter().collect::<Vec<_>>());

    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    let untraced = measure(kind, run, &designs, backend, &mut tracer, &mut checker);
    if !run.trace {
        return Outcome::new(setup, untraced.totals, untraced.quality, checker, record)
            .with_passes(untraced.count);
    }

    let mut tracer = Tracer::new(true, epoch);
    let traced = measure(kind, run, &designs, None, &mut tracer, &mut checker);
    let mut layers = Layers::default();
    let replays: Vec<Replay> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| trace::replay(&mut tracer, i as u64, d, &kind.flow(), kind.wire(), false))
        .collect();
    let first = &traced.first;

    // Flow phases: from the reports in-process; over the wire from the
    // same service run in-process on the ladder's full-size point.
    let mut flows: Vec<FlowSpans> = first.flows.iter().flatten().cloned().collect();
    let mut counters = first.counters;
    if kind == Cold::Industrial {
        let ladder = industrial_ladder(run, &designs[0], &mut tracer, &mut checker, &mut layers);
        flows = vec![ladder.0];
        counters = ladder.1;
    }
    let root_ms = trace::set_phase_layers(&mut layers, &flows);
    trace::set_replay_layers(&mut layers, &replays, designs.iter().map(|d| d.gates).sum());
    let wall_ms = stats::mean(&first.walls.iter().map(|w| ms(*w)).collect::<Vec<_>>());
    let before_lookup_ms =
        stats::mean(&replays.iter().map(|r| ms(r.before_lookup())).collect::<Vec<_>>());
    layers.set("serve.job_wall_ms", wall_ms);
    layers.set("serve.residual_ms", wall_ms - before_lookup_ms - root_ms);
    layers.set("trace.span_coverage_pct", 100.0 * (before_lookup_ms + root_ms) / wall_ms);
    layers.set(
        "serve.lookup_us",
        stats::mean(&first.lookups.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>()),
    );
    layers.set("serve.queue_wait_p50_ms", histogram_quantile_ms(&first.queue, 0.5));
    trace::set_counter_layers(&mut layers, &counters);
    if kind.wire() {
        layers.set("net.ping_p50_us", stats::median(&first.pings));
        layers.set("net.requests_busy", first.requests_busy);
    }
    let per_job = |p: &Passes| p.totals.wall.as_secs_f64() / p.totals.jobs.max(1) as f64;
    layers.set("trace.overhead_pct", 100.0 * (per_job(&traced) / per_job(&untraced) - 1.0));
    layers.set("trace.spans", tracer.len() as f64);
    Outcome::new(setup, traced.totals, traced.quality, checker, record)
        .with_passes(traced.count)
        .with_trace(layers, tracer)
}

/// Runs the pinned industrial spec at ¼, ½ and 1× size in-process and
/// reports each layer's ns/gate spread (largest over smallest) across
/// the three points. Returns the 1× point's flow phases and counters.
fn industrial_ladder(
    run: &Run,
    full: &Design,
    tracer: &mut Tracer,
    checker: &mut Checker,
    layers: &mut Layers,
) -> (FlowSpans, CounterSnapshot) {
    let stages = industrial_stages(run.tiny);
    let points = [
        inputs::industrial_design(stages.div_ceil(4), run.seed, 0),
        inputs::industrial_design(stages.div_ceil(2), run.seed, 0),
    ];
    let service = Backend::InProcess(JobService::new(ServiceConfig::default()));
    let flow = Cold::Industrial.flow();
    let mut ns_per_gate: Vec<Vec<(String, f64)>> = Vec::new();
    let mut last = ((0, Vec::new()), CounterSnapshot::default());
    for (i, d) in points.iter().chain(std::iter::once(full)).enumerate() {
        let request = 1 << 48 | i as u64;
        let replay = trace::replay(tracer, request, d, &flow, false, false);
        let Ok(job) = service.run(&flow, d) else { continue };
        if !checker.cold(&format!("ladder {}", d.name), &job.answer, None) {
            continue;
        }
        let Some((metrics, counters)) = job.metrics else { continue };
        let (root, phases) = trace::phase_micros(&metrics);
        let gates = d.gates as f64;
        let mut row = vec![("parse".to_string(), replay.parse.as_secs_f64() * 1e9 / gates)];
        row.extend(phases.iter().map(|(n, us)| (n.clone(), *us as f64 * 1e3 / gates)));
        ns_per_gate.push(row);
        last = ((root, phases), counters);
    }
    for (phase, metric) in [
        ("parse", "netlist.parse_ns_per_gate_spread"),
        ("analysis", "dfa.analysis_ns_per_gate_spread"),
        ("enumerate_paths", "core.enumerate_paths_ns_per_gate_spread"),
        ("tpgreed", "core.tpgreed_ns_per_gate_spread"),
        ("stitch_chain", "scan.stitch_chain_ns_per_gate_spread"),
        ("flush_check", "scan.flush_check_ns_per_gate_spread"),
        ("verify", "core.verify_ns_per_gate_spread"),
    ] {
        let vals: Vec<f64> = ns_per_gate
            .iter()
            .filter_map(|row| row.iter().find(|(n, _)| n == phase).map(|(_, v)| *v))
            .collect();
        let (lo, hi) = vals.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if vals.len() == 3 && lo > 0.0 {
            layers.set(metric, hi / lo);
        }
    }
    last
}
