//! `warm_gateway`: an in-process gateway in front of two `tpi-netd`
//! backends, each with a memory LRU and a disk cache, under a closed
//! loop of two v2 sessions with a fixed window of requests in flight.
//!
//! Requests draw Zipf-skewed from a pool of small paper-like designs
//! that is 1.5× the backends' combined memory capacity, so hits come
//! from memory and from disk; one request in twenty is a never-seen
//! design (cold flow, cache insert, eviction).

use crate::check::{Answer, Checker, Quality};
use crate::cold;
use crate::inputs::{self, Design};
use crate::stats::{self, histogram_quantile_ms};
use crate::trace::{self, ms, FlowSpans, Layers, Replay, Tracer};
use crate::{Outcome, Run, Totals};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tpi_core::{CounterSnapshot, TpGreedConfig};
use tpi_gateway::{Gateway, GatewayConfig, GatewayHandler};
use tpi_net::{Connection, NetServer, Pending, ServerConfig, ServerHandle, WireRequest};
use tpi_obs::HistogramSnapshot;
use tpi_serve::{
    CacheKey, CacheSource, FlowKind, JobService, JobSpec, NetlistSource, ServiceConfig,
};

/// Backends behind the gateway.
const BACKENDS: usize = 2;
/// Client sessions (one per core of the 2-core reference host).
const SESSIONS: usize = 2;
/// Requests each session keeps in flight.
const WINDOW: usize = 4;
/// One request in `FRESH_EVERY` is a never-seen design.
const FRESH_EVERY: u64 = 20;
/// Zipf exponent of the pool popularity.
const ZIPF_S: f64 = 1.0;

struct Sizes {
    /// Memory LRU capacity of each backend, in payloads.
    cache_capacity: usize,
    pool: usize,
    fresh: usize,
}

fn sizes(run: &Run) -> Sizes {
    let cache_capacity = if run.tiny { 2 } else { 16 };
    // The pool is 1.5× the combined memory capacity.
    let pool = BACKENDS * cache_capacity * 3 / 2;
    // Enough fresh designs for ~200 req/s before any is made on the
    // fly; the traced run measures twice.
    let measured = if run.trace { 2 * run.seconds } else { run.seconds } + warmup(run);
    let fresh = (measured.as_secs_f64() * 200.0 / FRESH_EVERY as f64).ceil() as usize + 4;
    Sizes { cache_capacity, pool, fresh }
}

/// Unmeasured closed-loop time before the measured interval.
fn warmup(run: &Run) -> Duration {
    if run.tiny {
        Duration::from_millis(100)
    } else {
        Duration::from_secs(3)
    }
}

type Server = (ServerHandle, JoinHandle<std::io::Result<()>>);

struct Cluster {
    services: Vec<Arc<JobService>>,
    backends: Vec<(String, Server)>,
    gateway: Arc<Gateway>,
    front: Server,
    addr: String,
    cache_root: PathBuf,
}

impl Cluster {
    fn start(cache_root: PathBuf, cache_capacity: usize) -> Result<Cluster, String> {
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        let mut services = Vec::new();
        let mut backends = Vec::new();
        for i in 0..BACKENDS {
            let service = Arc::new(JobService::new(ServiceConfig {
                cache_capacity,
                cache_dir: Some(cache_root.join(format!("b{i}"))),
                ..ServiceConfig::default()
            }));
            let server = NetServer::bind(ServerConfig::default(), Arc::clone(&service))
                .map_err(|e| io("binding a backend", e))?;
            let addr = server.local_addr().to_string();
            backends.push((addr, server.spawn()));
            services.push(service);
        }
        let gateway = Arc::new(Gateway::new(GatewayConfig {
            backends: backends.iter().map(|(a, _)| a.clone()).collect(),
            ..GatewayConfig::default()
        }));
        let front = NetServer::bind_with(
            ServerConfig::default(),
            GatewayHandler::new(Arc::clone(&gateway)),
        )
        .map_err(|e| io("binding the gateway", e))?;
        let addr = front.local_addr().to_string();
        Ok(Cluster { services, backends, gateway, front: front.spawn(), addr, cache_root })
    }

    fn stop(self) {
        let (handle, join) = self.front;
        handle.shutdown();
        let _ = join.join();
        for (_, (handle, join)) in self.backends {
            handle.shutdown();
            let _ = join.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_root);
    }

    fn snapshot(&self) -> (u64, u64, u64, HistogramSnapshot) {
        let mut out = (0, 0, 0, HistogramSnapshot::default());
        for s in &self.services {
            let m = s.metrics();
            out.0 += m.cache_hits_memory;
            out.1 += m.cache_hits_disk;
            out.2 += m.cache_misses;
            out.3 = stats::merge(&out.3, &m.queue_latency);
        }
        out
    }
}

/// Everything set-up produced: inputs, a primed cluster, and the cold
/// payload of every pool design.
struct Prepared {
    seed: u64,
    pool: Vec<Design>,
    expected: Vec<String>,
    fresh: Vec<Design>,
    cluster: Cluster,
}

fn flow() -> FlowKind {
    FlowKind::FullScan(TpGreedConfig::default())
}

fn request(d: &Design) -> WireRequest {
    WireRequest { flow: flow(), deadline: None, blif: d.blif.clone(), peers: Vec::new() }
}

fn prepare(run: &Run, rep: usize, checker: &mut Checker) -> Result<Prepared, String> {
    let sz = sizes(run);
    let pool = inputs::warm_pool(run.seed, sz.pool);
    let fresh: Vec<Design> =
        (0..sz.fresh as u64).map(|i| inputs::fresh_design(run.seed, i, sz.pool)).collect();
    let root = crate::out_dir().join(format!("warm-{}-{rep}", std::process::id()));
    let cluster = Cluster::start(root, sz.cache_capacity)?;
    let conn = Connection::open(&cluster.addr).map_err(|e| e.to_string())?;
    let tickets = pool
        .iter()
        .map(|d| conn.submit(&request(d)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut expected = Vec::new();
    for (d, t) in pool.iter().zip(tickets) {
        let answer: Answer = conn.wait(t).map_err(|e| e.to_string())?.into();
        checker.cold(&format!("prime {}", d.name), &answer, None);
        expected.push(answer.payload.unwrap_or_default());
    }
    Ok(Prepared { seed: run.seed, pool, expected, fresh, cluster })
}

/// Which design a request carried.
#[derive(Clone, Copy)]
enum Pick {
    Pool(usize),
    Fresh(u64),
}

struct Sample {
    pick: Pick,
    gates: usize,
    latency: Duration,
    answer: Answer,
}

/// Cumulative Zipf weights over a fixed permutation of the pool, so
/// the popular designs spread over the whole size ladder and every
/// seed draws from the same profile.
struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        // A stride coprime to the pool size visits every slot once.
        let stride =
            (7..).step_by(2).find(|s| gcd(*s, n) == 1).expect("some odd stride is coprime");
        let order = (0..n).map(|r| r * stride % n).collect();
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Zipf { cdf, order }
    }

    fn pick(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng) * self.cdf.last().copied().unwrap_or(0.0);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.order.len() - 1);
        self.order[rank]
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn unit(rng: &mut StdRng) -> f64 {
    (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64
}

/// One client session's closed loop until `stop`, then a drain of its
/// window.
fn session(
    prep: &Prepared,
    zipf: &Zipf,
    seed: u64,
    stop: Instant,
    fresh_next: &AtomicU64,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let conn = match Connection::open(&prep.cluster.addr) {
        Ok(c) => c,
        Err(e) => {
            checker.error("session", e.to_string());
            return out;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pending: Vec<Pending> = Vec::new();
    let mut meta: Vec<(u32, Pick, usize, Instant)> = Vec::new();
    let mut made = Vec::new();
    loop {
        while pending.len() < WINDOW && Instant::now() < stop {
            let pick = if rng.gen_range(0..FRESH_EVERY) == 0 {
                Pick::Fresh(fresh_next.fetch_add(1, Ordering::Relaxed))
            } else {
                Pick::Pool(zipf.pick(&mut rng))
            };
            let d = match pick {
                Pick::Pool(i) => &prep.pool[i],
                Pick::Fresh(i) => match prep.fresh.get(i as usize) {
                    Some(d) => d,
                    None => {
                        // Past the pre-generated list: made here, outside
                        // the request's latency.
                        made.push(inputs::fresh_design(prep.seed, i, prep.pool.len()));
                        made.last().expect("just pushed")
                    }
                },
            };
            let (req, gates) = (request(d), d.gates);
            let submitted = Instant::now();
            match conn.submit(&req) {
                Ok(p) => {
                    meta.push((p.id(), pick, gates, submitted));
                    pending.push(p);
                }
                Err(e) => checker.error("submit", e.to_string()),
            }
        }
        if pending.is_empty() {
            break;
        }
        let (done, report) = match conn.wait_any(&mut pending) {
            Ok(r) => r,
            Err(e) => {
                checker.error("wait", e.to_string());
                break;
            }
        };
        let latency_end = Instant::now();
        let at = meta.iter().position(|m| m.0 == done.id()).expect("every ticket has meta");
        let (_, pick, gates, submitted) = meta.swap_remove(at);
        let latency = latency_end - submitted;
        let request_id = seed << 32 | u64::from(done.id());
        tracer.record("request", None, request_id, submitted, latency, "bench");
        let answer: Answer = report.into();
        let ok = match pick {
            Pick::Pool(i) => checker.warm(&prep.pool[i].name, &answer, &prep.expected[i]),
            Pick::Fresh(i) => checker.cold(&format!("fresh{i}"), &answer, None),
        };
        if ok {
            out.push(Sample { pick, gates, latency, answer });
        }
    }
    out
}

struct Measured {
    samples: Vec<Sample>,
    /// Index of the next never-seen design.
    fresh_end: u64,
    wall: Duration,
    peak_rss_mib: f64,
    before: (u64, u64, u64, HistogramSnapshot),
    after: (u64, u64, u64, HistogramSnapshot),
}

fn measure(
    run: &Run,
    prep: &Prepared,
    duration: Duration,
    fresh_from: u64,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Measured {
    let zipf = Zipf::new(prep.pool.len());
    let before = prep.cluster.snapshot();
    let fresh_next = AtomicU64::new(fresh_from);
    let started = Instant::now();
    let stop = started + duration;
    let results: Vec<(Vec<Sample>, Tracer, Checker)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let (zipf, fresh_next) = (&zipf, &fresh_next);
                let seed = inputs::mix(run.seed ^ (s as u64 + 1) << 20);
                let mut t = tracer.fork();
                scope.spawn(move || {
                    let mut c = Checker::default();
                    let samples = session(prep, zipf, seed, stop, fresh_next, &mut t, &mut c);
                    (samples, t, c)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
    });
    let wall = started.elapsed();
    let mut samples = Vec::new();
    for (s, t, c) in results {
        samples.extend(s);
        tracer.absorb(t);
        checker.attempted += c.attempted;
        checker.failed += c.failed;
        checker.notes.extend(c.notes);
    }
    let fresh_end = fresh_next.load(Ordering::Relaxed);
    let peak_rss_mib = crate::peak_rss_mib();
    Measured { samples, fresh_end, wall, peak_rss_mib, before, after: prep.cluster.snapshot() }
}

fn design(prep: &Prepared, pick: Pick) -> Option<&Design> {
    match pick {
        Pick::Pool(i) => prep.pool.get(i),
        Pick::Fresh(i) => prep.fresh.get(i as usize),
    }
}

fn totals(m: &Measured) -> (Totals, Quality) {
    let mut totals = Totals { wall: m.wall, peak_rss_mib: m.peak_rss_mib, ..Totals::default() };
    let mut quality = Quality::default();
    for s in &m.samples {
        totals.add(s.gates, s.latency);
        quality.add(s.answer.payload.as_deref().unwrap_or_default());
    }
    (totals, quality)
}

pub fn run(run: &Run) -> Outcome {
    let mut checker = Checker::default();
    let mut setup = Vec::new();
    let mut prepared: Option<Prepared> = None;
    while run.more_setup(&setup) {
        if let Some(p) = prepared.take() {
            p.cluster.stop();
        }
        let t = Instant::now();
        match prepare(run, setup.len(), &mut checker) {
            Ok(p) => prepared = Some(p),
            Err(e) => checker.error("set-up", e),
        }
        setup.push(t.elapsed());
    }
    let Some(prep) = prepared else {
        return Outcome::new(setup, Totals::default(), Quality::default(), checker, String::new());
    };
    let record =
        inputs::record(run.workload.name(), run.seed, &prep.pool.iter().collect::<Vec<_>>());
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);
    // Warm-up: the same closed loop, unmeasured but checked, so the LRUs
    // reach their Zipf equilibrium and the servers their steady state.
    let warmup = warmup(run);
    let warm = measure(run, &prep, warmup, 0, &mut tracer, &mut checker);
    let untraced = measure(run, &prep, run.seconds, warm.fresh_end, &mut tracer, &mut checker);
    let (totals_u, quality_u) = totals(&untraced);
    if !run.trace {
        prep.cluster.stop();
        return Outcome::new(setup, totals_u, quality_u, checker, record);
    }

    let mut tracer = Tracer::new(true, epoch);
    let traced = measure(run, &prep, run.seconds, untraced.fresh_end, &mut tracer, &mut checker);
    let (totals_t, quality_t) = totals(&traced);
    let layers = warm_layers(run, &prep, &traced, &untraced, &mut tracer, &mut checker);
    prep.cluster.stop();
    Outcome::new(setup, totals_t, quality_t, checker, record).with_trace(layers, tracer)
}

fn warm_layers(
    run: &Run,
    prep: &Prepared,
    traced: &Measured,
    untraced: &Measured,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Layers {
    let mut layers = Layers::default();
    let flow = flow();
    // Replays of every distinct design requested, weighted per request.
    let mut replays: Vec<Option<Replay>> = vec![None; prep.pool.len() + prep.fresh.len()];
    let slot = |pick: Pick| match pick {
        Pick::Pool(i) => i,
        Pick::Fresh(i) => prep.pool.len() + i as usize,
    };
    let mut per_request = Vec::new();
    for s in &traced.samples {
        let Some(d) = design(prep, s.pick) else { continue };
        let r = *replays[slot(s.pick)].get_or_insert_with(|| {
            trace::replay(tracer, slot(s.pick) as u64, d, &flow, true, true)
        });
        per_request.push((s, r));
    }
    let weighted: Vec<Replay> = per_request.iter().map(|(_, r)| *r).collect();
    let gates = per_request.iter().map(|(s, _)| s.gates).sum();
    trace::set_replay_layers(&mut layers, &weighted, gates);

    // Flow phases, replayed in-process on the first fresh designs.
    let (flows, counters) = replay_flows(prep, run, checker);
    let root_ms = trace::set_phase_layers(&mut layers, &flows);
    trace::set_counter_layers(&mut layers, &counters);

    let mut walls = Vec::new();
    let mut covered = Vec::new();
    for (s, r) in &per_request {
        let flow_ms = if s.answer.cache == CacheSource::Cold { root_ms } else { 0.0 };
        walls.push(ms(s.answer.wall));
        covered.push(ms(r.before_lookup()) + flow_ms);
    }
    let wall_ms = stats::mean(&walls);
    let covered_ms = stats::mean(&covered);
    layers.set("serve.job_wall_ms", wall_ms);
    layers.set("serve.residual_ms", wall_ms - covered_ms);
    layers.set("trace.span_coverage_pct", 100.0 * covered_ms / wall_ms);

    let (b, a) = (&traced.before, &traced.after);
    let (hm, hd, miss) = (a.0 - b.0, a.1 - b.1, a.2 - b.2);
    layers.set("serve.hits_memory", hm as f64);
    layers.set("serve.hits_disk", hd as f64);
    layers.set("serve.misses", miss as f64);
    let lookups = hm + hd + miss;
    layers
        .set("serve.hit_ratio", if lookups == 0 { 0.0 } else { (hm + hd) as f64 / lookups as f64 });
    let mut queue = a.3;
    for (q, p) in queue.buckets.iter_mut().zip(b.3.buckets.iter()) {
        *q -= p;
    }
    queue.count -= b.3.count;
    layers.set("serve.queue_wait_p50_ms", histogram_quantile_ms(&queue, 0.5));

    // Cache lookups of the pool, on whichever backend holds each key.
    let mut lookups = Vec::new();
    for d in &prep.pool {
        let n = tpi_netlist::parse_blif(&d.blif).expect("generated BLIF parses");
        let key = tpi_serve::cache_key(tpi_serve::netlist_fingerprint(&n), &flow);
        for s in &prep.cluster.services {
            let t = Instant::now();
            let hit = s.lookup(CacheKey(key.0)).is_some();
            if hit {
                lookups.push(t.elapsed().as_secs_f64() * 1e6);
                break;
            }
        }
    }
    layers.set("serve.lookup_us", stats::mean(&lookups));

    let gw = crate::json::Value::parse(&prep.cluster.gateway.metrics_json()).ok();
    layers
        .set("gateway.forward_failures", gw.and_then(|v| v.num("forward_failures")).unwrap_or(0.0));
    let mut busy = 0.0;
    let addrs =
        std::iter::once(&prep.cluster.addr).chain(prep.cluster.backends.iter().map(|b| &b.0));
    let mut pings = Vec::new();
    for (i, addr) in addrs.enumerate() {
        let Ok(conn) = Connection::open(addr) else {
            checker.error("metrics", format!("cannot reach {addr}"));
            continue;
        };
        if i == 0 {
            pings = cold::ping_us(&conn, if run.tiny { 20 } else { 200 });
        }
        busy += conn
            .metrics_json()
            .ok()
            .and_then(|j| crate::json::Value::parse(&j).ok())
            .and_then(|v| v.num("requests_busy"))
            .unwrap_or(0.0);
    }
    layers.set("net.ping_p50_us", stats::median(&pings));
    layers.set("net.requests_busy", busy);
    let per_req = |m: &Measured| m.wall.as_secs_f64() / m.samples.len().max(1) as f64;
    layers.set("trace.overhead_pct", 100.0 * (per_req(traced) / per_req(untraced) - 1.0));
    layers.set("trace.spans", tracer.len() as f64);
    layers
}

/// Runs the first few fresh designs through an in-process service to
/// recover the flow phases the backends ran for cold requests.
fn replay_flows(
    prep: &Prepared,
    run: &Run,
    checker: &mut Checker,
) -> (Vec<FlowSpans>, CounterSnapshot) {
    let service = JobService::new(ServiceConfig::default());
    let mut flows = Vec::new();
    let mut counters = CounterSnapshot::default();
    for d in prep.fresh.iter().take(if run.tiny { 2 } else { 8 }) {
        let spec = JobSpec {
            source: NetlistSource::Blif(d.blif.clone()),
            flow: flow(),
            options: tpi_core::FlowOptions::new(),
        };
        let report = service.submit(spec).wait();
        if checker.cold(&format!("replay {}", d.name), &Answer::from(&report), None) {
            flows.push(trace::phase_micros(&report.metrics));
            trace::add_counters(&mut counters, &report.counters);
        }
    }
    (flows, counters)
}
