//! The traced run: benchmark-side spans around each public call, the
//! replay of steps that run inside a server, and the per-layer metric
//! table.

use crate::inputs::Design;
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tpi_core::CounterSnapshot;
use tpi_lint::{lint_netlist, LintConfig};
use tpi_net::{encode_frame_v2, Verb, WireRequest};
use tpi_obs::{JsonArray, JsonObject};
use tpi_serve::{cache_key, netlist_fingerprint, FlowKind};

/// Every per-layer metric with its unit, in print order. A metric of a
/// layer that is not on a workload's request path reads 0 there.
pub const LAYERS: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("netlist.parse_ns_per_gate", "ns/gate"),
    ("lint.preflight_ms", "ms"),
    ("serve.fingerprint_ms", "ms"),
    ("serve.lookup_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.job_wall_ms", "ms"),
    ("serve.residual_ms", "ms"),
    ("dfa.analysis_ms", "ms"),
    ("core.enumerate_paths_ms", "ms"),
    ("core.tpgreed_ms", "ms"),
    ("core.input_assign_ms", "ms"),
    ("core.insert_test_points_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.paths_enumerated", "count"),
    ("core.candidates_evaluated", "count"),
    ("core.test_points_placed", "count"),
    ("core.rounds", "count"),
    ("core.placed_per_kcandidate", "ratio"),
    ("core.tptime_baseline_analysis_ms", "ms"),
    ("core.tptime_selection_ms", "ms"),
    ("core.tptime_final_analysis_ms", "ms"),
    ("core.plans_attempted", "count"),
    ("scan.stitch_chain_ms", "ms"),
    ("scan.flush_check_ms", "ms"),
    ("net.ping_p50_us", "us"),
    ("net.requests_busy", "count"),
    ("net.encode_frame_ms", "ms"),
    ("netlist.parse_ns_per_gate_spread", "x"),
    ("dfa.analysis_ns_per_gate_spread", "x"),
    ("core.enumerate_paths_ns_per_gate_spread", "x"),
    ("core.tpgreed_ns_per_gate_spread", "x"),
    ("scan.stitch_chain_ns_per_gate_spread", "x"),
    ("scan.flush_check_ns_per_gate_spread", "x"),
    ("core.verify_ns_per_gate_spread", "x"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage_pct", "%"),
    ("trace.spans", "count"),
];

/// Per-layer metrics of the serving path, which only `warm_gateway`
/// runs. The traced run prints them on its `serving` line; they are not
/// in `BENCHMARK.json` because that workload is not gated (see the
/// README).
pub const SERVING: &[(&str, &str)] = &[
    ("serve.hits_memory", "count"),
    ("serve.hits_disk", "count"),
    ("serve.misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("gateway.routing_key_ms", "ms"),
    ("gateway.forward_failures", "count"),
];

/// Flow phase span name → per-layer metric, for both flows.
const PHASES: &[(&str, &str)] = &[
    ("analysis", "dfa.analysis_ms"),
    ("enumerate_paths", "core.enumerate_paths_ms"),
    ("tpgreed", "core.tpgreed_ms"),
    ("input_assign", "core.input_assign_ms"),
    ("insert_test_points", "core.insert_test_points_ms"),
    ("verify", "core.verify_ms"),
    ("baseline_analysis", "core.tptime_baseline_analysis_ms"),
    ("selection", "core.tptime_selection_ms"),
    ("final_analysis", "core.tptime_final_analysis_ms"),
    ("stitch_chain", "scan.stitch_chain_ms"),
    ("flush_check", "scan.flush_check_ms"),
];

/// The per-layer table of one traced run; every name of [`LAYERS`]
/// and [`SERVING`] starts at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(LAYERS.iter().chain(SERVING).map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("unknown layer metric {name}"));
        *slot = value;
    }

    /// `(name, value, unit)` of `table`, in its order.
    pub fn rows(&self, table: &[(&str, &'static str)]) -> Vec<(String, f64, &'static str)> {
        table.iter().map(|&(name, unit)| (name.to_string(), self.0[name], unit)).collect()
    }
}

/// One recorded span.
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: u64,
    /// `bench` for spans around the benchmark's own calls, `flow` for
    /// phases taken from a report's `FlowMetrics`, `replay` for steps
    /// re-run on the same input outside the server (uncontended).
    source: &'static str,
}

/// Spans kept in memory until the run ends. A disabled tracer records
/// nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// A flow run's root span and its phases, in µs.
pub type FlowSpans = (u64, Vec<(String, u64)>);

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer { enabled, epoch, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty tracer with this one's settings, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.at(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent,
            request,
            source: "bench",
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_us = self.at(Instant::now());
        }
    }

    /// Records a span whose interval is already known.
    pub fn record(
        &mut self,
        name: &str,
        parent: SpanId,
        request: u64,
        start: Instant,
        duration: Duration,
        source: &'static str,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_us = self.at(start);
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + duration.as_secs_f64() * 1e6,
            parent,
            request,
            source,
        });
        Some(self.spans.len() - 1)
    }

    /// Moves the spans of another tracer with the same epoch (one per
    /// client thread) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut arr = JsonArray::new();
        for s in &self.spans {
            let mut o = JsonObject::new();
            o.field_str("name", &s.name)
                .field_f64("start_us", s.start_us)
                .field_f64("end_us", s.end_us)
                .field_u64("request", s.request)
                .field_str("source", s.source);
            if let Some(p) = s.parent {
                o.field_u64("parent", p as u64);
            }
            arr.push_object(o);
        }
        let mut doc = JsonObject::new();
        doc.field_str("schema", "perfbench-trace/v1").field_array("spans", arr);
        doc.finish()
    }
}

/// Records a report's flow phase spans as children of `parent`, laid
/// out back to back from `start` (the report carries durations only).
pub fn record_flow(
    tracer: &mut Tracer,
    parent: SpanId,
    request: u64,
    start: Instant,
    metrics: &tpi_obs::FlowMetrics,
) {
    for root in &metrics.spans {
        let id = tracer.record(
            &root.name,
            parent,
            request,
            start,
            Duration::from_micros(root.micros),
            "flow",
        );
        let mut at = start;
        for child in &root.children {
            let d = Duration::from_micros(child.micros);
            tracer.record(&child.name, id, request, at, d, "flow");
            at += d;
        }
    }
}

/// Root span and phase durations of a report's flow run.
pub fn phase_micros(metrics: &tpi_obs::FlowMetrics) -> FlowSpans {
    match metrics.spans.first() {
        Some(root) => {
            (root.micros, root.children.iter().map(|c| (c.name.clone(), c.micros)).collect())
        }
        None => (0, Vec::new()),
    }
}

/// The server-side steps re-run on one design outside the server.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub parse: Duration,
    pub lint: Duration,
    pub fingerprint: Duration,
    pub encode: Duration,
    pub routing_key: Duration,
}

impl Replay {
    /// The steps a backend runs before its cache lookup.
    pub fn before_lookup(&self) -> Duration {
        self.parse + self.lint + self.fingerprint
    }
}

/// Replays parse, pre-flight lint and fingerprint + key on `design`,
/// plus request framing when the workload goes over the wire and
/// gateway routing when it goes through a gateway, recording each as a
/// span of `request`.
pub fn replay(
    tracer: &mut Tracer,
    request: u64,
    design: &Design,
    flow: &FlowKind,
    wire: bool,
    gateway: bool,
) -> Replay {
    let mut timed = |name: &str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        let d = t.elapsed();
        tracer.record(name, None, request, t, d, "replay");
        d
    };
    let mut netlist = None;
    let parse = timed("netlist.parse_blif", &mut || {
        netlist = Some(tpi_netlist::parse_blif(&design.blif).expect("generated BLIF parses"));
    });
    let n = netlist.expect("parsed above");
    let lint = timed("lint.lint_netlist", &mut || {
        std::hint::black_box(lint_netlist(&n, &LintConfig::default()));
    });
    let fingerprint = timed("serve.fingerprint", &mut || {
        std::hint::black_box(cache_key(netlist_fingerprint(&n), flow));
    });
    let mut out = Replay { parse, lint, fingerprint, ..Replay::default() };
    let req = WireRequest {
        flow: flow.clone(),
        deadline: None,
        blif: design.blif.clone(),
        peers: Vec::new(),
    };
    if wire {
        out.encode = timed("net.encode_frame_v2", &mut || {
            std::hint::black_box(encode_frame_v2(Verb::Submit, 1, &req.encode()));
        });
    }
    if gateway {
        out.routing_key = timed("gateway.routing_key", &mut || {
            std::hint::black_box(tpi_gateway::Gateway::routing_key(&req));
        });
    }
    out
}

/// Sets each flow phase's metric to its mean over `flows`, in ms, and
/// returns the mean root span in ms.
pub fn set_phase_layers(layers: &mut Layers, flows: &[FlowSpans]) -> f64 {
    let jobs = flows.len().max(1) as f64;
    for &(phase, metric) in PHASES {
        let total: u64 =
            flows.iter().flat_map(|(_, ps)| ps).filter(|(n, _)| n == phase).map(|(_, us)| us).sum();
        layers.set(metric, total as f64 / 1e3 / jobs);
    }
    flows.iter().map(|(root, _)| *root as f64 / 1e3).sum::<f64>() / jobs
}

/// Parse, lint, fingerprint, framing and routing layers from replays.
pub fn set_replay_layers(layers: &mut Layers, replays: &[Replay], gates: usize) {
    let mean_ms = |f: fn(&Replay) -> Duration| {
        stats::mean(&replays.iter().map(|r| ms(f(r))).collect::<Vec<_>>())
    };
    layers.set("netlist.parse_ms", mean_ms(|r| r.parse));
    let parse_ns: f64 = replays.iter().map(|r| r.parse.as_secs_f64() * 1e9).sum();
    layers.set("netlist.parse_ns_per_gate", parse_ns / gates.max(1) as f64);
    layers.set("lint.preflight_ms", mean_ms(|r| r.lint));
    layers.set("serve.fingerprint_ms", mean_ms(|r| r.fingerprint));
    layers.set("net.encode_frame_ms", mean_ms(|r| r.encode));
    layers.set("gateway.routing_key_ms", mean_ms(|r| r.routing_key));
}

pub fn set_counter_layers(layers: &mut Layers, c: &CounterSnapshot) {
    layers.set("core.paths_enumerated", c.paths_enumerated as f64);
    layers.set("core.candidates_evaluated", c.candidates_evaluated as f64);
    layers.set("core.test_points_placed", c.test_points_placed as f64);
    layers.set("core.rounds", c.rounds as f64);
    layers.set("core.plans_attempted", c.plans_attempted as f64);
    let per_k = if c.candidates_evaluated == 0 {
        0.0
    } else {
        1e3 * c.test_points_placed as f64 / c.candidates_evaluated as f64
    };
    layers.set("core.placed_per_kcandidate", per_k);
}

pub fn add_counters(sum: &mut CounterSnapshot, c: &CounterSnapshot) {
    sum.paths_enumerated += c.paths_enumerated;
    sum.candidates_evaluated += c.candidates_evaluated;
    sum.test_points_placed += c.test_points_placed;
    sum.rounds += c.rounds;
    sum.plans_attempted += c.plans_attempted;
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
