//! The repository benchmark: drives one named workload through the
//! public APIs, checks every output, and prints the end-to-end metrics
//! (or, with `--trace 1`, the per-layer metrics) as the last line of
//! standard output. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fullscan_suite|tptime_suite|industrial_250k|warm_gateway> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```

mod check;
mod cold;
mod context;
mod inputs;
mod json;
mod stats;
mod trace;
mod warm;

use check::{Checker, Quality};
use std::path::PathBuf;
use std::time::Duration;
use tpi_obs::{JsonArray, JsonObject};
use trace::{Layers, Tracer};

/// Every end-to-end metric with its unit, printed on every workload.
/// Request rate and latency percentiles go on the `detail` line: on the
/// cold workloads they have too few samples to gate (see the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_kgates_s", "kgates/s"),
    ("peak_rss_mib", "MiB"),
    ("dft_overhead_pct", "%"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FullScanSuite,
    TpTimeSuite,
    Industrial,
    WarmGateway,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FullScanSuite,
        Workload::TpTimeSuite,
        Workload::Industrial,
        Workload::WarmGateway,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FullScanSuite => "fullscan_suite",
            Workload::TpTimeSuite => "tptime_suite",
            Workload::Industrial => "industrial_250k",
            Workload::WarmGateway => "warm_gateway",
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Small inputs for the benchmark's own tests.
    pub tiny: bool,
}

impl Run {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Run, String> {
        let mut run = Run {
            workload: Workload::FullScanSuite,
            seed: 0,
            seconds: Duration::from_secs(10),
            trace: false,
            tiny: false,
        };
        let mut workload = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| bad("unknown workload"))?,
                    );
                }
                "--seed" => run.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    let s: u64 = value.parse().map_err(|_| bad("expected whole seconds"))?;
                    run.seconds = Duration::from_secs(s);
                }
                "--trace" => {
                    run.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        run.workload = workload.ok_or("--workload is required")?;
        Ok(run)
    }

    /// Whether set-up runs again after the times in `done`; `setup_s`
    /// is their median. The traced run reports no `setup_s` and sets up
    /// once. An untraced run sets up at least 5 times, and more (up to
    /// 50) until 5 s of set-up are spent: host load on a shared machine
    /// moves a short set-up by a third from one second to the next, and
    /// the median only steadies over several seconds of samples.
    pub fn more_setup(&self, done: &[Duration]) -> bool {
        let spent: Duration = done.iter().sum();
        if self.trace || self.tiny {
            done.is_empty()
        } else {
            done.len() < 5 || (spent < Duration::from_secs(5) && done.len() < 50)
        }
    }
}

/// Verified work and client-side latencies of the measured interval.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub gates: u64,
    pub jobs: u64,
    pub wall: Duration,
    pub latencies_ms: Vec<f64>,
    /// Peak resident memory, set-up included, when the first pass over
    /// the inputs ended (the whole interval for `warm_gateway`). Later
    /// passes only add allocator retention, which varies run to run.
    pub peak_rss_mib: f64,
}

impl Totals {
    pub fn add(&mut self, gates: usize, latency: Duration) {
        self.gates += gates as u64;
        self.jobs += 1;
        self.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }
}

/// What a workload run produced.
pub struct Outcome {
    setup: Vec<Duration>,
    totals: Totals,
    quality: Quality,
    checker: Checker,
    inputs: String,
    passes: usize,
    trace: Option<(Layers, Tracer)>,
}

impl Outcome {
    pub fn new(
        setup: Vec<Duration>,
        totals: Totals,
        quality: Quality,
        checker: Checker,
        inputs: String,
    ) -> Outcome {
        Outcome { setup, totals, quality, checker, inputs, passes: 1, trace: None }
    }

    pub fn with_passes(mut self, passes: usize) -> Outcome {
        self.passes = passes;
        self
    }

    pub fn with_trace(mut self, layers: Layers, tracer: Tracer) -> Outcome {
        self.trace = Some((layers, tracer));
        self
    }

    pub fn correct(&self) -> bool {
        self.checker.failed == 0 && self.checker.attempted > 0 && self.totals.jobs > 0
    }

    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        let t = &self.totals;
        let secs = t.wall.as_secs_f64().max(1e-9);
        let values = [
            stats::median(&self.setup.iter().map(Duration::as_secs_f64).collect::<Vec<_>>()),
            t.gates as f64 / 1e3 / secs,
            t.peak_rss_mib,
            self.quality.dft_overhead_pct(),
        ];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n.to_string(), v, u)).collect()
    }

    /// The lines printed before the result: inputs record, details,
    /// and (traced) where the spans went.
    fn detail_lines(&self, run: &Run) -> Vec<String> {
        let mut lines = vec![self.inputs.clone()];
        let mut o = JsonObject::new();
        let mut notes = JsonArray::new();
        for n in &self.checker.notes {
            notes.push_str(n);
        }
        let mut setups = JsonArray::new();
        for s in &self.setup {
            setups.push_u64(s.as_micros() as u64);
        }
        let t = &self.totals;
        o.field_str("perfbench", "detail")
            .field_str("workload", run.workload.name())
            .field_u64("passes", self.passes as u64)
            .field_u64("jobs", t.jobs)
            .field_f64("req_per_s", t.jobs as f64 / t.wall.as_secs_f64().max(1e-9))
            .field_f64("latency_p50_ms", stats::quantile(&t.latencies_ms, 0.5))
            .field_f64("latency_p90_ms", stats::quantile(&t.latencies_ms, 0.9))
            .field_u64("latency_samples", t.latencies_ms.len() as u64)
            .field_f64("failed_frac", self.checker.failed_frac())
            .field_f64("mux_reduction_pct", self.quality.mux_reduction_pct())
            .field_f64("tptime_area_pct", self.quality.tptime_area_pct())
            .field_f64("tptime_delay_pct", self.quality.tptime_delay_pct())
            .field_array("setup_runs_us", setups)
            .field_array("failures", notes);
        lines.push(o.finish());
        if let Some((layers, tracer)) = &self.trace {
            if run.workload == Workload::WarmGateway {
                let mut serving = JsonObject::new();
                serving.field_str("perfbench", "serving");
                for (name, value, _) in layers.rows(trace::SERVING) {
                    serving.field_f64(&name, value);
                }
                lines.push(serving.finish());
            }
            let path = out_dir().join(format!("trace-{}-{}.json", run.workload.name(), run.seed));
            let written = std::fs::create_dir_all(out_dir())
                .and_then(|()| std::fs::write(&path, tracer.to_json()));
            let mut t = JsonObject::new();
            t.field_str("perfbench", "trace")
                .field_u64("spans", tracer.len() as u64)
                .field_str("file", &path.display().to_string());
            if let Err(e) = written {
                t.field_str("error", &e.to_string());
            }
            lines.push(t.finish());
        }
        lines
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    fn result_line(&self) -> String {
        let rows = match &self.trace {
            Some((layers, _)) => layers.rows(trace::LAYERS),
            None => self.end_to_end(),
        };
        let mut metrics = JsonObject::new();
        for (name, value, unit) in rows {
            let mut m = JsonObject::new();
            m.field_f64("value", if value.is_finite() { value } else { 0.0 })
                .field_str("unit", unit);
            metrics.field_object(&name, m);
        }
        let mut o = JsonObject::new();
        o.field_bool("correct", self.correct())
            .field_u64("attempted", self.checker.attempted.max(1))
            .field_u64("failed", self.checker.failed)
            .field_object("metrics", metrics);
        o.finish()
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where traces and the warm workload's disk caches go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run_workload(run: &Run) -> Outcome {
    match run.workload {
        Workload::FullScanSuite => cold::run(cold::Cold::FullScanSuite, run),
        Workload::TpTimeSuite => cold::run(cold::Cold::TpTimeSuite, run),
        Workload::Industrial => cold::run(cold::Cold::Industrial, run),
        Workload::WarmGateway => warm::run(run),
    }
}

/// Hands the allocator's free memory back to the system, in every
/// malloc arena. The cold workloads call it between jobs, outside the
/// measured time: each job may land on another service worker thread,
/// and memory a finished job left free in one thread's arena otherwise
/// stayed resident beside the next job's, so the peak resident set
/// depended on thread placement (`peak_rss_mib` of `fullscan_suite`
/// spread 20% over five runs of the same circuits).
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns free pages to the system; it
        // takes the allocator's own locks and is safe with live threads.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn main() {
    let run = match Run::parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", context::line());
    let outcome = run_workload(&run);
    for line in outcome.detail_lines(&run) {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json is JSON");
        let Some(Value::Arr(items)) = doc.get(section) else { panic!("{section} is a list") };
        items
            .iter()
            .map(|m| (m.str("name").unwrap().to_string(), m.str("unit").unwrap().to_string()))
            .collect()
    }

    fn tiny(workload: Workload, trace: bool) -> Run {
        Run { workload, seed: 3, seconds: Duration::from_millis(300), trace, tiny: true }
    }

    /// The printed result of a run, parsed.
    fn result(outcome: &Outcome) -> Value {
        Value::parse(&outcome.result_line()).expect("the result line is JSON")
    }

    #[test]
    fn declarations_match_the_code() {
        let e2e: Vec<_> = END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<_> =
            trace::LAYERS.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn tiny_pass_of_every_workload_prints_every_metric_with_its_unit() {
        for workload in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let outcome = run_workload(&tiny(workload, trace));
                let v = result(&outcome);
                assert_eq!(
                    v.bool("correct"),
                    Some(true),
                    "{workload:?} {:?}",
                    outcome.checker.notes
                );
                assert_eq!(v.num("failed"), Some(0.0));
                let metrics = v.get("metrics").expect("metrics object");
                let Value::Obj(fields) = metrics else { panic!("metrics is an object") };
                let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                let want = declared(section);
                assert_eq!(names, want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>());
                for (name, unit) in want {
                    let m = metrics.get(&name).unwrap();
                    assert_eq!(m.str("unit"), Some(unit.as_str()), "{workload:?} {name}");
                    assert!(m.num("value").is_some_and(f64::is_finite), "{workload:?} {name}");
                }
                if !trace {
                    for (name, _) in END_TO_END {
                        let value = metrics.get(name).unwrap().num("value").unwrap();
                        assert!(value > 0.0, "{workload:?} {name} = {value}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_corrupted_payload_is_caught() {
        let service = tpi_serve::JobService::new(tpi_serve::ServiceConfig::default());
        let s27 = inputs::Design::new(&tpi_workloads::iscas::s27());
        let spec = tpi_serve::JobSpec::full_scan(tpi_serve::NetlistSource::Blif(s27.blif));
        let good = check::Answer::from(&service.submit(spec).wait());
        let payload = good.payload.clone().unwrap();
        let mut checker = Checker::default();
        assert!(checker.cold("good", &good, None));
        assert!(checker.warm("good", &good, &payload));

        let mut corrupt = good.clone();
        let mut bytes = payload.clone().into_bytes();
        let at = payload.find("\"ffs\":").unwrap() + 6;
        bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
        corrupt.payload = Some(String::from_utf8(bytes).unwrap());
        assert!(!checker.warm("corrupt", &corrupt, &payload));
        assert!(!checker.cold("corrupt", &corrupt, Some(&payload)));
        corrupt.payload = Some(payload.replace("\"flush_passed\":true", "\"flush_passed\":false"));
        assert!(!checker.cold("no flush", &corrupt, None));
        assert_eq!((checker.attempted, checker.failed), (5, 3));

        let mut totals = Totals { peak_rss_mib: 1.0, ..Totals::default() };
        totals.add(10, Duration::from_millis(1));
        let outcome = Outcome::new(vec![], totals, Quality::default(), checker, String::new());
        assert!(!outcome.correct());
        assert_eq!(result(&outcome).bool("correct"), Some(false));
    }

    #[test]
    fn inputs_follow_the_seed() {
        let names = |specs: &[tpi_workloads::CircuitSpec]| {
            specs.iter().map(|s| (s.name.clone(), s.seed)).collect::<Vec<_>>()
        };
        let mut calibrated = tpi_workloads::suite();
        calibrated.extend(tpi_workloads::large_suite());
        assert_eq!(names(&inputs::fullscan_suite(0)), names(&calibrated));
        assert_eq!(names(&inputs::fullscan_suite(5)), names(&inputs::fullscan_suite(5)));
        assert_ne!(names(&inputs::fullscan_suite(5)), names(&inputs::fullscan_suite(6)));
        let mut shuffled = names(&inputs::fullscan_suite(5));
        shuffled.sort();
        let mut want = names(&calibrated);
        want.sort();
        assert_eq!(shuffled, want, "a seed reorders the calibrated circuits, nothing more");

        let industrial = |seed| {
            let d = inputs::industrial_design(8, seed, 0);
            inputs::record("t", seed, &[&d])
        };
        assert_eq!(industrial(5), industrial(5));
        assert_ne!(industrial(5), industrial(6));
    }

    /// The paper suites keep their calibrated circuits at every seed
    /// because of this defect: `s15850` with its generator seed re-drawn
    /// by `inputs::redraw` for seed 5 makes TPGREED panic ("TPGREED must
    /// produce a verifiable outcome: path f348->f464 side input
    /// cone464_1 carries X, want Zero", `crates/core/src/flow.rs`). Run
    /// it with `--ignored`; once it passes, the suites can re-draw.
    #[test]
    #[ignore = "known program defect: TPGREED fails on this re-drawn s15850"]
    fn redrawn_s15850_passes_full_scan() {
        let mut spec = tpi_workloads::suite().swap_remove(3);
        assert_eq!(spec.name, "s15850");
        spec.seed = inputs::redraw(spec.seed, 5, 3);
        let design = inputs::Design::new(&tpi_workloads::generate(&spec));
        let service = tpi_serve::JobService::new(tpi_serve::ServiceConfig::default());
        let spec = tpi_serve::JobSpec::full_scan(tpi_serve::NetlistSource::Blif(design.blif));
        let answer = check::Answer::from(&service.submit(spec).wait());
        let mut checker = Checker::default();
        assert!(checker.cold("s15850 re-drawn", &answer, None), "{:?}", checker.notes);
    }

    #[test]
    fn arguments_parse() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run =
            Run::parse(args("--workload warm_gateway --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(run.workload, Workload::WarmGateway);
        assert_eq!((run.seed, run.seconds, run.trace), (7, Duration::from_secs(3), true));
        assert!(Run::parse(args("--workload nope")).is_err());
        assert!(Run::parse(args("--seed 1")).is_err());
        assert!(Run::parse(args("--workload warm_gateway --trace 2")).is_err());
    }
}
