//! Output checks and the quality figures read from verified payloads.

use crate::json::Value;
use std::time::Duration;
use tpi_net::WireReport;
use tpi_serve::{CacheSource, JobReport, JobStatus};

/// What one job returned, from an in-process report or over the wire.
#[derive(Debug, Clone)]
pub struct Answer {
    pub status: JobStatus,
    pub verified: bool,
    pub cache: CacheSource,
    /// Server-side wall time, dequeue to finish.
    pub wall: Duration,
    pub key: Option<u64>,
    pub payload: Option<String>,
}

impl From<&JobReport> for Answer {
    fn from(r: &JobReport) -> Answer {
        Answer {
            status: r.status.clone(),
            verified: r.verified,
            cache: r.cache,
            wall: r.wall,
            key: r.key.map(|k| k.0),
            payload: r.payload.as_deref().map(str::to_string),
        }
    }
}

impl From<WireReport> for Answer {
    fn from(r: WireReport) -> Answer {
        Answer {
            status: r.status,
            verified: r.verified,
            cache: r.cache,
            wall: Duration::from_micros(r.wall_micros),
            key: r.key,
            payload: r.payload,
        }
    }
}

/// Counts operations and the ones that failed any check.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub notes: Vec<String>,
}

impl Checker {
    fn outcome(&mut self, what: &str, problem: Option<String>) -> bool {
        self.attempted += 1;
        match problem {
            None => true,
            Some(msg) => {
                self.failed += 1;
                if self.notes.len() < 16 {
                    self.notes.push(format!("{what}: {msg}"));
                }
                false
            }
        }
    }

    /// An operation that failed before it produced an answer (a
    /// refused, timed-out or broken request).
    pub fn error(&mut self, what: &str, msg: String) {
        self.outcome(what, Some(msg));
    }

    /// A cold job: completed, computed now (not served from a cache),
    /// verified with a passing flush test, and — when an earlier pass
    /// ran the same input — byte-identical to that pass's payload.
    pub fn cold(&mut self, what: &str, a: &Answer, earlier: Option<&str>) -> bool {
        let problem = completed_problem(a).or_else(|| {
            if a.cache != CacheSource::Cold {
                Some(format!("fresh input served from the {} cache", a.cache.label()))
            } else {
                let p = a.payload.as_deref().unwrap_or_default();
                payload_problem(p).or_else(|| match earlier {
                    Some(e) if e != p => Some("payload differs from the earlier pass".into()),
                    _ => None,
                })
            }
        });
        self.outcome(what, problem)
    }

    /// A warm job: completed, verified, and byte-identical to the cold
    /// payload captured at set-up.
    pub fn warm(&mut self, what: &str, a: &Answer, expected: &str) -> bool {
        let problem = completed_problem(a).or_else(|| {
            (a.payload.as_deref() != Some(expected))
                .then(|| "payload differs from the cold payload captured at set-up".to_string())
        });
        self.outcome(what, problem)
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn completed_problem(a: &Answer) -> Option<String> {
    if a.status != JobStatus::Completed {
        return Some(format!("status {:?}", a.status));
    }
    if !a.verified {
        return Some("report not verified".into());
    }
    if a.payload.is_none() {
        return Some("completed report carries no payload".into());
    }
    None
}

/// Why a payload is not a verified `tpi-serve/v1` result with a
/// passing flush test, if it is not.
pub fn payload_problem(payload: &str) -> Option<String> {
    let v = match Value::parse(payload) {
        Ok(v) => v,
        Err(e) => return Some(format!("payload is not JSON: {e}")),
    };
    if v.str("schema") != Some("tpi-serve/v1") {
        return Some("payload schema is not tpi-serve/v1".into());
    }
    if v.bool("verified") != Some(true) {
        return Some("payload not verified".into());
    }
    if v.bool("flush_passed") != Some(true) {
        return Some("flush test did not pass".into());
    }
    None
}

/// Result quality over a set of verified payloads: the paper's Table I
/// reduction for full-scan jobs, Table III overheads for TPTIME jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    ffs: f64,
    ffs_reduced: f64,
    base_area: f64,
    extra_area: f64,
    base_delay: f64,
    extra_delay: f64,
}

impl Quality {
    pub fn add(&mut self, payload: &str) {
        let Ok(v) = Value::parse(payload) else { return };
        let num = |k| v.num(k).unwrap_or(0.0);
        if v.str("flow") == Some("full-scan") {
            self.ffs += num("ffs");
            self.ffs_reduced += num("ffs") * num("mux_reduction_pct");
        } else {
            let base_area = num("area") / (1.0 + num("area_pct") / 100.0);
            let base_delay = num("delay") / (1.0 + num("delay_pct") / 100.0);
            self.base_area += base_area;
            self.extra_area += num("area") - base_area;
            self.base_delay += base_delay;
            self.extra_delay += num("delay") - base_delay;
        }
    }

    /// Table I reduction of scan-mux area overhead, FF-weighted, in %.
    pub fn mux_reduction_pct(&self) -> f64 {
        ratio_pct(self.ffs_reduced, self.ffs)
    }

    /// Table III area overhead, base-area-weighted, in %.
    pub fn tptime_area_pct(&self) -> f64 {
        ratio_pct(self.extra_area, self.base_area)
    }

    /// Table III delay degradation, base-delay-weighted, in %.
    pub fn tptime_delay_pct(&self) -> f64 {
        ratio_pct(self.extra_delay, self.base_delay)
    }

    /// The DFT overhead the workload's flow leaves, in %: TPTIME's area
    /// overhead, or the share of full scan's mux overhead TPGREED did
    /// not remove (100 minus the Table I reduction). Lower is better.
    pub fn dft_overhead_pct(&self) -> f64 {
        if self.base_area > 0.0 {
            self.tptime_area_pct()
        } else {
            100.0 - self.mux_reduction_pct()
        }
    }
}

fn ratio_pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}
