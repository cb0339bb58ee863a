//! Summaries of timing samples, host facts and the metric record the
//! workloads fill in.

use std::time::{Duration, Instant};

/// The `p`-quantile (0..=1) of `samples`, linearly interpolated between
/// closest ranks. Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `p`-quantile of `(time, value)` samples taken in `[from, to)`,
/// computed in each of `windows` equal slices of that span; returns the
/// median over the slices, so one burst moves at most one slice.
pub fn windowed_quantile(
    samples: &[(Instant, f64)],
    from: Instant,
    to: Instant,
    windows: u32,
    p: f64,
) -> f64 {
    let width = (to - from) / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let (a, b) = (from + width * w, from + width * (w + 1));
            let v: Vec<f64> = samples
                .iter()
                .filter(|s| s.0 >= a && s.0 < b)
                .map(|s| s.1)
                .collect();
            quantile(&v, p)
        })
        .collect();
    median(&per_window)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload hands back: its output check, its operation counts,
/// the end-to-end metrics, the per-layer metrics (traced run only) and
/// the parameters it ran with.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// What failed: round errors and output-check mismatches.
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub params: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.e2e.push(Metric { name, unit, value });
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.layers.push(Metric { name, unit, value });
    }

    pub fn param(&mut self, name: &'static str, value: impl ToString) {
        self.params.push((name, value.to_string()));
    }

    /// Records one output check; a mismatch counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}
