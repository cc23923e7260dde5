//! Percentiles, the metric report and its JSON rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Nearest-rank percentile `p` (0–100) of `values` (any order); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples of `values` strictly above its `p`-th percentile: the guides ask
/// for at least ten before a tail percentile is trusted.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let cut = percentile(values, p);
    values.iter().filter(|&&v| v > cut).count()
}

/// Shared failure ledger: every query, add, delete and commit is one
/// attempt; an `Err` or a failed answer check is one failure.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn ok(&self) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed operation; the first failure is printed.
    pub fn fail(&self, why: String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if self.failed.fetch_add(1, Ordering::Relaxed) == 0 {
            eprintln!("perfbench: first failed check: {why}");
        }
    }

    /// Counts one operation as passed or failed.
    pub fn record(&self, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.ok(),
            Err(why) => self.fail(why),
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Everything one run measured: metrics by name with their unit, plus
/// context (sample counts, host facts) that goes only to the report file.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub context: BTreeMap<String, String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.context.insert(key.to_string(), value.to_string());
    }

    /// Sets `<name>` to the `p`-th percentile of `values` and notes its
    /// sample count and how many samples lie beyond it.
    pub fn percentile(&mut self, name: &str, values: &[f64], p: f64, unit: &'static str) {
        self.set(name, percentile(values, p), unit);
        self.note(&format!("{name}.samples"), values.len());
        self.note(&format!("{name}.beyond"), beyond(values, p));
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": u}, …}` over the metrics `keep` accepts.
pub fn metrics_json(report: &Report, keep: impl Fn(&str) -> bool) -> String {
    let body: Vec<String> = report
        .metrics
        .iter()
        .filter(|(name, _)| keep(name))
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn context_json(report: &Report) -> String {
    let body: Vec<String> = report
        .context
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
