//! The traced run's spans and its per-layer ledger.
//!
//! Spans are recorded from the benchmark's side of each call into a layer
//! (a query, an add, a commit, one stage of a replayed build) and kept in
//! memory until the run ends. The per-segment passes of a pipeline query
//! come from the flight-recorder records the pipeline already keeps: they
//! carry no parent, so the benchmark parents them to the query whose time
//! window holds them. Stage aggregates the program's own `Trace`s return
//! ride on the pass and commit spans as attributes.

use crate::corpus::Clock;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xrank_obs::{FlightRecord, OpKind, Stage, Trace};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Request id shared by every span of one operation.
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

/// One thread's spans; merge them with [`Spans::absorb`] before writing.
pub struct Spans {
    pub clock: Clock,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(clock: Clock) -> Spans {
        Spans {
            clock,
            spans: Vec::new(),
        }
    }

    /// Records a finished span; returns its id.
    pub fn push(&mut self, parent: u64, req: u64, name: &str, start: Instant, end: Instant) -> u64 {
        let (start_ns, end_ns) = (self.clock.ns(start), self.clock.ns(end));
        self.push_ns(parent, req, name, start_ns, end_ns, Vec::new())
    }

    pub fn push_ns(
        &mut self,
        parent: u64,
        req: u64,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        attrs: Vec<(String, f64)>,
    ) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns,
            end_ns,
            attrs,
        });
        id
    }

    /// Adds one child span under `parent` (which ran from `from` to `to`)
    /// per per-segment query pass in `records` that `thread` started inside
    /// that window, placed on this clock through the recorder's epoch.
    /// Returns the passes' traces.
    pub fn passes<'r>(
        &mut self,
        parent: u64,
        req: u64,
        (from, to): (Instant, Instant),
        records: &'r [FlightRecord],
        epoch: Instant,
        thread: &str,
    ) -> Vec<&'r Trace> {
        let base = self.clock.ns(epoch);
        let window = self.clock.ns(from)..=self.clock.ns(to);
        let mut out = Vec::new();
        for r in records
            .iter()
            .filter(|r| r.kind == OpKind::Query && r.thread == thread)
        {
            let start = base + r.start_ns;
            if !window.contains(&start) {
                continue;
            }
            let end = start + r.trace.total.as_nanos() as u64;
            self.push_ns(
                parent,
                req,
                "core.engine.segment_pass",
                start,
                end,
                stage_attrs(&r.trace),
            );
            out.push(&r.trace);
        }
        out
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Writes one JSON object per span, with its self time: its duration
    /// minus the part of it its children cover.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = String::new();
        for s in &self.spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{}: {}",
                        crate::stats::json_str(k),
                        crate::stats::json_num(*v)
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"self_us\": {:.3}, \"attrs\": {{{}}}}}",
                s.id,
                s.parent,
                s.req,
                crate::stats::json_str(&s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                dur.saturating_sub(covered) as f64 / 1e3,
                attrs.join(", ")
            );
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// A trace's stage aggregates as span attributes.
pub fn stage_attrs(t: &Trace) -> Vec<(String, f64)> {
    t.stages
        .iter()
        .flat_map(|s| {
            [
                (
                    format!("{}.us", s.stage.name()),
                    s.total.as_secs_f64() * 1e6,
                ),
                (format!("{}.count", s.stage.name()), s.count as f64),
            ]
        })
        .collect()
}

pub fn stage_us(t: &Trace, stage: Stage) -> f64 {
    t.stage(stage).map_or(0.0, |s| s.total.as_secs_f64() * 1e6)
}

pub fn stage_count(t: &Trace, stage: Stage) -> f64 {
    t.stage(stage).map_or(0.0, |s| s.count as f64)
}

/// Per-layer sums over the traced queries.
///
/// A query's time is split by self time: a stage's aggregate is charged
/// to its layer and subtracted from its parent. The parent of each stage
/// is fixed by the processors' span structure: probes and range scans run
/// inside the TA loop, the Dewey merge inside the HDIL fallback when there
/// is one, and everything else directly inside the pass. The fallback's own
/// list opens are charged to `index.list_open_us` and also sit inside the
/// fallback's span, so they are subtracted from the pass instead; the
/// ledger still sums to the pass time exactly.
#[derive(Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
    pub queries: u64,
    pub passes: u64,
    pub switched: u64,
    coverage: Vec<f64>,
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of `name` per traced query.
    pub fn per_query(&self, name: &str) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.sum(name) / self.queries as f64
        }
    }

    /// One pipeline search of `wall_us`, served by `passes`.
    pub fn add_search(&mut self, wall_us: f64, passes: &[&Trace]) {
        self.queries += 1;
        let mut attributed = 0.0;
        let mut inside = 0.0;
        for p in passes {
            attributed += self.add_pass(p, "core.engine.pass_self_us");
            inside += p.total.as_secs_f64() * 1e6;
        }
        let own = wall_us - inside;
        self.add("core.update.search_self_us", own);
        attributed += own;
        self.add("core.update.segment_passes", passes.len() as f64);
        self.coverage.push(if wall_us > 0.0 {
            attributed / wall_us
        } else {
            0.0
        });
    }

    /// One query-processor run outside the pipeline (the figure harness).
    pub fn add_processor_run(&mut self, t: &Trace) {
        self.queries += 1;
        let total = t.total.as_secs_f64() * 1e6;
        let attributed = self.add_pass(t, "query.processor_self_us");
        self.coverage
            .push(if total > 0.0 { attributed / total } else { 0.0 });
    }

    /// Charges one pass's stages to their layers; returns the time charged.
    fn add_pass(&mut self, t: &Trace, residual: &'static str) -> f64 {
        self.passes += 1;
        let total = t.total.as_secs_f64() * 1e6;
        let us = |s| stage_us(t, s);
        let (tokenize, open, ta, fallback, present) = (
            us(Stage::Tokenize),
            us(Stage::ListOpen),
            us(Stage::TaLoop),
            us(Stage::DilFallback),
            us(Stage::Present),
        );
        let (probe, scan, merge) = (
            us(Stage::BtreeProbe),
            us(Stage::RangeScan),
            us(Stage::DeweyMerge),
        );
        let switched = t.has_stage(Stage::DilFallback);
        self.switched += u64::from(switched);
        let (fallback_self, merge_in_pass) = if switched {
            (fallback - merge, 0.0)
        } else {
            (0.0, merge)
        };
        let parts = [
            ("core.engine.tokenize_us", tokenize),
            ("core.engine.present_us", present),
            (
                residual,
                total - tokenize - open - ta - fallback - present - merge_in_pass,
            ),
            ("index.list_open_us", open),
            ("query.ta_loop_self_us", ta - probe - scan),
            ("query.range_scan_us", scan),
            ("query.dil_fallback_self_us", fallback_self),
            ("query.dewey_merge_us", merge),
            ("storage.btree.probe_total_us", probe),
        ];
        let mut charged = 0.0;
        for (name, v) in parts {
            self.add(name, v);
            charged += v;
        }
        self.add(
            "storage.btree.tree_probes",
            stage_count(t, Stage::BtreeProbe),
        );
        self.add(
            "storage.btree.memo_hits",
            stage_count(t, Stage::ProbeMemoHit),
        );
        self.add(
            "storage.btree.descents",
            stage_count(t, Stage::CursorDescent),
        );
        self.add(
            "storage.btree.seeks",
            stage_count(t, Stage::CursorSeek) + stage_count(t, Stage::CursorSeekBack),
        );
        charged
    }

    /// Writes the time and B+-tree metrics of the traced queries.
    pub fn report(&self, report: &mut crate::stats::Report) {
        for name in [
            "core.update.search_self_us",
            "core.engine.tokenize_us",
            "core.engine.present_us",
            "core.engine.pass_self_us",
            "query.processor_self_us",
            "query.ta_loop_self_us",
            "query.dewey_merge_us",
            "query.range_scan_us",
            "query.dil_fallback_self_us",
            "index.list_open_us",
            "storage.btree.probe_total_us",
        ] {
            report.set(name, self.per_query(name), "us");
        }
        for name in [
            "core.update.segment_passes",
            "storage.btree.descents",
            "storage.btree.memo_hits",
            "storage.btree.seeks",
        ] {
            report.set(name, self.per_query(name), "count");
        }
        let probes = self.sum("storage.btree.tree_probes");
        let probe_us = if probes > 0.0 {
            self.sum("storage.btree.probe_total_us") / probes
        } else {
            0.0
        };
        report.set("storage.btree.probe_us", probe_us, "us");
        let switch = if self.passes > 0 {
            self.switched as f64 / self.passes as f64
        } else {
            0.0
        };
        report.set("query.hdil_switch_frac", switch, "frac");
        report.set(
            "ledger.coverage_frac",
            crate::stats::median(&self.coverage),
            "frac",
        );
        report.note("ledger.queries", self.queries);
        report.note("ledger.passes", self.passes);
    }
}
