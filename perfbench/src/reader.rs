//! The closed-loop reader shared by `serve_multiseg` and the
//! `ingest_churn` reader: one client calls `search(q, M)` round-robin over
//! the query mix and checks every answer.

use crate::corpus::{Clock, DocBook, Forger, MixQuery, M};
use crate::host::SpeedProbe;
use crate::ledger::{Ledger, Spans};
use crate::stats::{Report, Tally};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xrank_core::{Strategy, UpdatableXRank, XRankEngine};
use xrank_query::QueryOptions;
use xrank_storage::FileStore;

/// Queries between two runs of the reference kernel.
const KERNEL_EVERY: usize = 8;

/// In a traced run, queries alternate between untraced and traced windows
/// of this length, so the two latency samples see the same host.
pub const WINDOW: Duration = Duration::from_millis(500);

pub struct Reader<'a> {
    pub pipe: &'a UpdatableXRank,
    pub mix: &'a [MixQuery],
    pub book: &'a Mutex<DocBook>,
    pub clock: Clock,
    pub tally: &'a Tally,
}

/// What the traced windows add on top of latency.
pub struct Tracing {
    pub spans: Spans,
    pub ledger: Ledger,
    /// Engines opened on the pipeline's own segment directories: each
    /// traced query is replayed on them through `explain` for the work
    /// counters the pipeline's merged result drops (blocks, evictions).
    pub side: Vec<XRankEngine<FileStore>>,
    sums: Sums,
    untraced_us: Vec<f64>,
    segments: Vec<f64>,
}

#[derive(Default)]
struct Sums {
    entries: f64,
    probes: f64,
    logical: f64,
    physical: f64,
    seq: f64,
    blocks_decoded: f64,
    blocks_skipped: f64,
    evictions: f64,
}

impl Tracing {
    pub fn new(clock: Clock, side: Vec<XRankEngine<FileStore>>) -> Tracing {
        Tracing {
            spans: Spans::new(clock),
            ledger: Ledger::default(),
            side,
            sums: Sums::default(),
            untraced_us: Vec::new(),
            segments: Vec::new(),
        }
    }

    /// Per-layer metrics of the traced queries; `traced_us` are their
    /// latencies.
    pub fn report(&self, traced_us: &[f64], report: &mut Report) {
        self.ledger.report(report);
        let q = self.ledger.queries.max(1) as f64;
        let s = &self.sums;
        report.set("query.entries_scanned", s.entries / q, "count");
        report.set("query.btree_probes", s.probes / q, "count");
        report.set("storage.pool.logical_reads", s.logical / q, "count");
        report.set("storage.pool.physical_reads", s.physical / q, "count");
        report.set(
            "storage.pool.seq_read_frac",
            if s.physical > 0.0 {
                s.seq / s.physical
            } else {
                0.0
            },
            "frac",
        );
        report.set("index.blocks_decoded", s.blocks_decoded / q, "count");
        report.set("index.blocks_skipped", s.blocks_skipped / q, "count");
        report.set("storage.pool.evictions", s.evictions / q, "count");
        report.set(
            "core.update.segments_live",
            crate::stats::mean(&self.segments),
            "count",
        );
        let base = crate::stats::median(&self.untraced_us);
        let overhead = if base > 0.0 {
            crate::stats::median(traced_us) / base - 1.0
        } else {
            0.0
        };
        report.set("obs.trace_overhead_frac", overhead, "frac");
        report.note("obs.untraced_queries", self.untraced_us.len());
    }
}

#[derive(Default)]
pub struct ReadOutcome {
    /// Latency of every successful query of the measured (or, in a traced
    /// run, the traced) windows.
    pub latencies_us: Vec<f64>,
    /// The same latencies by query (and processor, on `paper_cold`).
    pub by_query: std::collections::BTreeMap<String, Vec<f64>>,
}

impl Reader<'_> {
    /// Runs the mix until `until`.
    pub fn run(
        &self,
        until: Instant,
        probe: &mut SpeedProbe,
        forger: &mut Forger,
        mut tracing: Option<&mut Tracing>,
    ) -> ReadOutcome {
        let thread = std::thread::current().name().unwrap_or("main").to_string();
        let recorder = self.pipe.recorder();
        let start = Instant::now();
        let mut out = ReadOutcome::default();
        let mut i = 0usize;
        while Instant::now() < until {
            let q = &self.mix[i % self.mix.len()];
            i += 1;
            let traced =
                tracing.is_some() && (start.elapsed().as_nanos() / WINDOW.as_nanos()) % 2 == 1;
            if traced {
                recorder.clear();
            }
            let t0 = Instant::now();
            let result = self.pipe.search(&q.text, M);
            let t1 = Instant::now();
            let us = (t1 - t0).as_secs_f64() * 1e6;
            match result {
                Ok(res) => {
                    let mut hits: Vec<(String, f64)> = res
                        .hits
                        .iter()
                        .map(|h| (h.doc_uri.clone(), h.score))
                        .collect();
                    forger.apply(&mut hits);
                    let verdict = self.book.lock().expect("doc book lock poisoned").check(
                        q,
                        &hits,
                        self.clock.ns(t0),
                        self.clock.ns(t1),
                    );
                    self.tally.record(verdict);
                    match tracing.as_deref_mut() {
                        Some(tr) if traced => {
                            out.push(&q.text, us);
                            let records = recorder.records();
                            let req = i as u64;
                            let root = tr.spans.push(0, req, "core.update.search", t0, t1);
                            let passes = tr.spans.passes(
                                root,
                                req,
                                (t0, t1),
                                &records,
                                recorder.epoch(),
                                &thread,
                            );
                            tr.ledger.add_search(us, &passes);
                            let s = &mut tr.sums;
                            s.entries += res.eval.entries_scanned as f64;
                            s.probes += res.eval.btree_probes as f64;
                            s.logical += res.io.logical_reads() as f64;
                            s.physical += res.io.physical_reads() as f64;
                            s.seq += res.io.seq_reads as f64;
                            tr.segments.push(self.pipe.segment_count() as f64);
                            let opts = QueryOptions {
                                top_m: M + 8,
                                ..QueryOptions::default()
                            };
                            for e in &tr.side {
                                let before = e.pool().eviction_counters().evictions;
                                if let Ok(x) = e.explain(&q.text, Strategy::Hdil, &opts) {
                                    s.blocks_decoded += x.eval.blocks_decoded as f64;
                                    s.blocks_skipped += x.eval.blocks_skipped as f64;
                                }
                                s.evictions +=
                                    (e.pool().eviction_counters().evictions - before) as f64;
                            }
                        }
                        Some(tr) => tr.untraced_us.push(us),
                        None => out.push(&q.text, us),
                    }
                }
                Err(e) => self.tally.fail(format!("{:?}: search failed: {e}", q.text)),
            }
            if i.is_multiple_of(KERNEL_EVERY) {
                probe.tick();
            }
        }
        out
    }
}

impl ReadOutcome {
    pub fn push(&mut self, query: &str, us: f64) {
        self.latencies_us.push(us);
        self.by_query.entry(query.to_string()).or_default().push(us);
    }

    pub fn absorb(&mut self, other: ReadOutcome) {
        self.latencies_us.extend(other.latencies_us);
        for (query, us) in other.by_query {
            self.by_query.entry(query).or_default().extend(us);
        }
    }
}
