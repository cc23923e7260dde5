//! `paper_cold`: the Figure 10/11 harness as `fixture::Workbench` builds it
//! (MemStore, `page_budget` 64) over dblp(5000), running DIL, RDIL and HDIL
//! on the planted queries of 1–4 keywords (and one natural 2-word query),
//! each from a cleared cache.

use crate::corpus::{self, Clock, DocBook, Forger, M};
use crate::host::SpeedProbe;
use crate::ledger::{Ledger, Spans};
use crate::reader::ReadOutcome;
use crate::stats::{Report, Tally};
use crate::Args;
use std::time::{Duration, Instant};
use xrank_bench::fixture::generate_dataset;
use xrank_bench::{Approach, BenchConfig, DatasetKind, Workbench};
use xrank_obs::QueryTrace;
use xrank_query::{dil_query, hdil_query, rdil_query, QueryOptions, QueryOutcome};
use xrank_storage::{IoStats, PageStore, SegmentId};

const PUBLICATIONS: usize = 5_000;
const SETUPS: usize = 3;
/// Run calls between two runs of the reference kernel.
const KERNEL_EVERY: usize = 8;

fn config(args: &Args) -> BenchConfig {
    let dataset = DatasetKind::Dblp {
        publications: args.scaled(PUBLICATIONS),
    };
    BenchConfig {
        with_naive: false,
        seed: corpus::CORPUS_SEED,
        ..BenchConfig::standard(dataset)
    }
}

/// One cold run call: the calls `Workbench::run_opts` makes, with `trace`
/// passed through to the processor.
fn run_cold(
    wb: &Workbench,
    approach: Approach,
    terms: &[xrank_graph::TermId],
    trace: &QueryTrace,
) -> (Duration, IoStats, QueryOutcome) {
    let opts = QueryOptions {
        top_m: M,
        ..Default::default()
    };
    wb.pool.clear_cache();
    let before = wb.pool.stats();
    let t = Instant::now();
    let outcome = match approach {
        Approach::Dil => dil_query::evaluate_traced(&wb.pool, &wb.dil, terms, &opts, trace),
        Approach::Rdil => rdil_query::evaluate_traced(&wb.pool, &wb.rdil, terms, &opts, trace),
        Approach::Hdil => {
            hdil_query::evaluate_traced(&wb.pool, &wb.hdil, terms, &opts, &wb.cost_model, trace)
        }
        other => unreachable!("{} is not run by paper_cold", other.label()),
    };
    let wall = t.elapsed();
    (
        wall,
        wb.pool.stats().since(&before),
        outcome.expect("in-memory evaluation cannot fail"),
    )
}

/// Everything the measured run calls accumulate, across set-ups.
struct Session {
    out: ReadOutcome,
    untraced_us: Vec<f64>,
    costs: [Vec<f64>; 3],
    probe: SpeedProbe,
    forger: Forger,
    calls: usize,
    spans: Spans,
    ledger: Ledger,
    /// Traced calls: entries, probes, blocks decoded and skipped, logical,
    /// physical and sequential reads, evictions.
    work: [u64; 8],
}

impl Session {
    /// Runs the queries round-robin on `wb`, DIL, RDIL and HDIL each, until
    /// `until`, checking every answer.
    fn measure(
        &mut self,
        wb: &Workbench,
        book: &mut DocBook,
        args: &Args,
        tally: &Tally,
        until: Instant,
    ) {
        let queries: Vec<_> = corpus::paper_queries(args.seed)
            .into_iter()
            .map(|q| {
                let terms = wb.resolve(&q.keywords);
                (q, terms)
            })
            .collect();
        let start = Instant::now();
        let mut i = 0usize;
        while Instant::now() < until {
            let (q, terms) = &queries[i % queries.len()];
            i += 1;
            let mut reference: Option<Vec<f64>> = None;
            let traced = args.trace
                && (start.elapsed().as_nanos() / crate::reader::WINDOW.as_nanos()) % 2 == 1;
            for (k, approach) in Approach::DIL_FAMILY.into_iter().enumerate() {
                let trace = if traced {
                    QueryTrace::enabled()
                } else {
                    QueryTrace::disabled()
                };
                let evictions = wb.pool.eviction_counters().evictions;
                let t0 = Instant::now();
                let (wall, io, outcome) = run_cold(wb, approach, terms, &trace);
                let us = wall.as_secs_f64() * 1e6;
                if args.trace && !traced {
                    self.untraced_us.push(us);
                } else {
                    self.out
                        .push(&format!("{} {}", approach.label(), q.text), us);
                }
                self.costs[k].push(wb.cost_model.cost(&io));
                let mut hits: Vec<(String, f64)> = outcome
                    .results
                    .iter()
                    .map(|r| {
                        let uri = wb.collection.elem_by_dewey(&r.dewey).map_or_else(
                            || "unknown".to_string(),
                            |e| wb.collection.doc(wb.collection.element(e).doc).uri.clone(),
                        );
                        (uri, r.score)
                    })
                    .collect();
                self.forger.apply(&mut hits);
                let scores: Vec<f64> = hits.iter().map(|h| h.1).collect();
                let verdict = book.check(q, &hits, 0, 0).and_then(|()| match &reference {
                    Some(r)
                        if r.len() != scores.len()
                            || r.iter().zip(&scores).any(|(a, b)| (a - b).abs() > 1e-9) =>
                    {
                        Err(format!(
                            "{:?}: {} top-{M} scores differ from DIL's",
                            q.text,
                            approach.label()
                        ))
                    }
                    _ => Ok(()),
                });
                tally.record(verdict);
                reference.get_or_insert(scores);
                if traced {
                    let t = trace.finish();
                    let req = self.calls as u64;
                    let name = format!("query.{}", approach.label().to_lowercase());
                    let root = self.spans.push(0, req, &name, t0, t0 + wall);
                    let from = self.spans.clock.ns(t0);
                    let to = from + t.total.as_nanos() as u64;
                    self.spans.push_ns(
                        root,
                        req,
                        "query.processor",
                        from,
                        to,
                        crate::ledger::stage_attrs(&t),
                    );
                    self.ledger.add_processor_run(&t);
                    let s = &outcome.stats;
                    let evicted = wb.pool.eviction_counters().evictions - evictions;
                    let counts = [
                        s.entries_scanned,
                        s.btree_probes,
                        s.blocks_decoded,
                        s.blocks_skipped,
                        io.logical_reads(),
                        io.physical_reads(),
                        io.seq_reads,
                        evicted,
                    ];
                    for (sum, c) in self.work.iter_mut().zip(counts) {
                        *sum += c;
                    }
                }
                self.calls += 1;
                if self.calls.is_multiple_of(KERNEL_EVERY) {
                    self.probe.tick();
                }
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report, tally: &Tally) {
    let config = config(args);
    let mut book = DocBook::default();
    for (uri, xml) in &generate_dataset(&config).docs {
        book.preloaded(uri, xml);
    }
    let mut session = Session {
        out: ReadOutcome::default(),
        untraced_us: Vec::new(),
        costs: [Vec::new(), Vec::new(), Vec::new()],
        probe: SpeedProbe::default(),
        forger: Forger(args.forge),
        calls: 0,
        spans: Spans::new(Clock::new()),
        ledger: Ledger::default(),
        work: [0; 8],
    };
    // Each set-up is measured for an equal share of the window and the
    // samples pooled, as on `serve_multiseg`.
    let share = Duration::from_secs_f64(args.seconds / args.setups(SETUPS) as f64);
    let mut setup_s = Vec::new();
    let mut wb = None;
    for _ in 0..args.setups(SETUPS) {
        drop(wb.take());
        let t = Instant::now();
        let built = Workbench::build(config.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        session.measure(&built, &mut book, args, tally, Instant::now() + share);
        wb = Some(built);
    }
    let wb = wb.expect("at least one setup");
    report.set("setup_s", crate::stats::median(&setup_s), "s");
    report.note("setup_s.samples", setup_s.len());
    let store = wb.pool.store();
    let store_bytes: u64 = (0..store.segment_count())
        .map(|s| store.segment_bytes(SegmentId(s)))
        .sum();
    report.set(
        "store_bytes_per_xml_byte",
        store_bytes as f64 / wb.dataset_bytes as f64,
        "ratio",
    );
    crate::report_reads(report, &session.out, &session.probe);
    for (k, name) in [
        "storage.cold_cost_dil",
        "storage.cold_cost_rdil",
        "storage.cold_cost_hdil",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, crate::stats::mean(&session.costs[k]), "cost");
    }
    let (dil_bytes, postings) = (wb.dil.used_bytes(), wb.dil.total_entries());
    report.set(
        "index.bytes_per_posting",
        dil_bytes as f64 / postings.max(1) as f64,
        "B",
    );

    if args.trace {
        let mut session = session;
        let n = session.ledger.queries.max(1) as f64;
        session.ledger.report(report);
        let base = crate::stats::median(&session.untraced_us);
        report.set(
            "obs.trace_overhead_frac",
            crate::stats::median(&session.out.latencies_us) / base - 1.0,
            "frac",
        );
        let [entries, probes, blocks, skipped, logical, physical, seq, evicted] =
            session.work.map(|c| c as f64);
        report.set("query.entries_scanned", entries / n, "count");
        report.set("query.btree_probes", probes / n, "count");
        report.set("index.blocks_decoded", blocks / n, "count");
        report.set("index.blocks_skipped", skipped / n, "count");
        report.set("storage.pool.logical_reads", logical / n, "count");
        report.set("storage.pool.physical_reads", physical / n, "count");
        report.set(
            "storage.pool.seq_read_frac",
            if physical > 0.0 { seq / physical } else { 0.0 },
            "frac",
        );
        report.set("storage.pool.evictions", evicted / n, "count");
        drop(wb);
        let docs = generate_dataset(&config).docs;
        let target = crate::replay::Target::Figure {
            page_budget: config.page_budget,
        };
        crate::replay::replay(&docs, target, &mut session.spans, 0).report(report);
        crate::write_spans(&session.spans, args);
    }
}
