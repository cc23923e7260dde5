//! `ingest_churn`: a durable pipeline at documented defaults (WAL
//! `SyncPolicy::Always`, background `Compactor` under the default policy)
//! with three quarters of dblp(4000) committed at setup. One writer streams
//! the rest as adds, replaces of live documents and a delete every tenth
//! add, committing every 20 documents; one reader runs the
//! `serve_multiseg` mix meanwhile.

use crate::corpus::{self, Clock, DocBook, Forger, Rng, M};
use crate::host::{self, SpeedProbe};
use crate::ledger::{stage_attrs, stage_us, Spans};
use crate::reader::{ReadOutcome, Reader, Tracing};
use crate::stats::{Report, Tally};
use crate::Args;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xrank_core::{CompactionPolicy, Compactor, EngineConfig, UpdatableXRank};
use xrank_datagen::Dataset;
use xrank_obs::Stage;
use xrank_query::CancelToken;

const PUBLICATIONS: usize = 4_000;
const SETUPS: usize = 5;
const BATCH: usize = 20;
const DELETE_EVERY: usize = 10;
/// Every third add replaces a live document instead of adding a new one.
const REPLACE_EVERY: usize = 3;

/// Inserts a keyword no other written version contains, so the commit
/// check can look the document up by it.
fn with_unique(xml: &str, tag: &str) -> String {
    let close = xml
        .rfind("</")
        .expect("generated document has a closing tag");
    format!("{}<note>{tag}</note>{}", &xml[..close], &xml[close..])
}

struct Corpora {
    docs: Dataset,
    /// Replacement text for each URI (same planting, other random words).
    alt: Dataset,
}

/// Committed-live documents, for picking replace and delete targets, with
/// the XML bytes of their live versions.
#[derive(Default)]
struct LiveSet {
    uris: Vec<String>,
    bytes: HashMap<String, usize>,
    total_bytes: usize,
}

impl LiveSet {
    fn insert(&mut self, uri: &str, bytes: usize) {
        self.uris.push(uri.to_string());
        self.bytes.insert(uri.to_string(), bytes);
        self.total_bytes += bytes;
    }

    fn remove_at(&mut self, i: usize) -> String {
        let uri = self.uris.swap_remove(i);
        self.total_bytes -= self.bytes.remove(&uri).unwrap_or(0);
        uri
    }
}

fn set_up(args: &Args, dir: &Path, corpora: &Corpora) -> Arc<UpdatableXRank> {
    let pipe = Arc::new(UpdatableXRank::open(dir, EngineConfig::default()).expect("open pipeline"));
    for (uri, xml) in &corpora.docs.docs[..corpora.docs.docs.len() * 3 / 4] {
        pipe.add_xml(uri, xml).expect("setup add");
    }
    pipe.commit().expect("setup commit");
    for q in corpus::query_mix(args.seed)
        .iter()
        .chain(&corpus::query_mix(args.seed))
    {
        pipe.search(&q.text, M).expect("warm-up search");
    }
    pipe
}

/// What the writer measured.
#[derive(Default)]
struct WriterOut {
    add_us: Vec<f64>,
    commit_ms: Vec<f64>,
    build_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    docs_committed: usize,
    xml_bytes_written: usize,
    busy: Duration,
    /// Bytes under the pipeline directory per live XML byte, sampled after
    /// every commit.
    store_ratio: Vec<f64>,
}

struct Writer<'a> {
    pipe: &'a UpdatableXRank,
    dir: &'a Path,
    corpora: &'a Corpora,
    book: &'a Mutex<DocBook>,
    clock: Clock,
    tally: &'a Tally,
    seed: u64,
}

impl Writer<'_> {
    fn run(&self, until: Instant, spans: &mut Option<Spans>) -> WriterOut {
        let docs = &self.corpora.docs.docs;
        let mut rng = Rng::new(self.seed ^ 0x57AE);
        let mut live = LiveSet::default();
        for (uri, xml) in &docs[..docs.len() * 3 / 4] {
            live.insert(uri, xml.len());
        }
        let index: HashMap<&str, usize> = docs
            .iter()
            .enumerate()
            .map(|(i, (u, _))| (u.as_str(), i))
            .collect();
        let mut versions: HashMap<String, usize> = HashMap::new();
        let mut next_new = docs.len() * 3 / 4;
        let mut batch: Vec<(String, String, usize)> = Vec::new();
        let mut out = WriterOut::default();
        let start = Instant::now();
        let mut adds = 0usize;
        let span = |spans: &mut Option<Spans>,
                    name: &str,
                    a: Instant,
                    b: Instant,
                    attrs: Vec<(String, f64)>| {
            if let Some(s) = spans.as_mut() {
                let (a, b) = (s.clock.ns(a), s.clock.ns(b));
                s.push_ns(0, 0, name, a, b, attrs);
            }
        };
        while Instant::now() < until {
            let replace = (adds % REPLACE_EVERY == REPLACE_EVERY - 1 || next_new == docs.len())
                && !live.uris.is_empty();
            let (uri, base) = if replace {
                let uri = live.remove_at(rng.range(0, live.uris.len()));
                let v = versions.entry(uri.clone()).or_insert(0);
                *v += 1;
                let source = if *v % 2 == 1 {
                    &self.corpora.alt
                } else {
                    &self.corpora.docs
                };
                let base = &source.docs[index[uri.as_str()]].1;
                (uri, base)
            } else {
                next_new += 1;
                let (uri, xml) = &docs[next_new - 1];
                (uri.clone(), xml)
            };
            let tag = format!("zq{}x{adds}", self.seed);
            let xml = with_unique(base, &tag);
            {
                let mut book = self.book.lock().expect("doc book lock poisoned");
                book.write_version(&uri, &xml);
                if replace {
                    book.hiding(&uri, self.clock.now());
                }
            }
            let t0 = Instant::now();
            let added = self.pipe.add_xml(&uri, &xml);
            let t1 = Instant::now();
            adds += 1;
            out.add_us.push((t1 - t0).as_secs_f64() * 1e6);
            span(spans, "core.update.add_xml", t0, t1, Vec::new());
            match added {
                Ok(()) => {
                    self.tally.ok();
                    if replace {
                        self.book
                            .lock()
                            .expect("doc book lock poisoned")
                            .hidden(&uri, self.clock.ns(t1));
                    }
                    out.xml_bytes_written += xml.len();
                    batch.push((uri, tag, xml.len()));
                }
                Err(e) => self.tally.fail(format!("add_xml {uri}: {e}")),
            }

            if adds.is_multiple_of(DELETE_EVERY) && !live.uris.is_empty() {
                let uri = live.remove_at(rng.range(0, live.uris.len()));
                self.book
                    .lock()
                    .expect("doc book lock poisoned")
                    .hiding(&uri, self.clock.now());
                let t0 = Instant::now();
                let deleted = self.pipe.delete(&uri);
                let t1 = Instant::now();
                out.delete_ms.push((t1 - t0).as_secs_f64() * 1e3);
                span(spans, "core.update.delete", t0, t1, Vec::new());
                match deleted {
                    Ok(true) => {
                        self.book
                            .lock()
                            .expect("doc book lock poisoned")
                            .hidden(&uri, self.clock.ns(t1));
                        self.tally.ok()
                    }
                    Ok(false) => self
                        .tally
                        .fail(format!("delete {uri}: live document not found")),
                    Err(e) => self.tally.fail(format!("delete {uri}: {e}")),
                }
            }

            if batch.len() == BATCH {
                self.commit(&mut batch, &mut live, &mut out, spans);
            }
        }
        out.busy = start.elapsed();
        if !batch.is_empty() {
            // Commit the tail outside the measured window, so the run ends
            // with every acknowledged document published.
            let mut tail = WriterOut::default();
            self.commit(&mut batch, &mut live, &mut tail, &mut None);
        }
        out
    }

    /// Commits `batch`, then checks that the last document is found by a
    /// keyword unique to it.
    fn commit(
        &self,
        batch: &mut Vec<(String, String, usize)>,
        live: &mut LiveSet,
        out: &mut WriterOut,
        spans: &mut Option<Spans>,
    ) {
        // The commit publishes before it returns, so a reader may see the
        // batch from the moment the call starts.
        {
            let mut book = self.book.lock().expect("doc book lock poisoned");
            let now = self.clock.now();
            for (uri, _, _) in batch.iter() {
                book.publishing(uri, now);
            }
        }
        let t0 = Instant::now();
        let committed = self.pipe.commit();
        let t1 = Instant::now();
        let stats = match committed {
            Ok(stats) => {
                let mut book = self.book.lock().expect("doc book lock poisoned");
                for (uri, _, _) in batch.iter() {
                    book.published(uri, self.clock.ns(t1));
                }
                self.tally.ok();
                stats
            }
            Err(e) => {
                self.tally.fail(format!("commit: {e}"));
                batch.clear();
                return;
            }
        };
        out.commit_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.build_ms
            .push(stage_us(&stats.trace, Stage::SegmentBuild) / 1e3);
        out.publish_ms
            .push(stage_us(&stats.trace, Stage::ManifestSwap) / 1e3);
        out.docs_committed += batch.len();
        if let Some(s) = spans.as_mut() {
            let (a, b) = (s.clock.ns(t0), s.clock.ns(t1));
            s.push_ns(0, 0, "core.update.commit", a, b, stage_attrs(&stats.trace));
        }
        for (uri, _, bytes) in batch.iter() {
            live.insert(uri, *bytes);
        }
        out.store_ratio
            .push(host::dir_bytes(self.dir) as f64 / live.total_bytes.max(1) as f64);
        let (uri, tag, _) = batch.last().expect("commit batches are never empty");
        let verdict = match self.pipe.search(tag, M) {
            Ok(r) if !r.hits.is_empty() && r.hits.iter().all(|h| &h.doc_uri == uri) => Ok(()),
            Ok(r) => Err(format!(
                "committed {uri} not found alone by its unique keyword ({} hits)",
                r.hits.len()
            )),
            Err(e) => Err(format!("unique-keyword search for {uri}: {e}")),
        };
        self.tally.record(verdict);
        batch.clear();
    }
}

/// The background folds of a traced run: the `Compactor` worker's loop
/// (merge small segments once there are more than `max_segments`, checked
/// every `interval`), driven from here so each fold's `CompactStats` —
/// rank iterations included — reach the ledger.
fn fold_loop(
    pipe: &UpdatableXRank,
    stop: &AtomicBool,
    cancel: &CancelToken,
    spans: &mut Spans,
) -> Vec<f64> {
    let policy = CompactionPolicy::default();
    let mut iterations = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let wake = Instant::now() + policy.interval;
        while Instant::now() < wake && !stop.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(10));
        }
        if stop.load(Ordering::Relaxed) || pipe.segment_count() <= policy.max_segments {
            continue;
        }
        let t0 = Instant::now();
        if let Ok(stats) = pipe.merge_small(policy.small_bytes, Some(cancel)) {
            let (a, b) = (spans.clock.ns(t0), spans.clock.ns(Instant::now()));
            spans.push_ns(0, 0, "core.compactor.fold", a, b, stage_attrs(&stats.trace));
            if stats.segments_folded > 0 {
                iterations.push(stats.rank_iterations as f64);
            }
        }
    }
    iterations
}

/// What one measured share of the stream produced.
struct Churned {
    writer: WriterOut,
    reads: ReadOutcome,
    /// Storage writes of the process while the stream ran.
    write_bytes: u64,
    fsyncs: u64,
    folds: u64,
    fold_us: f64,
    /// Traced runs only: spans of the three threads and each fold's rank
    /// iterations.
    traced: Option<(Tracing, Spans, Spans, Vec<f64>)>,
}

/// Streams writes and reads against `pipe` until `until`.
#[allow(clippy::too_many_arguments)]
fn churn(
    args: &Args,
    dir: &Path,
    pipe: &Arc<UpdatableXRank>,
    corpora: &Corpora,
    clock: Clock,
    tally: &Tally,
    until: Instant,
    probe: &mut SpeedProbe,
    forger: &mut Forger,
) -> Churned {
    let n = corpora.docs.docs.len();
    let mut book = DocBook::default();
    for (uri, xml) in &corpora.docs.docs[..n * 3 / 4] {
        book.preloaded(uri, xml);
    }
    let book = Mutex::new(book);
    let mix = corpus::query_mix(args.seed);
    let before = pipe.metrics().snapshot();
    let writes_before = host::write_bytes();
    let stop = AtomicBool::new(false);
    let cancel = CancelToken::new();
    let mut compactor = (!args.trace).then(|| Compactor::spawn(pipe, CompactionPolicy::default()));
    let writer = Writer {
        pipe,
        dir,
        corpora,
        book: &book,
        clock,
        tally,
        seed: args.seed,
    };
    let reader = Reader {
        pipe,
        mix: &mix,
        book: &book,
        clock,
        tally,
    };
    let (w, (reads, tracing), folds) = std::thread::scope(|s| {
        let folds = args.trace.then(|| {
            std::thread::Builder::new()
                .name("perfbench-folds".into())
                .spawn_scoped(s, || {
                    let mut spans = Spans::new(clock);
                    let iterations = fold_loop(pipe, &stop, &cancel, &mut spans);
                    (spans, iterations)
                })
                .expect("spawn fold thread")
        });
        let reads = std::thread::Builder::new()
            .name("perfbench-reader".into())
            .spawn_scoped(s, || {
                let mut tracing = args.trace.then(|| Tracing::new(clock, Vec::new()));
                let out = reader.run(until, probe, forger, tracing.as_mut());
                (out, tracing)
            })
            .expect("spawn reader");
        let mut writer_spans = args.trace.then(|| Spans::new(clock));
        let w = writer.run(until, &mut writer_spans);
        let reads = reads.join().expect("reader thread panicked");
        stop.store(true, Ordering::Relaxed);
        cancel.cancel();
        let folds = folds.map(|f| f.join().expect("fold thread panicked"));
        ((w, writer_spans), reads, folds)
    });
    if let Some(c) = compactor.as_mut() {
        c.shutdown();
    }
    let (writer, writer_spans) = w;
    let after = pipe.metrics().snapshot();
    let wall = |m: &xrank_obs::MetricsSnapshot| {
        m.histogram("xrank_update_compact_wall_us")
            .map_or((0, 0.0), |h| (h.count, h.sum))
    };
    let ((c0, s0), (c1, s1)) = (wall(&before), wall(&after));
    let traced = match (tracing, writer_spans, folds) {
        (Some(tr), Some(ws), Some((fs, iterations))) => Some((tr, ws, fs, iterations)),
        _ => None,
    };
    Churned {
        write_bytes: host::write_bytes() - writes_before,
        fsyncs: after.counter("xrank_wal_fsyncs_total") - before.counter("xrank_wal_fsyncs_total"),
        folds: c1 - c0,
        fold_us: s1 - s0,
        writer,
        reads,
        traced,
    }
}

pub fn run(args: &Args, work: &Path, report: &mut Report, tally: &Tally) {
    let n = args.scaled(PUBLICATIONS);
    let corpora = Corpora {
        docs: corpus::dblp(n, corpus::CORPUS_SEED),
        alt: corpus::dblp(n, corpus::CORPUS_SEED + 1),
    };
    let clock = Clock::new();
    let mut probe = SpeedProbe::default();
    let mut forger = Forger(args.forge);
    let share = Duration::from_secs_f64(args.seconds / args.setups(SETUPS) as f64);
    let mut setup_s = Vec::new();
    let mut parts = Vec::new();
    for i in 0..args.setups(SETUPS) {
        let dir = work.join(format!("ingest-{i}"));
        let t = Instant::now();
        let pipe = set_up(args, &dir, &corpora);
        setup_s.push(t.elapsed().as_secs_f64());
        let until = Instant::now() + share;
        parts.push(churn(
            args,
            &dir,
            &pipe,
            &corpora,
            clock,
            tally,
            until,
            &mut probe,
            &mut forger,
        ));
        drop(pipe);
        std::fs::remove_dir_all(&dir).expect("remove pipeline");
    }
    report.set("setup_s", crate::stats::median(&setup_s), "s");
    report.note("setup_s.samples", setup_s.len());

    let mut reads = ReadOutcome::default();
    let mut w = WriterOut::default();
    let (mut write_bytes, mut fsyncs, mut folds, mut fold_us) = (0, 0, 0, 0.0);
    let mut traced = None;
    for p in parts {
        reads.absorb(p.reads);
        w.add_us.extend(p.writer.add_us);
        w.commit_ms.extend(p.writer.commit_ms);
        w.build_ms.extend(p.writer.build_ms);
        w.publish_ms.extend(p.writer.publish_ms);
        w.delete_ms.extend(p.writer.delete_ms);
        w.docs_committed += p.writer.docs_committed;
        w.xml_bytes_written += p.writer.xml_bytes_written;
        w.busy += p.writer.busy;
        (write_bytes, fsyncs, folds, fold_us) = (
            write_bytes + p.write_bytes,
            fsyncs + p.fsyncs,
            folds + p.folds,
            fold_us + p.fold_us,
        );
        w.store_ratio.extend(p.writer.store_ratio);
        traced = traced.or(p.traced);
    }
    crate::report_reads(report, &reads, &probe);
    report.set(
        "store_bytes_per_xml_byte",
        crate::stats::median(&w.store_ratio),
        "ratio",
    );
    report.set(
        "core.update.add_p50_us",
        crate::stats::percentile(&w.add_us, 50.0),
        "us",
    );
    report.note("core.update.add_p50_us.samples", w.add_us.len());
    report.percentile("core.update.commit_p50_ms", &w.commit_ms, 50.0, "ms");
    report.percentile("core.update.commit_p95_ms", &w.commit_ms, 95.0, "ms");
    report.set(
        "core.update.commit_build_ms",
        crate::stats::mean(&w.build_ms),
        "ms",
    );
    report.set(
        "core.update.commit_publish_ms",
        crate::stats::mean(&w.publish_ms),
        "ms",
    );
    report.set(
        "core.update.delete_ms",
        crate::stats::mean(&w.delete_ms),
        "ms",
    );
    report.set(
        "core.update.ingest_docs_per_s",
        w.docs_committed as f64 / w.busy.as_secs_f64(),
        "1/s",
    );
    report.set(
        "core.wal.fsyncs_per_doc",
        fsyncs as f64 / w.add_us.len().max(1) as f64,
        "count",
    );
    report.set("core.compactor.folds", folds as f64, "count");
    report.set(
        "core.compactor.fold_ms",
        if folds > 0 {
            fold_us / folds as f64 / 1e3
        } else {
            0.0
        },
        "ms",
    );
    report.set(
        "storage.write_bytes_per_xml_byte",
        write_bytes as f64 / w.xml_bytes_written.max(1) as f64,
        "ratio",
    );

    if let Some((mut tr, writer_spans, fold_spans, iterations)) = traced {
        tr.report(&reads.latencies_us, report);
        tr.spans.absorb(writer_spans);
        tr.spans.absorb(fold_spans);
        report.set(
            "core.compactor.rank_iterations",
            crate::stats::mean(&iterations),
            "count",
        );
        // The layer-by-layer replay rebuilds one commit's worth of streamed
        // documents.
        let docs = &corpora.docs.docs[n * 3 / 4..(n * 3 / 4 + BATCH).min(n)];
        let target = crate::replay::Target::Segment {
            dir: &work.join("ingest-replay"),
        };
        crate::replay::replay(docs, target, &mut tr.spans, 0).report(report);
        crate::write_spans(&tr.spans, args);
    }
}
