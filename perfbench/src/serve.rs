//! `serve_multiseg`: a durable pipeline at default settings over dblp(10000)
//! committed as four segments of 70/15/10/5%, read by one closed-loop
//! client while nothing writes.

use crate::corpus::{self, Clock, DocBook, Forger};
use crate::host::{self, SpeedProbe};
use crate::reader::{ReadOutcome, Reader, Tracing};
use crate::stats::{Report, Tally};
use crate::Args;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xrank_core::{EngineConfig, UpdatableXRank, XRankEngine};
use xrank_datagen::Dataset;

const PUBLICATIONS: usize = 10_000;
const SETUPS: usize = 5;
/// Cumulative share of the corpus at each commit: segments of 70/15/10/5%.
const CUTS: [f64; 4] = [0.70, 0.85, 0.95, 1.0];

/// Generates, commits and warms one pipeline under `dir`.
fn set_up(args: &Args, dir: &Path) -> (Dataset, UpdatableXRank) {
    let n = args.scaled(PUBLICATIONS);
    let ds = corpus::dblp(n, corpus::CORPUS_SEED);
    let pipe = UpdatableXRank::open(dir, EngineConfig::default()).expect("open pipeline");
    let mut from = 0;
    for cut in CUTS {
        let to = (n as f64 * cut).round() as usize;
        for (uri, xml) in &ds.docs[from..to] {
            pipe.add_xml(uri, xml).expect("setup add");
        }
        pipe.commit().expect("setup commit");
        from = to;
    }
    for q in corpus::query_mix(args.seed)
        .iter()
        .chain(&corpus::query_mix(args.seed))
    {
        pipe.search(&q.text, corpus::M).expect("warm-up search");
    }
    (ds, pipe)
}

pub fn run(args: &Args, work: &Path, report: &mut Report, tally: &Tally) {
    let clock = Clock::new();
    let mut book = DocBook::default();
    for (uri, xml) in &corpus::dblp(args.scaled(PUBLICATIONS), corpus::CORPUS_SEED).docs {
        book.preloaded(uri, xml);
    }
    let book = Mutex::new(book);
    let mix = corpus::query_mix(args.seed);
    let mut probe = SpeedProbe::default();
    let mut forger = Forger(args.forge);
    let mut out = ReadOutcome::default();
    let mut setup_s = Vec::new();
    let mut built: Option<(PathBuf, Dataset, UpdatableXRank)> = None;
    let writes_before = host::write_bytes();
    // Each set-up is measured for an equal share of the window and the
    // samples pooled: query speed differs by up to a third from one set-up
    // to the next, even within one process, so pooling five averages that.
    let share = Duration::from_secs_f64(args.seconds / args.setups(SETUPS) as f64);
    for i in 0..args.setups(SETUPS) {
        if let Some((dir, _, pipe)) = built.take() {
            drop(pipe);
            std::fs::remove_dir_all(&dir).expect("remove previous pipeline");
        }
        let dir = work.join(format!("serve-{i}"));
        let t = Instant::now();
        let (ds, pipe) = set_up(args, &dir);
        setup_s.push(t.elapsed().as_secs_f64());
        if !args.trace {
            let reader = Reader {
                pipe: &pipe,
                mix: &mix,
                book: &book,
                clock,
                tally,
            };
            out.absorb(reader.run(Instant::now() + share, &mut probe, &mut forger, None));
        }
        built = Some((dir, ds, pipe));
    }
    let (dir, ds, pipe) = built.expect("at least one setup");
    let xml_bytes = ds.total_bytes() as f64;
    report.set("setup_s", crate::stats::median(&setup_s), "s");
    report.note("setup_s.samples", setup_s.len());
    let writes = (host::write_bytes() - writes_before) as f64 / setup_s.len() as f64;
    report.set(
        "storage.write_bytes_per_xml_byte",
        writes / xml_bytes,
        "ratio",
    );
    let fsyncs = pipe.metrics().snapshot().counter("xrank_wal_fsyncs_total") as f64;
    report.set(
        "core.wal.fsyncs_per_doc",
        fsyncs / ds.docs.len() as f64,
        "count",
    );
    report.set(
        "store_bytes_per_xml_byte",
        host::dir_bytes(&dir) as f64 / xml_bytes,
        "ratio",
    );

    if args.trace {
        let mut tr = Tracing::new(clock, open_side_engines(&dir));
        let reader = Reader {
            pipe: &pipe,
            mix: &mix,
            book: &book,
            clock,
            tally,
        };
        out = reader.run(
            Instant::now() + share,
            &mut probe,
            &mut forger,
            Some(&mut tr),
        );
        tr.report(&out.latencies_us, report);
        // The layer-by-layer replay rebuilds the first (largest) segment.
        let first = (args.scaled(PUBLICATIONS) as f64 * CUTS[0]).round() as usize;
        let target = crate::replay::Target::Segment {
            dir: &work.join("serve-replay"),
        };
        crate::replay::replay(&ds.docs[..first], target, &mut tr.spans, 0).report(report);
        crate::write_spans(&tr.spans, args);
    }
    crate::report_reads(report, &out, &probe);
}

/// Opens a second, read-only engine on each sealed segment directory.
fn open_side_engines(dir: &Path) -> Vec<XRankEngine<xrank_storage::FileStore>> {
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .expect("pipeline dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    segs.sort();
    let mut config = EngineConfig::default();
    config.obs.metrics_enabled = false;
    config.obs.recorder.enabled = false;
    segs.iter()
        .map(|p| XRankEngine::open(p, config.clone()).expect("open segment engine"))
        .collect()
}
