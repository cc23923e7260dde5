//! A layer-by-layer replay of one index build, through the calls the build
//! path makes: `xrank_xml::parse` → `CollectionBuilder` → `elem_rank` →
//! `direct_postings` → index `build`.

use crate::ledger::Spans;
use std::path::Path;
use std::time::Instant;
use xrank_graph::CollectionBuilder;
use xrank_index::{
    direct_postings, direct_postings_weighted, DilIndex, HdilIndex, RankWeighting, RdilIndex,
};
use xrank_rank::{elem_rank, ElemRankParams};
use xrank_storage::{BufferPool, FileStore, MemStore};

/// Which index build to replay.
pub enum Target<'a> {
    /// A pipeline segment: HDIL into a file store at `dir`, synced.
    Segment { dir: &'a Path },
    /// The figure harness: DIL, RDIL and HDIL into memory at `page_budget`.
    Figure { page_budget: usize },
}

#[derive(Default, Clone, Copy)]
pub struct BuildTimes {
    pub parse_ms: f64,
    pub graph_ms: f64,
    pub elemrank_ms: f64,
    pub iterations: f64,
    pub index_ms: f64,
    pub bytes_per_posting: f64,
}

impl BuildTimes {
    pub fn report(&self, report: &mut crate::stats::Report) {
        report.set("xml.parse_ms", self.parse_ms, "ms");
        report.set("graph.build_ms", self.graph_ms, "ms");
        report.set("rank.elemrank_ms", self.elemrank_ms, "ms");
        report.set("rank.iterations", self.iterations, "count");
        report.set("index.build_ms", self.index_ms, "ms");
        report.set("index.bytes_per_posting", self.bytes_per_posting, "B");
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays the build of `docs`, recording one span per stage under a
/// `replay.build` root span.
pub fn replay(
    docs: &[(String, String)],
    target: Target<'_>,
    spans: &mut Spans,
    req: u64,
) -> BuildTimes {
    let root_start = Instant::now();
    let mut marks = Vec::new();
    let mut out = BuildTimes::default();

    let t = Instant::now();
    let parsed: Vec<_> = docs
        .iter()
        .map(|(_, xml)| xrank_xml::parse(xml).expect("generated XML parses"))
        .collect();
    out.parse_ms = ms(t);
    marks.push(("xml.parse", t, Instant::now()));

    let t = Instant::now();
    let mut builder = CollectionBuilder::new();
    for ((uri, _), doc) in docs.iter().zip(&parsed) {
        builder.add_xml_document(uri, doc);
    }
    let collection = builder.build();
    drop(parsed);
    out.graph_ms = ms(t);
    marks.push(("graph.build", t, Instant::now()));

    let t = Instant::now();
    let ranks = elem_rank(&collection, &ElemRankParams::default());
    out.elemrank_ms = ms(t);
    out.iterations = ranks.iterations as f64;
    marks.push(("rank.elemrank", t, Instant::now()));

    let t = Instant::now();
    let dil_bytes = match target {
        Target::Segment { dir } => {
            let direct =
                direct_postings_weighted(&collection, &ranks.scores, RankWeighting::ElemRank);
            let mut pool = BufferPool::new(FileStore::open(dir).expect("replay store dir"), 4096);
            let hdil = HdilIndex::build(&mut pool, &direct).expect("replay index build");
            pool.store().sync().expect("replay store sync");
            (hdil.dil.used_bytes(), hdil.dil.total_entries())
        }
        Target::Figure { page_budget } => {
            let direct = direct_postings(&collection, &ranks.scores);
            let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
            let dil =
                DilIndex::build_with(&mut pool, &direct, page_budget).expect("replay index build");
            RdilIndex::build_with(&mut pool, &direct, page_budget).expect("replay index build");
            HdilIndex::build_full(
                &mut pool,
                &direct,
                xrank_index::hdil::DEFAULT_PREFIX_FRACTION,
                xrank_index::hdil::MIN_PREFIX_ENTRIES,
                page_budget,
            )
            .expect("replay index build");
            (dil.used_bytes(), dil.total_entries())
        }
    };
    out.index_ms = ms(t);
    marks.push(("index.build", t, Instant::now()));
    out.bytes_per_posting = dil_bytes.0 as f64 / dil_bytes.1.max(1) as f64;

    let root = spans.push(0, req, "replay.build", root_start, Instant::now());
    for (name, a, b) in marks {
        spans.push(root, req, name, a, b);
    }
    out
}
