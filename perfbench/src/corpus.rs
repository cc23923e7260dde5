//! The benchmark's inputs (reference corpora, the query mix in seeded
//! order) and the answer checks every query result goes through.

use std::collections::HashMap;
use std::time::Instant;
use xrank_datagen::plant::PlantConfig;
use xrank_datagen::workload::{self, Correlation};
use xrank_datagen::{dblp, Dataset};

/// Results per query, as in the paper's Figures 10/11.
pub const M: usize = 10;

/// SplitMix64: the benchmark's own seeded choices (query ranks, stream
/// order), independent of the generators' RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// The planting of the figure harness (`BenchConfig::standard`): two high-
/// and two low-correlation groups of four keywords.
pub fn plant_config(slots: usize) -> PlantConfig {
    PlantConfig {
        groups: 2,
        group_size: 4,
        high_frequency: (slots / 8).max(8),
        low_frequency: (slots / 8).max(8),
        low_cooccurrences: (slots / 400).max(2),
    }
}

/// Generator seed of the reference corpora: the figure harness's own
/// (`BenchConfig::standard`). The corpora stay fixed and `--seed` varies
/// the order of the mix and the writer's stream: between corpus seeds,
/// single-query costs moved by 10–20% (the TA loop's work follows the
/// citation graph), which would swamp the regression bounds.
pub const CORPUS_SEED: u64 = 42;

/// A planted dblp corpus of `n` publications from generator seed `seed`.
pub fn dblp(n: usize, seed: u64) -> Dataset {
    dblp::generate(&dblp::DblpConfig {
        publications: n,
        seed,
        plant: Some(plant_config(n)),
        ..Default::default()
    })
}

/// One query of a mix.
pub struct MixQuery {
    pub text: String,
    pub keywords: Vec<String>,
    /// Planted high-correlation: at least `M` elements contain it.
    pub high: bool,
}

impl MixQuery {
    fn new(keywords: Vec<String>, high: bool) -> MixQuery {
        MixQuery {
            text: keywords.join(" "),
            keywords,
            high,
        }
    }
}

/// Frequency ranks of the natural-vocabulary 1-word queries, from very
/// common to rare words.
const ONE_WORD_RANKS: [usize; 16] = [
    2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 135, 200, 300, 450, 700, 1000,
];
/// Frequency ranks of the natural-vocabulary 2-word queries (adjacent ranks).
const TWO_WORD_RANKS: [usize; 5] = [4, 16, 64, 256, 1024];

/// The read mix of `serve_multiseg` and the `ingest_churn` reader: the 16
/// planted high- and low-correlation queries of 1–4 keywords plus 21
/// natural-vocabulary queries, in seeded order. The ranks are fixed, so the
/// seed varies the corpus and the order of the mix but not its make-up.
///
/// Single-word queries are cheap and multi-word ones several times dearer,
/// with a gap between the two groups. Twenty of the 37 queries have one
/// keyword, so the median latency falls inside the single-word group
/// rather than on that gap, where it would jump between runs.
pub fn query_mix(seed: u64) -> Vec<MixQuery> {
    let mut mix = planted_queries();
    mix.extend(ONE_WORD_RANKS.map(|r| MixQuery::new(workload::selectivity_query(r, 1), false)));
    mix.extend(TWO_WORD_RANKS.map(|r| MixQuery::new(workload::selectivity_query(r, 2), false)));
    shuffled(mix, seed)
}

fn shuffled(mut queries: Vec<MixQuery>, seed: u64) -> Vec<MixQuery> {
    let mut rng = Rng::new(seed);
    for i in (1..queries.len()).rev() {
        let j = rng.range(0, i + 1);
        queries.swap(i, j);
    }
    queries
}

/// The Figure 10/11 queries: both correlations, both groups, 1–4 keywords.
fn planted_queries() -> Vec<MixQuery> {
    let mut out = Vec::new();
    for (corr, high) in [(Correlation::High, true), (Correlation::Low, false)] {
        for group in 0..2 {
            for n in 1..=4 {
                out.push(MixQuery::new(workload::query(corr, group, n), high));
            }
        }
    }
    out
}

/// The `paper_cold` queries: the Figure 10/11 queries plus one natural
/// 2-word query (the §5.4 selectivity factor), 17 in all, so that with
/// three processors each the median run call sits inside one class. In
/// seeded order.
pub fn paper_queries(seed: u64) -> Vec<MixQuery> {
    let mut out = planted_queries();
    out.push(MixQuery::new(
        workload::selectivity_query(TWO_WORD_RANKS[1], 2),
        false,
    ));
    shuffled(out, seed)
}

/// Nanoseconds on one run-wide clock, so writer and reader threads can
/// compare when things happened.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.0).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }
}

/// When one written version of a document may have been, and surely was,
/// visible to readers, on the run clock.
struct Life {
    version: usize,
    /// The publishing commit started.
    may_from: u64,
    /// The publishing commit returned.
    sure_from: Option<u64>,
    /// The delete or replace that hides it started.
    may_to: Option<u64>,
    /// The delete or replace that hides it returned.
    sure_to: Option<u64>,
}

/// Every version of every document the benchmark wrote, and when each
/// version was visible. Writers stamp each publishing or hiding call both
/// before it starts and after it returns, so a reader checking concurrently
/// never sees a stale stamp.
#[derive(Default)]
pub struct DocBook {
    /// Sorted distinct tokens of each written version, per URI.
    versions: HashMap<String, Vec<Vec<String>>>,
    life: HashMap<String, Vec<Life>>,
    /// Per planted high-correlation query: documents some version of
    /// which holds every keyword (planting is per document, so every
    /// version of a planted document does).
    candidates: HashMap<String, Vec<String>>,
}

impl DocBook {
    pub fn write_version(&mut self, uri: &str, xml: &str) {
        let mut tokens = xrank_graph::tokenize(xml);
        tokens.sort_unstable();
        tokens.dedup();
        self.versions
            .entry(uri.to_string())
            .or_default()
            .push(tokens);
    }

    /// Records a document written and published before any reader ran.
    pub fn preloaded(&mut self, uri: &str, xml: &str) {
        self.write_version(uri, xml);
        self.publishing(uri, 0);
        self.published(uri, 0);
    }

    /// A commit that may publish the newest version of `uri` starts.
    pub fn publishing(&mut self, uri: &str, at: u64) {
        let version = self.versions.get(uri).map_or(0, |v| v.len() - 1);
        let life = Life {
            version,
            may_from: at,
            sure_from: None,
            may_to: None,
            sure_to: None,
        };
        self.life.entry(uri.to_string()).or_default().push(life);
    }

    pub fn published(&mut self, uri: &str, at: u64) {
        if let Some(l) = self.life.get_mut(uri).and_then(|l| l.last_mut()) {
            l.sure_from.get_or_insert(at);
        }
    }

    /// A delete or replace of `uri` starts.
    pub fn hiding(&mut self, uri: &str, at: u64) {
        if let Some(l) = self
            .life
            .get_mut(uri)
            .and_then(|l| l.last_mut())
            .filter(|l| l.may_to.is_none())
        {
            l.may_to = Some(at);
        }
    }

    pub fn hidden(&mut self, uri: &str, at: u64) {
        if let Some(l) = self
            .life
            .get_mut(uri)
            .and_then(|l| l.last_mut())
            .filter(|l| l.sure_to.is_none())
        {
            l.sure_to = Some(at);
        }
    }

    fn holds(&self, uri: &str, version: usize, keywords: &[String]) -> bool {
        keywords
            .iter()
            .all(|k| self.versions[uri][version].binary_search(k).is_ok())
    }

    /// Checks one result page of `q`, run between `start` and `end` on the
    /// run clock, against everything the benchmark wrote. These hold under
    /// any segment layout.
    pub fn check(
        &mut self,
        q: &MixQuery,
        hits: &[(String, f64)],
        start: u64,
        end: u64,
    ) -> Result<(), String> {
        if hits.len() > M {
            return Err(format!("{:?}: {} hits > m = {M}", q.text, hits.len()));
        }
        if hits.windows(2).any(|w| w[1].1 > w[0].1 || w[1].1.is_nan()) {
            return Err(format!("{:?}: scores not non-increasing", q.text));
        }
        for (uri, _) in hits {
            let lives = self
                .life
                .get(uri)
                .ok_or_else(|| format!("{:?}: hit in unpublished doc {uri}", q.text))?;
            let valid = lives.iter().any(|l| {
                l.may_from <= end
                    && l.sure_to.is_none_or(|t| t >= start)
                    && self.holds(uri, l.version, &q.keywords)
            });
            if !valid {
                return Err(format!(
                    "{:?}: {uri} had no version live while the query ran that holds every keyword",
                    q.text
                ));
            }
        }
        if q.high {
            // Exactly m hits whenever m documents holding every keyword
            // were surely live for the whole query.
            if !self.candidates.contains_key(&q.text) {
                let docs = self
                    .versions
                    .iter()
                    .filter(|(_, v)| {
                        v.iter()
                            .any(|t| q.keywords.iter().all(|k| t.binary_search(k).is_ok()))
                    })
                    .map(|(uri, _)| uri.clone())
                    .collect();
                self.candidates.insert(q.text.clone(), docs);
            }
            let live = self.candidates[&q.text]
                .iter()
                .filter(|uri| {
                    self.life.get(*uri).is_some_and(|lives| {
                        lives.iter().any(|l| {
                            l.sure_from.is_some_and(|t| t <= start)
                                && l.may_to.is_none_or(|t| t >= end)
                                && self.holds(uri, l.version, &q.keywords)
                        })
                    })
                })
                .take(M)
                .count();
            if hits.len() < live {
                return Err(format!(
                    "{:?}: planted high-correlation query gave {} hits, not {live}",
                    q.text,
                    hits.len()
                ));
            }
        }
        Ok(())
    }
}

/// Self-check hook: corrupts the first non-empty result page it sees, so
/// the run must report a failed check.
pub struct Forger(pub bool);

impl Forger {
    pub fn apply(&mut self, hits: &mut [(String, f64)]) {
        if self.0 && !hits.is_empty() {
            hits[0].0 = "forged/none".into();
            self.0 = false;
        }
    }
}
