//! Old stores: an index written before the current on-disk format must be
//! refused by `open` with a pointer to `xrank migrate`, and migrating it
//! must reproduce the rankings it served when it was written.
//!
//! The fixture under `tests/fixtures/v1_store/` (meta v2, store `FORMAT` 2,
//! uncompressed v1 lists) was written by the v1 list writers, which no
//! longer exist, over a 42-document corpus (`w1`, `w2` and `d0`..`d39`)
//! built with `with_rdil` and `with_naive`. `expected.txt` records every
//! hit each strategy returned at generation time (score as exact f64
//! bits). The test works on a temporary copy, so the fixture itself is
//! never modified.

use std::path::{Path, PathBuf};
use xrank_core::{EngineConfig, Strategy, XRankEngine};
use xrank_query::QueryOptions;

const QUERIES: &[&str] = &["xql language", "xql", "language", "ricardo xml", "workshop"];

const STRATEGIES: &[(Strategy, &str)] = &[
    (Strategy::Dil, "dil"),
    (Strategy::Rdil, "rdil"),
    (Strategy::Hdil, "hdil"),
    (Strategy::NaiveId, "naive_id"),
    (Strategy::NaiveRank, "naive_rank"),
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_store")
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), dest).unwrap();
        }
    }
}

fn run_queries(engine: &XRankEngine<xrank_storage::FileStore>) -> Vec<String> {
    let mut lines = Vec::new();
    for (strategy, sname) in STRATEGIES {
        for q in QUERIES {
            let opts = QueryOptions { top_m: 10, ..Default::default() };
            let res = engine.search_with(q, *strategy, &opts).unwrap();
            for hit in &res.hits {
                lines.push(format!("{sname}|{q}|{}|{:016x}", hit.dewey, hit.score.to_bits()));
            }
        }
    }
    lines
}

#[test]
fn v1_store_is_refused_then_migrates_to_identical_results() {
    let expected = std::fs::read_to_string(fixture_dir().join("expected.txt"))
        .expect("v1 fixture missing — see module docs");
    let dir = std::env::temp_dir().join(format!("xrank-v1-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&fixture_dir(), &dir);

    let err = XRankEngine::open(&dir, EngineConfig::default()).err().expect("must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("xrank migrate"), "{err}");

    let config = EngineConfig { with_rdil: true, with_naive: true, ..Default::default() };
    drop(XRankEngine::migrate(&dir, config).unwrap());
    let engine = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    let got = run_queries(&engine);
    let want: Vec<&str> = expected.lines().collect();
    assert_eq!(want.len(), 185, "fixture expectations changed");
    assert_eq!(got.len(), want.len(), "migrated store returned a different number of hits");
    for (g, w) in got.iter().zip(want.iter()) {
        assert_eq!(g, w, "migrated store result diverged");
    }
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
