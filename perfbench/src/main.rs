//! The repository benchmark: three workloads over the XRANK serving path,
//! the paper's cold-cache harness and the ingest pipeline, each checked
//! answer by answer.
//!
//! ```text
//! xrank-perfbench --workload <serve_multiseg|paper_cold|ingest_churn>
//!                 --seed <n> --seconds <s> --trace <0|1>
//!                 [--scale <f>] [--forge-wrong-hit]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced one. Everything the
//! run measured, with sample counts and host facts, also goes to
//! `.perfbench_work/report-<workload>-seed<n>-trace<t>.json`, and a traced
//! run writes its spans beside it. `--scale` shrinks every corpus for the
//! self-check; `--forge-wrong-hit` corrupts one answer so the self-check
//! can see it counted as failed.

mod corpus;
mod host;
mod ingest;
mod ledger;
mod paper;
mod reader;
mod replay;
mod serve;
mod stats;

use stats::{Report, Tally};
use std::path::{Path, PathBuf};

/// Scratch space inside the checkout the benchmark runs from.
const WORK_DIR: &str = ".perfbench_work";

const WORKLOADS: [&str; 3] = ["serve_multiseg", "paper_cold", "ingest_churn"];

/// Metrics of an untraced run, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_xml_byte", "ratio"),
];

/// Wall-clock end-to-end metrics reported divided by `host.speed_factor`
/// (`qps` multiplied), so a host running slower or faster moves them less.
const CORRECTED: [&str; 3] = ["query_p50_us", "query_p99_us", "qps"];

/// Metrics of a traced run, with their units. A workload that bypasses a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 50] = [
    ("core.update.search_self_us", "us"),
    ("core.update.segment_passes", "count"),
    ("core.update.segments_live", "count"),
    ("core.update.add_p50_us", "us"),
    ("core.update.commit_p50_ms", "ms"),
    ("core.update.commit_p95_ms", "ms"),
    ("core.update.commit_build_ms", "ms"),
    ("core.update.commit_publish_ms", "ms"),
    ("core.update.delete_ms", "ms"),
    ("core.update.ingest_docs_per_s", "1/s"),
    ("core.wal.fsyncs_per_doc", "count"),
    ("core.compactor.folds", "count"),
    ("core.compactor.fold_ms", "ms"),
    ("core.compactor.rank_iterations", "count"),
    ("core.engine.tokenize_us", "us"),
    ("core.engine.present_us", "us"),
    ("core.engine.pass_self_us", "us"),
    ("query.processor_self_us", "us"),
    ("query.ta_loop_self_us", "us"),
    ("query.dewey_merge_us", "us"),
    ("query.range_scan_us", "us"),
    ("query.dil_fallback_self_us", "us"),
    ("query.hdil_switch_frac", "frac"),
    ("query.entries_scanned", "count"),
    ("query.btree_probes", "count"),
    ("index.blocks_decoded", "count"),
    ("index.blocks_skipped", "count"),
    ("index.list_open_us", "us"),
    ("index.build_ms", "ms"),
    ("index.bytes_per_posting", "B"),
    ("storage.btree.probe_us", "us"),
    ("storage.btree.probe_total_us", "us"),
    ("storage.btree.descents", "count"),
    ("storage.btree.memo_hits", "count"),
    ("storage.btree.seeks", "count"),
    ("storage.pool.logical_reads", "count"),
    ("storage.pool.physical_reads", "count"),
    ("storage.pool.seq_read_frac", "frac"),
    ("storage.pool.evictions", "count"),
    ("storage.write_bytes_per_xml_byte", "ratio"),
    ("storage.cold_cost_dil", "cost"),
    ("storage.cold_cost_rdil", "cost"),
    ("storage.cold_cost_hdil", "cost"),
    ("rank.elemrank_ms", "ms"),
    ("rank.iterations", "count"),
    ("graph.build_ms", "ms"),
    ("xml.parse_ms", "ms"),
    ("obs.trace_overhead_frac", "frac"),
    ("host.speed_factor", "ratio"),
    ("ledger.coverage_frac", "frac"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub forge: bool,
}

impl Args {
    /// `n` shrunk by `--scale`.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(40)
    }

    /// Set-ups of a run of a workload that sets up `untraced` times when
    /// untraced (`setup_s` is their median); a traced run sets up once.
    pub fn setups(&self, untraced: usize) -> usize {
        if self.trace {
            1
        } else {
            untraced
        }
    }
}

const USAGE: &str = "usage: xrank-perfbench --workload <serve_multiseg|paper_cold|ingest_churn> \
--seed <n> --seconds <s> --trace <0|1> [--scale <f>] [--forge-wrong-hit]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: 1.0,
        forge: false,
    };
    let mut seen = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--forge-wrong-hit" {
            args.forge = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value.clone(),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
        seen.push(flag);
    }
    for required in ["--workload", "--seed", "--seconds", "--trace"] {
        if !seen.iter().any(|f| f == required) {
            return Err(format!("missing {required}"));
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err("--scale must be in (0, 1]".into());
    }
    Ok(args)
}

/// Latency percentiles, throughput and host speed of a read loop.
pub fn report_reads(report: &mut Report, out: &reader::ReadOutcome, probe: &host::SpeedProbe) {
    report.percentile("query_p50_us", &out.latencies_us, 50.0, "us");
    report.percentile("query_p99_us", &out.latencies_us, 99.0, "us");
    let search_s = out.latencies_us.iter().sum::<f64>() / 1e6;
    report.set("qps", out.latencies_us.len() as f64 / search_s, "1/s");
    report.set("host.speed_factor", probe.factor(), "ratio");
    report.note("host.kernel_samples", probe.samples());
    for (query, us) in &out.by_query {
        report.note(&format!("query_median_us.{query}"), stats::median(us));
    }
}

fn output_path(args: &Args, kind: &str, ext: &str) -> PathBuf {
    Path::new(WORK_DIR).join(format!(
        "{kind}-{}-seed{}-trace{}.{ext}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ))
}

pub fn write_spans(spans: &ledger::Spans, args: &Args) {
    let path = output_path(args, "spans", "jsonl");
    spans.write_jsonl(&path).expect("write span file");
    eprintln!(
        "perfbench: {} spans in {}",
        spans.spans.len(),
        path.display()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work dir");

    let tally = Tally::default();
    let mut report = Report::default();
    match args.workload.as_str() {
        "serve_multiseg" => serve::run(&args, &work, &mut report, &tally),
        "paper_cold" => paper::run(&args, &mut report, &tally),
        _ => ingest::run(&args, &work, &mut report, &tally),
    }
    let _ = std::fs::remove_dir_all(&work);
    report.set("peak_rss_mb", host::peak_rss_mb(), "MB");

    let factor = report.metrics.get("host.speed_factor").map_or(1.0, |m| m.0);
    for (name, _) in END_TO_END {
        if let Some((value, _)) = report.metrics.get(name).copied() {
            report.note(&format!("raw.{name}"), value);
        }
    }
    for name in CORRECTED {
        if let Some(m) = report.metrics.get_mut(name) {
            m.0 = if name == "qps" {
                m.0 * factor
            } else {
                m.0 / factor
            };
        }
    }
    let (attempted, failed) = (tally.attempted(), tally.failed());
    report.set(
        "ops_failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac",
    );
    for (key, value) in [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("scale", args.scale.to_string()),
        ("cpu_model", host::cpu_model()),
        ("nproc", host::nproc().to_string()),
        ("corrected_by_speed_factor", CORRECTED.join(",")),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
    ] {
        report.note(key, value);
    }
    let all = stats::metrics_json(&report, |_| true);
    let path = output_path(&args, "report", "json");
    let text = format!(
        "{{\"metrics\": {all}, \"context\": {}}}\n",
        stats::context_json(&report)
    );
    std::fs::write(&path, text).expect("write report file");
    eprintln!("perfbench: full report in {}", path.display());

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in wanted {
        match report.metrics.get(*name) {
            Some((_, u)) => assert_eq!(u, unit, "{name} measured in {u}, declared in {unit}"),
            None if args.trace => report.set(name, 0.0, unit),
            None => panic!("end-to-end metric {name} was not measured"),
        }
    }
    let metrics = stats::metrics_json(&report, |name| wanted.iter().any(|(n, _)| *n == name));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
}
