//! The HDIL adaptive strategy — Section 4.4.2 of the paper.
//!
//! "We first start evaluating the query using RDIL, and periodically
//! monitor its performance to calculate (a) the time spent so far – t, and
//! (b) the number of results above the threshold so far – r. Based on
//! this, we estimate the remaining time for RDIL as (m-r)*t/r ... If this
//! estimated time is more than the expected time for DIL, we switch to
//! DIL."
//!
//! *Time* here is the simulated I/O cost of the buffer-pool ledger under a
//! [`CostModel`] — the same quantity the experiments plot — so the
//! adaptation responds to exactly what the figures measure. The DIL
//! estimate is computable a priori from the keyword lists' page counts
//! ("it mainly depends on the number of query keywords, and the size of
//! each query keyword inverted list"). A switch is also forced when a
//! rank-sorted prefix drains, since HDIL stores only a fraction of each
//! list in rank order (Section 4.4.1).

use crate::rdil_query::{RdilRun, StepOutcome};
use crate::score::QueryOptions;
use crate::{EvalStats, QueryError, QueryOutcome, SwitchDecision};
use xrank_graph::TermId;
use xrank_index::HdilIndex;
use xrank_obs::{EventData, QueryTrace, Stage, SwitchReason};
use xrank_storage::{BufferPool, CostModel, PageStore, StatsScope};

/// Steps between progress checks.
const CHECK_INTERVAL: u64 = 8;

/// Evaluates a conjunctive query over an [`HdilIndex`] with the adaptive
/// RDIL→DIL strategy.
pub fn evaluate<S: PageStore>(
    pool: &BufferPool<S>,
    index: &HdilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
    cost_model: &CostModel,
) -> Result<QueryOutcome, QueryError> {
    evaluate_traced(pool, index, terms, opts, cost_model, &QueryTrace::disabled())
}

/// [`evaluate`] with the switch decision — both cost estimates, the
/// trigger, and the fallback phase — recorded into `trace`.
pub fn evaluate_traced<S: PageStore>(
    pool: &BufferPool<S>,
    index: &HdilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
    cost_model: &CostModel,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let m = opts.top_m;
    // Per-term list stats, gathered once per query: the switch-cost check
    // below runs every CHECK_INTERVAL steps and must not re-ask the index
    // for quantities that cannot change mid-query.
    let term_stats =
        crate::access::TermStats::gather::<S, HdilIndex>(index, terms);
    let total_pages = term_stats.total_pages;
    // Expected DIL cost: one seek per keyword list, then sequential scans.
    let dil_estimate = total_pages.saturating_sub(terms.len() as u64) as f64
        * cost_model.seq_cost
        + terms.len() as f64 * cost_model.rand_cost;

    // Thread-local attribution: under a concurrent driver the pool's
    // global ledger mixes every in-flight query, which would corrupt the
    // spent-so-far estimate driving the switch decision.
    let scope = StatsScope::begin();

    // Under budget pressure the random-probe RDIL phase is a losing bet:
    // each TA step costs probes + range scans, and a budget that cannot
    // even cover the sequential DIL scan certainly cannot fund RDIL's
    // random I/O on top. Skip straight to the DIL fallback so every
    // budgeted page goes to the strategy with the best completion odds.
    let budget_pressure = opts
        .io_budget
        .is_some_and(|budget| budget < total_pages.saturating_mul(2));
    let (decision, rdil_stats) = if budget_pressure {
        let decision = SwitchDecision {
            spent: 0.0,
            rdil_remaining: None,
            dil_estimate,
            confirmed: 0,
            reason: SwitchReason::BudgetPressure,
        };
        (decision, EvalStats::default())
    } else {
        let mut run: RdilRun<'_, S, HdilIndex> = RdilRun::new(pool, index, terms, opts, trace)?;
        let ta_span = trace.span(Stage::TaLoop);
        let mut steps = 0u64;
        let decision: SwitchDecision = loop {
            match run.step(pool)? {
                StepOutcome::Done | StepOutcome::Degraded => {
                    drop(ta_span);
                    return Ok(run.finish());
                }
                StepOutcome::PrefixExhausted => {
                    // Must fall back: HDIL stores only a rank-sorted prefix.
                    break SwitchDecision {
                        spent: cost_model.cost(&scope.so_far()),
                        rdil_remaining: None,
                        dil_estimate,
                        confirmed: run.confirmed_results(),
                        reason: SwitchReason::PrefixExhausted,
                    };
                }
                StepOutcome::Continue => {}
            }
            steps += 1;
            if !steps.is_multiple_of(CHECK_INTERVAL) {
                continue;
            }
            // Progress check.
            let spent = cost_model.cost(&scope.so_far());
            let r = run.confirmed_results();
            if r == 0 {
                // No confirmed result yet — the signature of uncorrelated
                // keywords. Cut losses after a quarter of the DIL budget so
                // the total stays "a slight overhead" over DIL (Section 5.4).
                if spent > dil_estimate / 4.0 {
                    break SwitchDecision {
                        spent,
                        rdil_remaining: None,
                        dil_estimate,
                        confirmed: 0,
                        reason: SwitchReason::NoProgressBudget,
                    };
                }
            } else if r < m {
                let estimated_remaining = (m - r) as f64 * spent / r as f64;
                if estimated_remaining > dil_estimate {
                    break SwitchDecision {
                        spent,
                        rdil_remaining: Some(estimated_remaining),
                        dil_estimate,
                        confirmed: r,
                        reason: SwitchReason::EstimateExceeded,
                    };
                }
            } // r >= m: about to finish; stay
        };
        drop(ta_span);
        (decision, run.stats())
    };
    trace.event(
        Stage::SwitchDecision,
        EventData::Switch {
            spent: decision.spent,
            rdil_remaining: decision.rdil_remaining,
            dil_estimate: decision.dil_estimate,
            confirmed: decision.confirmed,
            reason: decision.reason,
        },
    );

    // Fall back: run the DIL algorithm over the full Dewey-sorted lists.
    // The fallback inherits whatever budget the RDIL phase left unspent
    // (its guard meters a fresh scope, so the hand-off must be explicit).
    let fallback_opts = match opts.io_budget {
        Some(budget) => {
            let spent_pages = scope.so_far().logical_reads();
            QueryOptions {
                io_budget: Some(budget.saturating_sub(spent_pages)),
                ..opts.clone()
            }
        }
        None => opts.clone(),
    };
    let fallback_span = trace.span(Stage::DilFallback);
    let mut outcome =
        crate::dil_query::evaluate_traced(pool, &index.dil, terms, &fallback_opts, trace)?;
    drop(fallback_span);
    outcome.stats = EvalStats {
        entries_scanned: outcome.stats.entries_scanned + rdil_stats.entries_scanned,
        btree_probes: rdil_stats.btree_probes,
        probe_memo_hits: rdil_stats.probe_memo_hits,
        cursor_seeks: rdil_stats.cursor_seeks,
        cursor_seeks_back: rdil_stats.cursor_seeks_back,
        cursor_descents: rdil_stats.cursor_descents,
        hash_probes: 0,
        range_scans: rdil_stats.range_scans,
        blocks_decoded: outcome.stats.blocks_decoded + rdil_stats.blocks_decoded,
        blocks_skipped: outcome.stats.blocks_skipped + rdil_stats.blocks_skipped,
        switch: Some(decision),
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_graph::{Collection, CollectionBuilder};
    use xrank_index::extract::direct_postings;
    use xrank_index::DilIndex;
    use xrank_storage::MemStore;

    fn setup(xml: &str) -> (BufferPool<MemStore>, DilIndex, HdilIndex, Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", xml).unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let postings = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let dil = DilIndex::build(&mut pool, &postings).unwrap();
        let hdil = HdilIndex::build(&mut pool, &postings).unwrap();
        (pool, dil, hdil, c)
    }

    fn terms(c: &Collection, kws: &[&str]) -> Vec<TermId> {
        kws.iter().map(|k| c.vocabulary().lookup(k).unwrap()).collect()
    }

    /// High-correlation corpus: keywords co-occur, RDIL path confirms
    /// results fast, no switch expected.
    #[test]
    fn stays_on_rdil_when_keywords_correlate() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<e{i}>alpha beta together {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, dil, hdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        assert!(out.stats.switch.is_none(), "correlated keywords should finish on RDIL");
        // and results agree with DIL
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert_eq!(out.results.len(), d.results.len());
        for (a, b) in out.results.iter().zip(d.results.iter()) {
            assert_eq!(a.dewey, b.dewey);
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    /// Low-correlation corpus: the keywords never co-occur except once,
    /// far down both rank lists — HDIL must switch to DIL yet still return
    /// the right answer.
    #[test]
    fn switches_to_dil_when_keywords_do_not_correlate() {
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<a{i}>alpha solo {i}</a{i}><b{i}>beta solo {i}</b{i}>"));
        }
        xml.push_str("<rare>alpha beta</rare></r>");
        let (pool, dil, hdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 5, ..Default::default() };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert_eq!(out.results.len(), d.results.len());
        for (a, b) in out.results.iter().zip(d.results.iter()) {
            assert_eq!(a.dewey, b.dewey);
            assert!((a.score - b.score).abs() < 1e-9);
        }
        // The single co-occurrence sits at an arbitrary rank position; the
        // prefix very likely drains or the estimate blows up first.
        assert!(out.stats.switch.is_some(), "uncorrelated keywords should fall back to DIL");
    }

    #[test]
    fn agrees_with_dil_across_m_values() {
        let mut xml = String::from("<corpus>");
        for i in 0..120 {
            xml.push_str(&format!(
                "<doc{i}><h>gamma head</h><p>delta paragraph {}</p><z>gamma delta close</z></doc{i}>",
                i % 5
            ));
        }
        xml.push_str("</corpus>");
        let (pool, dil, hdil, c) = setup(&xml);
        let q = terms(&c, &["gamma", "delta"]);
        for m in [1usize, 4, 25] {
            let opts = QueryOptions { top_m: m, ..Default::default() };
            let h = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
            let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
            assert_eq!(h.results.len(), d.results.len(), "m={m}");
            for (a, b) in h.results.iter().zip(d.results.iter()) {
                assert_eq!(a.dewey, b.dewey, "m={m}");
                assert!((a.score - b.score).abs() < 1e-9, "m={m}");
            }
        }
    }

    #[test]
    fn budget_pressure_skips_rdil_entirely() {
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<e{i}>alpha beta together {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, _, hdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions {
            top_m: 5,
            io_budget: Some(1),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        assert!(out.stats.switch.is_some(), "budget pressure must force the DIL fallback");
        let decision = out.stats.switch.expect("switch decision recorded");
        assert_eq!(decision.reason, SwitchReason::BudgetPressure);
        assert_eq!(out.stats.btree_probes, 0, "RDIL phase must not have run");
        assert_eq!(
            out.degraded,
            Some(xrank_obs::DegradeReason::IoBudget),
            "a 1-page budget cannot finish the scan"
        );
        // A generous budget is not pressure: the run completes normally.
        let roomy = QueryOptions {
            top_m: 5,
            io_budget: Some(1_000_000),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &hdil, &q, &roomy, &CostModel::default()).unwrap();
        assert!(out.degraded.is_none());
        assert!(out.stats.switch.is_none());
    }

    #[test]
    fn degraded_rdil_phase_returns_partial_not_error() {
        let mut xml = String::from("<r>");
        for i in 0..200 {
            xml.push_str(&format!("<e{i}>gamma delta {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, _, hdil, c) = setup(&xml);
        let q = terms(&c, &["gamma", "delta"]);
        let opts = QueryOptions {
            top_m: 5,
            timeout: Some(std::time::Duration::ZERO),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &hdil, &q, &opts, &CostModel::default()).unwrap();
        assert_eq!(out.degraded, Some(xrank_obs::DegradeReason::Deadline));
    }

    #[test]
    fn missing_keyword() {
        let (pool, _, hdil, c) = setup("<r><a>here text</a></r>");
        let here = c.vocabulary().lookup("here").unwrap();
        let out = evaluate(
            &pool,
            &hdil,
            &[here, TermId(55_555)],
            &QueryOptions::default(),
            &CostModel::default(),
        )
        .unwrap();
        assert!(out.results.is_empty());
    }
}
