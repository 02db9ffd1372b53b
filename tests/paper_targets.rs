//! `bench::TARGETS` holds the paper's claims as data and EXPERIMENTS.md is
//! the prose that cites them by row id. This keeps the two in lockstep — every
//! id the document cites is a row, and every row is cited — and checks, on
//! synthetic results, how a row turns into a verdict.

use bench::{Evidence, Paper, Target, Verdict, Work, TARGETS};
use dma_shadowing::netsim::ExpResult;
use dma_shadowing::simcore::Breakdown;
use std::collections::BTreeSet;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// The row ids `doc` cites: backticked words whose first dot-separated
/// segment is the figure key of one of `ids` (`fig4`, `table1`, `hints`…),
/// so `flush.peak_pending` or `target/figures.csv` are not mistaken for one.
fn cited<'a>(doc: &'a str, ids: &[&str]) -> BTreeSet<&'a str> {
    let figures: BTreeSet<&str> = ids.iter().filter_map(|id| id.split('.').next()).collect();
    let quoted = doc.split('`').skip(1).step_by(2);
    quoted
        .filter(|w| {
            w.split_once('.')
                .is_some_and(|(fig, _)| figures.contains(fig))
        })
        .collect()
}

/// (ids `doc` cites that are not rows, rows `doc` never cites)
fn differences(doc: &str, ids: &[&str]) -> (Vec<String>, Vec<String>) {
    let cited = cited(doc, ids);
    let rows: BTreeSet<&str> = ids.iter().copied().collect();
    let unknown = cited.difference(&rows).map(|s| s.to_string()).collect();
    let uncited = rows.difference(&cited).map(|s| s.to_string()).collect();
    (unknown, uncited)
}

#[test]
fn experiments_md_cites_every_target_and_only_targets() {
    let ids: Vec<&str> = TARGETS.iter().map(|t| t.id).collect();
    let unique: BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "a row id appears twice in TARGETS");
    let (unknown, uncited) = differences(EXPERIMENTS, &ids);
    assert!(
        unknown.is_empty(),
        "EXPERIMENTS.md cites ids that are not rows of bench::TARGETS: {unknown:?}"
    );
    assert!(
        uncited.is_empty(),
        "rows of bench::TARGETS that EXPERIMENTS.md never cites: {uncited:?}"
    );
}

#[test]
fn the_lockstep_check_sees_a_planted_difference() {
    let doc = "Fig. 4 rests on `fig4.a` and `fig4.typo`; `flush.peak_pending` \
               is a gauge and `target/figures.csv` a file.";
    let (unknown, uncited) = differences(doc, &["fig4.a", "fig4.b"]);
    assert_eq!(unknown, ["fig4.typo"]);
    assert_eq!(uncited, ["fig4.b"]);
    assert_eq!(differences(doc, &["fig4.a", "fig4.typo"]), (vec![], vec![]));
}

fn row(id: &str) -> &'static Target {
    TARGETS.iter().find(|t| t.id == id).expect("row in TARGETS")
}

/// A single-core 64 KB TX result with just the fields the rows read.
fn tx64k(engine: &'static str, gbps: f64, cpu: f64) -> ExpResult {
    ExpResult {
        engine,
        cores: 1,
        msg_size: 64 * 1024,
        gbps,
        cpu,
        items: 1,
        bytes: 64 * 1024,
        per_item: Breakdown::new(),
        clock_ghz: 2.4,
        latency_us: None,
        transactions_per_sec: None,
        shadow_bytes_peak: None,
    }
}

fn evidence(results: impl IntoIterator<Item = ExpResult>) -> Evidence {
    let mut e = Evidence::default();
    for r in results {
        e.insert(Work::Tx, r);
    }
    e
}

#[test]
fn a_holding_row_passes_and_a_broken_row_fails() {
    // Copy is the only design at 100 % CPU on 64 KB TX.
    let copy_cpu = row("fig4.tx64k.copy_cpu");
    assert!(copy_cpu.miss.is_none());
    let e = evidence([tx64k("copy", 36.41, 1.0)]);
    assert_eq!(copy_cpu.evaluate(&e), (1.0, Verdict::Holds));
    // A sender that idles after every TSO buffer leaves copy at 79.7 %.
    let e = evidence([tx64k("copy", 29.02, 0.797)]);
    assert_eq!(copy_cpu.evaluate(&e), (0.797, Verdict::Broken));
}

#[test]
fn a_known_miss_passes_while_it_misses_and_fails_as_stale_once_it_holds() {
    // The paper puts copy at 0.80–0.90x no-iommu on 64 KB TX; deviation 6.
    let ratio = row("fig4.tx64k.copy_vs_noiommu");
    assert_eq!(ratio.paper, Paper::Within(0.8, 0.9));
    assert!(ratio.miss.is_some_and(|why| why.starts_with("deviation 6")));
    let at = |copy_gbps| {
        evidence([
            tx64k("no iommu", 38.29, 0.568),
            tx64k("copy", copy_gbps, 1.0),
        ])
    };
    assert_eq!(ratio.evaluate(&at(36.41)).1, Verdict::ExpectedMiss);
    assert_eq!(ratio.evaluate(&at(32.0)).1, Verdict::Stale);
}

#[test]
fn copy_at_the_wire_rate_breaks_the_64k_tx_shape() {
    // Every engine that reaches the wire reads the same rate; a copy that
    // reached it too would no longer be alone below line rate.
    let slower = row("fig4.tx64k.copy_vs_slowest_zero_copy");
    let at = |copy_gbps| {
        evidence([
            tx64k("identity-", 38.29, 0.6),
            tx64k("identity+", 38.29, 0.8),
            tx64k("copy", copy_gbps, 1.0),
        ])
    };
    assert_eq!(slower.evaluate(&at(36.41)).1, Verdict::Holds);
    assert_eq!(slower.evaluate(&at(38.29)), (1.0, Verdict::Broken));
}

#[test]
fn relations_read_the_paper_as_stated() {
    assert!(Paper::Near(0.76).holds(0.833) && !Paper::Near(0.76).holds(0.84));
    // A stated range is read at two decimals: 1.2001 is 1.20, 1.206 is 1.21.
    assert!(Paper::Within(1.1, 1.2).holds(1.2001) && !Paper::Within(1.1, 1.2).holds(1.206));
    assert!(Paper::Within(0.8, 0.9).holds(0.8) && !Paper::Within(0.8, 0.9).holds(0.794));
    assert!(Paper::AtLeast(0.99).holds(0.99) && Paper::AtMost(0.0).holds(0.0));
    assert!(Paper::Below(0.99).holds(0.989) && !Paper::Below(0.99).holds(0.99));
    for paper in [
        Paper::Near(1.0),
        Paper::AtLeast(0.0),
        Paper::AtMost(1.0),
        Paper::Below(1.0),
    ] {
        assert!(
            !paper.holds(f64::NAN),
            "a reading that is not there never holds"
        );
    }
    assert_eq!(Paper::Within(1.0, 2.0).reference(), 1.5);
}
