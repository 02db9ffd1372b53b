//! Experiment-shape integration tests: small/fast versions of the paper's
//! figures asserting the qualitative results — who wins, by roughly what
//! factor, where the crossovers fall. The full-size runs live in the
//! `bench` crate; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! What the paper says is stated once, in `bench::TARGETS`. Where a test
//! here holds a run to one of the paper's numbers, it evaluates that row on
//! its smaller runs ([`paper_rows`]); its other asserts are the simulator's
//! own shape (orderings, line rate, rough factors), which no row states.

use bench::{Evidence, Verdict, Work, TARGETS};
use dma_shadowing::netsim::{
    memcached, tcp_rr, tcp_stream_rx, tcp_stream_tx, EngineKind, ExpConfig, ExpResult,
};
use dma_shadowing::simcore::Phase;

fn cfg(cores: usize, msg: usize) -> ExpConfig {
    ExpConfig {
        cores,
        msg_size: msg,
        items_per_core: if cores > 1 { 1_000 } else { 4_000 },
        warmup_per_core: if cores > 1 { 150 } else { 400 },
        ..ExpConfig::default()
    }
}

/// Evaluates the `ids` rows of `bench::TARGETS` on `runs` of `work`: each
/// row must pass as `cargo bench --bench figures` passes it, holding or, for
/// a known miss, still missing.
fn paper_rows(work: Work, runs: &[&ExpResult], ids: &[&str]) {
    let mut e = Evidence::default();
    for &r in runs {
        e.insert(work, r.clone());
    }
    let failed: Vec<String> = ids
        .iter()
        .map(|&id| TARGETS.iter().find(|t| t.id == id).expect("row in TARGETS"))
        .filter_map(|t| {
            let (measured, verdict) = t.evaluate(&e);
            let passes = matches!(verdict, Verdict::Holds | Verdict::ExpectedMiss);
            (!passes).then(|| {
                format!(
                    "{}: {measured:.3} against {:?} is {verdict:?}",
                    t.id, t.paper
                )
            })
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn figure3_shape_single_core_rx() {
    // Large messages: no-iommu > copy > identity- >> identity+, with copy
    // at the paper's ~0.76x of no-iommu, ~1.1x identity- and ~2x identity+.
    let c = cfg(1, 64 * 1024);
    let no = tcp_stream_rx(EngineKind::NoIommu, &c);
    let copy = tcp_stream_rx(EngineKind::Copy, &c);
    let idm = tcp_stream_rx(EngineKind::IdentityMinus, &c);
    let idp = tcp_stream_rx(EngineKind::IdentityPlus, &c);
    assert!(no.gbps > copy.gbps && copy.gbps > idm.gbps && idm.gbps > idp.gbps);
    paper_rows(
        Work::Rx,
        &[&no, &copy, &idm, &idp],
        &[
            "fig3.rx64k.copy_vs_noiommu",
            "fig3.rx64k.copy_vs_identity_minus",
            "fig3.rx64k.copy_vs_identity_plus",
        ],
    );
}

#[test]
fn figure3_throughput_rises_with_message_size() {
    let small = tcp_stream_rx(EngineKind::NoIommu, &cfg(1, 64));
    let mid = tcp_stream_rx(EngineKind::NoIommu, &cfg(1, 4096));
    let large = tcp_stream_rx(EngineKind::NoIommu, &cfg(1, 64 * 1024));
    assert!(small.gbps < mid.gbps, "{} < {}", small.gbps, mid.gbps);
    assert!(mid.gbps <= large.gbps * 1.05);
    // At 64 B the sender can't even reach 3 Gb/s.
    assert!(small.gbps < 3.0);
}

#[test]
fn figure4_shape_single_core_tx() {
    // TX at 64 KB: copy pays full-buffer copies and is the slowest of the
    // protected designs (the paper's one case where zero-copy wins), the
    // only one at 100 % CPU. The paper's "10-20 % down" from no-iommu is a
    // known miss (deviation 6): the row must keep missing.
    let c = cfg(1, 64 * 1024);
    let no = tcp_stream_tx(EngineKind::NoIommu, &c);
    let copy = tcp_stream_tx(EngineKind::Copy, &c);
    let idp = tcp_stream_tx(EngineKind::IdentityPlus, &c);
    let idm = tcp_stream_tx(EngineKind::IdentityMinus, &c);
    assert!(
        copy.gbps < no.gbps,
        "copy {} vs no-iommu {}",
        copy.gbps,
        no.gbps
    );
    // copy is the only design with a large memcpy share.
    assert!(copy.per_item.get(Phase::Memcpy) > idp.per_item.get(Phase::Memcpy) * 10);
    paper_rows(
        Work::Tx,
        &[&no, &copy, &idm, &idp],
        &[
            "fig4.tx64k.copy_cpu",
            "fig4.tx64k.others_max_cpu",
            "fig4.tx64k.copy_vs_slowest_zero_copy",
            "fig4.tx64k.slowest_zero_copy_vs_noiommu",
            "fig4.tx64k.copy_vs_noiommu",
            "fig4.tx64k.copy_relcpu",
            "fig5.tx.copy_memcpy_us",
            "fig5.tx.copy_pollution_us",
        ],
    );
}

#[test]
fn figure6_shape_16core_rx() {
    let c = cfg(16, 64 * 1024);
    let no = tcp_stream_rx(EngineKind::NoIommu, &c);
    let copy = tcp_stream_rx(EngineKind::Copy, &c);
    let idm = tcp_stream_rx(EngineKind::IdentityMinus, &c);
    let idp = tcp_stream_rx(EngineKind::IdentityPlus, &c);
    // Everyone but identity+ reaches (near) line rate.
    for r in [&no, &copy, &idm] {
        assert!(r.gbps > 30.0, "{} only {}", r.engine, r.gbps);
    }
    paper_rows(
        Work::Rx,
        &[&no, &copy, &idm, &idp],
        &["fig6.rx64k.noiommu_vs_identity_plus"],
    );
    // identity+ burns all its CPU, mostly on the invalidation path.
    assert!(idp.cpu > 0.9);
    let iommu_share =
        idp.per_item.fraction(Phase::InvalidateIotlb) + idp.per_item.fraction(Phase::Spinlock);
    assert!(iommu_share > 0.5, "share {iommu_share}");
}

#[test]
fn figure7_shape_16core_tx() {
    // TX at 64 KB, 16 cores: TSO lowers the unmap rate, so identity+
    // closes the gap (the paper: "identity+ eventually manages to drive
    // 40 Gb/s, whereas for RX its throughput remains constant").
    let c = cfg(16, 64 * 1024);
    let no = tcp_stream_tx(EngineKind::NoIommu, &c);
    let copy = tcp_stream_tx(EngineKind::Copy, &c);
    let idp = tcp_stream_tx(EngineKind::IdentityPlus, &c);
    assert!(no.gbps > 30.0);
    assert!(copy.gbps > 25.0, "copy scales on TX too: {}", copy.gbps);
    paper_rows(
        Work::Tx,
        &[&no, &copy, &idp],
        &["fig7.tx64k.identity_plus_vs_noiommu"],
    );
    // And the RX/TX asymmetry itself:
    let idp_rx = tcp_stream_rx(EngineKind::IdentityPlus, &c);
    assert!(idp.gbps > idp_rx.gbps * 2.0, "TSO amortizes invalidations");
}

#[test]
fn figure9_latency_shape() {
    let small = tcp_rr(EngineKind::Copy, &cfg(1, 64));
    let large = tcp_rr(EngineKind::Copy, &cfg(1, 64 * 1024));
    let (ls, ll) = (small.latency_us.unwrap(), large.latency_us.unwrap());
    // 1024x the bytes, only a few times the latency.
    let ratio = ll / ls;
    assert!((2.0..12.0).contains(&ratio), "latency ratio {ratio}");
    // The designs are comparable at 1 KB; identity+'s waits on the
    // invalidation queue are a known miss (deviation 3).
    let rows = EngineKind::FIGURE_SET.map(|kind| tcp_rr(kind, &cfg(1, 1024)));
    let lat = |i: usize| rows[i].latency_us.unwrap();
    assert!(
        lat(2) <= lat(3),
        "identity- {} vs identity+ {}",
        lat(2),
        lat(3)
    );
    paper_rows(
        Work::Rr,
        &rows.each_ref(),
        &[
            "fig9.rr1k.copy_vs_noiommu",
            "fig9.rr1k.identity_plus_vs_noiommu",
        ],
    );
}

#[test]
fn figure11_memcached_shape() {
    let c = ExpConfig {
        cores: 16,
        msg_size: 1024,
        items_per_core: 600,
        warmup_per_core: 80,
        ..ExpConfig::default()
    };
    let no = memcached(EngineKind::NoIommu, &c);
    let copy = memcached(EngineKind::Copy, &c);
    let idp = memcached(EngineKind::IdentityPlus, &c);
    let t = |r: &ExpResult| r.transactions_per_sec.unwrap();
    // copy ~ no-iommu and identity+ several-fold worse; the paper's <2 %
    // and 6.6x are known misses (deviation 7).
    assert!(t(&copy) < t(&no) && t(&no) > 3.0 * t(&idp));
    paper_rows(
        Work::Kv,
        &[&no, &copy, &idp],
        &[
            "fig11.kv.copy_vs_noiommu",
            "fig11.kv.noiommu_vs_identity_plus",
        ],
    );
}

#[test]
fn figure5_breakdown_calibration() {
    // The headline per-packet numbers of Figure 5a (single-core RX):
    // copy: ~0.02 us pool mgmt + ~0.11 us memcpy; identity+: ~0.61 us
    // invalidation + ~0.17 us page-table work; and the 5.5x claim, copying
    // 1500 B beats an invalidation by ~5x.
    let c = cfg(1, 64 * 1024);
    let copy = tcp_stream_rx(EngineKind::Copy, &c);
    let idp = tcp_stream_rx(EngineKind::IdentityPlus, &c);
    paper_rows(
        Work::Rx,
        &[&copy, &idp],
        &[
            "fig5.rx.copy_mgmt_us",
            "fig5.rx.copy_memcpy_us",
            "fig5.rx.identity_plus_inval_us",
            "fig5.rx.identity_plus_pagetable_us",
            "fig5.rx.inval_vs_memcpy",
        ],
    );
}

#[test]
fn strict_baselines_are_worst() {
    // Figure 1: stock-Linux strict is the slowest design at both scales.
    for cores in [1usize, 16] {
        let c = cfg(cores, 1500);
        let strict = tcp_stream_rx(EngineKind::LinuxStrict, &c);
        for other in [
            EngineKind::NoIommu,
            EngineKind::Copy,
            EngineKind::IdentityMinus,
        ] {
            let r = tcp_stream_rx(other, &c);
            assert!(
                strict.gbps <= r.gbps,
                "{cores} cores: strict {} vs {} {}",
                strict.gbps,
                other,
                r.gbps
            );
        }
    }
}

#[test]
fn self_invalidating_hardware_matches_best_software() {
    // The §7 ablation engine: strict page protection at ~identity- cost,
    // with no invalidation at all.
    for cores in [1, 16] {
        let c = cfg(cores, 64 * 1024);
        let hw = tcp_stream_rx(EngineKind::SelfInvalHw, &c);
        let idm = tcp_stream_rx(EngineKind::IdentityMinus, &c);
        assert_eq!(hw.per_item.get(Phase::InvalidateIotlb).get(), 0);
        if cores == 1 {
            paper_rows(
                Work::Rx,
                &[&hw, &idm],
                &["selfinval.rx1c.vs_identity_minus"],
            );
        } else {
            // Beyond the paper's single-core point: both reach the wire.
            let gap = (hw.gbps - idm.gbps).abs();
            assert!(gap <= 0.01 * idm.gbps, "{} vs {}", hw.gbps, idm.gbps);
        }
    }
}
