//! Figure 4: single-core TCP transmit (TX) throughput and CPU utilization
//! across message sizes.
//!
//! Exits non-zero unless, at 64 KB, the paper's shape holds: copy is the
//! only design at 100 % CPU (≥ 99 %), it is slower than every zero-copy
//! design, and every zero-copy design is within 1 % of no-iommu.

fn main() {
    let tables = bench::print_figure(
        "Figure 4: single-core TCP TX (netperf TCP_STREAM)",
        1,
        &bench::MSG_SIZES,
        netsim::tcp_stream_tx,
    );
    let (_, rows) = bench::MSG_SIZES
        .iter()
        .zip(&tables)
        .find(|(&size, _)| size == 64 * 1024)
        .expect("Figure 4 runs 64 KB messages");
    let engine = |name: &str| {
        rows.iter()
            .find(|r| r.engine == name)
            .unwrap_or_else(|| panic!("no {name} row"))
    };
    let (no, copy) = (engine("no iommu"), engine("copy"));
    for r in rows {
        assert_eq!(
            r.cpu >= 0.99,
            r.engine == "copy",
            "64 KB: {} at {:.1} % CPU; only copy pins the core",
            r.engine,
            r.cpu * 100.0
        );
        if r.engine == no.engine || r.engine == copy.engine {
            continue;
        }
        assert!(
            copy.gbps < r.gbps,
            "64 KB: copy {:.2} Gb/s is not below {} {:.2}",
            copy.gbps,
            r.engine,
            r.gbps
        );
        assert!(
            r.gbps >= 0.99 * no.gbps,
            "64 KB: {} {:.2} Gb/s is more than 1 % below no-iommu {:.2}",
            r.engine,
            r.gbps,
            no.gbps
        );
    }
}
