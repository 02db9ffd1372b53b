//! A miniature `netperf`: runs the TCP_STREAM RX/TX and TCP_RR workloads
//! against a protection engine of your choice and prints the numbers the
//! paper's figures report.
//!
//! Run with: `cargo run --release --example netperf -- [engine] [cores] [msg_size]`
//!   engine   no-iommu, or a figure-legend name: copy identity+ identity-
//!            eiovar+ eiovar- strict defer (default copy)
//!   cores    1..=16 (default 1)
//!   msg_size message size in bytes (default 65536)

use dma_shadowing::netsim::{
    format_breakdown_us, tcp_rr, tcp_stream_rx, tcp_stream_tx, EngineKind, ExpConfig,
};

fn parse_engine(s: &str) -> EngineKind {
    match s {
        "no-iommu" | "noiommu" => EngineKind::NoIommu,
        _ => EngineKind::from_name(s).unwrap_or_else(|| {
            eprintln!("unknown engine {s:?}; using copy");
            EngineKind::Copy
        }),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let engine = parse_engine(&args.next().unwrap_or_else(|| "copy".into()));
    let cores: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .clamp(1, 16);
    let msg_size: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64 * 1024)
        .clamp(16, 64 * 1024);

    let cfg = ExpConfig {
        cores,
        msg_size,
        items_per_core: 10_000,
        warmup_per_core: 1_000,
        ..ExpConfig::default()
    };

    println!(
        "engine={} cores={cores} msg_size={msg_size}B\n",
        engine.name()
    );

    let rx = tcp_stream_rx(engine, &cfg);
    println!(
        "TCP_STREAM RX : {:>7.2} Gb/s  cpu {:>5.1}%  ({} packets)",
        rx.gbps,
        rx.cpu * 100.0,
        rx.items
    );
    println!(
        "                {}",
        format_breakdown_us(&rx.per_item, rx.clock_ghz)
    );

    let tx = tcp_stream_tx(engine, &cfg);
    println!(
        "TCP_STREAM TX : {:>7.2} Gb/s  cpu {:>5.1}%  ({} TSO buffers)",
        tx.gbps,
        tx.cpu * 100.0,
        tx.items
    );
    println!(
        "                {}",
        format_breakdown_us(&tx.per_item, tx.clock_ghz)
    );

    let rr_cfg = ExpConfig {
        cores: 1,
        items_per_core: 2_000,
        warmup_per_core: 200,
        ..cfg
    };
    let rr = tcp_rr(engine, &rr_cfg);
    println!(
        "TCP_RR        : {:>7.1} us round-trip  cpu {:>5.1}%",
        rr.latency_us.expect("rr latency"),
        rr.cpu * 100.0
    );

    if let Some(peak) = rx.shadow_bytes_peak {
        println!(
            "shadow memory : {:.2} MB permanently mapped for the device",
            peak as f64 / (1 << 20) as f64
        );
    }
}
