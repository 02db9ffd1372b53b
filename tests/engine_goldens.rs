//! Simulated-result goldens: every engine's `items`, `bytes` and all eight
//! per-item phase cycle counts, pinned as integers on quick-scale RX
//! (16 cores, MTU messages), TX (1 core, 64 KB), RR (1 core, 64 B) and
//! memcached (16 cores, 1 KB values), each with `ExpConfig::percore` off
//! and on.
//!
//! The simulator is deterministic, so an engine refactor that claims
//! "figures unchanged" must leave `fixtures/engine_goldens.txt` matching to
//! the cycle. There is no bless switch and no hand editing: a failing run
//! writes the full actual table to `target/engine_goldens.actual.txt` and
//! prints the `cp` line, so an intended model change is one copied file and
//! one reviewed fixture diff (see `golden/mod.rs`).

mod golden;

use dma_shadowing::devices::MTU;
use dma_shadowing::netsim::{
    memcached, tcp_rr, tcp_stream_rx, tcp_stream_tx, EngineKind, ExpConfig, ExpResult,
};
use dma_shadowing::simcore::Phase;

const GOLDEN: golden::Golden = golden::Golden {
    name: "engine_goldens",
    text: include_str!("fixtures/engine_goldens.txt"),
};

struct Workload {
    name: &'static str,
    run: fn(EngineKind, &ExpConfig) -> ExpResult,
    cores: usize,
    msg_size: usize,
}

const RX: Workload = Workload {
    name: "rx_mtu_16c",
    run: tcp_stream_rx,
    cores: 16,
    msg_size: MTU,
};
const TX: Workload = Workload {
    name: "tx_64k_1c",
    run: tcp_stream_tx,
    cores: 1,
    msg_size: 64 * 1024,
};
const RR: Workload = Workload {
    name: "rr_64b_1c",
    run: tcp_rr,
    cores: 1,
    msg_size: 64,
};
const KV: Workload = Workload {
    name: "kv_1k_16c",
    run: memcached,
    cores: 16,
    msg_size: 1024,
};

/// One fixture line per (workload, percore, engine), in the fixture's order.
fn actual_rows(w: &Workload) -> Vec<String> {
    let engines = EngineKind::ALL.into_iter().chain([EngineKind::SelfInvalHw]);
    let mut rows = Vec::new();
    for percore in [false, true] {
        for kind in engines.clone() {
            let cfg = ExpConfig {
                cores: w.cores,
                msg_size: w.msg_size,
                percore,
                ..ExpConfig::quick()
            };
            let r = (w.run)(kind, &cfg);
            let mut row = format!(
                "{} percore={} {:?} {} {}",
                w.name,
                u8::from(percore),
                kind.name(),
                r.items,
                r.bytes
            );
            for phase in Phase::ALL {
                row.push_str(&format!(" {}", r.per_item.get(phase).get()));
            }
            rows.push(row);
        }
    }
    rows
}

fn check(w: &Workload) {
    GOLDEN.check(w.name, &actual_rows(w), || {
        [RX, TX, RR, KV].iter().flat_map(actual_rows).collect()
    });
}

#[test]
fn rx_mtu_16_cores_matches_goldens() {
    check(&RX);
}

#[test]
fn tx_64k_1_core_matches_goldens() {
    check(&TX);
}

#[test]
fn rr_64b_1_core_matches_goldens() {
    check(&RR);
}

#[test]
fn kv_1k_16_cores_matches_goldens() {
    check(&KV);
}
