//! # netsim — networking workloads over the simulated stack
//!
//! Reimplements the paper's evaluation workloads (§6) against the
//! simulated machine: a 16-core dual-socket host, a 40 Gb/s NIC, and one
//! of the paper's DMA protection engines.
//!
//! - [`tcp_stream_rx`] / [`tcp_stream_tx`] — netperf `TCP_STREAM`
//!   receive/transmit throughput, message sizes 64 B – 64 KB
//!   (Figures 1, 3, 4, 6, 7; breakdowns for Figures 5 and 8).
//! - [`tcp_rr`] — netperf TCP request/response latency (Figures 9, 10).
//! - [`memcached`] — a memcached/memslap-style key-value workload
//!   (Figure 11): 64 B keys, 1 KB values, 90 %/10 % GET/SET.
//!
//! Each workload is the body of one work item; what a measured run is
//! (warm-up boundary, window, estimator, teardown) is stated once, in the
//! private `harness` module, and contiguous transmit is the one-element
//! scatter/gather list from [`CoreDriver`] down to the NIC.
//!
//! Every workload drives the *functional* stack — kmalloc'd skbs, real
//! `dma_map`/`dma_unmap`, real NIC descriptor DMAs, real payload bytes that
//! are verified on delivery — while the virtual-time engine accounts
//! throughput, CPU utilization, and the per-phase packet-time breakdown.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod harness;
mod kv;
mod report;
mod rr;
mod setup;
mod stream;

pub use driver::{CoreDriver, HEADER_BYTES, SKB_OVERHEAD};
pub use kv::{memcached, memcached_on};
pub use report::{format_breakdown_us, format_table, merged_breakdown, ExpResult};
pub use rr::{tcp_rr, tcp_rr_on};
pub use setup::{EngineKind, ExpConfig, NetCounters, SimStack, NIC_DEV};
pub use stream::{tcp_stream_rx, tcp_stream_rx_on, tcp_stream_tx, tcp_stream_tx_on};
