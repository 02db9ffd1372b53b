//! The five workloads and the engines each one runs.
//!
//! Each workload is one netsim entry point at one configuration. They are
//! chosen so that every layer has a workload where it does the work and
//! one where it does not (see the README's "should move" table); the
//! `why` strings are repeated in `BENCHMARK.json` and a test keeps the two
//! in step.

use netsim::{EngineKind, ExpConfig};

/// Which netsim entry point a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `tcp_stream_rx_on` (the stack is ours, so it can be read afterwards).
    StreamRx,
    /// `tcp_stream_tx_on` (likewise).
    StreamTx,
    /// `tcp_rr` (builds its stack internally).
    Rr,
    /// `memcached` (builds its stack internally).
    Memcached,
}

/// One driver operation of a work item; the probes replay a workload's
/// shape as this sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One `CoreDriver::rx_one` (map `FromDevice`, NIC write, unmap).
    Rx,
    /// One `CoreDriver::tx_one` (map `ToDevice`, NIC read, unmap).
    Tx,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason for the workload's existence.
    pub why: &'static str,
    /// The netsim entry point.
    pub call: Call,
    /// Simulated cores; the loop is closed, so this is the client count.
    pub cores: usize,
    /// netperf message size (value size for memcached).
    pub msg_size: usize,
    /// Measured items per core.
    pub items_per_core: u64,
    /// Warm-up items per core.
    pub warmup_per_core: u64,
    /// Wire rate in Gb/s.
    pub wire_gbps: f64,
    /// `ExpConfig::percore`.
    pub percore: bool,
}

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "rx_mtu_16c",
        why: "Fig. 1/3/6 headline: a map+unmap per 1.5 KB packet under 16-core contention; scheduler, lock queueing, iommu and dma-api structures do the work, bytes are few",
        call: Call::StreamRx,
        cores: 16,
        msg_size: 1500,
        items_per_core: 10_000,
        warmup_per_core: 1_000,
        wire_gbps: 40.0,
        percore: false,
    },
    Workload {
        name: "tx_tso_1c",
        why: "Fig. 4: the engines the other way (ToDevice, copy-in at map, 64 KB shadow class, TSO), so memsim byte movement and devices dominate and scheduler and locks idle",
        call: Call::StreamTx,
        cores: 1,
        msg_size: 64 * 1024,
        items_per_core: 16_000,
        warmup_per_core: 1_600,
        wire_gbps: 40.0,
        percore: false,
    },
    Workload {
        name: "rr_64b_1c",
        why: "Fig. 9: one TX and one RX map/unmap per transaction, 64 B moved, no contention; only fixed per-operation costs (obs, dmasan, kmalloc, ring access) are left",
        call: Call::Rr,
        cores: 1,
        msg_size: 64,
        items_per_core: 100_000,
        warmup_per_core: 5_000,
        wire_gbps: 40.0,
        percore: false,
    },
    Workload {
        name: "kv_1k_16c",
        why: "Fig. 11: 90/10 GET/SET drawn from the seeded RNG, RX and TX interleaved under 16-core contention; the one workload whose operation mix depends on the seed",
        call: Call::Memcached,
        cores: 16,
        msg_size: 1024,
        items_per_core: 6_000,
        warmup_per_core: 600,
        wire_gbps: 40.0,
        percore: false,
    },
    Workload {
        name: "rx_64k_256c_percore",
        why: "Scaling-sweep ceiling: pool magazines, per-core IOVA caches and pending-invalidation rings run only here; 256 tasks stress the timing wheel and the one invalidation queue",
        call: Call::StreamRx,
        cores: 256,
        msg_size: 64 * 1024,
        items_per_core: 1_000,
        warmup_per_core: 100,
        wire_gbps: 640.0,
        percore: true,
    },
];

/// (workload, engine, panic message) triples that fail in the program as
/// it stands. The benchmark contract asks for workloads on which no
/// operation fails, so these are left out of a run unless
/// `--include-broken 1` asks for them (which `run.sh` does, to keep the
/// failure on record). Fixing the program and emptying this list is a
/// benchmark-only change.
pub const KNOWN_BROKEN: [(&str, EngineKind, &str); 1] = [(
    "rx_64k_256c_percore",
    EngineKind::EiovarStrict,
    "payload corrupted in delivery (eiovar+)",
)];

/// Bytes of the memcached request/response framing around keys and
/// values (`KEY_BYTES` + `PROTO_BYTES` in netsim's `kv.rs`, which are
/// private).
const KV_KEY_AND_PROTO: usize = 64 + 30;
const KV_PROTO: usize = 30;

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generated input: the only thing the program sees of `seed`.
    /// `scale` divides the item counts (tests run at 1/100).
    pub fn config(&self, seed: u64, scale: u64) -> ExpConfig {
        ExpConfig {
            cores: self.cores,
            msg_size: self.msg_size,
            items_per_core: (self.items_per_core / scale).max(1),
            warmup_per_core: (self.warmup_per_core / scale).max(1),
            wire_gbps: self.wire_gbps,
            percore: self.percore,
            seed,
            verify_data: true,
            ..ExpConfig::default()
        }
    }

    /// The engines a round runs, in `EngineKind::ALL` order.
    pub fn engines(&self, include_broken: bool) -> Vec<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .filter(|&k| include_broken || !self.is_known_broken(k))
            .collect()
    }

    /// True when `(self, kind)` is on the [`KNOWN_BROKEN`] list.
    pub fn is_known_broken(&self, kind: EngineKind) -> bool {
        KNOWN_BROKEN
            .iter()
            .any(|&(w, k, _)| w == self.name && k == kind)
    }

    /// True when the entry point takes a caller-built stack, so its
    /// registry, locks and sanitizer can be read after the run.
    pub fn exposes_stack(&self) -> bool {
        matches!(self.call, Call::StreamRx | Call::StreamTx)
    }

    /// The driver operations of one work item, in order.
    pub fn ops(&self) -> &'static [Op] {
        match self.call {
            Call::StreamRx => &[Op::Rx],
            Call::StreamTx => &[Op::Tx],
            Call::Rr => &[Op::Tx, Op::Rx],
            Call::Memcached => &[Op::Rx, Op::Tx],
        }
    }

    /// Payload bytes of one `op` of this workload. For memcached this is
    /// the 90 % case: a GET request in, a value out.
    pub fn payload_len(&self, op: Op) -> usize {
        match (self.call, op) {
            (Call::StreamRx, _) => devices::MTU,
            (Call::StreamTx, _) => self.msg_size.clamp(devices::MTU, 64 * 1024),
            (Call::Rr, _) => self.msg_size.max(8),
            (Call::Memcached, Op::Rx) => KV_KEY_AND_PROTO,
            (Call::Memcached, Op::Tx) => self.msg_size + KV_PROTO,
        }
    }

    /// `MultiCoreSim` task steps per work item (`tcp_rr` is a plain loop).
    pub fn steps_per_item(&self) -> u64 {
        match self.call {
            Call::StreamRx | Call::StreamTx => 1,
            Call::Rr => 0,
            Call::Memcached => 2,
        }
    }
}

/// The engine's name as metric names spell it (`identity+` →
/// `identity_plus`): metric names are limited to `[A-Za-z0-9_.-]`.
pub fn slug(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::NoIommu => "noiommu",
        EngineKind::Copy => "copy",
        EngineKind::IdentityPlus => "identity_plus",
        EngineKind::IdentityMinus => "identity_minus",
        EngineKind::LinuxStrict => "strict",
        EngineKind::LinuxDefer => "defer",
        EngineKind::EiovarStrict => "eiovar_plus",
        EngineKind::EiovarDefer => "eiovar_minus",
        EngineKind::SelfInvalHw => "selfinval",
    }
}
