#!/bin/sh
# Local mirror of .github/workflows/ci.yml — fully offline.
set -eux
export CARGO_NET_OFFLINE=true
cargo build --release --workspace --all-targets
# Includes the two exact goldens: tests/engine_goldens.rs (simulated cycles)
# and tests/work_goldens.rs (host work: allocations, SimLock acquisitions,
# host lock holds, IOTLB/invalidation/obs counters). No step here compares a
# timing with a recorded baseline; host time is measured by the pipeline,
# from benchmark/.
cargo test -q --workspace
# The work goldens again in the release profile: their fixture promises the
# dev and release profiles give the same numbers, and this holds it to that.
cargo test --release -q --test work_goldens
# The standalone benchmark package binds to this workspace's public items
# by name (benchmark/README.md, "What the benchmark binds to"); its tests
# fail here, not in the pipeline, when a refactor breaks one. Read-only.
# One test is skipped: `known_broken_engines_are_counted_not_skipped` expects
# `eiovar+` to corrupt payloads on rx_64k_256c_percore, and since PR 18
# (per-core invalidation queues) it delivers every one — the signal
# benchmark/README.md "Known program bug" says to expect. The follow-up is a
# benchmark-only PR: empty `KNOWN_BROKEN`, move `sim_gbps.eiovar_plus` back
# among the end-to-end metrics, and drop this skip.
cargo test --offline -q --manifest-path benchmark/Cargo.toml -- \
    --skip known_broken_engines_are_counted_not_skipped
# Lint: one scan that reads and parses the workspace once (style,
# forbid-unsafe on every crate root, the DMA protocol rules the handle
# types cannot state, device-taint, dead-waiver) and writes the
# machine-readable report artifact from the same scan. It takes under a
# second and carries a wall-clock budget: if it ever gets slow enough to
# discourage running it, that is a CI failure, not a shrug.
cargo run -q --bin lint -- --json target/lint_report.json --budget-ms 60000
# Bounded model checking: prove the strict strategies hold the protection
# invariant within bounds and replay the committed deferred-invalidation
# counterexample. Deterministic (fixed bounds, no wall clock).
cargo run -q --release -p modelcheck --bin mc-suite
cargo fmt --all --check
# The A/B host-time script (scripts/ab.sh) parses; it is run by hand to
# measure a change against its parent, never here.
sh -n scripts/ab.sh
cargo clippy --workspace --all-targets -- -D warnings
# API docs build without a rustdoc warning (broken or ambiguous intra-doc
# links, links to private items, output-file collisions).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Observability: the Fig. 1 RX workload on every engine plus a
# malicious-device scan; prints Fig. 5 from the profile tree's depth-1 cut
# (that the cut equals the cores' breakdowns is a tier-1 test in
# netsim::harness), asserts every phase is non-zero, the trace pairs every
# DmaMap with its DmaUnmap and records every blocked probe, and writes the
# flamegraph/Perfetto artifacts under target/.
cargo run -q --release --bin report
# Scaling sweep: Figures 6-8 extended along the core-count axis
# (16/64/128/256 virtual cores, global vs per-core allocation state);
# writes the curve artifacts to target/scaling_curves.{csv,jsonl} and
# fails if percore strict / identity+ degrade from 64 to 256 cores or fall
# more than 2x behind copy at 64 (ROADMAP item 4's target); if percore
# defer / eiovar- degrade from 64 to 256, leave copy's curve by more than
# 5 % at any core count, or need more than 25 % CPU or 0.5 us spin/packet
# at 256; if percore eiovar+ differs from percore strict by more than 1 %;
# or if any global row moves (ROADMAP item 2(c)).
cargo bench -p bench --bench scaling
# The paper's evaluation in one run (Table 1, Figures 1 and 3-11, the §6
# footprint, the ablations): prints every table, writes
# target/figures.csv, and fails if a row of bench::TARGETS that should hold
# breaks (among them the 64 KB TX shape of Figure 4 and the §5.4 copy-back
# bound) or a known miss starts to hold.
cargo bench -p bench --bench figures
