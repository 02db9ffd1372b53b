//! Planted fixture source: trips every source-level lint rule exactly
//! where `tests/lint.rs` expects — including forbid-unsafe, since this
//! crate root leaves out `#![forbid(unsafe_code)]`. Never compiled.

pub mod interproc;
pub mod protocol;

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn leak_to_disk(data: &[u8]) {
    fs::write("/tmp/leak", data).unwrap();
}

pub fn forge_address(base: u64, idx: u64) -> PhysAddr {
    PhysAddr(base + idx * 4096)
}

pub fn risky(v: Option<u32>) -> u32 {
    v.expect("fixture panic")
}

pub fn sloppy_count(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn exempt_region() {
        // unwrap inside #[cfg(test)] must NOT be reported.
        Some(1u32).unwrap();
    }
}
