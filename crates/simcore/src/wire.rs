//! Serialized link (wire) model.

use crate::Cycles;
use std::cell::Cell;

/// A serialized transmission medium with a fixed bit rate, e.g. the paper's
/// 40 Gb/s ethernet link.
///
/// The wire transmits one frame at a time in virtual time: a frame offered
/// at `now` starts no earlier than the end of the previous frame and
/// occupies the wire for `bytes / rate`. This is what caps aggregate
/// throughput at line rate in the 16-core experiments regardless of how
/// fast the cores run.
/// # Examples
///
/// ```
/// use simcore::{Cycles, Wire};
///
/// let wire = Wire::new(40.0, 2.4);
/// // Two back-to-back MTU frames serialize: 720 cycles each at 2.4 GHz.
/// assert_eq!(wire.transmit(Cycles(0), 1500), Cycles(720));
/// assert_eq!(wire.transmit(Cycles(0), 1500), Cycles(1440));
/// ```
#[derive(Debug)]
pub struct Wire {
    cyc_per_byte: f64,
    next_free: Cell<u64>,
}

impl Wire {
    /// Creates a wire with the given rate in Gb/s at the given CPU clock
    /// (used to express wire time in CPU cycles).
    pub fn new(rate_gbps: f64, clock_ghz: f64) -> Self {
        assert!(rate_gbps > 0.0, "wire rate must be positive");
        // cycles per byte = (8 bits / rate[bits/sec]) * clock[cycles/sec]
        let cyc_per_byte = 8.0 / (rate_gbps * 1e9) * (clock_ghz * 1e9);
        Wire {
            cyc_per_byte,
            next_free: Cell::new(0),
        }
    }

    /// Serialization time of a frame of `bytes` bytes.
    pub fn frame_time(&self, bytes: usize) -> Cycles {
        Cycles((bytes as f64 * self.cyc_per_byte).ceil() as u64)
    }

    /// Transmits a frame offered at `now`; returns the instant the frame is
    /// fully delivered at the far end.
    ///
    /// Frames queue FIFO: transmission starts at `max(now, wire free)`.
    pub fn transmit(&self, now: Cycles, bytes: usize) -> Cycles {
        let start = now.max(Cycles(self.next_free.get()));
        let end = start + self.frame_time(bytes);
        self.next_free.set(end.get());
        end
    }

    /// The instant the wire next becomes free.
    pub fn next_free(&self) -> Cycles {
        Cycles(self.next_free.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 40 Gb/s link at the 2.4 GHz testbed clock.
    fn forty_gbe() -> Wire {
        Wire::new(40.0, 2.4)
    }

    #[test]
    fn forty_gbe_mtu_frame_time() {
        // 40 Gb/s, 2.4 GHz: 0.48 cycles per byte; 1500 B = 720 cycles = 0.3us.
        let w = forty_gbe();
        assert_eq!(w.frame_time(1500), Cycles(720));
    }

    #[test]
    fn frames_serialize_fifo() {
        let w = forty_gbe();
        let d1 = w.transmit(Cycles(0), 1500);
        assert_eq!(d1, Cycles(720));
        // Offered while the wire is busy: queues behind frame 1.
        let d2 = w.transmit(Cycles(100), 1500);
        assert_eq!(d2, Cycles(1440));
        // Offered after the wire drains: starts immediately.
        let d3 = w.transmit(Cycles(5000), 1500);
        assert_eq!(d3, Cycles(5720));
        assert_eq!(w.next_free(), d3);
    }

    #[test]
    fn throughput_is_capped_at_line_rate() {
        let w = forty_gbe();
        let mut t = Cycles::ZERO;
        for _ in 0..10_000 {
            t = w.transmit(Cycles::ZERO, 1500);
        }
        let gbps = (10_000 * 1500 * 8) as f64 / t.to_secs(2.4) / 1e9;
        assert!((gbps - 40.0).abs() < 0.1, "rate = {gbps}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Wire::new(0.0, 2.4);
    }
}
