//! Hybrid logical clocks (Kulkarni et al.): physical time for human
//! legibility, a logical component for causality.
//!
//! Every datagram and every telemetry record a node emits carries an
//! [`HlcStamp`] `(l, c)`: `l` is the largest physical timestamp (in
//! integer microseconds) the node has seen, `c` breaks ties among
//! events sharing one `l`. Stamps are totally ordered lexicographically
//! and respect causality — if event `a` happened-before event `b`
//! (same process, or `b` received a message carrying `a`'s stamp), then
//! `stamp(a) < stamp(b)` — so sorting the per-process JSONL traces of a
//! soak run by `(l, c, node)` yields a single history that never shows
//! an effect before its cause, even though the processes' wall clocks
//! were never synchronized. The merged-trace LFI audit leans on exactly
//! that property.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use mdr_proto::HlcStamp;

/// One process's hybrid logical clock.
///
/// Deterministic-core discipline: physical time arrives as an explicit
/// `now` argument (seconds), never from a syscall, so tests drive the
/// clock with a mock schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridClock {
    l: u64,
    c: u32,
}

fn micros(now: f64) -> u64 {
    // Negative or non-finite "physical" time clamps to zero: the clock
    // then degrades to a plain Lamport clock, which is still causally
    // sound.
    if now.is_finite() && now > 0.0 {
        (now * 1e6) as u64
    } else {
        0
    }
}

impl HybridClock {
    /// A clock that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current stamp without advancing (the stamp of the *previous*
    /// event).
    pub fn stamp(&self) -> HlcStamp {
        HlcStamp { l: self.l, c: self.c }
    }

    /// Advance for a local event (send or telemetry record) at physical
    /// time `now` (seconds) and return the event's stamp.
    pub fn tick(&mut self, now: f64) -> HlcStamp {
        let pt = micros(now);
        if pt > self.l {
            self.l = pt;
            self.c = 0;
        } else {
            self.c = self.c.saturating_add(1);
        }
        self.stamp()
    }

    /// Advance for a received message carrying `remote`, at physical
    /// time `now`, and return the receive event's stamp.
    pub fn observe(&mut self, remote: HlcStamp, now: f64) -> HlcStamp {
        let pt = micros(now);
        let l = self.l.max(remote.l).max(pt);
        self.c = if l == self.l && l == remote.l {
            self.c.max(remote.c).saturating_add(1)
        } else if l == self.l {
            self.c.saturating_add(1)
        } else if l == remote.l {
            remote.c.saturating_add(1)
        } else {
            0
        };
        self.l = l;
        self.stamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_ticks_strictly_increase() {
        let mut h = HybridClock::new();
        let a = h.tick(1.0);
        let b = h.tick(1.0); // same physical instant: logical tiebreak
        let c = h.tick(2.0);
        assert!(a < b && b < c);
        assert_eq!(a.l, 1_000_000);
        assert_eq!(b, HlcStamp { l: 1_000_000, c: 1 });
        assert_eq!(c, HlcStamp { l: 2_000_000, c: 0 });
    }

    #[test]
    fn observe_respects_causality_across_skewed_clocks() {
        // Sender's wall clock runs far ahead of the receiver's.
        let mut tx = HybridClock::new();
        let sent = tx.tick(100.0);
        let mut rx = HybridClock::new();
        let recv = rx.observe(sent, 0.5);
        assert!(sent < recv, "receive must order after send");
        // The receiver's next local event stays after the receive even
        // though its physical clock still reads 0.5 s.
        let next = rx.tick(0.5);
        assert!(recv < next);
    }

    #[test]
    fn observe_merges_equal_l_by_max_c() {
        let mut a = HybridClock { l: 10, c: 4 };
        let got = a.observe(HlcStamp { l: 10, c: 9 }, 0.0);
        assert_eq!(got, HlcStamp { l: 10, c: 10 });
    }

    #[test]
    fn pathological_physical_time_degrades_gracefully() {
        let mut h = HybridClock::new();
        let a = h.tick(f64::NAN);
        let b = h.tick(-5.0);
        assert!(a < b, "clock still advances on garbage physical time");
    }
}
