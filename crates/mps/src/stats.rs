//! Per-rank instrumentation.
//!
//! Communication time, byte volume, and message counts are the raw
//! material for the paper's Figure 3 (communication fraction) and the
//! cost analysis of §5.4, so every send/recv on a [`crate::Comm`]
//! feeds the counters here. Named phase timings live in the
//! `tc_metrics` registry, fed by trace spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Communication counters for one rank.
///
/// All fields are cumulative over the rank's lifetime.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CommStats {
    /// Payload bytes passed to `send*`.
    pub bytes_sent: u64,
    /// Messages passed to `send*`.
    pub msgs_sent: u64,
    /// Payload bytes returned by `recv*`.
    pub bytes_recv: u64,
    /// Messages returned by `recv*`.
    pub msgs_recv: u64,
    /// Nanoseconds spent inside `send*` (serialization + enqueue).
    pub send_ns: u64,
    /// Nanoseconds spent blocked inside `recv*`.
    pub recv_ns: u64,
}

impl CommStats {
    /// Total time attributed to communication.
    pub fn comm_time(&self) -> Duration {
        Duration::from_nanos(self.send_ns + self.recv_ns)
    }

    /// Element-wise sum, used when aggregating over ranks.
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes_sent += other.bytes_sent;
        self.msgs_sent += other.msgs_sent;
        self.bytes_recv += other.bytes_recv;
        self.msgs_recv += other.msgs_recv;
        self.send_ns += other.send_ns;
        self.recv_ns += other.recv_ns;
    }
}

/// Counter block for one rank, written by that rank's thread but
/// readable from any thread (relaxed atomics), so a rank assembling a
/// timeout report can snapshot every peer's counters.
#[derive(Debug, Default)]
pub(crate) struct SharedStats {
    pub bytes_sent: AtomicU64,
    pub msgs_sent: AtomicU64,
    pub bytes_recv: AtomicU64,
    pub msgs_recv: AtomicU64,
    pub send_ns: AtomicU64,
    pub recv_ns: AtomicU64,
}

impl SharedStats {
    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            msgs_recv: self.msgs_recv.load(Ordering::Relaxed),
            send_ns: self.send_ns.load(Ordering::Relaxed),
            recv_ns: self.recv_ns.load(Ordering::Relaxed),
        }
    }
}

/// Reliable-delivery counters for one rank, all zero unless a
/// [`crate::FaultPlan`] is installed (the transport does not exist
/// otherwise — see the chaos-off bypass tests).
///
/// Sender-side events (`frames_sent`, `retransmits`, `injected_*`)
/// accrue to the sending rank; receiver-side events (`corrupt_frames`,
/// `dup_frames`, `reordered_frames`, `nacks`) to the receiving rank.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Application payloads framed and first-transmitted.
    pub frames_sent: u64,
    /// Frames re-put on the wire by receiver-driven recovery.
    pub retransmits: u64,
    /// Frames the fault plan dropped.
    pub injected_drops: u64,
    /// Frames the fault plan duplicated.
    pub injected_dups: u64,
    /// Frames the fault plan held back (reordered).
    pub injected_reorders: u64,
    /// Frames the fault plan delayed.
    pub injected_delays: u64,
    /// Frames the fault plan truncated or bit-flipped.
    pub injected_corruptions: u64,
    /// Damaged frames detected (length/CRC32c mismatch) and discarded.
    pub corrupt_frames: u64,
    /// Duplicate frames discarded by sequence-number dedup.
    pub dup_frames: u64,
    /// Out-of-order frames parked in the reorder buffer.
    pub reordered_frames: u64,
    /// Deepest reorder buffer observed (frames parked at once).
    pub reorder_depth_max: u64,
    /// Parked frames shed by the reorder buffer's capacity bound; each
    /// eviction schedules an immediate NACK so the recovered gap also
    /// re-covers the evicted sequence numbers.
    pub reorder_evicted: u64,
    /// Recovery rounds driven (NACK + retransmit requests).
    pub nacks: u64,
}

impl ReliabilityStats {
    /// Aggregates over ranks: sums counters, maxes the depth gauge.
    pub fn merge(&mut self, other: &ReliabilityStats) {
        self.frames_sent += other.frames_sent;
        self.retransmits += other.retransmits;
        self.injected_drops += other.injected_drops;
        self.injected_dups += other.injected_dups;
        self.injected_reorders += other.injected_reorders;
        self.injected_delays += other.injected_delays;
        self.injected_corruptions += other.injected_corruptions;
        self.corrupt_frames += other.corrupt_frames;
        self.dup_frames += other.dup_frames;
        self.reordered_frames += other.reordered_frames;
        self.reorder_depth_max = self.reorder_depth_max.max(other.reorder_depth_max);
        self.reorder_evicted += other.reorder_evicted;
        self.nacks += other.nacks;
    }

    /// Whether any reliability machinery fired at all.
    pub fn is_zero(&self) -> bool {
        *self == ReliabilityStats::default()
    }
}

/// Atomic twin of [`ReliabilityStats`], one per rank in the transport.
#[derive(Debug, Default)]
pub(crate) struct SharedReliabilityStats {
    pub frames_sent: AtomicU64,
    pub retransmits: AtomicU64,
    pub injected_drops: AtomicU64,
    pub injected_dups: AtomicU64,
    pub injected_reorders: AtomicU64,
    pub injected_delays: AtomicU64,
    pub injected_corruptions: AtomicU64,
    pub corrupt_frames: AtomicU64,
    pub dup_frames: AtomicU64,
    pub reordered_frames: AtomicU64,
    pub reorder_depth_max: AtomicU64,
    pub reorder_evicted: AtomicU64,
    pub nacks: AtomicU64,
}

impl SharedReliabilityStats {
    pub(crate) fn snapshot(&self) -> ReliabilityStats {
        ReliabilityStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            injected_dups: self.injected_dups.load(Ordering::Relaxed),
            injected_reorders: self.injected_reorders.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
            injected_corruptions: self.injected_corruptions.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
            dup_frames: self.dup_frames.load(Ordering::Relaxed),
            reordered_frames: self.reordered_frames.load(Ordering::Relaxed),
            reorder_depth_max: self.reorder_depth_max.load(Ordering::Relaxed),
            reorder_evicted: self.reorder_evicted.load(Ordering::Relaxed),
            nacks: self.nacks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_stats_merge() {
        let mut a = CommStats { bytes_sent: 10, msgs_sent: 1, ..Default::default() };
        let b = CommStats { bytes_sent: 5, msgs_recv: 2, recv_ns: 100, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.bytes_sent, 15);
        assert_eq!(a.msgs_sent, 1);
        assert_eq!(a.msgs_recv, 2);
        assert_eq!(a.comm_time(), Duration::from_nanos(100));
    }

    #[test]
    fn merge_is_commutative_and_identity_on_default() {
        let a = CommStats {
            bytes_sent: 10,
            msgs_sent: 1,
            bytes_recv: 7,
            msgs_recv: 3,
            send_ns: 40,
            recv_ns: 60,
        };
        let b = CommStats {
            bytes_sent: 2,
            msgs_sent: 5,
            bytes_recv: 1,
            msgs_recv: 0,
            send_ns: 10,
            recv_ns: 0,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge order must not matter");
        let mut with_zero = a.clone();
        with_zero.merge(&CommStats::default());
        assert_eq!(with_zero, a, "default is the merge identity");
        assert_eq!(ab.comm_time(), Duration::from_nanos(110));
    }

    #[test]
    fn merge_fold_over_many_ranks_matches_fieldwise_sums() {
        let per_rank: Vec<CommStats> = (0..8u64)
            .map(|r| CommStats {
                bytes_sent: r * 100,
                msgs_sent: r,
                bytes_recv: r * 50,
                msgs_recv: r * 2,
                send_ns: r * 7,
                recv_ns: r * 11,
            })
            .collect();
        let mut total = CommStats::default();
        for s in &per_rank {
            total.merge(s);
        }
        let sum: u64 = (0..8).sum();
        assert_eq!(total.bytes_sent, sum * 100);
        assert_eq!(total.msgs_recv, sum * 2);
        assert_eq!(total.comm_time(), Duration::from_nanos(sum * 18));
    }

    #[test]
    fn shared_stats_snapshot_reflects_stores() {
        let s = SharedStats::default();
        s.bytes_sent.store(33, Ordering::Relaxed);
        s.recv_ns.store(44, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.bytes_sent, 33);
        assert_eq!(snap.recv_ns, 44);
        assert_eq!(snap.msgs_sent, 0);
    }
}
