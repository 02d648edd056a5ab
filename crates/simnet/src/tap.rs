//! Network observation hooks.
//!
//! A [`NetTap`] attached to a [`Network`](crate::Network) (via
//! [`NetConfig::tap`](crate::NetConfig)) sees every message the network
//! accepts — including the ones fault injection then loses or corrupts —
//! with deterministic virtual timestamps and per-link sequence numbers.
//! The simulation-testing harness uses this to reconstruct per-action
//! message counts for the paper's §3.3.3 complexity bounds; it is equally
//! useful for ad-hoc wire diagnostics.
//!
//! Taps are invoked by the sender after the network's core has been
//! released — the thread host's mutex unlocked, the fiber host's borrow
//! ended — so a tap may read the network it taps (its counters, its
//! clock); it should be cheap and must not send. Implementations are
//! `Send + Sync` whichever host the network has: the thread host calls
//! them from concurrently running senders, whose events interleave in
//! arbitrary wall-clock order; per-link `(src, dst, seq)` is deterministic
//! and totally ordered.

use caa_core::ids::PartitionId;
use caa_core::time::VirtualInstant;

/// One observed network-level message event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapEvent {
    /// The sending partition.
    pub src: PartitionId,
    /// The destination partition.
    pub dst: PartitionId,
    /// The message's class label (see [`Classify`](crate::Classify)).
    pub class: &'static str,
    /// The message's correlation key
    /// ([`Classify::correlation`](crate::Classify::correlation)); the
    /// runtime reports the action-instance serial here.
    pub correlation: u64,
    /// Virtual send time.
    pub at: VirtualInstant,
    /// Scheduled virtual delivery time (meaningful for
    /// [`NetTap::on_sent`]; equals `at` for lost messages).
    pub deliver_at: VirtualInstant,
    /// Per-link FIFO sequence number of this message. Lost messages
    /// consume a sequence slot too, so `(src, dst, seq)` uniquely
    /// identifies every accepted-or-lost message.
    pub seq: u64,
}

/// Receives network-level message events.
pub trait NetTap: Send + Sync {
    /// A message was accepted and scheduled for delivery (possibly with a
    /// corrupted payload — see [`NetTap::on_corrupted`]).
    fn on_sent(&self, event: &TapEvent) {
        let _ = event;
    }

    /// Fault injection lost the message; it will never be delivered.
    fn on_dropped(&self, event: &TapEvent) {
        let _ = event;
    }

    /// Fault injection corrupted the message; it will be delivered with no
    /// payload (§3.4 treats this as the failure exception). Follows the
    /// corresponding [`NetTap::on_sent`].
    fn on_corrupted(&self, event: &TapEvent) {
        let _ = event;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sink;
    impl NetTap for Sink {}

    #[test]
    fn default_methods_are_noops() {
        let e = TapEvent {
            src: PartitionId::new(0),
            dst: PartitionId::new(1),
            class: "Msg",
            correlation: 7,
            at: VirtualInstant::EPOCH,
            deliver_at: VirtualInstant::EPOCH,
            seq: 0,
        };
        Sink.on_sent(&e);
        Sink.on_dropped(&e);
        Sink.on_corrupted(&e);
    }
}
