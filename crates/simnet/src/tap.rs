//! The record of one message, as a sender logs it.
//!
//! [`Endpoint::send`](crate::Endpoint::send) says what the network did with
//! a message ([`Sent`](crate::Sent)); a sender that keeps a log — the
//! CA-action runtime, when its run is recorded — writes that down as a
//! [`TapEvent`], with deterministic virtual timestamps and per-link
//! sequence numbers. The simulation-testing harness reconstructs
//! per-action message counts for the paper's §3.3.3 complexity bounds
//! from these records; they are equally useful for ad-hoc wire
//! diagnostics. Per-link `(src, dst, seq)` is deterministic and totally
//! ordered.

use caa_core::ids::PartitionId;
use caa_core::time::VirtualInstant;

/// One message-level network event: a message sent, lost or corrupted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TapEvent {
    /// The sending partition.
    pub src: PartitionId,
    /// The destination partition.
    pub dst: PartitionId,
    /// The message's class label (see [`Classify`](crate::Classify)).
    pub class: &'static str,
    /// The sender's correlation key for the message; the runtime logs the
    /// action-instance serial here.
    pub correlation: u64,
    /// Virtual send time.
    pub at: VirtualInstant,
    /// Scheduled virtual delivery time (equals `at` for lost messages).
    pub deliver_at: VirtualInstant,
    /// Per-link FIFO sequence number of this message. Lost messages
    /// consume a sequence slot too, so `(src, dst, seq)` uniquely
    /// identifies every accepted-or-lost message.
    pub seq: u64,
}
