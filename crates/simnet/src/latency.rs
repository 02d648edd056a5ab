//! Message-latency models.
//!
//! The paper's experiments parameterise the system by `Tmmax`, "the maximum
//! time of message passing between two concurrent execution threads"
//! (§3.2.3). The default model draws per-message latencies uniformly from
//! `(0, Tmmax]`, deterministically: the latency of the *k*-th message on a
//! link is a pure function of `(seed, src, dst, k)`, so a simulation replays
//! identically regardless of OS thread scheduling.
//!
//! An optional **acknowledgment timeout** models the behaviour the paper
//! observed past `Tmmax ≈ 1 s` (Figure 10): "the execution time will
//! increase dramatically once the time of message passing becomes longer
//! than one second". When a message's latency exceeds the ack timeout, the
//! sender's timer expires and it retransmits; each expiry waits out the
//! timeout and the retransmitted copy experiences the same latency, so the
//! effective delay becomes `L + ⌊L/T⌋ · (T + L)`.

use caa_core::ids::PartitionId;
use caa_core::time::VirtualDuration;

/// Strategy for assigning a latency to each message.
///
/// # Examples
///
/// ```
/// use caa_simnet::LatencyModel;
/// use caa_core::time::secs;
/// use caa_core::ids::PartitionId;
///
/// let model = LatencyModel::UniformUpTo(secs(0.2));
/// let (a, b) = (PartitionId::new(0), PartitionId::new(1));
/// let l = model.sample(42, a, b, 0);
/// assert!(l > secs(0.0) && l <= secs(0.2));
/// // Deterministic: same inputs, same latency.
/// assert_eq!(l, model.sample(42, a, b, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Fixed(VirtualDuration),
    /// Latency drawn uniformly from `(0, max]` — the paper's `Tmmax` bound.
    UniformUpTo(VirtualDuration),
}

impl LatencyModel {
    /// The latency of the `seq`-th message from `src` to `dst`.
    ///
    /// Pure and deterministic in all four arguments.
    #[inline]
    #[must_use]
    pub fn sample(
        &self,
        seed: u64,
        src: PartitionId,
        dst: PartitionId,
        seq: u64,
    ) -> VirtualDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::UniformUpTo(max) => {
                if max.is_zero() {
                    return VirtualDuration::ZERO;
                }
                let h = mix(
                    seed ^ 0x9e37_79b9_7f4a_7c15,
                    (u64::from(src.as_u32()) << 40) ^ (u64::from(dst.as_u32()) << 16) ^ seq,
                );
                // Map to (0, max]: never zero so causality is strict.
                let nanos = max.as_nanos();
                VirtualDuration::from_nanos((h % nanos) + 1)
            }
        }
    }

    /// The maximum latency this model can produce (the paper's `Tmmax`).
    #[must_use]
    pub fn max(&self) -> VirtualDuration {
        match *self {
            LatencyModel::Fixed(d) | LatencyModel::UniformUpTo(d) => d,
        }
    }
}

impl Default for LatencyModel {
    /// A negligible fixed latency (1 µs), suitable for unit tests.
    fn default() -> Self {
        LatencyModel::Fixed(VirtualDuration::from_micros(1))
    }
}

/// Applies the acknowledgment-timeout retransmission model: a message whose
/// raw latency `l` exceeds the timeout `t` is retransmitted `⌊l/t⌋` times,
/// each retransmission costing the elapsed timeout plus another delivery
/// attempt.
///
/// Returns the raw latency unchanged when `l ≤ t`.
///
/// # Examples
///
/// ```
/// use caa_simnet::effective_latency;
/// use caa_core::time::secs;
///
/// // Below the timeout nothing changes.
/// assert_eq!(effective_latency(secs(0.8), Some(secs(1.0))), secs(0.8));
/// // 1.5 s latency with a 1 s timer: one retransmission.
/// assert_eq!(
///     effective_latency(secs(1.5), Some(secs(1.0))),
///     secs(1.5 + (1.0 + 1.5)),
/// );
/// assert_eq!(effective_latency(secs(1.5), None), secs(1.5));
/// ```
#[inline]
#[must_use]
pub fn effective_latency(
    raw: VirtualDuration,
    ack_timeout: Option<VirtualDuration>,
) -> VirtualDuration {
    match ack_timeout {
        Some(t) if !t.is_zero() && raw > t => {
            let retx = raw.as_nanos() / t.as_nanos();
            let retx = u32::try_from(retx.min(64)).expect("capped at 64");
            raw.saturating_add((t.saturating_add(raw)) * retx)
        }
        _ => raw,
    }
}

/// SplitMix64 finaliser: a strong 64-bit mixer for deterministic sampling.
fn mix(seed: u64, value: u64) -> u64 {
    let mut z = seed
        .wrapping_add(value.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::time::secs;

    const A: PartitionId = PartitionId::new(0);
    const B: PartitionId = PartitionId::new(1);

    #[test]
    fn fixed_is_constant() {
        let m = LatencyModel::Fixed(secs(0.25));
        for seq in 0..10 {
            assert_eq!(m.sample(7, A, B, seq), secs(0.25));
        }
    }

    #[test]
    fn uniform_is_within_bounds_and_nonzero() {
        let m = LatencyModel::UniformUpTo(secs(1.0));
        for seq in 0..1000 {
            let l = m.sample(123, A, B, seq);
            assert!(l > VirtualDuration::ZERO, "latency must be positive");
            assert!(l <= secs(1.0), "latency must not exceed Tmmax");
        }
    }

    #[test]
    fn uniform_mean_is_near_half_max() {
        let m = LatencyModel::UniformUpTo(secs(2.0));
        let n = 4000;
        let total: f64 = (0..n)
            .map(|seq| m.sample(99, A, B, seq).as_secs_f64())
            .sum();
        let mean = total / f64::from(n as u32);
        assert!(
            (mean - 1.0).abs() < 0.05,
            "uniform(0, 2] mean should be ~1.0, got {mean}"
        );
    }

    #[test]
    fn sampling_is_deterministic_but_varies_by_inputs() {
        let m = LatencyModel::UniformUpTo(secs(1.0));
        assert_eq!(m.sample(1, A, B, 5), m.sample(1, A, B, 5));
        let distinct: std::collections::HashSet<u64> = (0..50)
            .map(|seq| m.sample(1, A, B, seq).as_nanos())
            .collect();
        assert!(distinct.len() > 40, "sequence should decorrelate latencies");
        assert_ne!(m.sample(1, A, B, 0), m.sample(2, A, B, 0));
        assert_ne!(m.sample(1, A, B, 0), m.sample(1, B, A, 0));
    }

    #[test]
    fn zero_max_yields_zero() {
        let m = LatencyModel::UniformUpTo(VirtualDuration::ZERO);
        assert_eq!(m.sample(1, A, B, 0), VirtualDuration::ZERO);
    }

    #[test]
    fn effective_latency_below_timeout_is_identity() {
        for l in [0.1, 0.5, 0.99, 1.0] {
            assert_eq!(
                effective_latency(secs(l), Some(secs(1.0))),
                secs(l),
                "latency {l} is within the ack timeout"
            );
        }
    }

    #[test]
    fn effective_latency_grows_superlinearly_past_timeout() {
        let t = Some(secs(1.0));
        let below = effective_latency(secs(0.9), t);
        let above = effective_latency(secs(1.8), t);
        // Doubling the raw latency across the knee multiplies the effective
        // latency by far more than 2.
        assert!(above.as_secs_f64() / below.as_secs_f64() > 3.0);
        // Two full timeouts: two retransmissions.
        assert_eq!(
            effective_latency(secs(2.5), t),
            secs(2.5) + (secs(1.0) + secs(2.5)) * 2
        );
    }

    #[test]
    fn effective_latency_without_timeout_is_identity() {
        assert_eq!(effective_latency(secs(5.0), None), secs(5.0));
        assert_eq!(
            effective_latency(secs(5.0), Some(VirtualDuration::ZERO)),
            secs(5.0)
        );
    }

    #[test]
    fn default_model_is_fast() {
        assert!(LatencyModel::default().max() < secs(0.001));
    }
}
