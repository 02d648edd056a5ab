//! Fault injection for the simulated network.
//!
//! §3.4 extends the signalling algorithm to node/link faults: "the corrupted
//! message or lost message can be simply treated as a failure exception".
//! A [`FaultPlan`] describes which messages to lose or corrupt so tests can
//! drive exactly that path.
//!
//! **Determinism:** a rule's `skip`/`count` budget is consumed **per
//! directed link**. Messages on one link arrive at the injector in the
//! sender's program order, which virtual time makes deterministic, and each
//! link draws from its own budget instance — so the set of affected
//! messages is a pure function of per-link sequence numbers, independent of
//! the wall-clock order in which different partitions' same-instant sends
//! reach the injector. Unpinned rules ([`FaultSpec::any`]) therefore replay
//! exactly; `skip(n).count(m)` reads as "on every matching link, let `n`
//! matching messages through, then affect the next `m`".

use caa_core::ids::PartitionId;
use caa_core::inline::InlineVec;

/// Remaining skip/count budget of one rule on one directed link.
#[derive(Debug, Default, Clone, Copy)]
struct LinkBudget {
    skip: u64,
    count: u64,
}

/// Matcher for messages a fault should affect.
///
/// All criteria are optional; an empty spec matches every message. `skip`
/// lets the fault begin after some matching traffic; `count` bounds how many
/// messages are affected. Budgets are instantiated **per directed link**
/// (see the module docs), which keeps unpinned rules deterministic.
///
/// # Examples
///
/// ```
/// use caa_simnet::FaultSpec;
/// use caa_core::ids::PartitionId;
///
/// // Lose the first Commit sent from node 0 to node 2.
/// let spec = FaultSpec::link(PartitionId::new(0), PartitionId::new(2))
///     .class("Commit")
///     .count(1);
/// assert_eq!(spec.per_link_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultSpec {
    src: Option<PartitionId>,
    dst: Option<PartitionId>,
    class: Option<&'static str>,
    skip: u64,
    count: u64,
    /// Live budget per directed link, lazily instantiated from
    /// `skip`/`count` on the link's first matching message: a row per
    /// link, inline for the few links a rule sees.
    budgets: InlineVec<((u32, u32), LinkBudget), 8>,
}

impl FaultSpec {
    /// Matches every message (until narrowed).
    #[must_use]
    pub fn any() -> Self {
        FaultSpec {
            src: None,
            dst: None,
            class: None,
            skip: 0,
            count: u64::MAX,
            budgets: InlineVec::new(),
        }
    }

    /// Matches messages on the directed link `src → dst`.
    #[must_use]
    pub fn link(src: PartitionId, dst: PartitionId) -> Self {
        FaultSpec {
            src: Some(src),
            dst: Some(dst),
            ..FaultSpec::any()
        }
    }

    /// Matches messages sent by `src` to anyone.
    #[must_use]
    pub fn from(src: PartitionId) -> Self {
        FaultSpec {
            src: Some(src),
            ..FaultSpec::any()
        }
    }

    /// Matches messages delivered to `dst` from anyone.
    #[must_use]
    pub fn to(dst: PartitionId) -> Self {
        FaultSpec {
            dst: Some(dst),
            ..FaultSpec::any()
        }
    }

    /// Restricts the match to one message class (see
    /// [`Classify`](crate::Classify)).
    #[must_use]
    pub fn class(mut self, class: &'static str) -> Self {
        self.class = Some(class);
        self
    }

    /// Skips the first `n` matching messages **on each link** before taking
    /// effect.
    #[must_use]
    pub fn skip(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Affects at most `n` matching messages **per link** (default:
    /// unbounded).
    #[must_use]
    pub fn count(mut self, n: u64) -> Self {
        self.count = n;
        self
    }

    /// The configured per-link `count`: how many matching messages this
    /// spec affects on each link it touches. (This is static
    /// configuration, not live budget — budgets are tracked per link once
    /// traffic flows.)
    #[must_use]
    pub fn per_link_count(&self) -> u64 {
        self.count
    }

    fn matches(&self, src: PartitionId, dst: PartitionId, class: &'static str) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.class.is_none_or(|c| c == class)
    }

    /// Consumes one match from the link's budget: returns true if the fault
    /// fires for this message.
    fn fire(&mut self, src: PartitionId, dst: PartitionId, class: &'static str) -> bool {
        if self.count == 0 || !self.matches(src, dst, class) {
            return false;
        }
        let link = (src.as_u32(), dst.as_u32());
        let row = match self.budgets.iter().position(|&(l, _)| l == link) {
            Some(row) => row,
            None => {
                let fresh = LinkBudget {
                    skip: self.skip,
                    count: self.count,
                };
                self.budgets.push((link, fresh));
                self.budgets.len() - 1
            }
        };
        let budget = &mut self.budgets[row].1;
        if budget.skip > 0 {
            budget.skip -= 1;
            return false;
        }
        if budget.count == 0 {
            return false;
        }
        budget.count -= 1;
        true
    }
}

/// A schedule of message losses and corruptions applied by the network.
///
/// # Examples
///
/// ```
/// use caa_simnet::{FaultPlan, FaultSpec};
/// use caa_core::ids::PartitionId;
///
/// let plan = FaultPlan::new()
///     .lose(FaultSpec::from(PartitionId::new(1)).count(1))
///     .corrupt(FaultSpec::any().class("toBeSignalled").count(2));
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    losses: Vec<FaultSpec>,
    corruptions: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults.
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a message-loss rule.
    #[must_use]
    pub fn lose(mut self, spec: FaultSpec) -> Self {
        self.losses.push(spec);
        self
    }

    /// Adds a message-corruption rule.
    #[must_use]
    pub fn corrupt(mut self, spec: FaultSpec) -> Self {
        self.corruptions.push(spec);
        self
    }

    /// Whether the plan contains any rule.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.losses.is_empty() && self.corruptions.is_empty()
    }

    /// Decides whether the given message is lost. Mutates rule budgets.
    #[inline]
    pub(crate) fn should_lose(
        &mut self,
        src: PartitionId,
        dst: PartitionId,
        class: &'static str,
    ) -> bool {
        self.losses.iter_mut().any(|r| r.fire(src, dst, class))
    }

    /// Decides whether the given message is corrupted. Mutates rule budgets.
    #[inline]
    pub(crate) fn should_corrupt(
        &mut self,
        src: PartitionId,
        dst: PartitionId,
        class: &'static str,
    ) -> bool {
        self.corruptions.iter_mut().any(|r| r.fire(src, dst, class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: PartitionId = PartitionId::new(0);
    const B: PartitionId = PartitionId::new(1);
    const C: PartitionId = PartitionId::new(2);

    #[test]
    fn any_budget_is_per_link() {
        // `count(1)` on an unpinned rule: one message per matching link.
        let mut plan = FaultPlan::new().lose(FaultSpec::any().count(1));
        assert!(plan.should_lose(A, B, "x"));
        assert!(plan.should_lose(B, C, "y"), "fresh link, fresh budget");
        assert!(!plan.should_lose(A, B, "x"), "A→B budget exhausted");
        assert!(plan.should_lose(A, C, "x"), "fresh link, fresh budget");
    }

    #[test]
    fn per_link_budgets_are_order_independent() {
        // The same traffic in two different cross-link interleavings fires
        // on the same (link, per-link index) pairs — the determinism the
        // harness's replay oracle relies on.
        let traffic_a = [(A, B), (B, C), (A, B), (B, C)];
        let traffic_b = [(B, C), (A, B), (B, C), (A, B)];
        let fire = |traffic: &[(PartitionId, PartitionId)]| -> Vec<(u32, u32)> {
            let mut plan = FaultPlan::new().lose(FaultSpec::any().skip(1).count(1));
            traffic
                .iter()
                .filter(|(s, d)| plan.should_lose(*s, *d, "m"))
                .map(|(s, d)| (s.as_u32(), d.as_u32()))
                .collect()
        };
        let mut a = fire(&traffic_a);
        let mut b = fire(&traffic_b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "affected set must not depend on interleaving");
        assert_eq!(a, vec![(0, 1), (1, 2)], "second message of each link");
    }

    #[test]
    fn link_and_class_filters_apply() {
        let mut plan = FaultPlan::new().lose(FaultSpec::link(A, B).class("Commit"));
        assert!(!plan.should_lose(A, C, "Commit"));
        assert!(!plan.should_lose(A, B, "Exception"));
        assert!(plan.should_lose(A, B, "Commit"));
    }

    #[test]
    fn skip_delays_the_fault_per_link() {
        let mut plan = FaultPlan::new().lose(FaultSpec::from(A).skip(2).count(1));
        assert!(!plan.should_lose(A, B, "m"));
        assert!(!plan.should_lose(A, B, "m"));
        assert!(plan.should_lose(A, B, "m"));
        assert!(!plan.should_lose(A, B, "m"));
        // The A→C link has its own skip/count budget.
        assert!(!plan.should_lose(A, C, "m"));
        assert!(!plan.should_lose(A, C, "m"));
        assert!(plan.should_lose(A, C, "m"));
    }

    #[test]
    fn corruption_is_independent_of_loss() {
        let mut plan = FaultPlan::new()
            .lose(FaultSpec::to(B).count(1))
            .corrupt(FaultSpec::to(C).count(1));
        assert!(plan.should_lose(A, B, "m"));
        assert!(!plan.should_corrupt(A, B, "m"));
        assert!(plan.should_corrupt(A, C, "m"));
    }

    #[test]
    fn empty_plan_never_fires() {
        let mut plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(!plan.should_lose(A, B, "m"));
        assert!(!plan.should_corrupt(A, B, "m"));
    }

    #[test]
    fn zero_count_never_fires() {
        let mut plan = FaultPlan::new().lose(FaultSpec::any().count(0));
        assert!(!plan.should_lose(A, B, "m"));
    }
}
