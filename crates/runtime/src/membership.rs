//! The crash-aware membership subsystem: a deterministic,
//! simulation-driven failure detector for *every* bounded round of the
//! protocol — resolution, signalling and exit — plus the reverse
//! direction, epoch-numbered rejoin.
//!
//! §3.4 of the paper bounds waits for the signalling algorithm, and the
//! exit protocol reuses the same rule; this module generalises the
//! machinery so any bounded round can suspect its silent peers. Each
//! action frame carries a `FrameMembership` (crate-internal): the
//! [`MembershipView`] (live members + epoch) this participant holds of the
//! instance, the peers it heard from, and whether it was itself evicted.
//! Whatever round the one collect loop in [`crate::context`] is running,
//! the detector is the same:
//!
//! 1. **Bounded wait.** The round waits on a per-round virtual-time
//!    deadline (the
//!    [`recv_deadline`](caa_simnet::Endpoint::recv_deadline) machinery):
//!    resolution on the action's
//!    [`resolution timeout`](crate::ActionDefBuilder::resolution_timeout),
//!    signalling on its
//!    [`signal timeout`](crate::ActionDefBuilder::signal_timeout), exit on
//!    its [`exit timeout`](crate::ActionDefBuilder::exit_timeout) — the
//!    separation hierarchy (signalling ≪ exit/resolution, scaled per
//!    nesting level) keeps a live peer from being suspected.
//! 2. **Suspect computation.** On expiry, the round's state names the
//!    threads this participant is blocked on: for resolution,
//!    [`ResolverState::waiting_on`](crate::protocol::ResolverState::waiting_on);
//!    for signalling, the members whose `toBeSignalled` announcement never
//!    arrived; for exit, the members whose vote is missing. Every live
//!    participant answers within a latency bound ≪ the timeout, so expiry
//!    means those threads are crashed — unless the quorum gate
//!    (`FrameMembership::suspect`) finds the silence better explained by
//!    this thread's own connectivity and refuses.
//! 3. **Presume-ƒ.** The suspects are removed from the view (epoch + 1).
//!    In resolution, a crash exception ([`ExceptionId::crash`]) is
//!    synthesized on behalf of each silent one — a participant crash is
//!    *just another exception* to be resolved concurrently — and
//!    resolution re-runs over the shrunken view. Signalling and exit
//!    simply re-collect their round over the shrunken view, so survivors
//!    conclude with real view-stamped outcomes instead of absorbing the
//!    crash as an exit-timeout ƒ.
//! 4. **View agreement.** The initiator broadcasts
//!    [`Message::ViewChange`](caa_core::message::Message::ViewChange) with
//!    the `(epoch, removed)` pair to its *pre-removal* view. Receivers
//!    merge **set-wise** (`FrameMembership::adopt_removals`): whatever
//!    subset of `removed` is still live locally is removed at the
//!    receiver's own next epoch. Epoch numbers are thread-local counters;
//!    agreement is on the member *sets*, which concurrent suspicions from
//!    different rounds reach commutatively (the sweep oracle checks that
//!    survivors' cumulative removed sets form a chain under ⊆). A `Commit`
//!    also carries the resolver's cumulative removed set, merged the same
//!    way, so a survivor that receives the commit before a racing
//!    `ViewChange` announcement still stops waiting on the dead.
//!
//! **Epoch-numbered rejoin.** Views can also grow back. A restarted
//! participant broadcasts
//! [`Message::JoinRequest`](caa_core::message::Message::JoinRequest) to
//! every other member of the group; each survivor that still holds the
//! frame open re-admits the joiner locally (`FrameMembership::adopt_rejoin`,
//! epoch + 1) and answers it with a
//! [`Message::JoinGrant`](caa_core::message::Message::JoinGrant) — its
//! post-grant epoch, its cumulative removed set *after* re-admission, the
//! exit epoch, and the resolved exception if any. The joiner acts on the
//! first grant: it reconstructs its view from scratch with
//! `FrameMembership::sync_grant` and re-enters the action at the granter's
//! exit epoch. Rejoin epochs are ordinary membership epochs: a re-admitted
//! member can crash again and be removed again.
//!
//! Everything is deterministic: deadlines are virtual-time instants, the
//! suspect set is a pure function of protocol state, and view changes are
//! totally ordered by epoch — the same seed replays the same crashes, the
//! same view sequence and the same byte-identical trace.

use std::rc::Rc;

use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::ThreadId;
use caa_core::inline::InlineVec;
use caa_core::membership::{MembershipView, ViewChangeOutcome};
use caa_core::message::no_removals;

/// How many members a frame's per-participant tables (view snapshots,
/// heard-from set, signalling table, exit votes, the resolver's `LE` list)
/// hold inline. One constant, so a group that fits one table fits them all;
/// bigger groups spill to the heap transparently.
pub(crate) const GROUP_INLINE: usize = 8;

/// A per-round snapshot of an action's live member set, kept on the stack
/// (see [`caa_core::inline`]): protocol rounds snapshot the view once per
/// round on the execute hot path.
pub(crate) type ViewSnapshot = InlineVec<ThreadId, GROUP_INLINE>;

/// What a suspicion round decided about its silent peers (see
/// [`FrameMembership::suspect`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Eviction {
    /// The quorum gate refused: `recently_alive` suspects were heard from,
    /// only `survivors` members would remain. The frame is now marked
    /// evicted and gives up locally without broadcasting anything.
    Refused {
        survivors: usize,
        recently_alive: usize,
    },
    /// The suspects were removed at `epoch`; the change is announced to
    /// `recipients`, the *pre-removal* view — so a falsely suspected (live)
    /// peer learns of its eviction and gives up instead of
    /// counter-suspecting the survivors.
    Evict {
        epoch: u32,
        recipients: ViewSnapshot,
    },
}

/// Per-frame membership and liveness state driven by the recovery driver's
/// failure detector.
#[derive(Debug, Clone)]
pub(crate) struct FrameMembership {
    view: MembershipView,
    /// Liveness evidence for the eviction quorum gate: every peer this
    /// thread received a protocol message from within this instance
    /// (application traffic excluded — only recovery, signalling, exit and
    /// membership messages prove a peer advanced the protocol). A set, in
    /// order of first hearing.
    heard_from: ViewSnapshot,
    /// A membership view change removed *this* thread (a peer's suspicion
    /// was wrong — we are alive), or the quorum gate refused this thread's
    /// own suspicion. The frame gives up locally and finalizes as
    /// [`ActionOutcome::Failed`](caa_core::outcome::ActionOutcome::Failed)
    /// at the next protocol step; it must not broadcast further rounds the
    /// survivors no longer expect from it.
    pub(crate) evicted: bool,
    /// The cumulative removed set as a shared slice, cached per epoch:
    /// stamping `N − 1` outgoing `Commit`s clones one `Rc` per recipient
    /// instead of materialising the set per message (and the crash-free
    /// case reuses the thread's empty set, allocating nothing at all).
    removed_cache: Option<(u32, Rc<[ThreadId]>)>,
}

impl FrameMembership {
    /// The initial full view over the action's group.
    pub(crate) fn new(group: &[ThreadId]) -> Self {
        FrameMembership {
            view: MembershipView::new(group),
            heard_from: ViewSnapshot::new(),
            evicted: false,
            removed_cache: None,
        }
    }

    /// Back to the initial full view over `group`, in place (a frame's
    /// view when it is re-entered).
    pub(crate) fn reset(&mut self, group: &[ThreadId]) {
        *self = FrameMembership::new(group);
    }

    /// The live members, sorted ascending.
    pub(crate) fn members(&self) -> &[ThreadId] {
        self.view.members()
    }

    /// The current membership epoch.
    pub(crate) fn epoch(&self) -> u32 {
        self.view.epoch()
    }

    /// Notes a protocol message from `peer`: it was alive within this
    /// instance (see [`FrameMembership::suspect`]).
    pub(crate) fn hear(&mut self, peer: ThreadId) {
        if !self.heard(peer) {
            self.heard_from.push(peer);
        }
    }

    /// Whether a protocol message from `peer` was noted.
    pub(crate) fn heard(&self, peer: ThreadId) -> bool {
        self.heard_from.contains(&peer)
    }

    /// Every thread removed so far, ascending.
    #[cfg(test)]
    pub(crate) fn removed(&self) -> &[ThreadId] {
        self.view.removed()
    }

    /// [`FrameMembership::removed`] as a shared slice for message
    /// stamping — cached per epoch, so broadcast fan-out clones an `Rc`
    /// instead of copying the set per recipient.
    pub(crate) fn removed_shared(&mut self) -> Rc<[ThreadId]> {
        match &self.removed_cache {
            Some((epoch, set)) if *epoch == self.view.epoch() => Rc::clone(set),
            _ => {
                let set: Rc<[ThreadId]> = if self.view.removed().is_empty() {
                    no_removals()
                } else {
                    Rc::from(self.view.removed())
                };
                self.removed_cache = Some((self.view.epoch(), Rc::clone(&set)));
                set
            }
        }
    }

    /// Decides a suspicion round: the bounded wait expired with `suspects`
    /// silent — evict them, or refuse.
    ///
    /// Quorum gate (primary-partition rule): when the suspects this
    /// thread has *heard from* within the instance outnumber the view
    /// that would survive their eviction, the unanimous silence is far
    /// better explained by this thread's own connectivity (its outbound
    /// announcements lost, or it lagging a round behind) than by a
    /// majority of recently-alive peers all crashing inside one bounded
    /// wait. A minority must not install a view the majority will never
    /// adopt — the survivors' own suspicion of *us* is already in
    /// flight, and acting on ours would split the membership. Give up
    /// locally instead: the frame finalizes `Failed` without
    /// broadcasting, exactly as if the survivors' eviction notice had
    /// arrived in time. Peers that never sent a protocol message are
    /// exempt from the count — their silence is indistinguishable from
    /// a crash before the protocol ever reached them (presume-ƒ), so a
    /// sole survivor can still evict a genuinely dead cohort. A tie still
    /// evicts, which preserves two-party recovery.
    pub(crate) fn suspect(&mut self, suspects: &[ThreadId]) -> Result<Eviction, String> {
        let members = self.view.members();
        let survivors = members.iter().filter(|t| !suspects.contains(t)).count();
        let recently_alive = suspects
            .iter()
            .filter(|&&t| members.contains(&t) && self.heard(t))
            .count();
        if survivors < recently_alive {
            self.evicted = true;
            return Ok(Eviction::Refused {
                survivors,
                recently_alive,
            });
        }
        let recipients = ViewSnapshot::from_slice(members);
        let epoch = self.view.epoch() + 1;
        match self.view.apply(epoch, suspects) {
            ViewChangeOutcome::Applied { .. } => Ok(Eviction::Evict { epoch, recipients }),
            ViewChangeOutcome::Duplicate => Err("local view change applied nothing".into()),
            ViewChangeOutcome::Conflict { reason } => Err(reason),
        }
    }

    /// Merges a peer's removal announcement set-wise: removes whatever
    /// subset of `removed` is still live here, at this view's own next
    /// epoch. Used for both a `ViewChange`'s step set and a `Commit`'s
    /// cumulative set — under set-based agreement the distinction
    /// disappears, and concurrent suspicions from different rounds merge
    /// commutatively (no conflict is possible: already-removed threads
    /// are simply skipped).
    ///
    /// Returns the `(new_epoch, actually_removed)` pair when the view
    /// shrank, or `None` when the announcement carried nothing new.
    pub(crate) fn adopt_removals(&mut self, removed: &[ThreadId]) -> Option<(u32, Vec<ThreadId>)> {
        let fresh: ViewSnapshot = removed
            .iter()
            .copied()
            .filter(|t| self.view.contains(*t))
            .collect();
        if fresh.is_empty() {
            return None;
        }
        let epoch = self.view.epoch() + 1;
        match self.view.apply(epoch, &fresh) {
            ViewChangeOutcome::Applied { removed } => Some((epoch, removed)),
            // Unreachable by construction: `fresh` is a non-empty subset
            // of the live members and `epoch` is exactly current + 1.
            _ => None,
        }
    }

    /// Merges a rejoin: re-admits `thread` at this view's own next epoch.
    /// Used by the granting survivor (locally, before broadcasting the
    /// `JoinGrant`) and by every peer applying the broadcast. Returns the
    /// new epoch, or `None` when the announcement is stale — `thread` is
    /// already a live member here (duplicate grant) or was never removed.
    pub(crate) fn adopt_rejoin(&mut self, thread: ThreadId) -> Option<u32> {
        if self.view.contains(thread) || !self.view.removed().contains(&thread) {
            return None;
        }
        let epoch = self.view.epoch() + 1;
        match self.view.rejoin(epoch, thread) {
            ViewChangeOutcome::Applied { .. } => Some(epoch),
            _ => None,
        }
    }

    /// Reconstructs the *joiner's* view from a `JoinGrant`: starts from
    /// the original full group and fast-forwards to the granter's
    /// post-grant view (`epoch`, cumulative `removed` — which no longer
    /// contains the joiner). The never-suspected case (the granter never
    /// removed the joiner, so the grant is `(0, [])` relative to a full
    /// view) falls out uniformly. Fails if the grant still lists `me` as
    /// removed — a granter must re-admit before granting.
    pub(crate) fn sync_grant(
        group: &[ThreadId],
        epoch: u32,
        removed: &[ThreadId],
        me: ThreadId,
    ) -> Result<Self, String> {
        let mut m = FrameMembership::new(group);
        match m.view.sync_to(epoch, removed) {
            ViewChangeOutcome::Applied { .. } | ViewChangeOutcome::Duplicate => {}
            ViewChangeOutcome::Conflict { reason } => return Err(reason),
        }
        if !m.view.contains(me) {
            return Err(format!(
                "join grant (epoch {epoch}, removed {removed:?}) does not re-admit {me}"
            ));
        }
        Ok(m)
    }
}

/// The crash exception synthesized on behalf of each presumed-crashed
/// thread (presume-ƒ): it enters the resolver's entry list as if the dead
/// peer had raised it, so the crash is resolved — and handled — like any
/// other concurrent exception.
pub(crate) fn synthesize_crashes(removed: &[ThreadId]) -> Vec<Exception> {
    removed
        .iter()
        .map(|&t| {
            Exception::new(ExceptionId::crash())
                .with_origin(t)
                .with_detail("presumed crashed: bounded resolution wait expired")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> ThreadId {
        ThreadId::new(n)
    }

    #[test]
    fn initiate_bumps_epoch_and_removes_suspects() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        assert_eq!(m.epoch(), 0);
        let evicted = m.suspect(&[t(1)]).expect("valid suspects");
        let recipients = ViewSnapshot::from_slice(&[t(0), t(1), t(2)]);
        assert_eq!(
            evicted,
            Eviction::Evict {
                epoch: 1,
                recipients
            }
        );
        assert_eq!(m.members(), &[t(0), t(2)]);
        assert_eq!(m.removed(), &[t(1)]);
        // Removing a thread that is already gone is a local logic error.
        assert!(m.suspect(&[t(1)]).is_err());
    }

    #[test]
    fn quorum_gate_refuses_a_minority_evicting_recently_alive_peers() {
        // T0 heard from T1 and T2, then finds both silent: one survivor
        // against two recently-alive suspects indicts T0 itself.
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        m.hear(t(1));
        m.hear(t(2));
        assert_eq!(
            m.suspect(&[t(1), t(2)]),
            Ok(Eviction::Refused {
                survivors: 1,
                recently_alive: 2
            })
        );
        assert!(m.evicted, "the suspecter gives up locally");
        assert_eq!(m.epoch(), 0, "nothing was removed");
    }

    #[test]
    fn quorum_gate_lets_a_tie_evict() {
        // Two-party recovery: one survivor, one recently-alive suspect.
        let mut m = FrameMembership::new(&[t(0), t(1)]);
        m.hear(t(1));
        assert!(matches!(
            m.suspect(&[t(1)]),
            Ok(Eviction::Evict { epoch: 1, .. })
        ));
        assert!(!m.evicted);
        assert_eq!(m.members(), &[t(0)]);
    }

    #[test]
    fn quorum_gate_exempts_peers_never_heard_from() {
        // A sole survivor still evicts a cohort that died before the
        // protocol ever reached it.
        let mut m = FrameMembership::new(&[t(0), t(1), t(2), t(3)]);
        m.hear(t(1));
        let recipients = ViewSnapshot::from_slice(m.members());
        assert_eq!(
            m.suspect(&[t(1), t(2), t(3)]),
            Ok(Eviction::Evict {
                epoch: 1,
                recipients
            })
        );
        assert_eq!(m.members(), &[t(0)]);
    }

    #[test]
    fn the_quorum_gate_counts_the_same_past_the_inline_capacity_and_over_sparse_ids() {
        // Twelve members, more than a view snapshot or the heard-from set
        // holds inline: T0 heard from seven of them and finds all eleven
        // silent — one survivor against seven recently-alive suspects.
        let group: Vec<ThreadId> = (0..12).map(t).collect();
        let mut m = FrameMembership::new(&group);
        for &peer in &group[1..8] {
            m.hear(peer);
            m.hear(peer); // a set: hearing twice counts once
        }
        assert_eq!(
            m.suspect(&group[1..]),
            Ok(Eviction::Refused {
                survivors: 1,
                recently_alive: 7
            })
        );
        // Five of them silent, two of those heard from: seven survive.
        let mut m = FrameMembership::new(&group);
        m.hear(t(10));
        m.hear(t(11));
        let evicted = m.suspect(&group[7..]).expect("valid suspects");
        assert!(
            matches!(evicted, Eviction::Evict { epoch: 1, ref recipients } if recipients[..] == group[..])
        );
        assert_eq!(m.members(), &group[..7]);
        // Ids are keys, not indices: {3, 70, 4000}.
        let mut m = FrameMembership::new(&[t(3), t(70), t(4000)]);
        m.hear(t(4000));
        m.hear(t(70));
        assert!(m.heard(t(70)) && m.heard(t(4000)) && !m.heard(t(3)) && !m.heard(t(0)));
        assert_eq!(
            m.suspect(&[t(70), t(4000)]),
            Ok(Eviction::Refused {
                survivors: 1,
                recently_alive: 2
            })
        );
    }

    #[test]
    fn the_heard_from_set_answers_like_the_tree_set_it_replaces() {
        use std::collections::BTreeSet;
        let mut rng = proptest::test_runner::TestRng::new(0x4ea2d);
        for _ in 0..200 {
            // Sparse ids, groups up to 14 (past the inline capacity).
            let ids: Vec<ThreadId> = (0..1 + rng.below(14))
                .map(|_| t(rng.below(5_000) as u32))
                .collect();
            let mut m = FrameMembership::new(&[t(0)]);
            let mut reference: BTreeSet<ThreadId> = BTreeSet::new();
            for _ in 0..rng.below(40) {
                let peer = ids[rng.below(ids.len() as u64) as usize];
                m.hear(peer);
                reference.insert(peer);
                let probe = ids[rng.below(ids.len() as u64) as usize];
                assert_eq!(m.heard(probe), reference.contains(&probe));
            }
            let mut heard: Vec<ThreadId> = m.heard_from.to_vec();
            heard.sort_unstable();
            assert_eq!(heard, reference.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn adopt_removals_merges_set_wise() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2), t(3)]);
        // A step announcement merges at our own next epoch.
        assert_eq!(m.adopt_removals(&[t(2)]), Some((1, vec![t(2)])));
        // Re-announcing the same removal carries nothing new.
        assert_eq!(m.adopt_removals(&[t(2)]), None);
        // A cumulative set from a peer that also removed T1 merges the
        // fresh subset only — no conflict is possible.
        assert_eq!(m.adopt_removals(&[t(1), t(2)]), Some((2, vec![t(1)])));
        assert_eq!(m.members(), &[t(0), t(3)]);
        assert_eq!(m.removed(), &[t(1), t(2)]);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn adopt_rejoin_readmits_and_rejects_stale() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        m.suspect(&[t(1)]).unwrap();
        assert_eq!(m.adopt_rejoin(t(1)), Some(2));
        assert_eq!(m.members(), &[t(0), t(1), t(2)]);
        // A duplicate grant broadcast is stale: T1 is already live.
        assert_eq!(m.adopt_rejoin(t(1)), None);
        // A thread that was never a member cannot rejoin.
        assert_eq!(m.adopt_rejoin(t(9)), None);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn rejoin_round_trips_between_granter_and_joiner() {
        // T1 crashed (epoch 1); a survivor grants its rejoin at epoch 2.
        let group = [t(0), t(1), t(2)];
        let mut granter = FrameMembership::new(&group);
        granter.suspect(&[t(1)]).unwrap();
        let grant_epoch = granter.adopt_rejoin(t(1)).expect("removed member rejoins");
        assert_eq!(grant_epoch, 2);
        assert_eq!(granter.members(), &group);
        // The grant carries the post-grant epoch and post-readmission
        // cumulative removed set; the joiner reconstructs the same
        // member set from it (epoch numbering is thread-local).
        let removed_after: Vec<_> = granter.removed().to_vec();
        let joiner = FrameMembership::sync_grant(&group, grant_epoch, &removed_after, t(1))
            .expect("grant reconstructs");
        assert_eq!(joiner.members(), granter.members());
        assert_eq!(joiner.removed(), granter.removed());
    }

    #[test]
    fn sync_grant_handles_never_suspected_joiners() {
        // The granter never removed the joiner (crash before any timeout
        // fired): the grant is the full epoch-0 view and reconstruction
        // is the identity.
        let group = [t(0), t(1)];
        let joiner = FrameMembership::sync_grant(&group, 0, &[], t(1)).expect("identity grant");
        assert_eq!(joiner.members(), &group);
        assert_eq!(joiner.epoch(), 0);
    }

    #[test]
    fn sync_grant_rejects_inconsistent_grants() {
        let group = [t(0), t(1)];
        // A grant that still lists the joiner as removed: the granter
        // must re-admit before granting.
        assert!(FrameMembership::sync_grant(&group, 1, &[t(1)], t(1)).is_err());
        // A grant whose removed set names a thread outside the group.
        assert!(FrameMembership::sync_grant(&group, 1, &[t(9)], t(1)).is_err());
    }

    #[test]
    fn synthesized_crashes_carry_origin_and_crash_id() {
        let crashes = synthesize_crashes(&[t(4), t(7)]);
        assert_eq!(crashes.len(), 2);
        for (e, expect) in crashes.iter().zip([t(4), t(7)]) {
            assert!(e.id().is_crash());
            assert_eq!(e.origin(), Some(expect));
        }
    }
}
