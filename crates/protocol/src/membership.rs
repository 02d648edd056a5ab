//! The crash-aware membership view: a deterministic failure detector for
//! *every* bounded round of the protocol — resolution, signalling and exit
//! — plus the reverse direction, rejoin.
//!
//! §3.4 of the paper bounds waits for the signalling algorithm, and the
//! exit protocol reuses the same rule; this module generalises the
//! machinery so any bounded round can suspect its silent peers. Each
//! action frame carries a [`FrameMembership`]: the live members, the
//! removed set and the epoch this participant holds of the instance, the
//! peers it heard from, and whether it was itself evicted. Every bounded
//! round expires the same way, decided by the round state
//! ([`Round::expired`](crate::rounds::Round::expired)) and performed by
//! the host:
//!
//! 1. **Bounded wait.** The round waits on a per-round virtual-time
//!    deadline: resolution on the action's resolution timeout, signalling
//!    on its signal timeout, exit on its exit timeout — the separation
//!    hierarchy (signalling ≪ exit/resolution, scaled per nesting level)
//!    keeps a live peer from being suspected.
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
//! 4. **View agreement, set-wise.** The initiator broadcasts
//!    [`Message::ViewChange`](caa_core::message::Message::ViewChange) with
//!    the `removed` set to its *pre-removal* view. A receiver removes
//!    whatever subset of it is still live locally
//!    (`FrameMembership::adopt_removals`). A `Commit` carries the
//!    resolver's cumulative removed set, merged the same way, so a
//!    survivor that receives the commit before a racing `ViewChange`
//!    announcement still stops waiting on the dead. Agreement is on the
//!    member *sets*, which concurrent suspicions from different rounds
//!    reach commutatively (the sweep oracle checks that survivors'
//!    cumulative removed sets form a chain under ⊆). No message carries
//!    an epoch for this: an epoch is a thread-local count of the steps its
//!    view took, each removal or readmission one step, and it is what the
//!    log's `ViewChange` and `Rejoin` events show.
//!
//! **Rejoin.** Views can also grow back. A restarted participant
//! broadcasts
//! [`Message::JoinRequest`](caa_core::message::Message::JoinRequest) to
//! every other member of the group; each survivor that still holds the
//! frame open re-admits the joiner locally
//! (`FrameMembership::adopt_rejoin`, epoch + 1) and answers it with a
//! [`Message::JoinGrant`](caa_core::message::Message::JoinGrant) — its
//! epoch, its cumulative removed set *after* re-admission, the exit epoch,
//! and the resolved exception if any. The joiner acts on the first grant:
//! it builds its view from the group and the grant's removed set with
//! `FrameMembership::sync_grant` and re-enters the action at the
//! granter's exit epoch. A re-admitted member can crash again and be
//! removed again.
//!
//! Everything is deterministic: deadlines are virtual-time instants, the
//! suspect set is a pure function of protocol state, and each view step is
//! taken in the order its cause arrived — the same seed replays the same
//! crashes, the same view sequence and the same byte-identical trace.

use std::rc::Rc;

use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::ThreadId;
use caa_core::inline::InlineVec;
use caa_core::message::no_removals;

use crate::rounds::Violation;

/// How many members a frame's member lists (the view and its removed set,
/// view snapshots, the resolver's `LE` list) hold inline. One constant, so
/// a group that fits one list fits them all; bigger groups spill to the
/// heap transparently.
pub const GROUP_INLINE: usize = 8;

/// A per-round snapshot of an action's live member set, kept on the stack
/// (see [`caa_core::inline`]): protocol rounds snapshot the view once per
/// round on the execute hot path.
pub type ViewSnapshot = InlineVec<ThreadId, GROUP_INLINE>;

/// A set of threads: one bit per thread index, so asking whether a member
/// is in it costs one load whatever the set holds. What a round tallies
/// per member — who announced, who voted, who was heard from — is a set
/// like this, and completing the round walks the view's member slice
/// against it. Threads 0–63 fit the inline word; a higher index grows the
/// set by whole words (a sparse id such as 4000 costs 63 of them).
#[derive(Clone, Default)]
pub struct ThreadSet {
    /// Bit `i % 64` of word `i / 64` is thread `i`. Words are never
    /// dropped: [`ThreadSet::clear`] zeroes them for the next use.
    words: InlineVec<u64, 1>,
}

impl ThreadSet {
    /// The word and the bit of `thread`.
    #[inline]
    fn bit(thread: ThreadId) -> (usize, u64) {
        let index = thread.index();
        (index / 64, 1 << (index % 64))
    }

    /// Whether `thread` is in the set.
    #[inline]
    pub(crate) fn contains(&self, thread: ThreadId) -> bool {
        let (word, bit) = ThreadSet::bit(thread);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Adds `thread`.
    #[inline]
    pub(crate) fn insert(&mut self, thread: ThreadId) {
        let (word, bit) = ThreadSet::bit(thread);
        while self.words.len() <= word {
            self.words.push(0);
        }
        self.words[word] |= bit;
    }

    /// Adds `thread` if `member`, else removes it.
    #[inline]
    pub(crate) fn set(&mut self, thread: ThreadId, member: bool) {
        let (word, bit) = ThreadSet::bit(thread);
        if member {
            self.insert(thread);
        } else if let Some(w) = self.words.get_mut(word) {
            *w &= !bit;
        }
    }

    /// Empties the set, keeping its words.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The threads in the set, ascending.
    #[inline]
    pub(crate) fn iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.words.iter().enumerate().flat_map(|(word, &bits)| {
            (0..64)
                .filter(move |bit| bits & (1 << bit) != 0)
                .map(move |bit| {
                    ThreadId::new(u32::try_from(word * 64 + bit).expect("a thread index is a u32"))
                })
        })
    }
}

impl FromIterator<ThreadId> for ThreadSet {
    #[inline]
    fn from_iter<I: IntoIterator<Item = ThreadId>>(threads: I) -> Self {
        let mut set = ThreadSet::default();
        for thread in threads {
            set.insert(thread);
        }
        set
    }
}

impl std::fmt::Debug for ThreadSet {
    #[cold]
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One step a frame's view took by removing threads: the epoch it
/// advanced to and the threads it removed (a local eviction's in the order
/// they were suspected, an adopted announcement's ascending) — what the
/// context counts and logs as a view change.
#[derive(Debug, PartialEq, Eq)]
pub struct ViewStep {
    /// The epoch the view advanced to.
    pub epoch: u32,
    /// The threads it removed.
    pub removed: ViewSnapshot,
}

/// What a bounded wait's expiry decided about its silent peers.
#[derive(Debug, PartialEq, Eq)]
pub enum Suspicion {
    /// The quorum gate refused: `recently_alive` suspects were heard from,
    /// only `survivors` members would remain. The frame is now marked
    /// evicted and gives up locally, announcing nothing.
    Refused {
        /// The members that would remain.
        survivors: usize,
        /// The suspects heard from within the instance.
        recently_alive: usize,
    },
    /// A rejoiner gives up on the missing votes, suspecting nobody.
    GiveUp,
    /// The suspects were removed in this step; the change is announced to
    /// the recipients, the *pre-removal* view — so a falsely suspected
    /// (live) peer learns of its eviction and gives up instead of
    /// counter-suspecting the survivors — and then, if `true`, fed to the
    /// resolver.
    Evict(ViewStep, ViewSnapshot, bool),
}

/// Per-frame membership and liveness state driven by the recovery driver's
/// failure detector.
#[derive(Debug, Clone)]
pub struct FrameMembership {
    /// The live members, sorted ascending (the group is ordered, `GA`).
    members: ViewSnapshot,
    /// Every thread removed and not re-admitted since, sorted ascending.
    removed: ViewSnapshot,
    /// How many steps the view took: 0 is the full group.
    epoch: u32,
    /// Liveness evidence for the eviction quorum gate: every peer this
    /// thread received a protocol message from within this instance
    /// (application traffic excluded — only recovery, signalling, exit and
    /// membership messages prove a peer advanced the protocol).
    heard_from: ThreadSet,
    /// A membership view change removed *this* thread (a peer's suspicion
    /// was wrong — we are alive), or the quorum gate refused this thread's
    /// own suspicion. The frame gives up locally and finalizes as
    /// [`ActionOutcome::Failed`](caa_core::outcome::ActionOutcome::Failed)
    /// at the next protocol step; it must not broadcast further rounds the
    /// survivors no longer expect from it.
    pub evicted: bool,
    /// The cumulative removed set as a shared slice, cached per epoch:
    /// stamping `N − 1` outgoing `Commit`s clones one `Rc` per recipient
    /// instead of materialising the set per message (and the crash-free
    /// case reuses the thread's empty set, allocating nothing at all).
    removed_cache: Option<(u32, Rc<[ThreadId]>)>,
}

impl FrameMembership {
    /// The initial full view over the action's group.
    #[cold]
    pub(crate) fn new(group: &[ThreadId]) -> Self {
        let mut members = ViewSnapshot::from_slice(group);
        members.sort_unstable();
        members.dedup();
        FrameMembership {
            members,
            removed: ViewSnapshot::new(),
            epoch: 0,
            heard_from: ThreadSet::default(),
            evicted: false,
            removed_cache: None,
        }
    }

    /// Back to the initial full view over `group` — an action's group,
    /// sorted and free of duplicates already — in place (a frame's view
    /// when it is re-entered).
    #[inline]
    pub(crate) fn reset(&mut self, group: &[ThreadId]) {
        debug_assert!(group.is_sorted_by(|a, b| a < b), "a group is a sorted set");
        self.members.clear();
        self.members.extend_from_slice(group);
        self.removed.clear();
        self.epoch = 0;
        self.heard_from.clear();
        self.evicted = false;
        self.removed_cache = None;
    }

    /// The live members, sorted ascending.
    #[inline]
    pub fn members(&self) -> &[ThreadId] {
        &self.members
    }

    /// The current membership epoch.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    #[inline]
    fn contains(&self, thread: ThreadId) -> bool {
        self.members.binary_search(&thread).is_ok()
    }

    /// Moves the live members `gone` (in any order, repeats allowed) to
    /// the removed set. The epoch is the caller's to set.
    #[inline]
    fn remove(&mut self, gone: &[ThreadId]) {
        self.members.retain(|t| !gone.contains(t));
        self.removed.extend_from_slice(gone);
        self.removed.sort_unstable();
        self.removed.dedup();
    }

    /// Notes a protocol message from `peer`: it was alive within this
    /// instance (see `FrameMembership::suspect`).
    #[inline]
    pub(crate) fn hear(&mut self, peer: ThreadId) {
        self.heard_from.insert(peer);
    }

    /// Every thread removed so far, ascending, as a shared slice for message
    /// stamping — cached per epoch, so broadcast fan-out clones an `Rc`
    /// instead of copying the set per recipient.
    #[inline]
    pub(crate) fn removed_shared(&mut self) -> Rc<[ThreadId]> {
        match &self.removed_cache {
            Some((epoch, set)) if *epoch == self.epoch => Rc::clone(set),
            _ => {
                let set: Rc<[ThreadId]> = if self.removed.is_empty() {
                    no_removals()
                } else {
                    Rc::from(&self.removed[..])
                };
                self.removed_cache = Some((self.epoch, Rc::clone(&set)));
                set
            }
        }
    }

    /// Decides a suspicion round: the bounded wait expired with `suspects`
    /// silent — evict them (and feed the resolver the step if `feed`), or
    /// refuse. An empty suspect set, or one naming a thread that is not a
    /// live member, is a violation.
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
    #[inline]
    pub(crate) fn suspect(
        &mut self,
        suspects: &[ThreadId],
        feed: bool,
    ) -> Result<Suspicion, Violation> {
        let members = &self.members;
        let survivors = members.iter().filter(|t| !suspects.contains(t)).count();
        let recently_alive = suspects
            .iter()
            .filter(|&&t| members.contains(&t) && self.heard_from.contains(t))
            .count();
        if survivors < recently_alive {
            self.evicted = true;
            return Ok(Suspicion::Refused {
                survivors,
                recently_alive,
            });
        }
        let rejected =
            |why: String| Err(Violation(format!("membership view change rejected: {why}")));
        if suspects.is_empty() {
            return rejected("a suspicion removes nobody".into());
        }
        if let Some(t) = suspects.iter().find(|&&t| !self.contains(t)) {
            return rejected(format!("a suspicion removes {t}, not a live member"));
        }
        let recipients = ViewSnapshot::from_slice(&self.members);
        self.remove(suspects);
        self.epoch += 1;
        let step = ViewStep {
            epoch: self.epoch,
            removed: ViewSnapshot::from_slice(suspects),
        };
        Ok(Suspicion::Evict(step, recipients, feed))
    }

    /// Merges a peer's removal announcement set-wise: removes whatever
    /// subset of `removed` is still live here, at this view's own next
    /// epoch. Used for both a `ViewChange`'s set and a `Commit`'s
    /// cumulative set: already-removed threads are simply skipped, so
    /// concurrent suspicions from different rounds merge commutatively.
    /// A step that removes `me` marks the frame evicted: a peer suspected
    /// this thread wrongly — it is alive — and the survivors have moved on
    /// without it.
    ///
    /// Returns the step (its removals ascending), or `None` when the
    /// announcement carried nothing new.
    #[inline]
    pub(crate) fn adopt_removals(
        &mut self,
        me: ThreadId,
        removed: &[ThreadId],
    ) -> Option<ViewStep> {
        let mut removed: ViewSnapshot = removed
            .iter()
            .copied()
            .filter(|&t| self.contains(t))
            .collect();
        if removed.is_empty() {
            return None;
        }
        removed.sort_unstable();
        removed.dedup();
        self.evicted |= removed.contains(&me);
        self.remove(&removed);
        self.epoch += 1;
        Some(ViewStep {
            epoch: self.epoch,
            removed,
        })
    }

    /// Merges a rejoin: re-admits `thread` at this view's own next epoch.
    /// Used by the granting survivor before it answers the `JoinRequest`.
    /// Returns the new epoch, or `None` when `thread` is not in the removed
    /// set — it is a live member here (a duplicate request) or was never
    /// one.
    #[inline]
    pub(crate) fn adopt_rejoin(&mut self, thread: ThreadId) -> Option<u32> {
        if !self.removed.contains(&thread) {
            return None;
        }
        self.removed.retain(|&t| t != thread);
        self.members.push(thread);
        self.members.sort_unstable();
        self.epoch += 1;
        Some(self.epoch)
    }

    /// Builds the *joiner's* view from a `JoinGrant`: the full group minus
    /// the granter's cumulative `removed` set (which no longer names the
    /// joiner), at the grant's `epoch`. A grant that removes nobody — the
    /// granter never removed anyone, or re-admitted all it had — leaves
    /// the joiner on the full group at epoch 0, whatever epoch it carries.
    /// An epoch-0 grant may name outsiders (they are ignored) but no
    /// member; a later one may name members only. A grant that does not
    /// re-admit `me` — a granter must re-admit before granting — is a
    /// violation too.
    #[inline]
    pub fn sync_grant(
        group: &[ThreadId],
        epoch: u32,
        removed: &[ThreadId],
        me: ThreadId,
    ) -> Result<Self, Violation> {
        let rejected = |why: String| Err(Violation(format!("join grant rejected: {why}")));
        let mut m = FrameMembership::new(group);
        if epoch == 0 {
            if let Some(t) = removed.iter().find(|&&t| m.contains(t)) {
                return rejected(format!("an epoch-0 grant removes member {t}"));
            }
        } else if let Some(t) = removed.iter().find(|&&t| !m.contains(t)) {
            return rejected(format!(
                "grant (epoch {epoch}) removes {t}, not a member of the group"
            ));
        } else if !removed.is_empty() {
            m.remove(removed);
            m.epoch = epoch;
        }
        if !m.contains(me) {
            return rejected(format!(
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
#[inline]
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

    impl FrameMembership {
        /// Whether a protocol message from `peer` was noted.
        pub(crate) fn heard(&self, peer: ThreadId) -> bool {
            self.heard_from.contains(peer)
        }

        /// Every thread removed so far, ascending.
        #[cfg(test)]
        fn removed(&self) -> &[ThreadId] {
            &self.removed
        }
    }

    fn t(n: u32) -> ThreadId {
        ThreadId::new(n)
    }

    #[test]
    fn initiate_bumps_epoch_and_removes_suspects() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        assert_eq!(m.epoch(), 0);
        let evicted = m.suspect(&[t(1)], false).expect("valid suspects");
        let step = ViewStep {
            epoch: 1,
            removed: ViewSnapshot::from_slice(&[t(1)]),
        };
        let recipients = ViewSnapshot::from_slice(&[t(0), t(1), t(2)]);
        assert_eq!(evicted, Suspicion::Evict(step, recipients, false));
        assert_eq!(m.members(), &[t(0), t(2)]);
        assert_eq!(m.removed(), &[t(1)]);
        // Removing a thread that is already gone is a local logic error.
        assert!(m.suspect(&[t(1)], false).is_err());
    }

    #[test]
    fn quorum_gate_refuses_a_minority_evicting_recently_alive_peers() {
        // T0 heard from T1 and T2, then finds both silent: one survivor
        // against two recently-alive suspects indicts T0 itself.
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        m.hear(t(1));
        m.hear(t(2));
        assert_eq!(
            m.suspect(&[t(1), t(2)], false),
            Ok(Suspicion::Refused {
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
            m.suspect(&[t(1)], false),
            Ok(Suspicion::Evict(ViewStep { epoch: 1, .. }, ..))
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
        let step = ViewStep {
            epoch: 1,
            removed: ViewSnapshot::from_slice(&[t(1), t(2), t(3)]),
        };
        assert_eq!(
            m.suspect(&[t(1), t(2), t(3)], false),
            Ok(Suspicion::Evict(step, recipients, false))
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
            m.suspect(&group[1..], false),
            Ok(Suspicion::Refused {
                survivors: 1,
                recently_alive: 7
            })
        );
        // Five of them silent, two of those heard from: seven survive.
        let mut m = FrameMembership::new(&group);
        m.hear(t(10));
        m.hear(t(11));
        let evicted = m.suspect(&group[7..], false).expect("valid suspects");
        assert!(
            matches!(evicted, Suspicion::Evict(ViewStep { epoch: 1, .. }, ref recipients, false) if recipients[..] == group[..])
        );
        assert_eq!(m.members(), &group[..7]);
        // Ids are keys, not indices: {3, 70, 4000}.
        let mut m = FrameMembership::new(&[t(3), t(70), t(4000)]);
        m.hear(t(4000));
        m.hear(t(70));
        assert!(m.heard(t(70)) && m.heard(t(4000)) && !m.heard(t(3)) && !m.heard(t(0)));
        assert_eq!(
            m.suspect(&[t(70), t(4000)], false),
            Ok(Suspicion::Refused {
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
            let heard: Vec<ThreadId> = m.heard_from.iter().collect();
            assert_eq!(heard, reference.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_thread_set_holds_word_edges_sparse_ids_and_a_group_of_twelve() {
        // (inserted, then removed) → the set, ascending.
        type Row = (&'static [u32], &'static [u32], &'static [u32]);
        let rows: [Row; 10] = [
            (&[], &[], &[]),
            (&[0], &[], &[0]),
            // The inline word's last bit, and the first bit past it.
            (&[63], &[], &[63]),
            (&[64], &[], &[64]),
            (&[4000, 70, 64, 63, 0], &[], &[0, 63, 64, 70, 4000]),
            (&[0, 63, 64, 70, 4000], &[64, 4000], &[0, 63, 70]),
            (&[70, 70], &[70], &[]),
            // Removing a thread past the last word changes nothing.
            (&[0], &[4000], &[0]),
            (
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                &[],
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            ),
            (
                &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                &[3, 11, 12],
                &[0, 1, 2, 4, 5, 6, 7, 8, 9, 10],
            ),
        ];
        let probes = [0, 1, 3, 11, 12, 63, 64, 65, 70, 4000, 4001, 9_999];
        for (inserted, removed, held) in rows {
            let mut set: ThreadSet = ids(inserted).into_iter().collect();
            for &gone in removed {
                set.set(t(gone), false);
            }
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                ids(held),
                "{inserted:?} - {removed:?}"
            );
            for probe in probes {
                assert_eq!(set.contains(t(probe)), held.contains(&probe), "T{probe}");
            }
            // Cleared, it holds nothing and takes threads again.
            set.clear();
            assert_eq!(set.iter().count(), 0);
            assert!(probes.iter().all(|&probe| !set.contains(t(probe))));
            set.set(t(64), true);
            assert_eq!(set.iter().collect::<Vec<_>>(), [t(64)]);
        }
    }

    #[test]
    fn initial_view_is_sorted_full_group_at_epoch_zero() {
        let m = FrameMembership::new(&[t(3), t(1), t(2), t(1)]);
        assert_eq!(state(&m), (ids(&[1, 2, 3]), vec![], 0));
        assert!(!m.evicted);
    }

    #[test]
    fn apply_removes_members_and_bumps_epoch() {
        // A local eviction and an adopted announcement step one counter.
        let mut m = FrameMembership::new(&[t(0), t(1), t(2), t(3)]);
        m.suspect(&[t(2)], false).expect("T2 was live");
        assert_eq!(state(&m), (ids(&[0, 1, 3]), ids(&[2]), 1));
        let step = m.adopt_removals(t(0), &[t(3)]).expect("T3 was live");
        assert_eq!((step.epoch, step.removed.to_vec()), (2, ids(&[3])));
        assert_eq!(state(&m), (ids(&[0, 1]), ids(&[2, 3]), 2));
    }

    #[test]
    fn duplicate_announcements_are_idempotent() {
        // A peer that detected the same crash concurrently announces it
        // too; so does a resolver's commit: neither steps the view again.
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        m.suspect(&[t(1)], false).expect("T1 was live");
        assert_eq!(m.adopt_removals(t(0), &[t(1)]), None);
        assert_eq!(m.adopt_removals(t(0), &ids(&[1, 1])), None);
        assert_eq!(state(&m), (ids(&[0, 2]), ids(&[1]), 1));
    }

    #[test]
    fn adopt_removals_merges_set_wise() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2), t(3)]);
        // A step announcement merges at our own next epoch.
        assert_eq!(adopt(&mut m, t(0), &[t(2)]), Some((1, vec![t(2)])));
        // Re-announcing the same removal carries nothing new.
        assert_eq!(adopt(&mut m, t(0), &[t(2)]), None);
        // A cumulative set from a peer that also removed T1 merges the
        // fresh subset only — no conflict is possible.
        assert_eq!(adopt(&mut m, t(0), &[t(1), t(2)]), Some((2, vec![t(1)])));
        assert_eq!(m.members(), &[t(0), t(3)]);
        assert_eq!(m.removed(), &[t(1), t(2)]);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn adopt_rejoin_readmits_and_rejects_stale() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        m.suspect(&[t(1)], false).unwrap();
        assert_eq!(m.adopt_rejoin(t(1)), Some(2));
        assert_eq!(m.members(), &[t(0), t(1), t(2)]);
        // A duplicate grant broadcast is stale: T1 is already live.
        assert_eq!(m.adopt_rejoin(t(1)), None);
        // Nor can a live member that was never removed, or a thread that
        // was never a member.
        assert_eq!(m.adopt_rejoin(t(0)), None);
        assert_eq!(m.adopt_rejoin(t(9)), None);
        assert_eq!(m.epoch(), 2);
    }

    #[test]
    fn rejoin_conflicts_are_detected() {
        // T1 and T3 crashed; T1 has rejoined. The conflicts a rejoin can
        // still meet: a live member, a thread outside the group, and a
        // repeat of a rejoin already granted.
        let mut m = FrameMembership::new(&[t(0), t(1), t(2), t(3)]);
        m.suspect(&[t(1), t(3)], false).unwrap();
        assert_eq!(m.adopt_rejoin(t(1)), Some(2));
        let before = state(&m);
        for conflict in [t(0), t(2), t(9), t(1)] {
            assert_eq!(m.adopt_rejoin(conflict), None, "{conflict} cannot rejoin");
        }
        assert_eq!(state(&m), before, "conflicts leave the view untouched");
        assert_eq!(before, (ids(&[0, 1, 2]), ids(&[3]), 2));
        // The joiner side refuses a grant that never re-admitted it.
        assert!(FrameMembership::sync_grant(&[t(0), t(1), t(2), t(3)], 2, &[t(3)], t(3)).is_err());
    }

    #[test]
    fn rejoin_readmits_a_removed_member_at_the_next_epoch() {
        let mut m = FrameMembership::new(&[t(0), t(1), t(2)]);
        m.adopt_removals(t(0), &[t(1)]).expect("T1 was live");
        assert_eq!(m.adopt_rejoin(t(1)), Some(2));
        assert_eq!(state(&m), (ids(&[0, 1, 2]), vec![], 2));
        // A re-admitted member can crash again, at a later epoch.
        m.suspect(&[t(1)], false).expect("T1 is live again");
        assert_eq!(state(&m), (ids(&[0, 2]), ids(&[1]), 3));
    }

    #[test]
    fn rejoin_round_trips_between_granter_and_joiner() {
        // T1 crashed (epoch 1); a survivor grants its rejoin at epoch 2.
        let group = [t(0), t(1), t(2)];
        let mut granter = FrameMembership::new(&group);
        granter.suspect(&[t(1)], false).unwrap();
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

    /// What a membership holds: live members, removed set, epoch.
    fn state(m: &FrameMembership) -> (Vec<ThreadId>, Vec<ThreadId>, u32) {
        (m.members().to_vec(), m.removed().to_vec(), m.epoch())
    }

    fn ids(ns: &[u32]) -> Vec<ThreadId> {
        ns.iter().copied().map(t).collect()
    }

    #[test]
    fn a_joiner_takes_the_grant_set_wise() {
        // (grant epoch, grant's removed set, joiner) → the joiner's
        // (members, removed, epoch), or `None` for a rejected grant; over
        // the group {T0, T1, T2, T3}.
        type Row = (
            u32,
            &'static [u32],
            u32,
            Option<(&'static [u32], &'static [u32], u32)>,
        );
        let full: &[u32] = &[0, 1, 2, 3];
        let rows: [Row; 14] = [
            // Epoch 0, nothing removed: the identity.
            (0, &[], 1, Some((full, &[], 0))),
            // Epoch 0 with removals: members are rejected, outsiders
            // ignored.
            (0, &[2], 1, None),
            (0, &[9], 1, Some((full, &[], 0))),
            (0, &[2, 9], 1, None),
            // Epoch > 0, nothing removed: the joiner stays at epoch 0.
            (3, &[], 1, Some((full, &[], 0))),
            // Epoch > 0 with removals: the joiner lands on the grant's
            // epoch and removed set.
            (3, &[2], 1, Some((&[0, 1, 3], &[2], 3))),
            (5, &[3, 2], 1, Some((&[0, 1], &[2, 3], 5))),
            (2, &[2, 2], 1, Some((&[0, 1, 3], &[2], 2))),
            // A removed set naming a thread outside the group.
            (3, &[9], 1, None),
            (3, &[2, 9], 1, None),
            // A grant that does not re-admit the joiner.
            (2, &[1], 1, None),
            (0, &[1], 1, None),
            (4, &[1, 2], 1, None),
            (0, &[], 9, None),
        ];
        let group = ids(full);
        for (epoch, removed, me, expect) in rows {
            let removed = ids(removed);
            let expect = expect.map(|(members, gone, epoch)| (ids(members), ids(gone), epoch));
            let joined = FrameMembership::sync_grant(&group, epoch, &removed, t(me));
            assert_eq!(
                joined.as_ref().ok().map(state),
                expect,
                "grant (epoch {epoch}, removed {removed:?}) to T{me}"
            );
        }
    }

    #[test]
    fn suspicion_evicts_at_the_next_epoch_or_refuses() {
        // (heard from, suspects) over the group {T0, T1, T2} → the
        // decision and the (members, removed, epoch) after it.
        #[derive(Debug, PartialEq)]
        enum Decided {
            Evict(u32, Vec<ThreadId>),
            Refused(usize, usize),
            Violation,
        }
        type Row = (&'static [u32], &'static [u32], Decided, &'static [u32], u32);
        let rows: [Row; 9] = [
            (&[], &[1], Decided::Evict(1, ids(&[0, 1, 2])), &[0, 2], 1),
            (&[], &[2, 1], Decided::Evict(1, ids(&[0, 1, 2])), &[0], 1),
            (&[], &[1, 1], Decided::Evict(1, ids(&[0, 1, 2])), &[0, 2], 1),
            // A tie evicts; a recently-alive majority is refused.
            (&[1], &[1, 2], Decided::Evict(1, ids(&[0, 1, 2])), &[0], 1),
            (&[1, 2], &[1, 2], Decided::Refused(1, 2), &[0, 1, 2], 0),
            // The gate is asked before the suspects are checked.
            (&[1, 2], &[1, 2, 9], Decided::Refused(1, 2), &[0, 1, 2], 0),
            // No suspect, or one that is not a live member.
            (&[], &[], Decided::Violation, &[0, 1, 2], 0),
            (&[], &[9], Decided::Violation, &[0, 1, 2], 0),
            (&[], &[1, 9], Decided::Violation, &[0, 1, 2], 0),
        ];
        for (heard, suspects, expect, members, epoch) in rows {
            let mut m = FrameMembership::new(&ids(&[0, 1, 2]));
            for &peer in heard {
                m.hear(t(peer));
            }
            let decided = match m.suspect(&ids(suspects), false) {
                Ok(Suspicion::Evict(step, recipients, _)) => {
                    Decided::Evict(step.epoch, recipients.to_vec())
                }
                Ok(Suspicion::Refused {
                    survivors,
                    recently_alive,
                }) => Decided::Refused(survivors, recently_alive),
                Ok(Suspicion::GiveUp) => unreachable!("a suspicion never gives up"),
                Err(_) => Decided::Violation,
            };
            assert_eq!(decided, expect, "heard {heard:?}, suspects {suspects:?}");
            assert_eq!((m.members().to_vec(), m.epoch()), (ids(members), epoch));
            assert_eq!(m.evicted, matches!(decided, Decided::Refused(..)));
        }
        // A suspect removed already is no live member either.
        let mut m = FrameMembership::new(&ids(&[0, 1, 2]));
        assert!(m.suspect(&[t(1)], false).is_ok());
        assert!(m.suspect(&[t(1)], false).is_err());
        assert_eq!(state(&m), (ids(&[0, 2]), ids(&[1]), 1));
    }

    #[test]
    fn an_adopted_removal_set_steps_the_view_and_may_evict_this_thread() {
        // T0's view of {T0, T1, T2, T3}: (announced set) → the step it
        // takes (epoch, fresh removals), and whether T0 is evicted.
        type Row = (&'static [u32], Option<(u32, &'static [u32])>, bool);
        let rows: [Row; 7] = [
            (&[2], Some((1, &[2])), false),
            (&[], None, false),
            (&[9], None, false),
            (&[2, 2, 1], Some((1, &[1, 2])), false),
            (&[3, 9], Some((1, &[3])), false),
            (&[0], Some((1, &[0])), true),
            (&[1, 0], Some((1, &[0, 1])), true),
        ];
        for (announced, expect, evicted) in rows {
            let mut m = FrameMembership::new(&ids(&[0, 1, 2, 3]));
            let step = adopt(&mut m, t(0), &ids(announced));
            assert_eq!(
                step,
                expect.map(|(epoch, fresh)| (epoch, ids(fresh))),
                "announced {announced:?}"
            );
            assert_eq!(m.evicted, evicted, "announced {announced:?}");
        }
    }

    /// One adopted announcement at `me`'s frame: the step it took.
    fn adopt(
        m: &mut FrameMembership,
        me: ThreadId,
        removed: &[ThreadId],
    ) -> Option<(u32, Vec<ThreadId>)> {
        let step = m.adopt_removals(me, removed)?;
        Some((step.epoch, step.removed.to_vec()))
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
