//! Message counters.
//!
//! §3.3.3 and §3.4 state exact message-complexity results — e.g.
//! `(N + 1) × (N − 1)` messages for a single exception with no nesting —
//! which the benchmark harness verifies empirically. The network therefore
//! counts every message by a caller-supplied *class* label (the runtime
//! uses the protocol message kinds; application traffic is counted
//! separately, since the paper's results exclude it).

use caa_core::inline::InlineVec;

/// Classification hook: the network asks each payload for its class label.
///
/// Implement this for your message type so [`NetStats`] can attribute
/// counts. Labels should be `'static` literals (e.g. `"Exception"`).
pub trait Classify {
    /// The class label under which this message is counted.
    fn class(&self) -> &'static str;

    /// An optional correlation key reported to network taps
    /// ([`crate::NetTap`]); defaults to 0. The CA-action runtime reports
    /// the action-instance serial so traces can attribute protocol traffic
    /// to action instances.
    fn correlation(&self) -> u64 {
        0
    }
}

impl Classify for caa_core::Message {
    /// Protocol messages are counted under their [`caa_core::MessageKind`]
    /// names, so the §3.3.3 / §3.4 complexity results can be read straight
    /// off the counters.
    fn class(&self) -> &'static str {
        match self.kind() {
            caa_core::MessageKind::Exception => "Exception",
            caa_core::MessageKind::Suspended => "Suspended",
            caa_core::MessageKind::Commit => "Commit",
            caa_core::MessageKind::Resolve => "Resolve",
            caa_core::MessageKind::ViewChange => "ViewChange",
            caa_core::MessageKind::JoinRequest => "JoinRequest",
            caa_core::MessageKind::JoinGrant => "JoinGrant",
            caa_core::MessageKind::ToBeSignalled => "toBeSignalled",
            caa_core::MessageKind::ExitVote => "ExitVote",
            caa_core::MessageKind::App => "App",
        }
    }

    /// Protocol messages correlate by the action instance they belong to.
    fn correlation(&self) -> u64 {
        self.action().serial()
    }
}

/// Snapshot of per-class message counters.
///
/// # Examples
///
/// ```
/// use caa_simnet::NetStats;
///
/// let mut stats = NetStats::default();
/// stats.record_sent("Exception");
/// stats.record_sent("Exception");
/// stats.record_dropped("Commit");
/// assert_eq!(stats.sent("Exception"), 2);
/// assert_eq!(stats.dropped("Commit"), 1);
/// assert_eq!(stats.total_sent(), 2);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// One row per class seen, sorted by class name. A network sees a
    /// dozen classes at most (the runtime's ten message kinds), so the
    /// rows live inline: counting a message is a search over a few
    /// `&'static str`s, and taking the snapshot copies the struct.
    classes: InlineVec<(&'static str, ClassCounts), 12>,
    retransmissions: u64,
}

/// The counters of one message class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ClassCounts {
    sent: u64,
    dropped: u64,
    corrupted: u64,
}

impl NetStats {
    /// `class`'s row, added (all zero) on first sight.
    #[inline]
    fn row(&mut self, class: &'static str) -> &mut ClassCounts {
        // A label is a literal, so the row of the message before — same
        // class, same literal — is found by address, without comparing a
        // byte; only a label's first sight (per literal) goes by its text.
        let known = self
            .classes
            .iter()
            .position(|&(c, _)| std::ptr::eq(c, class));
        let at = match known {
            Some(at) => at,
            None => match self.classes.binary_search_by_key(&class, |&(c, _)| c) {
                Ok(at) => at,
                Err(at) => {
                    self.classes.insert(at, (class, ClassCounts::default()));
                    at
                }
            },
        };
        &mut self.classes[at].1
    }

    /// `class`'s row, all zero when the class was never seen.
    fn counts(&self, class: &str) -> ClassCounts {
        self.classes
            .binary_search_by_key(&class, |&(c, _)| c)
            .map_or_else(|_| ClassCounts::default(), |at| self.classes[at].1)
    }

    /// Records a successfully enqueued message of the given class.
    #[inline]
    pub fn record_sent(&mut self, class: &'static str) {
        self.row(class).sent += 1;
    }

    /// Records a message lost by fault injection.
    #[inline]
    pub fn record_dropped(&mut self, class: &'static str) {
        self.row(class).dropped += 1;
    }

    /// Records a message corrupted by fault injection.
    #[inline]
    pub fn record_corrupted(&mut self, class: &'static str) {
        self.row(class).corrupted += 1;
    }

    /// Records `n` ack-timeout retransmissions.
    #[inline]
    pub fn record_retransmissions(&mut self, n: u64) {
        self.retransmissions += n;
    }

    /// Messages of `class` sent (including later-corrupted ones, excluding
    /// dropped ones).
    #[must_use]
    pub fn sent(&self, class: &str) -> u64 {
        self.counts(class).sent
    }

    /// Messages of `class` lost by fault injection.
    #[must_use]
    pub fn dropped(&self, class: &str) -> u64 {
        self.counts(class).dropped
    }

    /// Messages of `class` corrupted by fault injection.
    #[must_use]
    pub fn corrupted(&self, class: &str) -> u64 {
        self.counts(class).corrupted
    }

    /// Total messages sent across all classes.
    #[must_use]
    pub fn total_sent(&self) -> u64 {
        self.iter_sent().map(|(_, n)| n).sum()
    }

    /// Total ack-timeout retransmissions across all messages.
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Sum of sent counts over the classes for which `filter` returns true.
    ///
    /// The §3.3.3 results count only `Exception`, `Suspended` and `Commit`
    /// messages; this is the hook the harness uses to apply that filter.
    #[must_use]
    pub fn sent_matching(&self, mut filter: impl FnMut(&str) -> bool) -> u64 {
        self.iter_sent()
            .filter(|(class, _)| filter(class))
            .map(|(_, n)| n)
            .sum()
    }

    /// Iterates `(class, sent-count)` pairs in lexicographic class order,
    /// over the classes a message was sent in (a class that only ever lost
    /// its messages is not among them).
    pub fn iter_sent(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.classes
            .iter()
            .filter(|(_, counts)| counts.sent > 0)
            .map(|&(class, counts)| (class, counts.sent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_class() {
        let mut s = NetStats::default();
        for _ in 0..3 {
            s.record_sent("Exception");
        }
        s.record_sent("Commit");
        s.record_dropped("Suspended");
        s.record_corrupted("Commit");
        s.record_retransmissions(2);
        assert_eq!(s.sent("Exception"), 3);
        assert_eq!(s.sent("Commit"), 1);
        assert_eq!(s.sent("Suspended"), 0);
        assert_eq!(s.dropped("Suspended"), 1);
        assert_eq!(s.corrupted("Commit"), 1);
        assert_eq!(s.total_sent(), 4);
        assert_eq!(s.retransmissions(), 2);
    }

    #[test]
    fn sent_matching_filters_classes() {
        let mut s = NetStats::default();
        s.record_sent("Exception");
        s.record_sent("Suspended");
        s.record_sent("App");
        let control = s.sent_matching(|c| c != "App");
        assert_eq!(control, 2);
    }

    #[test]
    fn iter_sent_is_sorted() {
        let mut s = NetStats::default();
        s.record_sent("b");
        s.record_sent("a");
        let classes: Vec<_> = s.iter_sent().map(|(c, _)| c).collect();
        assert_eq!(classes, vec!["a", "b"]);
    }

    #[test]
    fn a_class_that_only_lost_messages_was_not_sent_in() {
        let mut s = NetStats::default();
        s.record_dropped("Commit");
        s.record_sent("App");
        assert_eq!(s.iter_sent().collect::<Vec<_>>(), vec![("App", 1)]);
        assert_eq!(s.dropped("Commit"), 1);
        assert_eq!(s.total_sent(), 1);
    }

    #[test]
    fn more_classes_than_fit_inline_stay_sorted() {
        let names: Vec<&'static str> = (0..20)
            .map(|i| &*format!("class{:02}", (i * 7) % 20).leak())
            .collect();
        let mut s = NetStats::default();
        for (i, name) in names.iter().enumerate() {
            for _ in 0..=i {
                s.record_sent(name);
            }
        }
        let seen: Vec<_> = s.iter_sent().map(|(c, _)| c).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(seen, sorted);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(s.sent(name), i as u64 + 1);
        }
        assert_eq!(s.total_sent(), (1..=20).sum::<u64>());
    }

    #[test]
    fn the_class_table_answers_like_the_three_maps_it_replaces() {
        use std::collections::BTreeMap;
        // Two literals with one text: found by text when the address
        // differs, and counted in one row.
        let twin: &'static str = String::from("Commit").leak();
        let classes = [
            "Exception",
            "Commit",
            twin,
            "App",
            "toBeSignalled",
            "ExitVote",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound
        };
        for _ in 0..100 {
            let mut stats = NetStats::default();
            let mut maps: [BTreeMap<&str, u64>; 3] = Default::default();
            for _ in 0..next(60) {
                let class = classes[next(classes.len() as u64) as usize];
                let which = next(3) as usize;
                match which {
                    0 => stats.record_sent(class),
                    1 => stats.record_dropped(class),
                    _ => stats.record_corrupted(class),
                }
                *maps[which].entry(class).or_insert(0) += 1;
            }
            let read = |map: &BTreeMap<&str, u64>, class| map.get(class).copied().unwrap_or(0);
            for class in classes {
                assert_eq!(stats.sent(class), read(&maps[0], class));
                assert_eq!(stats.dropped(class), read(&maps[1], class));
                assert_eq!(stats.corrupted(class), read(&maps[2], class));
            }
            let sent: Vec<(&str, u64)> = maps[0].iter().map(|(&c, &n)| (c, n)).collect();
            assert_eq!(stats.iter_sent().collect::<Vec<_>>(), sent);
            assert_eq!(stats.total_sent(), maps[0].values().sum::<u64>());
        }
    }

    #[test]
    fn unknown_classes_read_zero() {
        let s = NetStats::default();
        assert_eq!(s.sent("nothing"), 0);
        assert_eq!(s.total_sent(), 0);
    }
}
