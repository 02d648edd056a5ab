//! One whole resolution round (§3.3.2) driven through three [`Frame`]s by
//! hand: messages travel in a plain FIFO queue, with no network, endpoint
//! or fiber, and this file plays the host — it feeds each frame what
//! arrives and sends what the frame's resolver answers.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::rc::Rc;

use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::{ActionId, RoleId, ThreadId};
use caa_core::message::{Message, MessageKind};
use caa_exgraph::ExceptionGraphBuilder;
use caa_protocol::rounds::{Feed, Round, RoundAction, RoundEnd, Unwind};
use caa_protocol::{ActionSpec, Frame, XrrResolution};

/// What a frame's round decides, for a host with no fatal error of its own.
type Action = RoundAction<Infallible>;

/// Three participants, each with its frame of one action instance and the
/// round it is in; the messages in flight.
struct Hand {
    frames: Vec<Frame<ActionSpec>>,
    rounds: Vec<Round>,
    queue: VecDeque<(ThreadId, Message)>,
}

impl Hand {
    /// Feeds frame `i`'s resolver and queues what it sends.
    fn feed(&mut self, i: usize, feed: Feed) {
        let actions = self.frames[i].feed(&XrrResolution, feed);
        self.queue.extend(actions.outbound);
    }

    /// Frame `i` starts recovering (its body was interrupted, or it
    /// raised): what it stashed is absorbed first, then its own transition
    /// is fed — the order a host's recovery driver keeps.
    fn recover(&mut self, i: usize, own: Feed) {
        self.rounds[i] = Round::Resolution;
        while let Some(msg) = self.frames[i].inbox.control.pop_front() {
            let decided = self.frames[i].absorb(msg, true, Round::Resolution);
            self.perform(i, decided);
        }
        self.feed(i, own);
    }

    /// Performs what frame `i` decided about a message.
    fn perform(&mut self, i: usize, action: Action) {
        match action {
            RoundAction::Continue => {}
            RoundAction::Interrupt(Unwind::Suspend) => self.recover(i, Feed::Suspend),
            RoundAction::Control {
                step: None,
                feed,
                rearm: false,
            } => {
                if let Some(feed) = feed {
                    self.feed(i, feed);
                }
            }
            other => panic!("T{i}: no crash-free resolution decides {other:?}"),
        }
    }
}

#[test]
fn three_frames_resolve_two_concurrent_raises_through_a_queue() {
    let t = ThreadId::new;
    let action = ActionId::top_level(1);
    let graph = ExceptionGraphBuilder::new()
        .resolves("e1∩e2", ["e1", "e2"])
        .build()
        .expect("a valid graph");
    let spec = Rc::new(ActionSpec {
        group: [t(0), t(1), t(2)].into_iter().collect(),
        graph: Rc::new(graph),
        corruption_exception: ExceptionId::new("l_mes"),
    });
    let mut hand = Hand {
        frames: Vec::new(),
        rounds: vec![Round::Body; 3],
        queue: VecDeque::new(),
    };
    for i in 0..3 {
        let mut frame = Frame::new(&spec);
        frame.reenter(action, &spec, RoleId::new(i), t(i));
        hand.frames.push(*frame);
    }

    // T0 and T1 raise concurrently; T2 is still in its body.
    hand.recover(0, Feed::Raise(Exception::new("e1").with_origin(t(0))));
    hand.recover(1, Feed::Raise(Exception::new("e2").with_origin(t(1))));
    let mut sent = 0;
    while let Some((to, msg)) = hand.queue.pop_front() {
        assert!(matches!(
            msg.kind(),
            MessageKind::Exception | MessageKind::Suspended | MessageKind::Commit
        ));
        sent += 1;
        let i = to.index();
        let round = hand.rounds[i];
        let decided = hand.frames[i].absorb(msg, true, round);
        hand.perform(i, decided);
    }

    let resolved = ExceptionId::new("e1∩e2");
    for (i, frame) in hand.frames.iter().enumerate() {
        assert!(
            matches!(Round::Resolution.status(Some(frame)), Some(RoundEnd::Resolved(e)) if e == resolved),
            "T{i} resolves the covering exception"
        );
    }
    // §3.3.3: (N + 1)(N − 1) messages for N = 3, however many raised.
    assert_eq!(sent, 8);
}
