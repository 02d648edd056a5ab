//! One whole action instance — resolution (§3.3.2), §3.4's signalling and
//! the exit barrier (§5.1) — driven through three [`Frame`]s by hand:
//! messages travel in a plain FIFO queue, with no network, endpoint or
//! fiber, and this file plays the host. It performs what each frame
//! answers — a message it absorbed, a step of its recovery's opening, a
//! signalling step, an exit vote — and sends what it is told to; the order
//! between the rounds is the frames'.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::rc::Rc;

use caa_core::exception::{Exception, ExceptionId, Signal};
use caa_core::ids::{ActionId, RoleId, ThreadId};
use caa_core::message::{Message, MessageKind, SignalRound};
use caa_core::outcome::ActionOutcome;
use caa_exgraph::ExceptionGraphBuilder;
use caa_protocol::rounds::{self, Feed, Leave, Opening, Round, RoundAction, RoundEnd};
use caa_protocol::rounds::{SignalStep, Signalled, Unwind};
use caa_protocol::{ActionSpec, Frame, XrrResolution};

/// What a frame's round decides, for a host with no fatal error of its own.
type Action = RoundAction<Infallible>;

/// The instance the three frames are of.
const ACTION: ActionId = ActionId::top_level(1);

/// §3.4's first exchange.
const FIRST: SignalRound = SignalRound::First;

/// Three participants, each with its frame of one action instance and the
/// round it is in; the messages in flight.
struct Hand {
    frames: Vec<Frame<ActionSpec>>,
    rounds: Vec<Round>,
    queue: VecDeque<(ThreadId, Message)>,
}

impl Hand {
    /// T0–T2, each in the body of its frame of an action whose graph
    /// resolves `e1` and `e2` to `e1∩e2`.
    fn new() -> Hand {
        let t = ThreadId::new;
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
            frame.reenter(ACTION, &spec, RoleId::new(i), t(i));
            hand.frames.push(*frame);
        }
        hand
    }

    /// Feeds frame `i`'s resolver and queues what it sends.
    fn feed(&mut self, i: usize, feed: Feed) {
        let actions = self.frames[i].feed(&XrrResolution, feed);
        self.queue.extend(actions.outbound);
    }

    /// Frame `i` starts recovering (its body was interrupted, or it
    /// raised): it performs the frame's opening steps, then feeds its own
    /// transition when the frame says to announce it.
    fn recover(&mut self, i: usize, own: Feed) {
        self.rounds[i] = Round::Resolution;
        self.frames[i].begin_recovery();
        loop {
            match self.frames[i].next_opening() {
                Opening::Stashed(decided) => self.perform(i, decided),
                Opening::Announce => break,
                Opening::Excluded => panic!("T{i}: no crash-free run evicts"),
            }
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
            other => panic!("T{i}: no crash-free run decides {other:?}"),
        }
    }

    /// Queues `msg()` from frame `i` to every other member of `to`.
    fn broadcast(&mut self, i: usize, to: &[ThreadId], msg: impl Fn() -> Message) {
        let peers = to.iter().filter(|peer| peer.index() != i);
        self.queue.extend(peers.map(|&peer| (peer, msg())));
    }

    /// Hands every queued message to its frame, in the round that frame
    /// is in, until the queue runs dry: what was delivered, in order.
    fn deliver(&mut self) -> Vec<MessageKind> {
        let mut delivered = Vec::new();
        while let Some((to, msg)) = self.queue.pop_front() {
            delivered.push(msg.kind());
            let i = to.index();
            let decided = self.frames[i].absorb(msg, true, self.rounds[i]);
            self.perform(i, decided);
        }
        delivered
    }

    /// Where frame `i`'s round stands.
    fn status(&self, i: usize) -> Option<RoundEnd> {
        self.rounds[i].status(Some(&self.frames[i]))
    }
}

/// T0 and T1 raise concurrently while T2 is still in its body; the queue
/// runs dry. The messages the resolution round took.
fn resolve_two_concurrent_raises(hand: &mut Hand) -> Vec<MessageKind> {
    let t = ThreadId::new;
    hand.recover(0, Feed::Raise(Exception::new("e1").with_origin(t(0))));
    hand.recover(1, Feed::Raise(Exception::new("e2").with_origin(t(1))));
    hand.deliver()
}

#[test]
fn three_frames_resolve_two_concurrent_raises_through_a_queue() {
    let mut hand = Hand::new();
    let sent = resolve_two_concurrent_raises(&mut hand);
    assert!(sent.iter().all(|kind| matches!(
        kind,
        MessageKind::Exception | MessageKind::Suspended | MessageKind::Commit
    )));
    let resolved = ExceptionId::new("e1∩e2");
    for i in 0..3 {
        assert!(
            matches!(hand.status(i), Some(RoundEnd::Resolved(e)) if e == resolved),
            "T{i} resolves the covering exception"
        );
    }
    // §3.3.3: (N + 1)(N − 1) messages for N = 3, however many raised.
    assert_eq!(sent.len(), 8);
}

#[test]
fn three_frames_signal_case_1_and_exit_through_a_queue() {
    let mut hand = Hand::new();
    let resolution = resolve_two_concurrent_raises(&mut hand).len();
    let resolved = ExceptionId::new("e1∩e2");
    // Every handler signals the resolved exception: §3.4's case 1, one
    // exchange with neither ƒ nor µ in it.
    let mine = Signal::Exception(resolved);
    for i in 0..3 {
        let end = hand.status(i).expect("resolution ended");
        assert_eq!(hand.frames[i].resolved(end), Some(resolved));
        assert_eq!(hand.frames[i].handling(), Some(&resolved));
        hand.frames[i].handled();
        let step = rounds::signalling(&hand.frames[i], &mine, Signalled::Handled);
        assert_eq!(step, SignalStep::Exchange(FIRST, mine.clone()));
        let group = hand.frames[i].announce_signal(FIRST, &mine);
        hand.rounds[i] = Round::Signalling(FIRST);
        let from = hand.frames[i].id.me;
        hand.broadcast(i, &group, || Message::ToBeSignalled {
            action: ACTION,
            from,
            round: FIRST,
            signal: mine.clone(),
        });
    }
    let signalling = hand.deliver();
    assert!(signalling.iter().all(|&k| k == MessageKind::ToBeSignalled));

    for i in 0..3 {
        let Some(RoundEnd::Signals(collected)) = hand.status(i) else {
            panic!("T{i}: every announcement arrived");
        };
        let exchanged = Signalled::Exchanged(FIRST, collected);
        let step = rounds::signalling(&hand.frames[i], &mine, exchanged);
        assert_eq!(step, SignalStep::Done(mine.clone()), "T{i}: case 1");
        assert!(hand.frames[i].end_recovery().is_empty(), "nobody rejoined");
        let (epoch, view) = hand.frames[i].vote_exit().expect("T{i} is in the view");
        assert_eq!(epoch, 1, "the recovery opened the next exit epoch");
        hand.rounds[i] = Round::Exit;
        let from = hand.frames[i].id.me;
        hand.broadcast(i, &view, || Message::ExitVote {
            action: ACTION,
            from,
            epoch,
        });
    }
    let exit = hand.deliver();
    assert!(exit.iter().all(|&k| k == MessageKind::ExitVote));

    for i in 0..3 {
        let end = hand.status(i).expect("every vote arrived");
        assert_eq!(
            rounds::leave(end, Some(mine.clone().into())),
            Ok(Leave::Finalize(ActionOutcome::Signalled(resolved))),
            "T{i} leaves with the group's outcome"
        );
    }
    // §5.3's counts for N = 3: (N + 1)(N − 1) to resolve, N(N − 1) for
    // one signalling exchange and N(N − 1) for the exit barrier.
    let counts = (resolution, signalling.len(), exit.len());
    assert_eq!(counts, (8, 6, 6));
    assert_eq!(resolution + signalling.len() + exit.len(), 20);
}
