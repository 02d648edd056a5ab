//! What drives a network's endpoints: the two things the endpoint
//! operations in [`crate::net`] need from whoever hosts them — exclusive
//! access to the [`Core`], and a way to give up the CPU — and the host
//! `caa-runtime` uses, [`Fibers`]. The thread host is [`crate::threads`].
//!
//! A host wraps the core and decides nothing: what the core decides about
//! a send goes back to the sender as the return value of
//! [`Endpoint::send`](crate::Endpoint::send), and who runs next is the
//! core's answer too ([`Network::next_runnable`](crate::Network::next_runnable)),
//! which [`Fibers`] asks on a parked endpoint's behalf.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use caa_core::ids::PartitionId;

use crate::simcore::Core;

/// How the endpoints of one network reach its core and how a blocked one
/// sleeps. A handle: clones share the network. Sealed — the two hosts are
/// [`Threads`](crate::Threads) and [`Fibers`].
pub trait Host<M>: Clone {
    /// Wraps a new network's core.
    fn new(core: Core<M>) -> Self;

    /// The core back, if this is the last handle to it.
    fn into_core(self) -> Option<Core<M>>;

    /// Exclusive access to the core for the length of `f`, which must not
    /// call back into the network.
    fn with<R>(&self, f: impl FnOnce(&mut Core<M>) -> R) -> R;

    /// One turn of endpoint `id`'s blocking operation: runs `turn` on the
    /// core and, when it answers `None` ("park"), releases the core and
    /// gives up the CPU until a wake site has marked `id` runnable —
    /// returning `None` for the caller to take its next turn.
    fn turn<T>(&self, id: PartitionId, turn: impl FnOnce(&mut Core<M>) -> Option<T>) -> Option<T>;
}

/// The host of a network whose endpoints all run as fibers of one thread
/// ([`FiberNetwork`](crate::FiberNetwork), what `caa-runtime`'s
/// `System::run` builds): the core sits in an `Rc<RefCell<_>>`, so such a
/// network and its endpoints are `!Send`, and an operation costs a borrow
/// flag, not a lock.
///
/// The endpoints' fibers are a [`caa_fiber::Group`] indexed by partition
/// id (`System::run`'s), and the endpoint that blocks asks the network
/// which runs next ([`next_runnable`](crate::Network::next_runnable)), in
/// the same borrow as the turn that parked it, then
/// [transfers](caa_fiber::transfer) the CPU straight to the fiber at the
/// pick's index: one stack switch a hand-off. The group's resumer sees
/// the CPU again only when a fiber finishes or the pick has none (an
/// endpoint outside the group, or nobody runnable), and then asks the
/// network itself — so it is asked once after each park, in the order a
/// loop resuming one fiber per park would ask it. The borrow is never
/// held across a switch. A fiber resumed on its own
/// ([`caa_fiber::Fiber::resume`]) has nobody to transfer to: it panics
/// when it parks with an endpoint runnable.
pub struct Fibers<M>(Rc<RefCell<Core<M>>>);

impl<M> Clone for Fibers<M> {
    fn clone(&self) -> Self {
        Fibers(Rc::clone(&self.0))
    }
}

impl<M> fmt::Debug for Fibers<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Fibers")
    }
}

impl<M> Host<M> for Fibers<M> {
    fn new(core: Core<M>) -> Self {
        Fibers(Rc::new(RefCell::new(core)))
    }

    fn into_core(self) -> Option<Core<M>> {
        Some(Rc::try_unwrap(self.0).ok()?.into_inner())
    }

    #[inline(always)]
    fn with<R>(&self, f: impl FnOnce(&mut Core<M>) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    #[inline(always)]
    fn turn<T>(&self, _: PartitionId, turn: impl FnOnce(&mut Core<M>) -> Option<T>) -> Option<T> {
        let mut core = self.0.borrow_mut();
        let ready = turn(&mut core);
        if ready.is_some() {
            return ready;
        }
        let next = core.next_runnable();
        drop(core);
        match next {
            Some(next) => caa_fiber::transfer(next.index()),
            None => caa_fiber::suspend(),
        }
        None
    }
}
