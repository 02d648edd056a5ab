//! What drives a network's endpoints: the two things the endpoint
//! operations in [`crate::net`] need from whoever hosts them — exclusive
//! access to the [`Core`], and a way to give up the CPU — and the host
//! `caa-runtime` uses, [`Fibers`]. The thread host is [`crate::threads`].

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use caa_core::ids::PartitionId;

use crate::simcore::Core;
use crate::tap::NetTap;

/// How the endpoints of one network reach its core and how a blocked one
/// sleeps. A handle: clones share the network. Sealed — the two hosts are
/// [`Threads`](crate::Threads) and [`Fibers`].
pub trait Host<M>: Clone {
    /// Wraps a new network's core. The tap stays outside the core's cell:
    /// it is called after the core has been released.
    fn new(core: Core<M>, tap: Option<Arc<dyn NetTap>>) -> Self;

    /// The core back, if this is the last handle to it.
    fn into_core(self) -> Option<Core<M>>;

    /// The network's tap, if any.
    fn tap(&self) -> Option<&dyn NetTap>;

    /// Exclusive access to the core for the length of `f`, which must not
    /// call back into the network.
    fn with<R>(&self, f: impl FnOnce(&mut Core<M>) -> R) -> R;

    /// One turn of endpoint `id`'s blocking operation: runs `turn` on the
    /// core and, when it answers `None` ("park"), releases the core and
    /// gives up the CPU until a wake site has marked `id` runnable —
    /// returning `None` for the caller to take its next turn.
    fn turn<T>(&self, id: PartitionId, turn: impl FnOnce(&mut Core<M>) -> Option<T>) -> Option<T>;
}

struct FiberShared<M> {
    core: RefCell<Core<M>>,
    tap: Option<Arc<dyn NetTap>>,
}

/// The host of a network whose endpoints all run as fibers of one thread
/// ([`FiberNetwork`](crate::FiberNetwork), what `caa-runtime`'s
/// `System::run` builds): the core sits in an `Rc<RefCell<_>>`, so such a
/// network and its endpoints are `!Send`, and an operation costs a borrow
/// flag, not a lock. A blocked endpoint [suspends](caa_fiber::suspend) its
/// fiber; whoever resumes the fibers asks
/// [`take_runnable`](crate::Network::take_runnable) which ones to resume.
/// The borrow is never held across a suspend or a tap call.
pub struct Fibers<M>(Rc<FiberShared<M>>);

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
    fn new(core: Core<M>, tap: Option<Arc<dyn NetTap>>) -> Self {
        Fibers(Rc::new(FiberShared {
            core: RefCell::new(core),
            tap,
        }))
    }

    fn into_core(self) -> Option<Core<M>> {
        Some(Rc::try_unwrap(self.0).ok()?.core.into_inner())
    }

    fn tap(&self) -> Option<&dyn NetTap> {
        self.0.tap.as_deref()
    }

    #[inline(always)]
    fn with<R>(&self, f: impl FnOnce(&mut Core<M>) -> R) -> R {
        f(&mut self.0.core.borrow_mut())
    }

    #[inline(always)]
    fn turn<T>(&self, _: PartitionId, turn: impl FnOnce(&mut Core<M>) -> Option<T>) -> Option<T> {
        let ready = self.with(turn);
        if ready.is_none() {
            caa_fiber::suspend();
        }
        ready
    }
}
