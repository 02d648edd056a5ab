//! The thread host: a network whose endpoints are driven by concurrently
//! running OS threads. Everything thread-shaped about this crate is here —
//! the mutex around the core and the condvar a blocked endpoint's thread
//! sleeps on. It serves this crate's own thread tests and doc-tests and
//! the benchmark's two simnet kernels; a `System` never runs on it.

use std::fmt;
use std::sync::Arc;

use caa_core::ids::PartitionId;
use parking_lot::{Condvar, Mutex};

use crate::host::Host;
use crate::simcore::Core;
use crate::tap::NetTap;

struct Locked<M> {
    core: Core<M>,
    /// Each endpoint's private parking slot, made when it first parks.
    condvars: Vec<Arc<Condvar>>,
}

impl<M> Locked<M> {
    /// Turns the runnable marks the core's wake sites have set into
    /// notifications, each to the one thread parked on that endpoint.
    /// (An endpoint that never parked has no condvar and nobody to wake;
    /// its start-up mark is cleared when it first parks.)
    fn notify_woken(&mut self) {
        for (i, condvar) in self.condvars.iter().enumerate() {
            let id = PartitionId::new(u32::try_from(i).expect("fewer than 2^32 endpoints"));
            if self.core.take_runnable(id) {
                condvar.notify_one();
            }
        }
    }
}

struct ThreadShared<M> {
    locked: Mutex<Locked<M>>,
    tap: Option<Arc<dyn NetTap>>,
}

/// The host of a network whose endpoints OS threads drive (the default:
/// [`Network<M>`](crate::Network), [`Endpoint<M>`](crate::Endpoint)): the
/// core sits behind one mutex, taken once per operation — a blocking one
/// once more each time it is woken — and a blocked endpoint's thread waits
/// on that endpoint's own condvar, so a hand-off is a futex sleep and
/// wake-up. Such endpoints are `Send` when the message type is.
///
/// Endpoints serialise on the one mutex; what they observe does not depend
/// on who wins it, because delivery order is decided by heap keys and
/// per-link sequence numbers, not by lock order. Taps are called after the
/// mutex is released.
pub struct Threads<M>(Arc<ThreadShared<M>>);

impl<M> Clone for Threads<M> {
    fn clone(&self) -> Self {
        Threads(Arc::clone(&self.0))
    }
}

impl<M> fmt::Debug for Threads<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Threads")
    }
}

impl<M> Host<M> for Threads<M> {
    fn new(core: Core<M>, tap: Option<Arc<dyn NetTap>>) -> Self {
        Threads(Arc::new(ThreadShared {
            locked: Mutex::new(Locked {
                core,
                condvars: Vec::new(),
            }),
            tap,
        }))
    }

    fn into_core(self) -> Option<Core<M>> {
        Some(Arc::try_unwrap(self.0).ok()?.locked.into_inner().core)
    }

    fn tap(&self) -> Option<&dyn NetTap> {
        self.0.tap.as_deref()
    }

    fn with<R>(&self, f: impl FnOnce(&mut Core<M>) -> R) -> R {
        let mut locked = self.0.locked.lock();
        let result = f(&mut locked.core);
        locked.notify_woken();
        result
    }

    fn turn<T>(&self, id: PartitionId, turn: impl FnOnce(&mut Core<M>) -> Option<T>) -> Option<T> {
        let mut locked = self.0.locked.lock();
        let ready = turn(&mut locked.core);
        // The turn may have been the block that let time advance.
        locked.notify_woken();
        if ready.is_none() {
            let i = id.index();
            if locked.condvars.len() <= i {
                locked.condvars.resize_with(i + 1, Arc::default);
            }
            // Blocked state and wait share one critical section, so a
            // wake-up cannot fall between them.
            let condvar = Arc::clone(&locked.condvars[i]);
            condvar.wait(&mut locked);
        }
        ready
    }
}
