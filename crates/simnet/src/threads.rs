//! The thread host: a network whose endpoints are driven by concurrently
//! running OS threads. Everything thread-shaped about this crate is here —
//! the mutex around the core and the condvar a blocked endpoint's thread
//! sleeps on. It serves this crate's own thread tests and doc-tests and
//! the benchmark's two simnet kernels; a `System` never runs on it.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use caa_core::ids::PartitionId;

use crate::host::Host;
use crate::simcore::Core;

/// Why a lock or a wait on the core fails: an endpoint's thread panicked
/// while it held the core, which may be left mid-update and must not be
/// used again.
const POISONED: &str = "an endpoint's thread panicked while it held the network core";

struct Locked<M> {
    core: Core<M>,
    /// Each endpoint's private parking slot, made when it first parks.
    condvars: Vec<Arc<Condvar>>,
}

impl<M> Locked<M> {
    /// Turns the runnable marks the core's wake sites have set into
    /// notifications, each to the one thread parked on that endpoint.
    /// (An endpoint that never parked has no condvar and nobody to wake.)
    fn notify_woken(&mut self) {
        while let Some(id) = self.core.next_runnable() {
            if let Some(condvar) = self.condvars.get(id.index()) {
                condvar.notify_one();
            }
        }
    }
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
/// per-link sequence numbers, not by lock order.
pub struct Threads<M>(Arc<Mutex<Locked<M>>>);

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
    fn new(core: Core<M>) -> Self {
        Threads(Arc::new(Mutex::new(Locked {
            core,
            condvars: Vec::new(),
        })))
    }

    fn into_core(self) -> Option<Core<M>> {
        let locked = Arc::try_unwrap(self.0).ok()?;
        Some(locked.into_inner().expect(POISONED).core)
    }

    fn with<R>(&self, f: impl FnOnce(&mut Core<M>) -> R) -> R {
        let mut locked = self.0.lock().expect(POISONED);
        let result = f(&mut locked.core);
        locked.notify_woken();
        result
    }

    fn turn<T>(&self, id: PartitionId, turn: impl FnOnce(&mut Core<M>) -> Option<T>) -> Option<T> {
        let mut locked = self.0.lock().expect(POISONED);
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
            drop(condvar.wait(locked).expect(POISONED));
        }
        ready
    }
}
