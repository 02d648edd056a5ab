//! Stackful, run-to-block fibers: a blocking closure runs on a stack of its
//! own and hands the CPU back to whoever resumed it by calling
//! [`suspend`] — a user-space stack switch (tens of nanoseconds) where an
//! OS thread would pay a futex sleep and wake-up (microseconds).
//!
//! This is what lets `caa-runtime`'s `System::run` host every
//! participant of a simulated system on the calling thread while the
//! role-facing API stays blocking closures: simnet's fiber host suspends
//! the current fiber where its thread host waits on a condvar, and a loop
//! in `System::run` resumes whichever participants the scheduler has made
//! runnable.
//!
//! The model is deliberately minimal:
//!
//! * a [`Fiber`] is resumed by the thread that owns it (it is neither
//!   `Send` nor `Sync`) and runs until it calls [`suspend`] or its body
//!   returns;
//! * fibers do not nest — [`Fiber::resume`] from inside a fiber panics —
//!   so "the current fiber" is one thread-local pointer and
//!   [`in_fiber`] is one load;
//! * a panic in the body is caught at the fiber's entry and handed to the
//!   resumer as the payload, exactly like joining a panicked thread;
//! * the [`Stack`] outlives the fiber and is handed back by
//!   [`Fiber::into_stack`] for the next one, so steady-state code maps
//!   none — and allocates none: what a fiber shares with its resumer (the
//!   body until it starts, the result once it ends) lives at the top of
//!   the stack itself, above the body's frames.
//!
//! # Why this crate may use `unsafe`
//!
//! Every other crate of the workspace carries `#![forbid(unsafe_code)]`.
//! Switching stacks cannot be expressed in safe Rust (nor can mapping a
//! guarded stack without the `libc` crate), so that one capability lives
//! here, behind a safe API, and nowhere else: two naked assembly routines
//! per supported architecture (`arch.rs`), three C-library calls
//! (`stack.rs`), and the raw-pointer cell a fiber shares with its resumer,
//! placed in the stack's own memory (this file). Every `unsafe` block states why its requirements hold
//! (`clippy::undocumented_unsafe_blocks` is denied), and CI runs this
//! crate's tests on both x86-64 and AArch64.
//!
//! # Examples
//!
//! ```
//! use caa_fiber::{suspend, Fiber, Stack};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let log = Rc::new(RefCell::new(Vec::new()));
//! let seen = Rc::clone(&log);
//! let mut fiber = Fiber::new(Stack::new(64 * 1024), move || {
//!     seen.borrow_mut().push("started");
//!     suspend();
//!     seen.borrow_mut().push("continued");
//!     42
//! });
//! assert!(fiber.resume().is_none()); // ran up to the suspend
//! log.borrow_mut().push("host");
//! let finished = fiber.resume().expect("the body returned");
//! assert_eq!(finished.unwrap(), 42);
//! assert_eq!(*log.borrow(), ["started", "host", "continued"]);
//! let _stack: Stack = fiber.into_stack(); // reusable
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(all(unix, any(target_arch = "x86_64", target_arch = "aarch64"))))]
compile_error!(
    "caa-fiber has no context switch for this target: crates/fiber/src/arch.rs needs a \
     `switch` routine (plus `trampoline` and the initial-frame layout) for this architecture, \
     and crates/fiber/src/stack.rs needs mmap/mprotect (unix)"
);

mod arch;
mod stack;

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

pub use stack::{stacks_mapped, Stack};

thread_local! {
    /// Set while a fiber runs on this thread: the slot holding its
    /// resumer's stack pointer (where [`suspend`] switches back to, and
    /// where it leaves the fiber's own in exchange). Null on a plain
    /// thread.
    static CURRENT: Cell<*mut *mut u8> = const { Cell::new(ptr::null_mut()) };
}

/// Whether the caller is running inside a [`Fiber`] (as opposed to
/// directly on an OS thread's own stack).
#[inline]
#[must_use]
pub fn in_fiber() -> bool {
    !CURRENT.get().is_null()
}

/// Suspends the current fiber: control returns to the
/// [`Fiber::resume`] call that last resumed it, and this call returns when
/// the fiber is resumed again.
///
/// Inlined into its caller: a switch leaves the CPU's return predictor
/// holding the other stack's call chain, so every frame a resumed fiber
/// returns through before it calls again is a mispredicted return — the
/// fewer frames between here and the code that uses the wake-up, the
/// cheaper a hand-off.
///
/// # Panics
///
/// When called outside a fiber — there is nobody to hand the CPU to.
#[inline]
pub fn suspend() {
    let slot = CURRENT.get();
    assert!(
        !slot.is_null(),
        "caa_fiber::suspend() called outside a fiber: only code running under Fiber::resume \
         can suspend (check in_fiber() first)"
    );
    // SAFETY: `CURRENT` is non-null only between the two switches of a
    // `Fiber::resume` on this thread, during which it points at the live
    // `Inner::sp` of the running fiber, holding the resumer's stack
    // pointer as stored by that `resume`'s switch. The resumer's stack is
    // this thread's own, blocked inside `resume`.
    unsafe { arch::switch(slot, *slot) };
}

/// The head of the cell a fiber shares with its resumer. Both sides reach
/// it through the raw pointer only (never through a long-lived reference),
/// one at a time: the resumer while the fiber is suspended, the fiber while
/// the resumer is blocked in [`Fiber::resume`].
#[repr(C)]
struct Inner<T> {
    /// The stack pointer of whichever side is *not* running.
    sp: *mut u8,
    /// Set by the entry function just before its final switch.
    result: Option<std::thread::Result<T>>,
}

/// The whole cell: the head, then the body until the fiber starts.
/// `repr(C)` puts the head first, so a pointer to a cell is a pointer to
/// its head whatever `F` is — which is how [`Fiber<T>`] does without
/// naming it. The cell lives at the top of the fiber's stack, above the
/// entry frame: made by [`Fiber::new`], dropped in place before the stack
/// is handed on ([`Fiber::release`]).
#[repr(C)]
struct Shared<F, T> {
    inner: Inner<T>,
    body: Option<F>,
}

/// A blocking closure on a stack of its own. See the [crate docs](crate).
pub struct Fiber<T> {
    inner: NonNull<Inner<T>>,
    /// Drops the cell `inner` heads, in place, as the `Shared<F, T>` it
    /// was made as.
    drop_shared: unsafe fn(NonNull<Inner<T>>),
    /// `Some` until [`Fiber::into_stack`] (or a leaking drop) takes it;
    /// while it is, the cell is live.
    stack: Option<Stack>,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Never resumed: the stack holds only the initial frame.
    Fresh,
    /// Suspended somewhere inside the body: the stack holds live frames.
    Suspended,
    /// The body returned or panicked; the stack is dead.
    Finished,
}

impl<T> Fiber<T> {
    /// Prepares `body` to run on `stack`. Nothing runs until the first
    /// [`Fiber::resume`], and nothing is allocated: `body` is moved to the
    /// top of `stack`, and its frames start below it.
    ///
    /// `body` must be `'static` (it runs on another stack and may be
    /// resumed after the creating frame is gone) but need not be `Send`:
    /// a fiber never leaves its thread.
    ///
    /// # Panics
    ///
    /// If `body` (what it captures) takes more than half of `stack`.
    #[must_use]
    pub fn new<F: FnOnce() -> T + 'static>(stack: Stack, body: F) -> Fiber<T> {
        // A page-aligned top less a multiple of the alignment is aligned
        // for the cell, and — a multiple of 16 — for the entry frame.
        let align = std::mem::align_of::<Shared<F, T>>().max(16);
        let room = std::mem::size_of::<Shared<F, T>>().next_multiple_of(align);
        assert!(
            align <= 4096 && room <= stack.usable_bytes() / 2,
            "a fiber body of {room} bytes (alignment {align}) does not fit its stack"
        );
        // SAFETY: `room` bytes below `stack.top()` are inside the usable
        // part of a mapping this fiber owns from here on, aligned as
        // computed above and used by nothing else, so the cell may be
        // written there; below it, `prepare` finds the (far more than 256)
        // writable bytes it needs under a 16-byte aligned top.
        let inner = unsafe {
            let shared = stack.top().sub(room).cast::<Shared<F, T>>();
            shared.write(Shared {
                inner: Inner {
                    sp: ptr::null_mut(),
                    result: None,
                },
                body: Some(body),
            });
            (*shared).inner.sp = arch::prepare(shared.cast(), entry::<F, T>, shared.cast());
            NonNull::new_unchecked(shared.cast::<Inner<T>>())
        };
        Fiber {
            inner,
            drop_shared: drop_shared::<F, T>,
            stack: Some(stack),
            state: State::Fresh,
        }
    }

    /// Runs the fiber until it next calls [`suspend`] (returns `None`) or
    /// its body ends (returns the body's value, or `Err` with the panic
    /// payload if it panicked — the contract of
    /// [`std::thread::JoinHandle::join`]).
    ///
    /// # Panics
    ///
    /// When called from inside a fiber (fibers do not nest), or on a
    /// fiber that has already finished.
    pub fn resume(&mut self) -> Option<std::thread::Result<T>> {
        assert!(
            !in_fiber(),
            "nested fibers are not supported: Fiber::resume() called from inside a fiber"
        );
        assert!(
            self.state != State::Finished,
            "Fiber::resume() called on a finished fiber"
        );
        let inner = self.inner.as_ptr();
        // SAFETY: an unfinished fiber still holds its stack, so `inner` is
        // the live cell written in `new`.
        let slot = unsafe { &raw mut (*inner).sp };
        CURRENT.set(slot);
        self.state = State::Suspended;
        // SAFETY: the fiber is not finished, so `*slot` is its stack
        // pointer from `prepare` or from its last `suspend`, on the stack
        // this `Fiber` owns; fibers are `!Send`, so it is not running
        // elsewhere, and `slot` is valid for the write of our own.
        unsafe { arch::switch(slot, *slot) };
        CURRENT.set(ptr::null_mut());
        // SAFETY: the fiber has switched back, so it is not touching
        // `inner`; if it set `result` it did so for good.
        let result = unsafe { (*inner).result.take() };
        if result.is_some() {
            self.state = State::Finished;
        }
        result
    }

    /// Takes the stack back for the next fiber.
    ///
    /// # Panics
    ///
    /// If the fiber is suspended inside its body — the stack still holds
    /// that body's live frames.
    #[must_use]
    pub fn into_stack(mut self) -> Stack {
        assert!(
            self.state != State::Suspended,
            "Fiber::into_stack() on a fiber suspended inside its body"
        );
        self.release().expect("the stack leaves only here")
    }

    /// Drops the cell (an unrun body, an untaken result) and gives up the
    /// stack it lived in. `None` when that has happened already.
    fn release(&mut self) -> Option<Stack> {
        let stack = self.stack.take()?;
        // SAFETY: `stack` was still here, so the cell written in `new` is
        // live, its memory mapped, and this is the one time it is dropped;
        // the callers rule out a suspended body, so no fiber frame that
        // knows the cell is alive (the fiber never ran, or ran to its
        // final switch).
        unsafe { (self.drop_shared)(self.inner) };
        Some(stack)
    }
}

impl<T> Drop for Fiber<T> {
    fn drop(&mut self) {
        if self.state == State::Suspended {
            // The body's frames hold live values, and the cell above them
            // whatever the body shared: unmapping the stack would leave
            // anything still reachable from them dangling. Dropping a
            // half-run fiber is a leak, like `mem::forget`.
            std::mem::forget(self.stack.take());
            return;
        }
        drop(self.release());
    }
}

impl<T> fmt::Debug for Fiber<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fiber")
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

/// Drops, in place, the `Shared<F, T>` that `inner` heads.
///
/// # Safety
///
/// `inner` must point at the head of a live `Shared<F, T>` of exactly
/// these `F` and `T` that nothing else is using, and the cell must not be
/// used afterwards.
unsafe fn drop_shared<F, T>(inner: NonNull<Inner<T>>) {
    // SAFETY: the caller's contract; `repr(C)` makes the head's address
    // the cell's.
    unsafe { ptr::drop_in_place(inner.as_ptr().cast::<Shared<F, T>>()) };
}

/// Where a fiber's first resume lands (through the trampoline): runs the
/// body, publishes its outcome and switches away for the last time.
unsafe extern "C" fn entry<F: FnOnce() -> T, T>(shared: *mut u8) -> ! {
    let shared = shared.cast::<Shared<F, T>>();
    // SAFETY: `shared` is the pointer `Fiber::new` passed to `prepare`; the
    // resumer is blocked in `resume` and does not touch it while we run.
    let body = unsafe { (*shared).body.take() }.expect("a fiber is entered once");
    // The closure is consumed here and its captures are not observed after
    // a panic, which is all `AssertUnwindSafe` waives. Catching matters
    // for soundness, not just reporting: there is no frame to unwind into
    // above this one.
    let result: Result<T, Box<dyn Any + Send>> = catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above for `shared`; `sp` holds the resumer's stack pointer
    // from the `resume` that is waiting for us.
    unsafe {
        (*shared).inner.result = Some(result);
        let slot = &raw mut (*shared).inner.sp;
        arch::switch(slot, *slot);
    }
    unreachable!("a finished fiber was resumed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    const TEST_STACK: usize = 256 * 1024;

    #[test]
    fn resume_and_suspend_alternate_in_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut fibers: Vec<Fiber<usize>> = (0..3)
            .map(|i| {
                let log = Rc::clone(&log);
                Fiber::new(Stack::new(TEST_STACK), move || {
                    for round in 0..3 {
                        assert!(in_fiber());
                        log.borrow_mut().push((round, i));
                        suspend();
                    }
                    i
                })
            })
            .collect();
        assert!(!in_fiber());
        for _ in 0..3 {
            for fiber in &mut fibers {
                assert!(fiber.resume().is_none());
                assert!(!in_fiber(), "resume returns on the host");
            }
        }
        let expected: Vec<_> = (0..3).flat_map(|r| (0..3).map(move |i| (r, i))).collect();
        assert_eq!(*log.borrow(), expected);
        for (i, fiber) in fibers.iter_mut().enumerate() {
            assert_eq!(fiber.resume().expect("body returns").unwrap(), i);
        }
    }

    #[test]
    fn locals_survive_a_suspend() {
        let mut fiber = Fiber::new(Stack::new(TEST_STACK), || {
            let before: Vec<u64> = (0..100).collect();
            let x = 1.5f64;
            suspend();
            before.iter().sum::<u64>() as f64 * x
        });
        assert!(fiber.resume().is_none());
        assert_eq!(fiber.resume().unwrap().unwrap(), 4950.0 * 1.5);
    }

    #[test]
    fn a_panic_comes_back_as_a_payload_and_the_stack_is_reusable() {
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let guard = SetOnDrop(Rc::clone(&dropped));
        let mut fiber: Fiber<()> = Fiber::new(Stack::new(TEST_STACK), move || {
            let _guard = guard;
            suspend();
            panic!("boom on a fiber");
        });
        assert!(fiber.resume().is_none());
        let payload = fiber.resume().expect("finished").unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom on a fiber"));
        assert!(dropped.get(), "the body's frames were unwound");
        assert!(!in_fiber());
        let mut next = Fiber::new(fiber.into_stack(), || 7);
        assert_eq!(next.resume().unwrap().unwrap(), 7);
    }

    #[test]
    fn nested_fibers_are_refused() {
        let mut outer = Fiber::new(Stack::new(TEST_STACK), || {
            let mut inner = Fiber::new(Stack::new(TEST_STACK), || ());
            inner.resume()
        });
        let payload = outer.resume().expect("finished").unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("a literal message");
        assert!(msg.contains("nested fibers are not supported"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "suspend() called outside a fiber")]
    fn suspend_outside_a_fiber_panics() {
        suspend();
    }

    #[test]
    #[should_panic(expected = "finished fiber")]
    fn resuming_a_finished_fiber_panics() {
        let mut fiber = Fiber::new(Stack::new(TEST_STACK), || ());
        assert!(fiber.resume().is_some());
        let _ = fiber.resume();
    }

    #[test]
    fn an_unstarted_fiber_drops_its_body_and_returns_its_stack() {
        let token = Rc::new(());
        let held = Rc::clone(&token);
        let fiber = Fiber::new(Stack::new(TEST_STACK), move || drop(held));
        let _stack = fiber.into_stack();
        assert_eq!(Rc::strong_count(&token), 1, "the unrun body was dropped");
    }

    #[test]
    fn a_body_lives_on_its_stack_whatever_its_size_and_alignment() {
        #[repr(align(256))]
        struct Aligned([u8; 256]);
        let stack = Stack::new(TEST_STACK);
        let (low, high) = (stack.top() as usize - TEST_STACK, stack.top() as usize);
        let big = [7u8; 20_000];
        let aligned = Aligned([3; 256]);
        let mut fiber = Fiber::new(stack, move || {
            // Where the captures are is where the body was put.
            let (at, aligned_at) = (big.as_ptr() as usize, &raw const aligned as usize);
            suspend();
            let sum = big.iter().map(|&b| u64::from(b)).sum::<u64>();
            (at, aligned_at, sum + u64::from(aligned.0[255]))
        });
        assert!(fiber.resume().is_none());
        let (at, aligned_at, sum) = fiber.resume().expect("finished").unwrap();
        assert!((low..high).contains(&at), "the body is not on its stack");
        assert_eq!(aligned_at % 256, 0, "an over-aligned capture is misplaced");
        assert_eq!(sum, 7 * 20_000 + 3);
        // The stack is as reusable as after any other body.
        let mut next = Fiber::new(fiber.into_stack(), || 1);
        assert_eq!(next.resume().unwrap().unwrap(), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit its stack")]
    fn a_body_that_takes_most_of_the_stack_is_refused() {
        let huge = [0u8; 200 * 1024];
        let _ = Fiber::new(Stack::new(TEST_STACK), move || huge.len());
    }

    #[test]
    fn a_result_nobody_took_is_dropped_with_the_fiber() {
        // The body's value waits in the cell on the stack: dropping the
        // fiber (or taking its stack) must drop it, exactly once.
        let token = Rc::new(());
        let held = Rc::clone(&token);
        let mut fiber = Fiber::new(Stack::new(TEST_STACK), move || held);
        let taken = fiber.resume().expect("finished").unwrap();
        assert_eq!(Rc::strong_count(&token), 2);
        drop(taken);
        drop(fiber);
        assert_eq!(Rc::strong_count(&token), 1);
        let held = Rc::clone(&token);
        let panicking: Fiber<()> = Fiber::new(Stack::new(TEST_STACK), move || {
            let _held = held;
            panic!("the payload stays in the cell");
        });
        let mut panicking = panicking;
        let _untaken = panicking.resume();
        let _stack = panicking.into_stack();
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    fn a_stack_is_intact_after_ten_thousand_reuses() {
        let mut stack = Stack::new(TEST_STACK);
        let mut total = 0u64;
        for i in 0..10_000u64 {
            let mut fiber = Fiber::new(stack, move || {
                // Touch a good stretch of the stack on both sides of a
                // suspend, so reuse sees the previous tenant's leftovers.
                let mut scratch = [i; 512];
                suspend();
                scratch[(i % 512) as usize] += 1;
                scratch.iter().sum::<u64>()
            });
            assert!(fiber.resume().is_none());
            total += fiber.resume().unwrap().unwrap() - (512 * i + 1);
            stack = fiber.into_stack();
        }
        assert_eq!(total, 0, "every tenant computed on clean locals");
        // And the recycled stack still hosts a deep body.
        fn depth(n: u32) -> u32 {
            let pad = std::hint::black_box([n; 64]);
            if n == 0 {
                pad[0]
            } else {
                depth(n - 1) + 1
            }
        }
        let mut deep = Fiber::new(stack, || depth(200));
        assert_eq!(deep.resume().unwrap().unwrap(), 200);
    }
}
