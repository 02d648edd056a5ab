//! Stackful, run-to-block fibers: a blocking closure runs on a stack of its
//! own and hands the CPU back to whoever resumed it by calling
//! [`suspend`] — or, in a [`Group`], straight to a sibling by calling
//! [`transfer`] — a user-space stack switch (tens of nanoseconds) where an
//! OS thread would pay a futex sleep and wake-up (microseconds).
//!
//! This is what lets `caa-runtime`'s `System::run` host every
//! participant of a simulated system on the calling thread while the
//! role-facing API stays blocking closures: the participants are a
//! [`Group`] indexed by network partition, and simnet's fiber host, where
//! its thread host waits on a condvar, asks the network who runs next and
//! transfers the CPU to that participant's fiber. `System::run` gets the
//! CPU back only when a participant finishes.
//!
//! The model is deliberately minimal:
//!
//! * a [`Fiber`] is resumed by the thread that owns it (it is neither
//!   `Send` nor `Sync`) and runs until it calls [`suspend`] or its body
//!   returns;
//! * a fiber may hand the CPU to a sibling: the fibers of a [`Group`],
//!   resumed through [`Group::resume`], [`transfer`] it among themselves,
//!   one stack switch a hand-off, while the resumer stays blocked — it
//!   gets the CPU back when one of them finishes or suspends (the
//!   resumer's stack pointer travels with the CPU, from cell to cell);
//! * fibers do not nest — resuming from inside a fiber panics — so "the
//!   current fiber" is one thread-local pointer and [`in_fiber`] is one
//!   load;
//! * a panic in the body is caught at the fiber's entry and handed to the
//!   resumer as the payload, exactly like joining a panicked thread;
//! * the [`Stack`] outlives the fiber and is handed back by
//!   [`Fiber::into_stack`] for the next one, so steady-state code maps
//!   none — and allocates none: what a fiber shares with its resumer (the
//!   body until it starts, the result once it ends, whether it has
//!   started) lives at the top of the stack itself, above the body's
//!   frames.
//!
//! # Why this crate may use `unsafe`
//!
//! Every other crate of the workspace carries `#![forbid(unsafe_code)]`.
//! Switching stacks cannot be expressed in safe Rust (nor can mapping a
//! guarded stack without the `libc` crate), so that one capability lives
//! here, behind a safe API, and nowhere else: two naked assembly routines
//! per supported architecture (`arch.rs`), three C-library calls
//! (`stack.rs`), and the raw-pointer cell a fiber shares with its resumer,
//! placed in the stack's own memory, with the table of a group's cells
//! that [`transfer`] looks its target up in (this file). Every `unsafe`
//! block states why its requirements hold
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
//!
//! Two fibers of a group hand the CPU to each other; the resumer sees
//! them again when one finishes:
//!
//! ```
//! use caa_fiber::{transfer, Fiber, Group, Stack};
//!
//! let mut group = Group::new();
//! group.insert(0, Fiber::new(Stack::new(64 * 1024), || {
//!     transfer(1); // runs fiber 1 up to its transfer back
//!     "zero"
//! }));
//! group.insert(1, Fiber::new(Stack::new(64 * 1024), || {
//!     transfer(0);
//!     "one"
//! }));
//! let (index, result) = group.resume(0).expect("fiber 0 finished");
//! assert_eq!((index, result.unwrap()), (0, "zero"));
//! let (index, result) = group.resume(1).expect("fiber 1 finished");
//! assert_eq!((index, result.unwrap()), (1, "one"));
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

/// A group's cells by index, as [`transfer`] reads them.
type Table = *const [Option<NonNull<Head>>];

/// The table of no group.
const NO_GROUP: Table = ptr::slice_from_raw_parts(ptr::null(), 0);

thread_local! {
    /// Set while a fiber runs on this thread: the head of its cell, whose
    /// `sp` holds the resumer's stack pointer (where [`suspend`] switches
    /// back to, and where it leaves the fiber's own in exchange). Null on
    /// a plain thread.
    static CURRENT: Cell<*mut Head> = const { Cell::new(ptr::null_mut()) };

    /// Set while a [`Group::resume`] is blocked on this thread: that
    /// group's table of cells, where [`transfer`] finds its target.
    /// [`NO_GROUP`] otherwise.
    static GROUP: Cell<Table> = const { Cell::new(NO_GROUP) };

    /// How many times this thread has resumed a fiber.
    static RESUMES: Cell<u64> = const { Cell::new(0) };
}

/// Whether the caller is running inside a [`Fiber`] (as opposed to
/// directly on an OS thread's own stack).
#[inline]
#[must_use]
pub fn in_fiber() -> bool {
    !CURRENT.get().is_null()
}

/// How many times this thread has resumed a fiber ([`Fiber::resume`] and
/// [`Group::resume`] calls): how often a resumer's loop has handed the
/// CPU out, and got it back. A resumer driving a [`Group`] gets it back
/// once per fiber that finishes or suspends, not once per hand-off among
/// the fibers.
#[must_use]
pub fn resumes() -> u64 {
    RESUMES.get()
}

/// Suspends the current fiber: control returns to the resume call — of
/// [`Fiber::resume`] or [`Group::resume`] — that the CPU came from, and
/// this call returns when the fiber is resumed (or transferred to) again.
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
    let current = CURRENT.get();
    assert!(
        !current.is_null(),
        "caa_fiber::suspend() called outside a fiber: only code running under a resume can \
         suspend (check in_fiber() first)"
    );
    // SAFETY: `CURRENT` is non-null only while a fiber runs on this
    // thread, and then heads that fiber's live cell.
    unsafe { switch_back(current) };
}

/// Hands the CPU from the current fiber straight to fiber `to` of the
/// [`Group`] being resumed: one stack switch, with the resumer still
/// blocked in [`Group::resume`]. Returns when something hands the CPU
/// back to the current fiber — a sibling's `transfer`, or a later resume.
///
/// Where `to` names no fiber of the group that could take the CPU — an
/// index the group leaves empty or past its end, or a finished fiber —
/// this is [`suspend`]: the resumer gets the CPU and chooses. A fiber
/// that names itself keeps the CPU: the call returns at once.
///
/// Always inlined into its caller, for the reason [`suspend`] is inlined:
/// a fiber that was handed the CPU returns through this frame first.
///
/// # Panics
///
/// When called outside a fiber, or from a fiber resumed on its own
/// ([`Fiber::resume`]): such a fiber has no sibling to hand the CPU to,
/// and its caller named one.
#[inline(always)]
pub fn transfer(to: usize) {
    let current = CURRENT.get();
    assert!(
        !current.is_null(),
        "caa_fiber::transfer() called outside a fiber: only code running under a resume can \
         hand the CPU on"
    );
    let table = GROUP.get();
    let Some(next) = sibling(table, to) else {
        // Outside a group the table is empty, so only a transfer that
        // cannot run its target gets here: checking costs the hand-off
        // nothing.
        assert!(
            !table.is_empty(),
            "caa_fiber::transfer() called from a fiber resumed on its own: only the fibers of \
             a Group resumed through Group::resume can hand the CPU to a sibling"
        );
        // SAFETY: `current` is the running fiber's live cell (see
        // `suspend`).
        unsafe { switch_back(current) };
        return;
    };
    let next = next.as_ptr();
    if next == current {
        return;
    }
    // SAFETY: `current` heads the running fiber's live cell, whose `sp`
    // holds the resumer's stack pointer. `next` heads the live cell of
    // another, unfinished member of the group being resumed (`sibling`),
    // so it is not running: its `sp` is its own, from `prepare` or from
    // the switch it last left by, on a stack that is mapped. Moving the
    // resumer's pointer into `next`'s cell before the switch means `next`
    // switches back to the resumer, as if resumed by it; the switch then
    // stores our own pointer in our cell, for whoever hands the CPU back.
    unsafe {
        let load = (*next).sp;
        (*next).sp = (*current).sp;
        (*next).state = State::Started;
        CURRENT.set(next);
        arch::switch(&raw mut (*current).sp, load);
    }
}

/// The cell of the unfinished fiber at `index` of `table`, the group
/// being resumed, if there is one.
#[inline(always)]
fn sibling(table: Table, index: usize) -> Option<NonNull<Head>> {
    if index >= table.len() {
        return None;
    }
    // SAFETY: `table` is what `GROUP` holds; a table other than
    // `NO_GROUP` is set only by
    // `Group::resume`, for the length of its switch, and is that group's
    // own, which the `&mut` borrow the resume holds keeps from changing;
    // `index` is in bounds.
    let head = unsafe { *table.cast::<Option<NonNull<Head>>>().add(index) }?;
    // SAFETY: an entry of that table heads the live cell of a fiber the
    // group holds; while the resumer is blocked only the running fiber —
    // the caller — touches any cell.
    let finished = unsafe { (*head.as_ptr()).state } == State::Finished;
    (!finished).then_some(head)
}

/// Switches from the running fiber back to its resumer.
///
/// # Safety
///
/// `current` must be `CURRENT`, non-null: the head of the running fiber's
/// live cell.
#[inline(always)]
unsafe fn switch_back(current: *mut Head) {
    // SAFETY: the caller's contract; the cell's `sp` holds the resumer's
    // stack pointer — stored by the switch of the resume that this fiber
    // (or the sibling that transferred to it) was resumed by, and moved
    // along by every `transfer` since. The resumer's stack is this
    // thread's own, blocked inside that resume.
    unsafe {
        let slot = &raw mut (*current).sp;
        arch::switch(slot, *slot);
    }
}

/// Resumes the fiber `head` heads, with `table` as the group its
/// transfers look their targets up in, and returns the head of the fiber
/// that switched back — `head`'s own unless it transferred.
///
/// # Safety
///
/// The caller is no fiber; `head` heads a live, unfinished cell; `table`
/// is [`NO_GROUP`], or the table of a group holding that fiber which
/// stays unchanged until this returns.
#[inline(always)]
unsafe fn enter(head: *mut Head, table: Table) -> *mut Head {
    RESUMES.set(RESUMES.get() + 1);
    CURRENT.set(head);
    GROUP.set(table);
    // SAFETY: the caller's contract: the fiber is not finished, so `sp`
    // is its stack pointer from `prepare` or from its last switch away,
    // on a mapped stack; fibers are `!Send`, so it is not running
    // elsewhere, and the cell is valid for the write of our own.
    unsafe {
        (*head).state = State::Started;
        let slot = &raw mut (*head).sp;
        arch::switch(slot, *slot);
    }
    GROUP.set(NO_GROUP);
    CURRENT.replace(ptr::null_mut())
}

/// What a fiber and its resumer — or, in a group, whichever fiber holds
/// the CPU — share, at the front of its cell. Every side reaches it
/// through the raw pointer only (never through a long-lived reference),
/// one at a time: only the fiber that has the CPU, or the resumer while
/// none has.
#[repr(C)]
struct Head {
    /// While the fiber runs, the resumer's stack pointer; otherwise the
    /// fiber's own.
    sp: *mut u8,
    state: State,
    /// Where [`Group::insert`] put the fiber (0 outside a group): what
    /// [`Group::resume`] reports a finished fiber by.
    index: usize,
}

/// The head, then what the fiber hands its resumer.
#[repr(C)]
struct Inner<T> {
    head: Head,
    /// Set by the entry function just before its final switch.
    result: Option<std::thread::Result<T>>,
}

/// The whole cell: the head, then the body until the fiber starts.
/// `repr(C)` puts the head first, so a pointer to a cell is a pointer to
/// its head whatever `F` is (and whatever `T` is for [`Head`]) — which is
/// how [`Fiber<T>`] and [`transfer`] do without naming them. The cell
/// lives at the top of the fiber's stack, above the entry frame: made by
/// [`Fiber::new`], dropped in place before the stack is handed on
/// ([`Fiber::release`]).
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
}

/// How far a fiber has got. Kept in its cell, not in [`Fiber`], because a
/// sibling's [`transfer`] starts a fiber without its `Fiber` knowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Never run: the stack holds only the initial frame.
    Fresh,
    /// Running or suspended somewhere inside the body: the stack holds
    /// live frames.
    Started,
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
                    head: Head {
                        sp: ptr::null_mut(),
                        state: State::Fresh,
                        index: 0,
                    },
                    result: None,
                },
                body: Some(body),
            });
            (*shared).inner.head.sp = arch::prepare(shared.cast(), entry::<F, T>, shared.cast());
            NonNull::new_unchecked(shared.cast::<Inner<T>>())
        };
        Fiber {
            inner,
            drop_shared: drop_shared::<F, T>,
            stack: Some(stack),
        }
    }

    /// Runs the fiber until it next calls [`suspend`] (returns `None`) or
    /// its body ends (returns the body's value, or `Err` with the panic
    /// payload if it panicked — the contract of
    /// [`std::thread::JoinHandle::join`]). A lone fiber has no sibling:
    /// a [`transfer`] from it panics.
    ///
    /// Always inlined into its caller, for the reason [`suspend`] is: a
    /// fiber that suspends leaves the CPU's return predictor holding its
    /// own call chain, so a frame between the switch and the resuming loop
    /// is one more mispredicted return on every hand-off.
    ///
    /// # Panics
    ///
    /// When called from inside a fiber (fibers do not nest), or on a
    /// fiber that has already finished.
    #[inline(always)]
    pub fn resume(&mut self) -> Option<std::thread::Result<T>> {
        assert!(
            !in_fiber(),
            "nested fibers are not supported: Fiber::resume() called from inside a fiber"
        );
        assert!(
            self.state() != State::Finished,
            "Fiber::resume() called on a finished fiber"
        );
        let inner = self.inner.as_ptr();
        // SAFETY: not called from a fiber (asserted); an unfinished fiber
        // still holds its stack, so `inner` heads its live cell; with no
        // group, nothing can transfer elsewhere.
        unsafe { enter(inner.cast(), NO_GROUP) };
        // SAFETY: the fiber has switched back, so it is not touching
        // `inner`; if it set `result` it did so for good.
        unsafe { (*inner).result.take() }
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
            self.state() != State::Started,
            "Fiber::into_stack() on a fiber suspended inside its body"
        );
        self.release().expect("the stack leaves only here")
    }

    /// The head of the fiber's cell.
    fn head(&self) -> *mut Head {
        self.inner.as_ptr().cast()
    }

    /// How far the fiber has got, from its cell (finished once the cell
    /// is gone).
    fn state(&self) -> State {
        if self.stack.is_none() {
            return State::Finished;
        }
        // SAFETY: the stack is still here, so the cell is live; a `&self`
        // means no resume of this fiber is under way, so nothing else is
        // touching it.
        unsafe { (*self.head()).state }
    }

    /// Drops the cell (an unrun body, an untaken result) and gives up the
    /// stack it lived in. `None` when that has happened already.
    fn release(&mut self) -> Option<Stack> {
        let stack = self.stack.take()?;
        // SAFETY: `stack` was still here, so the cell written in `new` is
        // live, its memory mapped, and this is the one time it is dropped;
        // the callers rule out a started, unfinished body, so no fiber
        // frame that knows the cell is alive (the fiber never ran, or ran
        // to its final switch).
        unsafe { (self.drop_shared)(self.inner) };
        Some(stack)
    }
}

impl<T> Drop for Fiber<T> {
    fn drop(&mut self) {
        if self.state() == State::Started {
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
            .field("state", &self.state())
            .finish_non_exhaustive()
    }
}

/// Fibers that hand the CPU to each other: each has an index (`caa-runtime`
/// uses its network partition's), and a fiber of the group
/// [transfers](transfer) the CPU to another by naming its index. A resumer
/// starts one with [`Group::resume`] and gets the CPU back when one of
/// them finishes — or suspends, or names an index the group cannot run.
///
/// Indices may leave gaps; a transfer to one is a suspend. Dropping the
/// group drops its fibers, each as [`Fiber`]'s `Drop` does: a fiber
/// suspended mid-body leaks its stack.
pub struct Group<T> {
    /// The fibers by index.
    fibers: Vec<Option<Fiber<T>>>,
    /// Their cells by the same index: the table [`transfer`] reads.
    heads: Vec<Option<NonNull<Head>>>,
    /// How many fibers `fibers` holds.
    len: usize,
}

impl<T> Group<T> {
    /// An empty group. Allocates nothing until the first
    /// [`Group::insert`]; a group emptied by [`Group::remove`] or
    /// [`Group::clear`] keeps its tables for the next fibers.
    #[must_use]
    pub const fn new() -> Group<T> {
        Group {
            fibers: Vec::new(),
            heads: Vec::new(),
            len: 0,
        }
    }

    /// Puts `fiber` in the group at `index`.
    ///
    /// # Panics
    ///
    /// If the group holds a fiber at `index` already.
    pub fn insert(&mut self, index: usize, fiber: Fiber<T>) {
        if self.fibers.len() <= index {
            self.fibers.resize_with(index + 1, || None);
            self.heads.resize(index + 1, None);
        }
        assert!(
            self.fibers[index].is_none(),
            "Group::insert() at {index}, where the group holds a fiber already"
        );
        let head = fiber.head();
        // SAFETY: the fiber is not running (it is ours to move), so its
        // cell is live and untouched; a fiber moved out of a group keeps
        // its cell, so one that was in another group may be re-indexed.
        unsafe { (*head).index = index };
        self.heads[index] = NonNull::new(head);
        self.fibers[index] = Some(fiber);
        self.len += 1;
    }

    /// Takes the fiber at `index` out of the group — for its stack, once
    /// it has finished.
    pub fn remove(&mut self, index: usize) -> Option<Fiber<T>> {
        let fiber = self.fibers.get_mut(index)?.take()?;
        self.heads[index] = None;
        self.len -= 1;
        Some(fiber)
    }

    /// Drops every fiber of the group (see the type's docs) and keeps the
    /// tables' room.
    pub fn clear(&mut self) {
        self.heads.clear();
        self.fibers.clear();
        self.len = 0;
    }

    /// How many fibers the group holds, finished or not.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the group holds no fiber.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs the fiber at `index`, and whichever siblings the CPU is
    /// [transferred](transfer) to after it, until one of them finishes
    /// — returning its index and what [`Fiber::resume`] would have: the
    /// body's value, or the panic payload — or suspends (`None`). `None`
    /// at once when the group holds no unfinished fiber at `index`.
    ///
    /// The finished fiber stays in the group until
    /// [removed](Group::remove).
    ///
    /// Always inlined into its caller, for the reason [`Fiber::resume`]
    /// is.
    ///
    /// # Panics
    ///
    /// When called from inside a fiber (fibers do not nest).
    #[inline(always)]
    pub fn resume(&mut self, index: usize) -> Option<(usize, std::thread::Result<T>)> {
        assert!(
            !in_fiber(),
            "nested fibers are not supported: Group::resume() called from inside a fiber"
        );
        let head = self.heads.get(index).copied().flatten()?.as_ptr();
        // SAFETY: an entry of `heads` heads the live cell of the fiber
        // `fibers` holds at that index, and no fiber is running.
        if unsafe { (*head).state } == State::Finished {
            return None;
        }
        // SAFETY: not called from a fiber (asserted); `head` is the live
        // cell of an unfinished member; `heads` is this group's table, and
        // `&mut self` keeps it unchanged until the switch back.
        let back = unsafe { enter(head, ptr::from_ref(self.heads.as_slice())) };
        // SAFETY: `back` heads the cell of the member that switched back
        // (`CURRENT` follows every transfer), which the group still holds;
        // every member is a `Fiber<T>`, so its head is an `Inner<T>`'s.
        // The fiber has switched away, so nothing else touches the cell.
        unsafe {
            if (*back).state != State::Finished {
                return None;
            }
            let result = (*back.cast::<Inner<T>>()).result.take();
            Some((
                (*back).index,
                result.expect("a finished fiber leaves its result"),
            ))
        }
    }
}

impl<T> Default for Group<T> {
    fn default() -> Group<T> {
        Group::new()
    }
}

impl<T> fmt::Debug for Group<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Group")
            .field("fibers", &self.len)
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

/// Where a fiber's first resume — or the first transfer to it — lands
/// (through the trampoline): runs the body, publishes its outcome and
/// switches away for the last time.
unsafe extern "C" fn entry<F: FnOnce() -> T, T>(shared: *mut u8) -> ! {
    let shared = shared.cast::<Shared<F, T>>();
    // SAFETY: `shared` is the pointer `Fiber::new` passed to `prepare`;
    // this fiber has the CPU, so nobody else touches it while we run.
    let body = unsafe { (*shared).body.take() }.expect("a fiber is entered once");
    // The closure is consumed here and its captures are not observed after
    // a panic, which is all `AssertUnwindSafe` waives. Catching matters
    // for soundness, not just reporting: there is no frame to unwind into
    // above this one.
    let result: Result<T, Box<dyn Any + Send>> = catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above for `shared`; the head's `sp` holds the stack
    // pointer of the resumer blocked in its resume (see `switch_back`).
    unsafe {
        (*shared).inner.result = Some(result);
        (*shared).inner.head.state = State::Finished;
        let slot = &raw mut (*shared).inner.head.sp;
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

    /// A group of `n` fibers on fresh stacks, the `i`th running `body(i)`.
    fn group_of<T: 'static>(n: usize, body: impl Fn(usize) -> Box<dyn FnOnce() -> T>) -> Group<T> {
        let mut group = Group::new();
        for i in 0..n {
            group.insert(i, Fiber::new(Stack::new(TEST_STACK), body(i)));
        }
        group
    }

    #[test]
    fn a_ring_of_three_transfers_in_turn_and_keeps_its_locals() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut group = group_of(3, |i| {
            let log = Rc::clone(&log);
            Box::new(move || {
                let mine: Vec<usize> = (0..50).map(|k| k * (i + 1)).collect();
                let x = 0.5 * (i + 1) as f64;
                for round in 0..4 {
                    log.borrow_mut().push((round, i));
                    transfer((i + 1) % 3);
                }
                (mine.iter().sum::<usize>(), x)
            })
        });
        let resumed = resumes();
        // Fiber 2's last transfer lands on fiber 0, which then finishes:
        // twelve hand-offs, one return to the resumer.
        let (index, result) = group.resume(0).expect("fiber 0 finished");
        assert_eq!((index, result.unwrap()), (0, (1225, 0.5)));
        assert!(!in_fiber(), "resume returns on the host");
        let expected: Vec<_> = (0..4).flat_map(|r| (0..3).map(move |i| (r, i))).collect();
        assert_eq!(*log.borrow(), expected);
        // The other two wait in their last transfer, each on its own
        // frames.
        for i in [2, 1] {
            let (index, result) = group.resume(i).expect("finished");
            assert_eq!(
                (index, result.unwrap()),
                (i, (1225 * (i + 1), 0.5 * (i + 1) as f64))
            );
        }
        assert_eq!(resumes() - resumed, 3);
        assert_eq!(group.len(), 3, "finished fibers stay until removed");
        for i in 0..3 {
            let _stack = group.remove(i).expect("held").into_stack();
        }
        assert!(group.is_empty());
    }

    #[test]
    fn a_transfer_to_a_never_run_fiber_starts_it() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut group = group_of(2, |i| {
            let log = Rc::clone(&log);
            Box::new(move || {
                log.borrow_mut().push(("in", i));
                if i == 0 {
                    transfer(1);
                }
                log.borrow_mut().push(("out", i));
                i
            })
        });
        let (index, result) = group.resume(0).expect("fiber 1 finished");
        assert_eq!((index, result.unwrap()), (1, 1));
        assert_eq!(*log.borrow(), [("in", 0), ("in", 1), ("out", 1)]);
        let (index, result) = group.resume(0).expect("fiber 0 finished");
        assert_eq!((index, result.unwrap()), (0, 0));
        assert_eq!(group.resume(0).map(|(i, _)| i), None, "finished");
    }

    #[test]
    fn a_panic_on_a_fiber_transferred_to_comes_back_as_its_payload() {
        let dropped = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let mut group: Group<usize> = group_of(2, |i| {
            let guard = SetOnDrop(Rc::clone(&dropped));
            Box::new(move || {
                if i == 0 {
                    transfer(1);
                    return 0;
                }
                let _guard = guard;
                panic!("boom on fiber 1");
            })
        });
        let (index, result) = group.resume(0).expect("fiber 1 finished");
        assert_eq!(index, 1);
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom on fiber 1"));
        assert!(dropped.get(), "the panicking body's frames were unwound");
        assert!(!in_fiber());
        // Its stack is as reusable as any finished fiber's, even in the
        // same group, and the fiber that transferred is intact.
        let stack = group.remove(1).expect("held").into_stack();
        group.insert(1, Fiber::new(stack, || 11));
        assert_eq!(group.resume(1).map(|(i, r)| (i, r.unwrap())), Some((1, 11)));
        assert_eq!(group.resume(0).map(|(i, r)| (i, r.unwrap())), Some((0, 0)));
    }

    #[test]
    fn a_transfer_nobody_can_take_falls_back_to_the_host() {
        // Fiber 0 names, in turn, a finished sibling, a gap, an index past
        // the group's end and itself; fiber 1 finishes at once.
        let mut group = Group::new();
        group.insert(
            0,
            Fiber::new(Stack::new(TEST_STACK), || {
                for to in [1, 2, 9, 0] {
                    transfer(to);
                }
                "zero"
            }),
        );
        group.insert(1, Fiber::new(Stack::new(TEST_STACK), || "one"));
        group.insert(3, Fiber::new(Stack::new(TEST_STACK), || "three"));
        assert!(group.resume(2).is_none(), "a gap runs nothing");
        assert_eq!(
            group.resume(1).map(|(i, r)| (i, r.unwrap())),
            Some((1, "one"))
        );
        for _ in [1, 2, 9] {
            assert!(group.resume(0).is_none(), "back on the host, not finished");
        }
        // Naming itself kept the CPU: the body ran to its end.
        assert_eq!(
            group.resume(0).map(|(i, r)| (i, r.unwrap())),
            Some((0, "zero"))
        );
        assert_eq!(
            group.resume(3).map(|(i, r)| (i, r.unwrap())),
            Some((3, "three"))
        );
    }

    #[test]
    fn a_transfer_from_a_fiber_resumed_on_its_own_panics() {
        let mut lone = Fiber::new(Stack::new(TEST_STACK), || transfer(0));
        let payload = lone.resume().expect("finished").unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("a literal message");
        assert!(msg.contains("resumed on its own"), "{msg}");
        let _stack = lone.into_stack();
    }

    #[test]
    fn a_group_given_up_mid_transfer_leaks_exactly_its_started_fibers() {
        // 0 transfers to 1, 1 to 2, and 2 finishes: the host gets the CPU
        // back with 0 and 1 suspended mid-transfer and 3 never run.
        let token = Rc::new(());
        let mut group = group_of(4, |i| {
            let held = Rc::clone(&token);
            Box::new(move || {
                let _held = held;
                if i < 2 {
                    transfer(i + 1);
                }
            })
        });
        assert_eq!(Rc::strong_count(&token), 5);
        assert_eq!(group.resume(0).map(|(i, _)| i), Some(2));
        assert_eq!(
            Rc::strong_count(&token),
            4,
            "the finished body's capture is dropped"
        );
        drop(group);
        // The never-run body was dropped with its cell; the two started
        // ones keep their stacks, captures and all.
        assert_eq!(Rc::strong_count(&token), 3);
    }

    #[test]
    #[should_panic(expected = "holds a fiber already")]
    fn an_index_holds_one_fiber() {
        let mut group = group_of(1, |_| Box::new(|| ()));
        group.insert(0, Fiber::new(Stack::new(TEST_STACK), || ()));
    }

    #[test]
    fn a_group_refuses_to_be_resumed_from_a_fiber() {
        let mut outer = Fiber::new(Stack::new(TEST_STACK), || {
            let mut inner = group_of(1, |_| Box::new(|| ()));
            inner.resume(0).map(|(i, _)| i)
        });
        let payload = outer.resume().expect("finished").unwrap_err();
        let msg = payload.downcast_ref::<&str>().expect("a literal message");
        assert!(msg.contains("nested fibers are not supported"), "{msg}");
    }
}
