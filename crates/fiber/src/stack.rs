//! Fiber stacks: an anonymous mapping with an inaccessible guard region
//! below the usable part, so running off the end faults instead of
//! overwriting a neighbour.

use std::ffi::{c_int, c_void};
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

// The three calls a guarded stack needs, declared here because the
// workspace builds offline and has no `libc` crate; std links the C
// library that defines them on every unix target.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_ANONYMOUS: c_int = 0x20;
/// The BSD family's value (macOS included).
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_ANONYMOUS: c_int = 0x1000;

/// Size of the guard region, and the granule usable sizes are rounded up
/// to: a multiple of every page size in use on the supported targets
/// (4, 16 and 64 KiB), so both region boundaries are page-aligned without
/// asking the OS for its page size.
const GUARD_BYTES: usize = 64 * 1024;

static MAPPED: AtomicUsize = AtomicUsize::new(0);

/// How many [`Stack`]s this process has mapped so far. A stack is meant
/// to be mapped once and reused for fiber after fiber
/// ([`Fiber::into_stack`](crate::Fiber::into_stack)); tests of the code
/// that recycles them assert this count stands still in steady state.
#[must_use]
pub fn stacks_mapped() -> usize {
    MAPPED.load(Ordering::Relaxed)
}

/// A reusable fiber stack.
///
/// The mapping is private and anonymous, so pages cost memory only once
/// touched, and the lowest 64 KiB are inaccessible: a body that outgrows
/// its stack dies on the spot with `SIGSEGV` (Rust probes every page of a
/// large frame, so the guard cannot be stepped over) — overflow is never
/// silent corruption.
pub struct Stack {
    base: NonNull<u8>,
    len: usize,
}

// SAFETY: a `Stack` is exclusively owned memory with no thread affinity —
// the mapping is not tied to the thread that created it, and nothing else
// holds a pointer into it while no fiber runs on it.
unsafe impl Send for Stack {}

impl Stack {
    /// Maps a stack with at least `usable_bytes` above its guard region.
    ///
    /// # Panics
    ///
    /// If the OS refuses the mapping (address space or memory exhausted),
    /// like a failed allocation.
    #[must_use]
    pub fn new(usable_bytes: usize) -> Stack {
        let usable = usable_bytes.max(1).next_multiple_of(GUARD_BYTES);
        let len = GUARD_BYTES + usable;
        // SAFETY: a fresh anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory; fd -1 / offset 0
        // are what an anonymous mapping takes.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        // MAP_FAILED is (void*)-1.
        assert!(
            !base.is_null() && base as isize != -1,
            "mapping a {len}-byte fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `base` is the page-aligned start of the mapping made
        // above and `GUARD_BYTES` (a whole number of pages) lies within it.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            guarded == 0,
            "guarding a fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        MAPPED.fetch_add(1, Ordering::Relaxed);
        Stack {
            base: NonNull::new(base.cast()).expect("checked non-null above"),
            len,
        }
    }

    /// One past the highest usable byte (stacks grow down from here);
    /// page-aligned, hence 16-byte aligned.
    pub(crate) fn top(&self) -> *mut u8 {
        // SAFETY: `base..base + len` is one mapping; one-past-the-end is a
        // valid pointer to form.
        unsafe { self.base.as_ptr().add(self.len) }
    }

    /// Usable bytes above the guard region.
    pub(crate) fn usable_bytes(&self) -> usize {
        self.len - GUARD_BYTES
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` describe exactly the mapping made in `new`,
        // which this `Stack` owns; nothing runs on it (a `Fiber` gives its
        // stack back only once finished, and leaks it otherwise).
        unsafe { munmap(self.base.as_ptr().cast(), self.len) };
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("usable_bytes", &self.usable_bytes())
            .finish()
    }
}
