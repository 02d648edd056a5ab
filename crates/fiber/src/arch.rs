//! The context switch, one naked routine per architecture.
//!
//! A suspended context is nothing but a stack pointer: `switch` pushes the
//! registers the C ABI makes a callee preserve onto the current stack,
//! stores the resulting stack pointer through `save`, adopts `load` as the
//! stack pointer and pops the same registers from there. Everything else
//! is caller-saved, so the compiler has already spilled what it needs
//! around the call. The floating-point control registers (MXCSR and the
//! x87 control word, FPCR) are not switched: nothing here changes them.
//!
//! A fresh context is a stack prepared by [`prepare`] to look as if it had
//! called `switch` from [`trampoline`], with the entry function and its
//! argument sitting in two callee-saved registers.

use std::arch::naked_asm;

/// What a fiber's first resume jumps into. Never returns: the last thing
/// it does is switch away for good.
pub(crate) type Entry = unsafe extern "C" fn(*mut u8) -> !;

/// Bytes kept zero at the very top of a stack. The entry frame's notional
/// return address and caller frame pointer live here, and zero is where
/// unwinders and frame-pointer walkers stop.
const TOP_PAD: usize = 16;

/// Writes the initial frame onto a stack whose (16-byte aligned) top is
/// `top` and returns the stack pointer to `switch` to: the first switch
/// lands in `entry(arg)` on that stack.
///
/// # Safety
///
/// `top` must be the one-past-the-end pointer of writable memory at least
/// [`TOP_PAD`] plus one frame (under 256 bytes) long that nothing else is
/// using.
pub(crate) unsafe fn prepare(top: *mut u8, entry: Entry, arg: *mut u8) -> *mut u8 {
    // SAFETY: the caller guarantees `FRAME_WORDS * 8 + TOP_PAD` writable,
    // unaliased bytes below `top`; `top` is 16-byte aligned, so every word
    // written is aligned.
    unsafe {
        let top = top.sub(TOP_PAD).cast::<usize>();
        top.write(0);
        top.add(1).write(0);
        let sp = top.sub(FRAME_WORDS);
        for i in 0..FRAME_WORDS {
            sp.add(i).write(0);
        }
        sp.add(ARG_SLOT).write(arg as usize);
        sp.add(ENTRY_SLOT).write(entry as *const () as usize);
        sp.add(RETURN_SLOT).write(trampoline as *const () as usize);
        sp.cast()
    }
}

// x86-64 System V: the frame is what `switch` pops, lowest address first —
// r15 r14 r13 r12 rbx rbp, then the return address. Seven words below a
// 16-byte aligned top leave rsp aligned when `trampoline` starts, which is
// what its `call` needs.
#[cfg(target_arch = "x86_64")]
const FRAME_WORDS: usize = 7;
#[cfg(target_arch = "x86_64")]
const ENTRY_SLOT: usize = 2; // r13
#[cfg(target_arch = "x86_64")]
const ARG_SLOT: usize = 3; // r12
#[cfg(target_arch = "x86_64")]
const RETURN_SLOT: usize = 6;

/// Saves the current context's stack pointer through `save` and continues
/// the context whose stack pointer is `load`. Returns when something
/// switches back to the saved pointer.
///
/// # Safety
///
/// `save` must be valid for a write, and `load` must be a stack pointer
/// produced by [`prepare`] or stored by an earlier `switch`, on a stack
/// that is still mapped and not running on any thread.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First code to run on a fresh stack: moves the argument into place and
/// calls the entry function, which never returns.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!("mov rdi, r12", "call r13", "ud2")
}

// AArch64 (AAPCS64): x19–x28, the frame pointer x29, the link register x30
// and the low halves of v8–v15 are callee-saved — twenty words, which also
// keeps sp 16-byte aligned.
#[cfg(target_arch = "aarch64")]
const FRAME_WORDS: usize = 20;
#[cfg(target_arch = "aarch64")]
const ARG_SLOT: usize = 0; // x19
#[cfg(target_arch = "aarch64")]
const ENTRY_SLOT: usize = 1; // x20
#[cfg(target_arch = "aarch64")]
const RETURN_SLOT: usize = 11; // x30

/// Saves the current context's stack pointer through `save` and continues
/// the context whose stack pointer is `load`. Returns when something
/// switches back to the saved pointer.
///
/// # Safety
///
/// `save` must be valid for a write, and `load` must be a stack pointer
/// produced by [`prepare`] or stored by an earlier `switch`, on a stack
/// that is still mapped and not running on any thread.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// First code to run on a fresh stack: moves the argument into place and
/// calls the entry function, which never returns.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    naked_asm!("mov x0, x19", "blr x20", "brk #1")
}
