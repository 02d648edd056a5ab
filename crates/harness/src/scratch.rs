//! Per-thread scratch for the readers whose signature has no room for one.
//!
//! `oracle::check_run` and `spans::build_span_tree` take a run and return a
//! value; the tables they fill on the way (one row per instance, one cell
//! per instance and thread) are the same shape for every trace a thread
//! reads. Each keeps them in a thread-local and takes them *out* for the
//! duration of a call: a reader that re-enters itself, or one that unwinds,
//! finds (or leaves) an empty scratch instead of a borrowed one, and a call
//! made while the thread's locals are being torn down works on a fresh one.

use std::cell::Cell;
use std::thread::LocalKey;

/// Runs `read` on the calling thread's scratch in `key`, cleared or not as
/// the last call left it — a reader clears (and keeps the capacity of) what
/// it is about to fill.
pub(crate) fn with<S: Default, R>(
    key: &'static LocalKey<Cell<S>>,
    read: impl FnOnce(&mut S) -> R,
) -> R {
    let mut scratch = key.try_with(Cell::take).unwrap_or_default();
    let result = read(&mut scratch);
    let _ = key.try_with(|cell| cell.set(scratch));
    result
}

/// Empties `table` and refills it with `len` default rows, in place.
pub(crate) fn reset<T: Default + Clone>(table: &mut Vec<T>, len: usize) {
    table.clear();
    table.resize(len, T::default());
}
