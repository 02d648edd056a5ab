//! Which seed windows the sweep workloads may draw from.
//!
//! A window is 3 000 consecutive seeds, window `w` starting at seed
//! `3000 × w`. Windows 0–255 of each scenario space were swept once, all
//! 768 000 seeds through every oracle, at the commit that defined the
//! benchmark; the tables below are the first 64 windows of each space in
//! which every seed passed. `--seed S` selects entry `S mod 64`, so every
//! input the benchmark can generate was correct when the benchmark was
//! written, and an op that fails later is a regression in the code under
//! test, not an unlucky draw.
//!
//! The sweep was not clean: the multi-crash space violates an oracle
//! about once in 8 000 seeds and the default space about once in 55 000
//! (see the README's findings). Those windows are skipped here, not
//! hidden: the README lists the seeds.

/// Clean windows of the `mixed` space (243 of the 256 swept were clean).
pub const MIXED: [u64; 64] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24, 25, 26,
    27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 38, 39, 40, 41, 42, 43, 44, 46, 47, 48, 49, 50, 51, 52,
    53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66,
];

/// Clean windows of the `objects` space (256 of the 256 swept were clean).
pub const OBJECTS: [u64; 64] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49,
    50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63,
];

/// Clean windows of the `crash` space (184 of the 256 swept were clean).
pub const CRASH: [u64; 64] = [
    0, 3, 4, 6, 7, 10, 11, 13, 14, 15, 17, 18, 20, 21, 22, 24, 25, 26, 27, 29, 30, 32, 33, 34, 35,
    38, 39, 41, 42, 45, 46, 48, 51, 52, 53, 54, 56, 57, 58, 60, 61, 62, 63, 64, 66, 67, 69, 71, 73,
    75, 76, 77, 78, 79, 80, 82, 84, 85, 86, 87, 89, 91, 92, 93,
];
