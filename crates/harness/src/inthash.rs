//! A multiply-rotate hasher for the one map keyed by integers the harness
//! made itself: an arena's action shapes by the hash of their inputs
//! ([`crate::arena`]). Such keys cannot be crafted to collide, so
//! SipHash's protection buys nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` under [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Folds each integer in with an add and an odd multiply; `finish`
/// rotates the well-mixed high bits down to where the table takes its
/// bucket index from.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
