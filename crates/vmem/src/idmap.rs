//! A hash map for integer ids the simulator assigns itself.
//!
//! Every checked access looks up the page it touches, so the default
//! SipHash `RandomState` — built to resist adversarial keys — sat on the
//! hottest path of the simulation. The keys here are page indices and
//! object addresses the simulator picks, never attacker-chosen input, so
//! a multiplicative hash is enough. No output depends on these maps'
//! iteration order either: with `RandomState` that order was already
//! random per run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by simulator-chosen integer ids, hashed with
/// [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative (Fibonacci) hasher for integer keys.
///
/// The multiply spreads a key's low bits upward; the final rotate brings
/// the well-mixed high bits down to where the table takes its bucket
/// index, so keys that share their low bits (8-byte aligned addresses)
/// still spread across buckets.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(GOLDEN);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(v: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // 8-byte aligned addresses: the low 6 hash bits (a 64-bucket
        // table's index) must still take every value.
        let mut buckets = [false; 64];
        for i in 0..512u64 {
            buckets[(hash_of(0x1000_0000 + i * 8) & 63) as usize] = true;
        }
        assert!(buckets.iter().all(|&b| b));
    }
}
