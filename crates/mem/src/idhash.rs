use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A deterministic multiply-shift hasher for the simulator's integer keys
/// — line addresses and sequence numbers.
///
/// The default SipHash is built to resist hash flooding from keys an
/// adversary picks; the simulator's per-event maps hash its own line
/// numbers and counters millions of times per run, where one multiply per
/// word is enough. Every key is
/// mixed by an odd 64-bit multiplier (the golden-ratio constant), and the
/// product's well-mixed high half is folded into the low bits that pick a
/// bucket. Deterministic and seed-free.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed through [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(v: impl Hash) -> u64 {
        let mut h = IdHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_separating() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        let distinct: std::collections::HashSet<u64> = (0..10_000u64).map(hash_of).collect();
        assert_eq!(distinct.len(), 10_000);
    }

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // The low bits pick the bucket: 256 sequential keys should land in
        // most of 256 buckets.
        let buckets: std::collections::HashSet<u64> =
            (0..256u64).map(|k| hash_of(k) & 0xff).collect();
        assert!(buckets.len() > 128, "only {} buckets", buckets.len());
    }
}
