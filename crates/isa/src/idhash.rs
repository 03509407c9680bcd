use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// A multiply-shift hasher for integer keys — line addresses, sequence
/// numbers, page numbers.
///
/// The default SipHash is built to resist hash flooding from keys an
/// adversary picks; the simulator's per-event maps and the replayer's page
/// tables hash integers millions of times per run, where one multiply per
/// word is enough. Every key is mixed by an odd 64-bit multiplier, and the
/// product's well-mixed high half is folded into the low bits that pick a
/// bucket.
///
/// The multiplier is the hasher's key. [`Default`] uses a fixed one (the
/// golden-ratio constant), so the simulator's maps stay deterministic and
/// seed-free; [`RandomIdState`] draws one per map for tables whose keys
/// come from files.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    state: u64,
    key: u64,
}

const FIXED_KEY: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for IdHasher {
    #[inline]
    fn default() -> Self {
        IdHasher {
            state: 0,
            key: FIXED_KEY,
        }
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = (self.state.rotate_left(5) ^ n).wrapping_mul(self.key);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 32)
    }
}

/// A `HashMap` keyed through [`IdHasher`] with its fixed multiplier.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Builds [`IdHasher`]s keyed by an odd multiplier drawn once per map from
/// [`RandomState`].
///
/// For maps whose keys come from files — pages of replay-log store
/// addresses and ground-truth cells. With a known multiplier a crafted
/// input could pick keys that all land in one bucket and make every insert
/// probe all the others. With a secret one, keys share a bucket of a
/// 2^b-bucket table whatever the multiplier only when they agree in their
/// low 32 + b bits; page numbers have 52 bits, so at most 2^(20 − b) of
/// them do.
#[derive(Clone, Copy, Debug)]
pub struct RandomIdState {
    key: u64,
}

impl Default for RandomIdState {
    fn default() -> Self {
        RandomIdState {
            key: RandomState::new().hash_one(FIXED_KEY) | 1,
        }
    }
}

impl BuildHasher for RandomIdState {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            state: 0,
            key: self.key,
        }
    }
}

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

    #[test]
    fn fixed_key_hashes_are_pinned() {
        // The simulator's maps must hash exactly as they always have.
        assert_eq!(hash_of(1u64), 0x9e37_79b9_e17d_05ac);
    }

    #[test]
    fn random_states_draw_odd_distinct_keys() {
        let (a, b) = (RandomIdState::default(), RandomIdState::default());
        assert_eq!(a.key & 1, 1);
        assert_eq!(b.key & 1, 1);
        assert_ne!(a.key, b.key);
    }
}
