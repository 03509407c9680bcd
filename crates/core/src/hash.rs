//! H3 hash functions over line addresses.
//!
//! The paper's signatures use "4 × 256-bit Bloom filters with H3 hash"
//! (Table 1). An H3 hash computes the output as the XOR of per-input-bit
//! random masks — cheap in hardware (an XOR tree) and pairwise independent,
//! which is what both the Bloom signatures and the Snoop Table need.

use std::sync::Arc;

use rr_mem::LineAddr;

/// A bank of H3 hash functions ("lanes") mapping a 64-bit line number to
/// `out_bits`-wide indices, evaluated as a software XOR tree.
///
/// Each lane has its own 64 random masks, one per input bit. The masks of
/// all lanes are packed side by side into 64-bit words (lanes never
/// straddle a word), so one pass over the line number's *set* bits XORs
/// every lane's output at once: a Bloom signature hashes a line once per
/// insert or test, not once per bank. Geometries wider than 64 bits use
/// more words in the same pass. A single-lane H3 ([`H3::new`],
/// [`H3::hash`]) is the one-lane case.
#[derive(Clone, Debug)]
pub struct H3 {
    /// `masks[bit * words + w]`: word `w` of the packed lane masks XORed
    /// in when input bit `bit` is set.
    masks: Vec<u64>,
    words: usize,
    lanes: usize,
    lanes_per_word: usize,
    out_bits: u32,
}

/// Packed words accumulated per pass over the input's set bits.
const ACC_WORDS: usize = 4;

/// A deterministic 64-bit PRNG (splitmix64) used to derive the H3 masks so
/// the whole system stays reproducible without external dependencies.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl H3 {
    /// Creates a single-lane H3 hash with `out_bits` output bits, seeded
    /// deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is zero or greater than 32.
    #[must_use]
    pub fn new(out_bits: u32, seed: u64) -> Self {
        H3::with_lanes(out_bits, &[seed])
    }

    /// Creates one `out_bits`-wide lane per seed. Lane `i` computes exactly
    /// what `H3::new(out_bits, seeds[i])` computes.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is zero or greater than 32, or `seeds` is
    /// empty.
    #[must_use]
    pub fn with_lanes(out_bits: u32, seeds: &[u64]) -> Self {
        assert!((1..=32).contains(&out_bits), "out_bits must be in 1..=32");
        assert!(!seeds.is_empty(), "need at least one lane");
        let lanes_per_word = (64 / out_bits) as usize;
        let words = seeds.len().div_ceil(lanes_per_word);
        let out_mask = (1u64 << out_bits) - 1;
        let mut masks = vec![0u64; 64 * words];
        for (lane, &seed) in seeds.iter().enumerate() {
            let (word, shift) = (
                lane / lanes_per_word,
                (lane % lanes_per_word) as u32 * out_bits,
            );
            let mut state = seed ^ 0xa076_1d64_78bd_642f;
            for bit in 0..64 {
                let m = u64::from(splitmix64(&mut state) as u32) & out_mask;
                masks[bit * words + word] |= m << shift;
            }
        }
        H3 {
            masks,
            words,
            lanes: seeds.len(),
            lanes_per_word,
            out_bits,
        }
    }

    /// Hashes a line number to an index in `0..2^out_bits` with the first
    /// lane.
    #[must_use]
    pub fn hash(&self, line_number: u64) -> u32 {
        let mut first = 0;
        self.for_each_lane(line_number, |lane, idx| {
            if lane == 0 {
                first = idx;
            }
        });
        first
    }

    /// Hashes a line number with every lane in one pass over its set bits,
    /// calling `f(lane, index)` for each lane in order.
    pub fn for_each_lane(&self, line_number: u64, mut f: impl FnMut(usize, u32)) {
        let out_mask = (1u64 << self.out_bits) - 1;
        let mut base = 0;
        while base < self.words {
            let n = (self.words - base).min(ACC_WORDS);
            let mut acc = [0u64; ACC_WORDS];
            let mut v = line_number;
            while v != 0 {
                let row = v.trailing_zeros() as usize * self.words + base;
                for (a, m) in acc[..n].iter_mut().zip(&self.masks[row..row + n]) {
                    *a ^= m;
                }
                v &= v - 1;
            }
            for (w, &word) in acc[..n].iter().enumerate() {
                let first = (base + w) * self.lanes_per_word;
                let last = (first + self.lanes_per_word).min(self.lanes);
                for lane in first..last {
                    let shift = (lane - first) as u32 * self.out_bits;
                    f(lane, ((word >> shift) & out_mask) as u32);
                }
            }
            base += n;
        }
    }
}

impl H3 {
    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Output bits per lane.
    pub(crate) fn out_bits(&self) -> u32 {
        self.out_bits
    }
}

/// Every distinct H3 geometry — output bits and lane seeds — that one
/// run's recorders hash line addresses with, built once and shared by the
/// recorders of all its cores.
///
/// Variants that agree on a signature's banks, bits and seed, or on a
/// Snoop Table's size and seed, name the same geometry, so each line event
/// is hashed once per distinct geometry: three H3 evaluations per snoop in
/// the paper's four-variant matrix (read signature, write signature, Snoop
/// Table), however many cores observe it and variants are attached.
#[derive(Clone, Debug, Default)]
pub struct HashPlan {
    /// Each geometry's `(out_bits, seeds)` and hash, in insertion order.
    geometries: Vec<(u32, Vec<u64>, Arc<H3>)>,
}

/// Where one geometry's lane indices sit in a [`LineHashes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HashSlot {
    first: usize,
    len: usize,
}

/// One line hashed by every geometry of a [`HashPlan`]
/// ([`HashPlan::hash`]); a reusable buffer.
#[derive(Clone, Debug, Default)]
pub struct LineHashes {
    line: LineAddr,
    idx: Vec<u32>,
}

impl LineHashes {
    /// The hashed line.
    #[must_use]
    pub fn line(&self) -> LineAddr {
        self.line
    }

    /// One geometry's lane indices.
    pub(crate) fn lanes(&self, slot: HashSlot) -> &[u32] {
        &self.idx[slot.first..slot.first + slot.len]
    }
}

impl HashPlan {
    /// Adds the geometry `(out_bits, seeds)` unless the plan holds it.
    pub(crate) fn add(&mut self, out_bits: u32, seeds: Vec<u64>) {
        if self.find(out_bits, &seeds).is_none() {
            let hash = Arc::new(H3::with_lanes(out_bits, &seeds));
            self.geometries.push((out_bits, seeds, hash));
        }
    }

    /// The slot in every [`LineHashes`] and the hash of a geometry the
    /// plan holds.
    pub(crate) fn find(&self, out_bits: u32, seeds: &[u64]) -> Option<(HashSlot, Arc<H3>)> {
        let mut first = 0;
        for (bits, s, hash) in &self.geometries {
            let len = hash.lanes();
            if *bits == out_bits && s == seeds {
                return Some((HashSlot { first, len }, Arc::clone(hash)));
            }
            first += len;
        }
        None
    }

    /// Hashes `line` with every geometry into `out`.
    pub fn hash(&self, line: LineAddr, out: &mut LineHashes) {
        out.line = line;
        out.idx.clear();
        for (_, _, hash) in &self.geometries {
            hash.for_each_lane(line.line_number(), |_, i| out.idx.push(i));
        }
    }
}

/// A 64-bit FNV-1a content hash over a byte slice.
///
/// This is the second half of the content-addressed chunk key used by
/// the rr-serve store: chunks are keyed by `(crc32, rr_hash64)`, so two
/// payloads must collide on both an error-detection polynomial and an
/// unrelated multiplicative hash before the store would alias them.
/// Deterministic, dependency-free, and stable across platforms.
#[must_use]
pub fn rr_hash64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rr_hash64_matches_fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(rr_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(rr_hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(rr_hash64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn rr_hash64_separates_close_inputs() {
        assert_ne!(rr_hash64(b"chunk-0"), rr_hash64(b"chunk-1"));
        assert_ne!(rr_hash64(&[0u8; 64]), rr_hash64(&[1u8; 64]));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = H3::new(8, 7);
        let b = H3::new(8, 7);
        for line in [0u64, 1, 2, 1000, u64::MAX >> 5] {
            assert_eq!(a.hash(line), b.hash(line));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = H3::new(8, 1);
        let b = H3::new(8, 2);
        assert!((0..64u64).any(|l| a.hash(l) != b.hash(l)));
    }

    #[test]
    fn output_respects_width() {
        let h = H3::new(6, 3);
        for line in 0..4096u64 {
            assert!(h.hash(line) < 64);
        }
    }

    #[test]
    fn zero_hashes_to_zero() {
        // H3 is linear: the zero input always maps to zero. Callers that
        // care (the Snoop Table) must tolerate line 0 aliasing with nothing.
        let h = H3::new(8, 9);
        assert_eq!(h.hash(0), 0);
    }

    #[test]
    fn spreads_sequential_lines() {
        // Sanity: 256 sequential lines should hit a reasonable number of
        // distinct 8-bit buckets (not collapse to a few).
        let h = H3::new(8, 42);
        let mut seen = std::collections::HashSet::new();
        for line in 0..256u64 {
            seen.insert(h.hash(line));
        }
        assert!(seen.len() > 100, "only {} distinct buckets", seen.len());
    }
}
