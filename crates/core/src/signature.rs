use rr_mem::LineAddr;

use crate::hash::H3;

/// A Bloom-filter address signature, as used for the read and write sets of
/// the current interval (paper §4.1, Table 1: each signature is 4 × 256-bit
/// Bloom filters with H3 hash functions).
///
/// Incoming snoops are tested against the signatures; a hit terminates the
/// current interval. Bloom filters never produce false negatives, so no
/// true conflict is ever missed; false positives merely terminate intervals
/// early (more log entries, never incorrectness).
///
/// ```
/// use relaxreplay::Signature;
/// use rr_mem::LineAddr;
///
/// let mut sig = Signature::new(4, 256, 1);
/// let line = LineAddr::from_line_number(42);
/// assert!(!sig.test(line));
/// sig.insert(line);
/// assert!(sig.test(line));
/// sig.clear();
/// assert!(!sig.test(line));
/// ```
#[derive(Clone, Debug)]
pub struct Signature {
    /// Every bank's bits, bank-major: bank `b` is
    /// `bits[b * words_per_bank..][..words_per_bank]`.
    bits: Vec<u64>,
    words_per_bank: usize,
    /// One H3 lane per bank.
    hash: H3,
    bits_per_bank: u32,
    insertions: u64,
}

impl Signature {
    /// Creates a signature with `banks` Bloom banks of `bits_per_bank` bits
    /// each, using independent H3 hashes derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_bank` is not a power of two or `banks` is zero.
    #[must_use]
    pub fn new(banks: usize, bits_per_bank: u32, seed: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(
            bits_per_bank.is_power_of_two(),
            "bits_per_bank must be a power of two"
        );
        let words_per_bank = (bits_per_bank as usize).div_ceil(64);
        let seeds: Vec<u64> = (0..banks)
            .map(|i| seed.wrapping_mul(0x9e37).wrapping_add(i as u64))
            .collect();
        Signature {
            bits: vec![0u64; banks * words_per_bank],
            words_per_bank,
            hash: H3::with_lanes(bits_per_bank.trailing_zeros(), &seeds),
            bits_per_bank,
            insertions: 0,
        }
    }

    /// The paper's configuration: 4 banks × 256 bits.
    #[must_use]
    pub fn splash_default(seed: u64) -> Self {
        Signature::new(4, 256, seed)
    }

    /// Inserts a line address.
    pub fn insert(&mut self, line: LineAddr) {
        self.insertions += 1;
        let (bits, wpb) = (&mut self.bits, self.words_per_bank);
        self.hash.for_each_lane(line.line_number(), |bank, bit| {
            let bit = bit as usize;
            bits[bank * wpb + bit / 64] |= 1 << (bit % 64);
        });
    }

    /// Tests a line address. `false` means *definitely not inserted*;
    /// `true` means *possibly inserted* (Bloom semantics).
    #[must_use]
    pub fn test(&self, line: LineAddr) -> bool {
        let mut hit = true;
        self.hash.for_each_lane(line.line_number(), |bank, bit| {
            let bit = bit as usize;
            hit &= self.bits[bank * self.words_per_bank + bit / 64] & (1 << (bit % 64)) != 0;
        });
        hit
    }

    /// Clears the signature (interval termination).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.insertions = 0;
    }

    /// Number of insertions since the last clear.
    #[must_use]
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Fraction of bits set in the densest bank (a saturation measure).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.bits
            .chunks(self.words_per_bank)
            .map(|b| {
                b.iter().map(|w| w.count_ones()).sum::<u32>() as f64 / f64::from(self.bits_per_bank)
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn no_false_negatives() {
        let mut sig = Signature::splash_default(3);
        for n in (0..2000).step_by(7) {
            sig.insert(line(n));
        }
        for n in (0..2000).step_by(7) {
            assert!(sig.test(line(n)), "false negative for line {n}");
        }
    }

    #[test]
    fn mostly_negative_when_empty_ish() {
        let mut sig = Signature::splash_default(5);
        for n in 0..8 {
            sig.insert(line(n));
        }
        let false_pos = (1000..2000).filter(|&n| sig.test(line(n))).count();
        assert!(false_pos < 50, "{false_pos} false positives of 1000");
    }

    #[test]
    fn clear_resets_everything() {
        let mut sig = Signature::splash_default(1);
        sig.insert(line(9));
        assert!(sig.insertions() == 1 && sig.occupancy() > 0.0);
        sig.clear();
        assert_eq!(sig.insertions(), 0);
        assert_eq!(sig.occupancy(), 0.0);
        assert!(!sig.test(line(9)));
    }

    #[test]
    fn saturation_raises_false_positives() {
        // The paper's scalability discussion (§5.5) attributes log growth
        // to signature false positives under heavier traffic.
        let mut sig = Signature::splash_default(7);
        for n in 0..2000 {
            sig.insert(line(n));
        }
        let false_pos = (10_000..11_000).filter(|&n| sig.test(line(n))).count();
        assert!(false_pos > 500, "saturated filter should alias heavily");
    }
}
