//! Packed H3 hashing against a bit-serial reference.
//!
//! The reference below is the textbook H3 evaluation — walk the line
//! number bit by bit, XOR in the mask of every set bit — with its masks
//! derived exactly as the production hash derives them. Every packed lane
//! must equal it, and the Bloom signature and Snoop Table built on the
//! packed hash must behave exactly like structures built from reference
//! hashes, one hash per bank or array.

use proptest::prelude::*;
use relaxreplay::{Signature, SnoopTable, H3};
use rr_mem::LineAddr;

/// A bit-serial H3 hash: one function, one lane.
struct RefH3 {
    masks: [u32; 64],
}

impl RefH3 {
    fn new(out_bits: u32, seed: u64) -> Self {
        let out_mask = if out_bits == 32 {
            u32::MAX
        } else {
            (1u32 << out_bits) - 1
        };
        // splitmix64, as the production hash derives its masks.
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        let mut masks = [0u32; 64];
        for m in &mut masks {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *m = ((z ^ (z >> 31)) as u32) & out_mask;
        }
        RefH3 { masks }
    }

    fn hash(&self, line_number: u64) -> u32 {
        let mut acc = 0;
        for (i, m) in self.masks.iter().enumerate() {
            if line_number >> i & 1 != 0 {
                acc ^= m;
            }
        }
        acc
    }
}

/// A Bloom signature with one reference hash per bank, seeded the way
/// `Signature::new` seeds its banks.
struct RefSignature {
    banks: Vec<(RefH3, Vec<bool>)>,
}

impl RefSignature {
    fn new(banks: usize, bits_per_bank: u32, seed: u64) -> Self {
        let idx_bits = bits_per_bank.trailing_zeros();
        RefSignature {
            banks: (0..banks)
                .map(|i| {
                    let h = RefH3::new(idx_bits, seed.wrapping_mul(0x9e37).wrapping_add(i as u64));
                    (h, vec![false; bits_per_bank as usize])
                })
                .collect(),
        }
    }

    fn insert(&mut self, line: u64) {
        for (h, bits) in &mut self.banks {
            bits[h.hash(line) as usize] = true;
        }
    }

    fn test(&self, line: u64) -> bool {
        self.banks
            .iter()
            .all(|(h, bits)| bits[h.hash(line) as usize])
    }

    fn clear(&mut self) {
        for (_, bits) in &mut self.banks {
            bits.fill(false);
        }
    }
}

/// A Snoop Table with one reference hash per counter array, seeded the
/// way `SnoopTable::new` seeds its arrays.
struct RefSnoopTable {
    arrays: [(RefH3, Vec<u16>); 2],
}

impl RefSnoopTable {
    fn new(entries: usize, seed: u64) -> Self {
        let idx_bits = entries.trailing_zeros();
        RefSnoopTable {
            arrays: [
                (
                    RefH3::new(idx_bits, seed.wrapping_add(0x51)),
                    vec![0; entries],
                ),
                (
                    RefH3::new(idx_bits, seed.wrapping_add(0xa3)),
                    vec![0; entries],
                ),
            ],
        }
    }

    fn record(&mut self, line: u64) {
        for (h, counters) in &mut self.arrays {
            let i = h.hash(line) as usize;
            counters[i] = counters[i].wrapping_add(1);
        }
    }

    fn sample(&self, line: u64) -> [u16; 2] {
        [0, 1].map(|a| {
            let (h, counters) = &self.arrays[a];
            counters[h.hash(line) as usize]
        })
    }
}

/// Line numbers with the extremes mixed in, and sparse, dense and
/// arbitrary bit patterns in between.
fn line_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        Just(1u64 << 63),
        0u64..1 << 16,
        any::<u64>(),
        any::<u64>().prop_map(|v| !(1u64 << (v % 64))),
    ]
}

#[derive(Clone, Debug)]
enum SigOp {
    Insert(u64),
    Test(u64),
    Clear,
}

fn sig_op() -> impl Strategy<Value = SigOp> {
    prop_oneof![
        line_strategy().prop_map(SigOp::Insert),
        line_strategy().prop_map(SigOp::Insert),
        line_strategy().prop_map(SigOp::Test),
        line_strategy().prop_map(SigOp::Test),
        Just(SigOp::Clear),
    ]
}

#[derive(Clone, Debug)]
enum SnoopOp {
    Record(u64),
    /// Sample `line`, then check it against the current counters after
    /// the following ops.
    Sample(u64),
    Check,
}

fn snoop_op() -> impl Strategy<Value = SnoopOp> {
    prop_oneof![
        line_strategy().prop_map(SnoopOp::Record),
        line_strategy().prop_map(SnoopOp::Record),
        line_strategy().prop_map(SnoopOp::Sample),
        Just(SnoopOp::Check),
    ]
}

proptest! {
    #[test]
    fn every_packed_lane_equals_the_bit_serial_hash(
        out_bits in 1u32..=32,
        seeds in proptest::collection::vec(any::<u64>(), 1..20),
        lines in proptest::collection::vec(line_strategy(), 1..40),
    ) {
        let packed = H3::with_lanes(out_bits, &seeds);
        let refs: Vec<RefH3> = seeds.iter().map(|&s| RefH3::new(out_bits, s)).collect();
        for &line in &lines {
            let mut seen = 0;
            packed.for_each_lane(line, |lane, idx| {
                assert_eq!(lane, seen, "lanes are reported in order");
                assert_eq!(
                    idx,
                    refs[lane].hash(line),
                    "lane {lane} of {out_bits} bits, line {line:#x}"
                );
                seen += 1;
            });
            prop_assert_eq!(seen, seeds.len());
            prop_assert_eq!(packed.hash(line), refs[0].hash(line));
            prop_assert_eq!(H3::new(out_bits, seeds[0]).hash(line), refs[0].hash(line));
        }
    }

    #[test]
    fn lanes_wider_than_one_word_equal_the_bit_serial_hash(
        out_bits in 17u32..=32,
        extra in 0usize..12,
        seed in any::<u64>(),
        lines in proptest::collection::vec(line_strategy(), 1..20),
    ) {
        // At least three lanes of more than 16 bits: over 64 bits in total,
        // and past the first pass's words once `extra` grows.
        let seeds: Vec<u64> = (0..3 + extra as u64)
            .map(|i| seed ^ i.wrapping_mul(0x9e37))
            .collect();
        let packed = H3::with_lanes(out_bits, &seeds);
        for &line in &lines {
            packed.for_each_lane(line, |lane, idx| {
                assert_eq!(idx, RefH3::new(out_bits, seeds[lane]).hash(line));
            });
        }
    }

    #[test]
    fn signature_matches_a_reference_built_signature(
        banks in 1usize..=9,
        log_bits in 1u32..=12,
        seed in any::<u64>(),
        ops in proptest::collection::vec(sig_op(), 0..200),
    ) {
        let bits = 1u32 << log_bits;
        let mut sig = Signature::new(banks, bits, seed);
        let mut reference = RefSignature::new(banks, bits, seed);
        for op in ops {
            match op {
                SigOp::Insert(l) => {
                    sig.insert(LineAddr::from_line_number(l));
                    reference.insert(l);
                }
                SigOp::Test(l) => {
                    prop_assert_eq!(sig.test(LineAddr::from_line_number(l)), reference.test(l));
                }
                SigOp::Clear => {
                    sig.clear();
                    reference.clear();
                }
            }
        }
    }

    #[test]
    fn snoop_table_matches_a_reference_built_table(
        log_entries in 0u32..=10,
        seed in any::<u64>(),
        ops in proptest::collection::vec(snoop_op(), 0..200),
    ) {
        let entries = 1usize << log_entries;
        if entries == 1 {
            // H3 needs at least one output bit; a one-entry table is not
            // a valid geometry.
            return Ok(());
        }
        let mut table = SnoopTable::new(entries, seed);
        let mut reference = RefSnoopTable::new(entries, seed);
        let mut pending: Option<(u64, relaxreplay::SnoopSample, [u16; 2])> = None;
        for op in ops {
            match op {
                SnoopOp::Record(l) => {
                    table.record(LineAddr::from_line_number(l));
                    reference.record(l);
                }
                SnoopOp::Sample(l) => {
                    let sample = table.sample(LineAddr::from_line_number(l));
                    pending = Some((l, sample, reference.sample(l)));
                }
                SnoopOp::Check => {
                    if let Some((l, sample, at)) = pending {
                        let now = reference.sample(l);
                        let expected = now[0] != at[0] && now[1] != at[1];
                        let line = LineAddr::from_line_number(l);
                        prop_assert_eq!(table.is_reordered(line, sample), expected);
                    }
                }
            }
        }
    }
}
