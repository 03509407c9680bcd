use std::sync::Arc;

use rr_mem::LineAddr;

use crate::hash::H3;

/// A sample of a line's two Snoop Table counters, stored in the TRAQ entry's
/// *Snoop Count* field at perform time (paper §4.2, Figure 8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnoopSample {
    counters: [u16; 2],
}

/// RelaxReplay_Opt's Snoop Table (paper §4.2): two arrays of 16-bit
/// counters, indexed by independent hashes of the line address. Every
/// observed coherence transaction increments the line's counter in each
/// array. At perform time an access samples its two counters; at counting
/// time, if **both** counters changed, a conflicting transaction (or a
/// double aliasing coincidence) was observed between the two events and the
/// access is declared reordered. If neither or only one changed (single
/// aliasing), it is declared in order.
///
/// The detection is conservative: a true conflict always increments both of
/// the line's counters, so no reordering is ever missed. Counters wrap; the
/// paper sizes them (2 × 64 × 16 bits) so a full wrap-around between
/// perform and counting is not a practical concern.
#[derive(Clone, Debug)]
pub struct SnoopTable {
    arrays: [Vec<u16>; 2],
    /// One H3 lane per array.
    hash: Arc<H3>,
}

impl SnoopTable {
    /// Creates a Snoop Table with two arrays of `entries` counters each.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize, seed: u64) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        let seeds = SnoopTable::lane_seeds(seed);
        SnoopTable::with_hash(Arc::new(H3::with_lanes(entries.trailing_zeros(), &seeds)))
    }

    /// The array hash seeds of `SnoopTable::new(_, seed)`.
    pub(crate) fn lane_seeds(seed: u64) -> Vec<u64> {
        vec![seed.wrapping_add(0x51), seed.wrapping_add(0xa3)]
    }

    /// A zeroed table indexed by the two lanes of `hash`.
    pub(crate) fn with_hash(hash: Arc<H3>) -> Self {
        let entries = 1usize << hash.out_bits();
        SnoopTable {
            arrays: [vec![0u16; entries], vec![0u16; entries]],
            hash,
        }
    }

    /// The paper's configuration: 2 × 64 × 16-bit (256 bytes total).
    #[must_use]
    pub fn splash_default(seed: u64) -> Self {
        SnoopTable::new(64, seed)
    }

    /// The line's counter index in each array, from one hash pass.
    fn indices(&self, line: LineAddr) -> [u32; 2] {
        let mut idx = [0; 2];
        self.hash
            .for_each_lane(line.line_number(), |lane, i| idx[lane] = i);
        idx
    }

    /// Records an observed coherence transaction (or, in directory mode, a
    /// dirty eviction — paper §4.3) for `line`.
    pub fn record(&mut self, line: LineAddr) {
        self.record_hashed(&self.indices(line));
    }

    /// [`SnoopTable::record`] given the line's counter indices, one per
    /// array, from this table's geometry in a
    /// [`HashPlan`](crate::HashPlan).
    pub(crate) fn record_hashed(&mut self, idx: &[u32]) {
        for (arr, &i) in self.arrays.iter_mut().zip(idx) {
            arr[i as usize] = arr[i as usize].wrapping_add(1);
        }
    }

    /// Samples the two counters for `line` (done at perform time).
    #[must_use]
    pub fn sample(&self, line: LineAddr) -> SnoopSample {
        self.sample_hashed(&self.indices(line))
    }

    /// [`SnoopTable::sample`] given the line's counter indices.
    pub(crate) fn sample_hashed(&self, idx: &[u32]) -> SnoopSample {
        SnoopSample {
            counters: [
                self.arrays[0][idx[0] as usize],
                self.arrays[1][idx[1] as usize],
            ],
        }
    }

    /// Compares the current counters against a perform-time sample
    /// (done at counting time). Returns `true` — *reordered* — only when
    /// both counters changed.
    #[must_use]
    pub fn is_reordered(&self, line: LineAddr, at_perform: SnoopSample) -> bool {
        self.is_reordered_hashed(&self.indices(line), at_perform)
    }

    /// [`SnoopTable::is_reordered`] given the line's counter indices.
    pub(crate) fn is_reordered_hashed(&self, idx: &[u32], at_perform: SnoopSample) -> bool {
        let now = self.sample_hashed(idx);
        now.counters[0] != at_perform.counters[0] && now.counters[1] != at_perform.counters[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn no_traffic_means_in_order() {
        let t = SnoopTable::splash_default(1);
        let s = t.sample(line(5));
        assert!(!t.is_reordered(line(5), s));
    }

    #[test]
    fn conflicting_snoop_is_always_detected() {
        // Conservative: a snoop on the same line increments both counters,
        // so detection can never be missed.
        for n in 0..500 {
            let mut t = SnoopTable::splash_default(2);
            let s = t.sample(line(n));
            t.record(line(n));
            assert!(t.is_reordered(line(n), s), "missed conflict on line {n}");
        }
    }

    #[test]
    fn single_array_alias_is_forgiven() {
        // Find two lines that collide in exactly one array; traffic on one
        // must not mark the other reordered.
        let t0 = SnoopTable::splash_default(3);
        let (a, b) = (0..4096u64)
            .flat_map(|a| ((a + 1)..4096).map(move |b| (a, b)))
            .find(|&(a, b)| {
                let (ia, ib) = (t0.indices(line(a)), t0.indices(line(b)));
                (ia[0] == ib[0]) != (ia[1] == ib[1])
            })
            .expect("some single-array alias pair exists");
        let mut t = SnoopTable::splash_default(3);
        let s = t.sample(line(a));
        t.record(line(b));
        assert!(
            !t.is_reordered(line(a), s),
            "single-array aliasing must be forgiven"
        );
    }

    #[test]
    fn counters_wrap_without_panicking() {
        let mut t = SnoopTable::new(2, 4);
        for _ in 0..70_000 {
            t.record(line(1));
        }
        let s = t.sample(line(1));
        t.record(line(1));
        assert!(t.is_reordered(line(1), s));
    }
}
