use rr_mem::{AccessKind, LineAddr};

use crate::snoop_table::SnoopSample;

/// What a TRAQ entry tracks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TraqKind {
    /// A memory-access instruction (load, store or RMW).
    Mem(AccessKind),
    /// A filler entry representing a group of non-memory instructions
    /// whose count exceeded the NMI field width (paper §4.1).
    Filler,
}

/// One entry of the Tracking Queue (paper Figure 6(b)): address, value and
/// the NMI (non-memory-instruction) count. The PISN and the Snoop Count
/// sample differ between the recorder variants one TRAQ serves, so they
/// live in per-variant columns of the [`Traq`] instead.
#[derive(Clone, Debug)]
pub(crate) struct TraqEntry {
    pub seq: u64,
    pub kind: TraqKind,
    /// Non-memory instructions dispatched since the previous memory-access
    /// instruction (≤ the NMI field maximum).
    pub nmi: u32,
    /// Total coherence-transaction count observed by the recorder at
    /// perform time (for the Snoop Table full-wrap conservative check).
    pub snoops_at_perform: u64,
    pub performed: bool,
    pub addr: u64,
    pub line: LineAddr,
    pub loaded: Option<u64>,
    pub stored: Option<u64>,
}

impl TraqEntry {
    /// A new entry for an instruction that has not performed yet.
    pub fn new(seq: u64, kind: TraqKind, nmi: u32) -> Self {
        TraqEntry {
            seq,
            kind,
            nmi,
            snoops_at_perform: 0,
            performed: false,
            addr: 0,
            line: LineAddr::containing(0),
            loaded: None,
            stored: None,
        }
    }

    /// Whether the entry is ready to be counted at the TRAQ head, given
    /// that every instruction up to `retired_up_to` has retired: memory
    /// entries need to be both performed and retired (paper §3.3); fillers
    /// only need their covered instructions retired.
    pub fn ready_to_count(&self, retired_up_to: i64) -> bool {
        let retired = self.seq as i64 <= retired_up_to;
        match self.kind {
            TraqKind::Mem(_) => self.performed && retired,
            TraqKind::Filler => retired,
        }
    }
}

/// The Tracking Queue (TRAQ): a circular FIFO, parallel to the ROB, holding
/// each memory-access instruction from dispatch until its in-order
/// **counting** (paper §3.3, Figure 3). Unlike the ROB it can hold both
/// non-retired and retired accesses — a retired store waits here until its
/// coherence transaction completes.
///
/// Entries live in fixed slots. Beside each slot sit its columns: one
/// perform-interval ordinal per recorder variant and one Snoop Table
/// sample per table, written at perform time. A popped slot keeps its
/// contents until the next push.
#[derive(Clone, Debug)]
pub(crate) struct Traq {
    slots: Vec<TraqEntry>,
    /// Non-wrapping ordinal of the interval each variant was in when the
    /// slot's access performed, `variants` per slot. The 16-bit PISN is
    /// its low half; classification and offset arithmetic use the exact
    /// ordinal, since the PISN aliases once perform and counting drift
    /// ≥ 65536 intervals apart.
    ordinals: Vec<u64>,
    variants: usize,
    /// Snoop Table counters sampled at perform time (RelaxReplay_Opt),
    /// `tables` per slot.
    samples: Vec<SnoopSample>,
    tables: usize,
    head: usize,
    len: usize,
}

impl Traq {
    pub fn new(capacity: usize, variants: usize, tables: usize) -> Self {
        assert!(capacity > 0, "TRAQ capacity must be positive");
        Traq {
            slots: vec![TraqEntry::new(0, TraqKind::Filler, 0); capacity],
            ordinals: vec![0; capacity * variants],
            variants,
            samples: vec![SnoopSample::default(); capacity * tables],
            tables,
            head: 0,
            len: 0,
        }
    }

    pub fn is_full(&self) -> bool {
        self.len >= self.capacity()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slot of the `i`-th oldest entry.
    fn slot(&self, i: usize) -> usize {
        let s = self.head + i;
        if s >= self.capacity() {
            s - self.capacity()
        } else {
            s
        }
    }

    /// Appends an entry (dispatch order = program order).
    ///
    /// # Panics
    ///
    /// Panics if the TRAQ is full (callers must check and stall dispatch)
    /// or if `seq` is not newer than the newest entry.
    pub fn push(&mut self, entry: TraqEntry) {
        assert!(!self.is_full(), "TRAQ overflow");
        if let Some(newest) = self.newest_seq() {
            assert!(newest < entry.seq, "TRAQ must stay seq-ordered");
        }
        let s = self.slot(self.len);
        self.slots[s] = entry;
        self.len += 1;
    }

    /// The slot holding `seq` (entries are seq-sorted, so this is a
    /// binary search).
    pub fn find(&self, seq: u64) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.slots[self.slot(mid)].seq < seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let s = self.slot(lo);
        (lo < self.len && self.slots[s].seq == seq).then_some(s)
    }

    pub fn entry(&self, slot: usize) -> &TraqEntry {
        &self.slots[slot]
    }

    pub fn entry_mut(&mut self, slot: usize) -> &mut TraqEntry {
        &mut self.slots[slot]
    }

    /// The slot's perform ordinal of each variant.
    pub fn ordinals(&self, slot: usize) -> &[u64] {
        &self.ordinals[slot * self.variants..][..self.variants]
    }

    pub fn ordinals_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.ordinals[slot * self.variants..][..self.variants]
    }

    /// The slot's perform-time sample of each Snoop Table.
    pub fn samples(&self, slot: usize) -> &[SnoopSample] {
        &self.samples[slot * self.tables..][..self.tables]
    }

    pub fn samples_mut(&mut self, slot: usize) -> &mut [SnoopSample] {
        &mut self.samples[slot * self.tables..][..self.tables]
    }

    /// Pops the head if it is ready to be counted (see
    /// [`TraqEntry::ready_to_count`]), returning its slot.
    pub fn pop_ready(&mut self, retired_up_to: i64) -> Option<usize> {
        if self.len == 0 || !self.slots[self.head].ready_to_count(retired_up_to) {
            return None;
        }
        let s = self.head;
        self.head = self.slot(1);
        self.len -= 1;
        Some(s)
    }

    /// Discards all entries with `seq > bseq` (pipeline squash; paper §4.1:
    /// "if the ROB is flushed, then the TRAQ is also flushed accordingly").
    pub fn squash_after(&mut self, bseq: u64) {
        while self.newest_seq().is_some_and(|s| s > bseq) {
            self.len -= 1;
        }
    }

    /// Sequence number of the newest entry, if any.
    pub fn newest_seq(&self) -> Option<u64> {
        (self.len > 0).then(|| self.slots[self.slot(self.len - 1)].seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_entry(seq: u64) -> TraqEntry {
        TraqEntry::new(seq, TraqKind::Mem(AccessKind::Load), 0)
    }

    #[test]
    fn fifo_counting_requires_performed_and_retired() {
        let mut t = Traq::new(4, 1, 0);
        t.push(mem_entry(0));
        t.push(mem_entry(1));
        assert!(t.pop_ready(-1).is_none());
        let s = t.find(0).expect("entry");
        t.entry_mut(s).performed = true;
        assert!(t.pop_ready(-1).is_none(), "needs retired too");
        let popped = t.pop_ready(0).expect("ready");
        assert_eq!(t.entry(popped).seq, 0);
        assert!(t.pop_ready(1).is_none(), "head not ready");
    }

    #[test]
    fn capacity_enforced() {
        let mut t = Traq::new(2, 1, 0);
        t.push(mem_entry(0));
        t.push(mem_entry(1));
        assert!(t.is_full());
    }

    #[test]
    #[should_panic(expected = "TRAQ overflow")]
    fn overflow_panics() {
        let mut t = Traq::new(1, 1, 0);
        t.push(mem_entry(0));
        t.push(mem_entry(1));
    }

    #[test]
    fn squash_discards_suffix_only() {
        let mut t = Traq::new(8, 1, 0);
        for s in 0..5 {
            t.push(mem_entry(s));
        }
        t.squash_after(2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.newest_seq(), Some(2));
        assert!(t.find(4).is_none());
        assert!(t.find(1).is_some());
    }

    #[test]
    fn filler_counts_on_retire_alone() {
        let mut t = Traq::new(2, 1, 0);
        t.push(TraqEntry::new(7, TraqKind::Filler, 15));
        assert!(t.pop_ready(6).is_none());
        assert!(t.pop_ready(7).is_some());
    }

    #[test]
    fn slots_wrap_and_keep_their_columns() {
        let mut t = Traq::new(3, 2, 1);
        for seq in 0..9u64 {
            t.push(TraqEntry::new(seq, TraqKind::Filler, 0));
            let s = t.find(seq).expect("just pushed");
            t.ordinals_mut(s).copy_from_slice(&[seq, seq + 100]);
            if t.is_full() {
                let head = t.pop_ready(i64::MAX).expect("fillers count on retire");
                assert_eq!(
                    t.ordinals(head),
                    [t.entry(head).seq, t.entry(head).seq + 100]
                );
                assert_eq!(t.samples(head), [SnoopSample::default()]);
            }
        }
        assert_eq!(t.len(), 2);
        assert_eq!((t.find(7).is_some(), t.find(6)), (true, None));
    }
}
