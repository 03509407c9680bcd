use std::collections::VecDeque;

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

/// One entry of the Tracking Queue (paper Figure 6(b)): address, value,
/// PISN, Snoop Count sample, and the NMI (non-memory-instruction) count.
#[derive(Clone, Debug)]
pub(crate) struct TraqEntry {
    pub seq: u64,
    pub kind: TraqKind,
    /// Non-memory instructions dispatched since the previous memory-access
    /// instruction (≤ the NMI field maximum).
    pub nmi: u32,
    /// Interval in which the access performed (None until it performs).
    pub pisn: Option<u16>,
    /// Non-wrapping ordinal of the interval in which the access performed
    /// (None until it performs). The 16-bit PISN aliases once perform and
    /// counting drift ≥ 65536 intervals apart; classification and offset
    /// arithmetic use this exact ordinal instead.
    pub perform_ordinal: Option<u64>,
    /// Total coherence-transaction count observed by the recorder at
    /// perform time (for the Snoop Table full-wrap conservative check).
    pub snoops_at_perform: u64,
    pub performed: bool,
    pub addr: u64,
    pub line: LineAddr,
    pub loaded: Option<u64>,
    pub stored: Option<u64>,
    /// Snoop Table counters sampled at perform time (RelaxReplay_Opt).
    pub sample: SnoopSample,
}

impl TraqEntry {
    /// A new entry for an instruction that has not performed yet.
    pub fn new(seq: u64, kind: TraqKind, nmi: u32) -> Self {
        TraqEntry {
            seq,
            kind,
            nmi,
            pisn: None,
            perform_ordinal: None,
            snoops_at_perform: 0,
            performed: false,
            addr: 0,
            line: LineAddr::containing(0),
            loaded: None,
            stored: None,
            sample: SnoopSample::default(),
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
#[derive(Clone, Debug)]
pub(crate) struct Traq {
    entries: VecDeque<TraqEntry>,
    capacity: usize,
}

impl Traq {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TRAQ capacity must be positive");
        Traq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends an entry (dispatch order = program order).
    ///
    /// # Panics
    ///
    /// Panics if the TRAQ is full (callers must check and stall dispatch)
    /// or if `seq` is not newer than the newest entry.
    pub fn push(&mut self, entry: TraqEntry) {
        assert!(!self.is_full(), "TRAQ overflow");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < entry.seq, "TRAQ must stay seq-ordered");
        }
        self.entries.push_back(entry);
    }

    /// Finds the entry for `seq` (entries are seq-sorted, so this is a
    /// binary search).
    pub fn find_mut(&mut self, seq: u64) -> Option<&mut TraqEntry> {
        let i = self.entries.binary_search_by(|e| e.seq.cmp(&seq)).ok()?;
        self.entries.get_mut(i)
    }

    /// Pops the head if it is ready to be counted (see
    /// [`TraqEntry::ready_to_count`]).
    pub fn pop_ready(&mut self, retired_up_to: i64) -> Option<TraqEntry> {
        if self
            .entries
            .front()
            .is_some_and(|e| e.ready_to_count(retired_up_to))
        {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Discards all entries with `seq > bseq` (pipeline squash; paper §4.1:
    /// "if the ROB is flushed, then the TRAQ is also flushed accordingly").
    pub fn squash_after(&mut self, bseq: u64) {
        while self.entries.back().is_some_and(|e| e.seq > bseq) {
            self.entries.pop_back();
        }
    }

    /// Sequence number of the newest entry, if any.
    pub fn newest_seq(&self) -> Option<u64> {
        self.entries.back().map(|e| e.seq)
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
        let mut t = Traq::new(4);
        t.push(mem_entry(0));
        t.push(mem_entry(1));
        assert!(t.pop_ready(-1).is_none());
        t.find_mut(0).expect("entry").performed = true;
        assert!(t.pop_ready(-1).is_none(), "needs retired too");
        assert_eq!(t.pop_ready(0).expect("ready").seq, 0);
        assert!(t.pop_ready(1).is_none(), "head not ready");
    }

    #[test]
    fn capacity_enforced() {
        let mut t = Traq::new(2);
        t.push(mem_entry(0));
        t.push(mem_entry(1));
        assert!(t.is_full());
    }

    #[test]
    #[should_panic(expected = "TRAQ overflow")]
    fn overflow_panics() {
        let mut t = Traq::new(1);
        t.push(mem_entry(0));
        t.push(mem_entry(1));
    }

    #[test]
    fn squash_discards_suffix_only() {
        let mut t = Traq::new(8);
        for s in 0..5 {
            t.push(mem_entry(s));
        }
        t.squash_after(2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.newest_seq(), Some(2));
        assert!(t.find_mut(4).is_none());
        assert!(t.find_mut(1).is_some());
    }

    #[test]
    fn filler_counts_on_retire_alone() {
        let mut t = Traq::new(2);
        t.push(TraqEntry::new(7, TraqKind::Filler, 15));
        assert!(t.pop_ready(6).is_none());
        assert!(t.pop_ready(7).is_some());
    }
}
