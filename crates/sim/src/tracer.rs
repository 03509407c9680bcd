use std::collections::VecDeque;

use rr_cpu::{CoreObserver, PerformRecord};

/// Collects the value obtained by every load/RMW of one thread, in
/// retirement (program) order — the ground truth against which replay is
/// verified (`rr_replay::verify`).
///
/// Values are captured at perform time and committed to the trace at
/// retirement, so squashed speculative loads never pollute it.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    /// `(seq, loaded value)` per performed, not yet retired load or RMW,
    /// in seq order: retirement takes the front, a squash cuts the back.
    performed: VecDeque<(u64, u64)>,
    trace: Vec<u64>,
}

impl TraceCollector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-thread load-value trace collected so far.
    #[must_use]
    pub fn trace(&self) -> &[u64] {
        &self.trace
    }

    /// Consumes the collector, returning the trace.
    #[must_use]
    pub fn into_trace(self) -> Vec<u64> {
        self.trace
    }
}

impl CoreObserver for TraceCollector {
    fn on_dispatch(&mut self, _seq: u64, _is_mem: bool) -> bool {
        true
    }

    fn on_perform(&mut self, record: &PerformRecord) {
        if let Some(loaded) = record.loaded {
            // Performs come out of order; the queue stays in seq order.
            match self
                .performed
                .binary_search_by_key(&record.seq, |&(s, _)| s)
            {
                Ok(i) => self.performed[i].1 = loaded,
                Err(i) => self.performed.insert(i, (record.seq, loaded)),
            }
        }
    }

    fn on_retire(&mut self, seq: u64, is_mem: bool, _cycle: u64) {
        // Retirement is in seq order, so a retiring load is the front.
        debug_assert!(self.performed.front().is_none_or(|&(s, _)| s >= seq));
        if let Some((_, v)) = self.performed.pop_front_if(|(s, _)| is_mem && *s == seq) {
            self.trace.push(v);
        }
    }

    fn on_squash_after(&mut self, seq: u64, _cycle: u64) {
        let keep = self.performed.partition_point(|&(s, _)| s <= seq);
        self.performed.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rr_mem::{AccessKind, IdHashMap, LineAddr};

    fn perform(seq: u64, loaded: Option<u64>) -> PerformRecord {
        PerformRecord {
            seq,
            kind: if loaded.is_some() {
                AccessKind::Load
            } else {
                AccessKind::Store
            },
            addr: 0,
            line: LineAddr::containing(0),
            loaded,
            stored: None,
            cycle: 0,
        }
    }

    #[test]
    fn retirement_order_defines_the_trace() {
        let mut t = TraceCollector::new();
        // Loads perform out of order...
        t.on_perform(&perform(2, Some(20)));
        t.on_perform(&perform(1, Some(10)));
        // ...but retire in order.
        t.on_retire(1, true, 0);
        t.on_retire(2, true, 0);
        assert_eq!(t.trace(), &[10, 20]);
    }

    fn perform_rmw(seq: u64, loaded: u64, stored: u64) -> PerformRecord {
        PerformRecord {
            seq,
            kind: AccessKind::Rmw,
            addr: 0x80,
            line: LineAddr::containing(0x80),
            loaded: Some(loaded),
            stored: Some(stored),
            cycle: 0,
        }
    }

    #[test]
    fn squashed_rmw_redispatch_captures_the_new_loaded_value() {
        // An RMW performs with BOTH a loaded and a stored value; only the
        // loaded side belongs in the verification trace. A squash must
        // discard the speculative perform so the re-dispatched RMW (same
        // seq, different loaded value) defines the trace.
        let mut t = TraceCollector::new();
        t.on_perform(&perform(1, Some(10)));
        t.on_perform(&perform_rmw(2, 0xAA, 0xBB)); // speculative, squashed
        t.on_squash_after(1, 0);
        t.on_retire(1, true, 0);
        assert_eq!(t.trace(), &[10], "squashed RMW must not leak its value");
        // Re-dispatched with a different observed value (another core wrote
        // the location in between).
        t.on_perform(&perform_rmw(2, 0xCC, 0xDD));
        t.on_retire(2, true, 1);
        assert_eq!(t.trace(), &[10, 0xCC], "loaded value, never the stored one");
    }

    #[test]
    fn stores_and_squashed_loads_are_excluded() {
        let mut t = TraceCollector::new();
        t.on_perform(&perform(1, None)); // a store
        t.on_perform(&perform(3, Some(30))); // speculative, will squash
        t.on_squash_after(2, 0);
        t.on_retire(1, true, 0);
        assert!(t.trace().is_empty());
        // Re-dispatched seq 3 performs with a different value.
        t.on_perform(&perform(3, Some(31)));
        t.on_retire(3, true, 0);
        assert_eq!(t.trace(), &[31]);
    }

    /// The collector as it was before its seq-ordered queue: a map from
    /// seq to loaded value. The oracle for the queue.
    #[derive(Default)]
    struct MapCollector {
        performed: IdHashMap<u64, u64>,
        trace: Vec<u64>,
    }

    impl CoreObserver for MapCollector {
        fn on_dispatch(&mut self, _seq: u64, _is_mem: bool) -> bool {
            true
        }
        fn on_perform(&mut self, record: &PerformRecord) {
            if let Some(loaded) = record.loaded {
                self.performed.insert(record.seq, loaded);
            }
        }
        fn on_retire(&mut self, seq: u64, is_mem: bool, _cycle: u64) {
            if is_mem {
                if let Some(v) = self.performed.remove(&seq) {
                    self.trace.push(v);
                }
            }
        }
        fn on_squash_after(&mut self, seq: u64, _cycle: u64) {
            self.performed.retain(|&s, _| s <= seq);
        }
    }

    /// What a core does to its observer, with seqs relative to the live
    /// window so that every generated stream keeps the core's protocol.
    #[derive(Clone, Debug)]
    enum Event {
        /// Dispatch the next seq: 0 non-memory, 1 load, 2 store, 3 RMW.
        Dispatch(u8),
        /// Perform the live memory access at this offset from the head.
        Perform(usize, u64),
        Retire,
        /// Squash everything after the head plus this offset.
        Squash(usize),
    }

    fn event() -> impl Strategy<Value = Event> {
        // Dispatches and performs twice as often as retires and squashes,
        // so the window fills up.
        prop_oneof![
            (0u8..4).prop_map(Event::Dispatch),
            (0u8..4).prop_map(Event::Dispatch),
            (0usize..8, any::<u64>()).prop_map(|(i, v)| Event::Perform(i, v)),
            (0usize..8, any::<u64>()).prop_map(|(i, v)| Event::Perform(i, v)),
            Just(Event::Retire),
            (0usize..8).prop_map(Event::Squash),
        ]
    }

    fn both(q: &mut TraceCollector, m: &mut MapCollector, f: impl Fn(&mut dyn CoreObserver)) {
        f(q);
        f(m);
    }

    #[test]
    fn queue_keeps_the_map_semantics_on_a_scripted_run() {
        fn script(o: &mut dyn CoreObserver) {
            o.on_perform(&perform(3, Some(30)));
            o.on_perform(&perform_rmw(2, 0xAA, 0xBB));
            o.on_perform(&perform(1, Some(10)));
            o.on_perform(&perform(4, None));
            o.on_retire(1, true, 0);
            // The RMW's perform is squashed, then it performs again.
            o.on_squash_after(1, 0);
            o.on_perform(&perform_rmw(2, 0xCC, 0xDD));
            o.on_perform(&perform(3, Some(31)));
            o.on_retire(2, true, 1);
            o.on_retire(3, true, 1);
            o.on_retire(4, true, 1);
        }
        let (mut q, mut m) = (TraceCollector::new(), MapCollector::default());
        script(&mut q);
        script(&mut m);
        assert_eq!(q.trace(), m.trace.as_slice());
        assert_eq!(q.trace(), &[10, 0xCC, 31]);
    }

    proptest! {
        #[test]
        fn queue_keeps_the_map_semantics(events in proptest::collection::vec(event(), 0..120)) {
            let (mut q, mut m) = (TraceCollector::new(), MapCollector::default());
            // The live window `head..kinds.len()`, one kind per seq.
            let (mut head, mut kinds) = (0usize, Vec::<u8>::new());
            for ev in events {
                match ev {
                    Event::Dispatch(kind) => kinds.push(kind),
                    Event::Perform(off, v) => {
                        let seq = head + off;
                        let record = match kinds.get(seq) {
                            Some(1) => perform(seq as u64, Some(v)),
                            Some(2) => perform(seq as u64, None),
                            Some(3) => perform_rmw(seq as u64, v, !v),
                            _ => continue,
                        };
                        both(&mut q, &mut m, |o| o.on_perform(&record));
                    }
                    Event::Retire => {
                        let Some(&kind) = kinds.get(head) else { continue };
                        both(&mut q, &mut m, |o| o.on_retire(head as u64, kind != 0, 0));
                        head += 1;
                    }
                    Event::Squash(off) => {
                        let bseq = head + off;
                        if bseq >= kinds.len() {
                            continue;
                        }
                        both(&mut q, &mut m, |o| o.on_squash_after(bseq as u64, 0));
                        kinds.truncate(bseq + 1);
                    }
                }
                prop_assert_eq!(q.trace(), m.trace.as_slice());
            }
        }
    }
}
