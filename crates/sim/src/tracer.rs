use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::IdHashMap;

/// Collects the value obtained by every load/RMW of one thread, in
/// retirement (program) order — the ground truth against which replay is
/// verified (`rr_replay::verify`).
///
/// Values are captured at perform time and committed to the trace at
/// retirement, so squashed speculative loads never pollute it.
#[derive(Clone, Debug, Default)]
pub struct TraceCollector {
    /// Loaded value per performed, not yet retired seq.
    performed: IdHashMap<u64, u64>,
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

#[cfg(test)]
mod tests {
    use super::*;
    use rr_mem::{AccessKind, LineAddr};

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
}
