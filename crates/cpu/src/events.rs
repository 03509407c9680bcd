use rr_mem::{AccessKind, LineAddr};

/// Everything the recorder needs to know about a memory access's **perform**
/// event (paper §3.1): a load performs when its data arrives (including
/// store-to-load forwards); a store performs when its coherence transaction
/// completes; an atomic RMW performs as a single event carrying both its
/// loaded and stored values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PerformRecord {
    /// The instruction's per-core sequence number (program order).
    pub seq: u64,
    /// Load, store or RMW.
    pub kind: AccessKind,
    /// The byte address accessed.
    pub addr: u64,
    /// The cache line accessed (conflict granularity).
    pub line: LineAddr,
    /// Value read, for loads and RMWs.
    pub loaded: Option<u64>,
    /// Value written, for stores and successful RMWs.
    pub stored: Option<u64>,
    /// The cycle the access performed.
    pub cycle: u64,
}

/// Hooks through which a per-core Memory Race Recorder observes the core.
///
/// The core calls these in deterministic order within a cycle. Sequence
/// numbers are per-core and strictly increasing in program order among live
/// instructions. After `on_squash_after(seq)`, numbers greater than `seq`
/// are dead and **will be reused** by the re-dispatched correct path — this
/// matches the paper's TRAQ, where "its entry in the TRAQ will be correctly
/// overwritten upon the re-execution of the instruction" (§4.1).
pub trait CoreObserver {
    /// An instruction was dispatched into the ROB. `is_mem` marks loads,
    /// stores and RMWs (the instructions that occupy TRAQ entries).
    ///
    /// Returning `false` refuses the dispatch (the TRAQ is full); the core
    /// stalls and retries next cycle. Refusals must be stateless: the same
    /// dispatch will be offered again.
    fn on_dispatch(&mut self, seq: u64, is_mem: bool) -> bool;

    /// A memory access performed.
    fn on_perform(&mut self, record: &PerformRecord);

    /// An instruction retired (left the ROB in program order).
    fn on_retire(&mut self, seq: u64, is_mem: bool, cycle: u64);

    /// All instructions with sequence numbers **greater than** `seq` were
    /// squashed (branch misprediction) at `cycle`.
    fn on_squash_after(&mut self, seq: u64, cycle: u64);
}

/// An observer that ignores everything and never stalls the core.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl CoreObserver for NullObserver {
    fn on_dispatch(&mut self, _seq: u64, _is_mem: bool) -> bool {
        true
    }
    fn on_perform(&mut self, _record: &PerformRecord) {}
    fn on_retire(&mut self, _seq: u64, _is_mem: bool, _cycle: u64) {}
    fn on_squash_after(&mut self, _seq: u64, _cycle: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_never_stalls() {
        let mut n = NullObserver;
        assert!(n.on_dispatch(0, true));
    }
}
