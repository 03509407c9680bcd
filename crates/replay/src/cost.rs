use crate::patch::ReplayOp;

/// Counts of the replay driver's events, from which replay time is
/// estimated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayEvents {
    /// Instructions executed natively inside `RunBlock`s.
    pub user_instrs: u64,
    /// Intervals processed (ordering synchronization + frame handling).
    pub intervals: u64,
    /// `RunBlock`s executed (each arms the instruction counter and ends in
    /// a synchronous interrupt + pipeline flush).
    pub blocks: u64,
    /// Reordered loads whose values were injected.
    pub injected_loads: u64,
    /// Patched stores applied by the OS.
    pub applied_stores: u64,
    /// Dummy entries skipped.
    pub skips: u64,
    /// Reordered RMWs emulated.
    pub injected_rmws: u64,
}

impl ReplayEvents {
    /// The event counts of replaying one interval's ops, `intervals`
    /// already set to 1 — the only place replay events are counted. The
    /// DAG sums it over its nodes (the executors' event totals), the list
    /// schedule and critical-path blame ([`crate::prof`]) weigh nodes by
    /// it, so every consumer attributes cycles identically.
    #[must_use]
    pub fn for_interval(ops: &[ReplayOp]) -> Self {
        let mut ev = ReplayEvents::default();
        ev.add_interval(ops);
        ev
    }

    /// Adds one interval's [`for_interval`](Self::for_interval) counts
    /// to this total.
    pub(crate) fn add_interval(&mut self, ops: &[ReplayOp]) {
        self.intervals += 1;
        for op in ops {
            match op {
                ReplayOp::RunBlock { instrs } => {
                    self.blocks += 1;
                    self.user_instrs += u64::from(*instrs);
                }
                ReplayOp::InjectLoad { .. } => self.injected_loads += 1,
                ReplayOp::ApplyStore { .. } => self.applied_stores += 1,
                ReplayOp::SkipStore => self.skips += 1,
                ReplayOp::InjectRmw { .. } => self.injected_rmws += 1,
                ReplayOp::EndInterval { .. } => {}
            }
        }
    }
}

/// Cycle-cost model for sequential replay (paper §3.5, §5.4).
///
/// The paper measures replay by linking a control module with the
/// application and running it on the simulated machine; we reproduce the
/// *shape* of Figure 13 with an analytic model: native execution proceeds
/// at `replay_ipc`, and each OS-level event has a fixed cycle cost. The
/// defaults below are chosen to be plausible for the paper's 2 GHz 4-issue
/// core (an interrupt + context save/restore costs a few hundred
/// cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Native replay IPC inside `RunBlock`s (sequential re-execution with
    /// warm caches and no coherence contention).
    pub replay_ipc: f64,
    /// OS cycles per interval: reading the frame, waiting on / signalling
    /// the interval-order synchronization.
    pub os_per_interval: u64,
    /// OS cycles per `RunBlock`: arming the counter, the end-of-block
    /// synchronous interrupt, and the pipeline flush it causes.
    pub os_per_block: u64,
    /// OS cycles per injected load (register-file update in the saved
    /// context + PC advance).
    pub os_per_injected_load: u64,
    /// OS cycles per applied (patched) store.
    pub os_per_applied_store: u64,
    /// OS cycles per dummy skip.
    pub os_per_skip: u64,
    /// OS cycles per emulated RMW.
    pub os_per_injected_rmw: u64,
}

impl CostModel {
    /// Documented defaults (see DESIGN.md §2.3). The experiment harness
    /// overrides `replay_ipc` per workload with 1.2× the recorded per-core
    /// IPC (native replay has warm caches and no contention).
    #[must_use]
    pub fn splash_default() -> Self {
        CostModel {
            replay_ipc: 2.0,
            os_per_interval: 120,
            os_per_block: 60,
            os_per_injected_load: 40,
            os_per_applied_store: 40,
            os_per_skip: 20,
            os_per_injected_rmw: 60,
        }
    }

    /// Estimated user (native execution) cycles.
    #[must_use]
    pub fn user_cycles(&self, ev: &ReplayEvents) -> u64 {
        (ev.user_instrs as f64 / self.replay_ipc).ceil() as u64
    }

    /// Estimated OS (control module) cycles.
    #[must_use]
    pub fn os_cycles(&self, ev: &ReplayEvents) -> u64 {
        ev.intervals * self.os_per_interval
            + ev.blocks * self.os_per_block
            + ev.injected_loads * self.os_per_injected_load
            + ev.applied_stores * self.os_per_applied_store
            + ev.skips * self.os_per_skip
            + ev.injected_rmws * self.os_per_injected_rmw
    }

    /// Total estimated replay cycles.
    #[must_use]
    pub fn total_cycles(&self, ev: &ReplayEvents) -> u64 {
        self.user_cycles(ev) + self.os_cycles(ev)
    }

    /// Modeled cycles to replay one interval's ops — the node weight the
    /// list schedule ([`crate::IntervalDag::list_schedule`]) and
    /// critical-path blame both use. The per-interval
    /// `ceil` in [`CostModel::user_cycles`] makes this slightly
    /// super-additive versus costing merged events; blame works at this
    /// granularity so its per-interval attributions sum exactly to the
    /// modeled makespan.
    #[must_use]
    pub fn interval_cycles(&self, ops: &[ReplayOp]) -> u64 {
        self.total_cycles(&ReplayEvents::for_interval(ops))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::splash_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_cycles_respect_ipc() {
        let m = CostModel {
            replay_ipc: 2.0,
            ..CostModel::splash_default()
        };
        let ev = ReplayEvents {
            user_instrs: 1000,
            ..ReplayEvents::default()
        };
        assert_eq!(m.user_cycles(&ev), 500);
    }

    #[test]
    fn os_cycles_scale_with_entries() {
        let m = CostModel::splash_default();
        let few = ReplayEvents {
            intervals: 1,
            blocks: 1,
            ..ReplayEvents::default()
        };
        let many = ReplayEvents {
            intervals: 10,
            blocks: 100,
            injected_loads: 50,
            ..ReplayEvents::default()
        };
        assert!(m.os_cycles(&many) > 10 * m.os_cycles(&few));
        assert_eq!(
            m.total_cycles(&few),
            m.user_cycles(&few) + m.os_cycles(&few)
        );
    }
}
