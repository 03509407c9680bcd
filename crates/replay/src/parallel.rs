//! Parallel replay of RelaxReplay logs (paper §3.6, §5.4) — the
//! cost-model speedup.
//!
//! The paper's QuickRec-style interval ordering records a *total* order,
//! forcing sequential replay; §3.6 notes that pairing RelaxReplay with a
//! chunk-ordering scheme that records a *partial* order (Karma, Cyrus)
//! yields parallel replay "for free". Our recorder captures exactly that
//! partial order alongside the timestamps
//! ([`IntervalOrdering`]): cross-core predecessor edges delivered with
//! coherence replies, plus conservative barrier intervals for
//! directory-mode dirty evictions.
//!
//! [`replay_parallel`] builds the partial-order [`IntervalDag`], takes the
//! makespan on `workers` replay cores from its pure list schedule
//! ([`IntervalDag::list_schedule`]) — the parallel-replay speedup of
//! §5.4's closing remark — and validates that schedule by running the
//! single-thread executor in the schedule's order (generally very
//! different from the timestamp order), returning a [`ReplayOutcome`] the
//! caller can pass to [`verify`](crate::verify). For *measured*
//! wall-clock parallelism, see [`crate::replay_threaded`].

use relaxreplay::IntervalOrdering;
use rr_isa::{MemImage, Program};

use crate::cost::CostModel;
use crate::dag::IntervalDag;
use crate::patch::PatchedLog;
use crate::replayer::{execute_sequential, ReplayError, ReplayOutcome};

/// Result of a parallel replay.
#[derive(Clone, Debug)]
pub struct ParallelOutcome {
    /// The replayed execution (memory, load traces, event counts) —
    /// verifiable against the recording exactly like a sequential replay.
    pub outcome: ReplayOutcome,
    /// Makespan in estimated cycles on the given number of replay cores.
    pub parallel_cycles: u64,
    /// Total work in estimated cycles (= sequential replay time).
    pub sequential_cycles: u64,
    /// Number of replay workers the schedule used.
    pub workers: usize,
}

impl ParallelOutcome {
    /// Speedup of parallel over sequential replay.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.parallel_cycles == 0 {
            return 1.0;
        }
        self.sequential_cycles as f64 / self.parallel_cycles as f64
    }
}

/// Replays patched logs honouring the recorded partial order instead of
/// the total timestamp order, modelling the makespan on `workers` replay
/// cores.
///
/// Builds the [`IntervalDag`] from the logs and orderings (validating
/// acyclicity and ordering/log consistency up front), computes its
/// [`list_schedule`](IntervalDag::list_schedule), and replays the
/// intervals on one thread in the schedule's order.
///
/// # Errors
///
/// Same conditions as [`replay`](crate::replay), plus the DAG validation
/// errors ([`ReplayError::OrderingMismatch`],
/// [`ReplayError::CyclicOrdering`], [`ReplayError::CoreOutOfRange`]) on
/// corrupted ordering inputs.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn replay_parallel(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: &[IntervalOrdering],
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
) -> Result<ParallelOutcome, ReplayError> {
    let dag = IntervalDag::partial_order(programs.len(), logs, orderings)?;
    let (order, parallel_cycles, sequential_cycles) = dag.list_schedule(cost, workers);
    Ok(ParallelOutcome {
        outcome: execute_sequential(programs, &dag, &order, mem, cost, &mut ())?,
        parallel_cycles,
        sequential_cycles,
        workers,
    })
}
