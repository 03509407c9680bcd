//! The one path from a recorded variant to a replay outcome: patch the
//! per-core logs (§3.3.2), build the interval DAG, run an executor over
//! the recorded total order (§3.5) or partial order (§3.6).
//! [`with_variant_dag`] is the first two steps, for callers that analyse
//! the DAG itself.

use core::fmt;
use std::time::Instant;

use relaxreplay::prof::Probe;
use relaxreplay::{IntervalLog, IntervalOrdering};
use rr_isa::{MemImage, Program};
use rr_replay::{
    execute_sequential, execute_threaded, patch, CostModel, IntervalDag, PatchError, PatchedLog,
    ReplayError, ReplayOutcome,
};

use crate::machine::RunResult;
use crate::metrics::PhaseNanos;

/// Which executor replays a recorded variant, and so which DAG it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine<'a> {
    /// [`execute_sequential`] over the recorded total order (§3.5).
    Sequential,
    /// `Threaded(workers, ordering)`: [`execute_threaded`] on `workers`
    /// threads over the variant's recorded partial order `ordering`
    /// (§3.6), or over the total order when there is none (a run saved
    /// without `ordering.bin`).
    Threaded(usize, Option<&'a [IntervalOrdering]>),
}

/// The stage of the replay path that failed, with its typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayStageError {
    /// A core's log failed to patch.
    Patch(PatchError),
    /// The patched logs (with the ordering, if used) form no valid
    /// interval DAG.
    Dag(ReplayError),
    /// The executor failed on the DAG.
    Replay(ReplayError),
}

impl fmt::Display for ReplayStageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayStageError::Patch(e) => write!(f, "patch failed: {e}"),
            ReplayStageError::Dag(e) => write!(f, "DAG build failed: {e}"),
            ReplayStageError::Replay(e) => write!(f, "replay failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayStageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayStageError::Patch(e) => Some(e),
            ReplayStageError::Dag(e) | ReplayStageError::Replay(e) => Some(e),
        }
    }
}

impl ReplayStageError {
    /// Lowers to [`crate::Error`], keeping the typed source, with context
    /// `at("patch failed")` for a patch failure and `at(later)` for a DAG
    /// or replay failure.
    pub fn into_error(self, at: impl Fn(&str) -> String, later: &str) -> crate::Error {
        match self {
            ReplayStageError::Patch(e) => crate::Error::from(e).context(at("patch failed")),
            ReplayStageError::Dag(e) | ReplayStageError::Replay(e) => {
                crate::Error::from(e).context(at(later))
            }
        }
    }
}

/// Patches a variant's `logs` (one per core) and builds their interval
/// DAG — the partial order given an `ordering`, else the total order —
/// and hands it to `f`: the one place either step happens.
///
/// With `phases`, a success adds the patching time to
/// [`PhaseNanos::patch`] and that of the DAG build plus `f` to
/// [`PhaseNanos::replay`]; without, the clock is never read.
///
/// # Errors
///
/// [`ReplayStageError::Patch`] or [`ReplayStageError::Dag`].
pub fn with_variant_dag<T>(
    logs: &[IntervalLog],
    ordering: Option<&[IntervalOrdering]>,
    phases: Option<&mut PhaseNanos>,
    f: impl FnOnce(&IntervalDag<'_>) -> T,
) -> Result<T, ReplayStageError> {
    let start = phases.is_some().then(Instant::now);
    let patched = logs
        .iter()
        .map(patch)
        .collect::<Result<Vec<PatchedLog>, _>>()
        .map_err(ReplayStageError::Patch)?;
    let patched_at = start.map(|_| Instant::now());
    let dag = match ordering {
        Some(ordering) => IntervalDag::partial_order(logs.len(), &patched, ordering),
        None => IntervalDag::total_order(logs.len(), &patched),
    }
    .map_err(ReplayStageError::Dag)?;
    let out = f(&dag);
    if let (Some(p), Some(start), Some(patched_at)) = (phases, start, patched_at) {
        p.patch += (patched_at - start).as_nanos() as u64;
        p.replay += patched_at.elapsed().as_nanos() as u64;
    }
    Ok(out)
}

/// Replays a recorded variant's `logs` against `programs` from
/// `initial_mem` on `engine`: patch, DAG, executor. `probe` sees the
/// sequential engine's scheduling decisions (a
/// [`TraceRing`](relaxreplay::TraceRing) for divergence forensics, `&mut
/// ()` for none); `phases`, when given, accumulates the patch and replay
/// wall-clock time. The outcome is not verified.
///
/// # Errors
///
/// The failing stage, with its typed error.
pub fn replay_variant<P: Probe>(
    programs: &[Program],
    initial_mem: &MemImage,
    cost: &CostModel,
    logs: &[IntervalLog],
    engine: Engine<'_>,
    probe: &mut P,
    phases: Option<&mut PhaseNanos>,
) -> Result<ReplayOutcome, ReplayStageError> {
    let ordering = match engine {
        Engine::Sequential => None,
        Engine::Threaded(_, ordering) => ordering,
    };
    with_variant_dag(logs, ordering, phases, |dag| {
        let mem = initial_mem.clone();
        match engine {
            Engine::Sequential => {
                execute_sequential(programs, dag, &dag.topo_order(), mem, cost, probe)
            }
            Engine::Threaded(workers, _) => execute_threaded(programs, dag, mem, cost, workers),
        }
    })?
    .map_err(ReplayStageError::Replay)
}

/// Patches and replays one variant's logs on the sequential engine,
/// verifying the replay against the recorded execution. Returns the replay
/// outcome (with its cost-model cycle estimates) on success.
///
/// # Errors
///
/// Returns the first patch, replay or verification failure as a typed
/// [`crate::Error`] — any of which means determinism was broken — or an
/// out-of-range `variant` index.
pub fn replay_and_verify(
    programs: &[Program],
    initial_mem: &MemImage,
    result: &RunResult,
    variant: usize,
    cost: &CostModel,
) -> Result<ReplayOutcome, crate::Error> {
    let v = result.variant(variant)?;
    let seq = Engine::Sequential;
    let outcome = replay_variant(programs, initial_mem, cost, &v.logs, seq, &mut (), None)
        .map_err(|e| e.into_error(|s| s.to_string(), "replay failed [seq]"))?;
    rr_replay::verify(&result.recorded, &outcome).map_err(|e| {
        crate::Error::from(e).context(format!("verification failed [{} seq]", v.spec.label()))
    })?;
    Ok(outcome)
}
