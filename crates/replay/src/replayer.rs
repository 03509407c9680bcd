use core::fmt;

use relaxreplay::prof::Probe;
use relaxreplay::trace::TraceEvent;
use relaxreplay::wire::LogSource;
use rr_isa::{Instr, Interp, MemImage, Memory, Program, StepEvent};
use rr_mem::CoreId;

use crate::cost::{CostModel, ReplayEvents};
use crate::dag::IntervalDag;
use crate::patch::{patch_source, PatchSourceError, PatchedLog, ReplayOp};

/// Errors detected while replaying a log. Any of these means the log does
/// not deterministically describe an execution of the given programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A `RunBlock` ran out of program before executing its full size.
    BlockEndedEarly {
        /// The thread being replayed.
        core: CoreId,
        /// Instructions the block still expected.
        remaining: u64,
    },
    /// An inject/skip op found the wrong kind of instruction at the PC.
    InstructionMismatch {
        /// The thread being replayed.
        core: CoreId,
        /// The PC in question.
        pc: usize,
        /// What the log expected ("load", "store", "rmw").
        expected: &'static str,
        /// What was found.
        found: String,
    },
    /// A thread's log ended before its program halted, or vice versa.
    IncompleteReplay {
        /// The thread being replayed.
        core: CoreId,
    },
    /// The number of logs does not match the number of programs.
    ThreadCountMismatch {
        /// Number of programs.
        programs: usize,
        /// Number of logs.
        logs: usize,
    },
    /// A log (or a recorded ordering edge) names a core outside the
    /// replayed thread set — a corrupted or misattributed log. Validated
    /// up front so a hostile input yields a typed error instead of an
    /// out-of-bounds panic deep in the scheduler.
    CoreOutOfRange {
        /// The offending core index.
        core: usize,
        /// Number of replayed threads.
        threads: usize,
    },
    /// A core's interval ordering covers a different number of intervals
    /// than its log — a truncated or misattributed ordering sidecar.
    OrderingMismatch {
        /// The core whose ordering disagrees with its log.
        core: usize,
        /// Intervals in the core's log.
        intervals: usize,
        /// Intervals covered by the ordering.
        ordered: usize,
    },
    /// The recorded interval ordering contains a dependency cycle, so no
    /// execution can satisfy it — corrupted ordering data. Detected by
    /// the DAG validation pass at construction, never by a hung executor.
    CyclicOrdering {
        /// Intervals that could be topologically ordered.
        executed: usize,
        /// Total intervals in the DAG.
        intervals: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BlockEndedEarly { core, remaining } => {
                write!(
                    f,
                    "{core}: program halted with {remaining} block instructions left"
                )
            }
            ReplayError::InstructionMismatch {
                core,
                pc,
                expected,
                found,
            } => write!(f, "{core}: expected a {expected} at pc {pc}, found {found}"),
            ReplayError::IncompleteReplay { core } => {
                write!(f, "{core}: log and program ended at different points")
            }
            ReplayError::ThreadCountMismatch { programs, logs } => {
                write!(f, "{programs} programs but {logs} logs")
            }
            ReplayError::CoreOutOfRange { core, threads } => {
                write!(
                    f,
                    "log names core {core} but only {threads} threads are being replayed"
                )
            }
            ReplayError::OrderingMismatch {
                core,
                intervals,
                ordered,
            } => write!(
                f,
                "core {core}: log has {intervals} intervals but the ordering covers {ordered}"
            ),
            ReplayError::CyclicOrdering {
                executed,
                intervals,
            } => write!(
                f,
                "interval ordering has a cycle: only {executed} of {intervals} intervals can execute"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The result of a deterministic replay.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Final memory image after replay.
    pub mem: MemImage,
    /// Per-thread values read by every load/RMW, in program order —
    /// compared against the recorded execution to prove determinism.
    pub load_traces: Vec<Vec<u64>>,
    /// Event counts driving the cost model.
    pub events: ReplayEvents,
    /// Estimated user cycles (native block execution).
    pub user_cycles: u64,
    /// Estimated OS cycles (the control module of paper §3.5).
    pub os_cycles: u64,
}

impl ReplayOutcome {
    /// Total estimated replay cycles.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.user_cycles + self.os_cycles
    }
}

/// Sequentially replays patched per-processor logs against their programs,
/// emulating the OS control module of paper §3.5.
///
/// Intervals from all processors are merged into the recorded total order
/// (timestamp, then core id — QuickRec ordering) and executed one at a
/// time: `RunBlock` ops execute natively on the interpreter with an
/// instruction-count budget; reordered-load values are injected into the
/// architectural context; patched stores are applied directly to memory;
/// dummies advance the PC.
///
/// # Errors
///
/// Returns a [`ReplayError`] if the logs are inconsistent with the
/// programs — which a correct recorder never produces.
pub fn replay(
    programs: &[Program],
    logs: &[PatchedLog],
    mem: MemImage,
    cost: &CostModel,
) -> Result<ReplayOutcome, ReplayError> {
    replay_probed(programs, logs, mem, cost, &mut ())
}

/// Like [`replay`], but reporting the control module's scheduling
/// decisions to `probe` (pass a
/// [`TraceRing`](relaxreplay::trace::TraceRing) for divergence forensics):
/// a `ReplayWait` event whenever a thread's next interval had to wait for
/// other threads' intervals in the recorded total order, and a
/// `ReplayRelease` event after each interval completes (carrying the
/// thread's cumulative replayed load count, which anchors divergence
/// forensics).
///
/// # Errors
///
/// Same as [`replay`].
pub fn replay_probed<P: Probe>(
    programs: &[Program],
    logs: &[PatchedLog],
    mem: MemImage,
    cost: &CostModel,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    let dag = IntervalDag::total_order(programs.len(), logs)?;
    execute_sequential(programs, &dag, mem, cost, probe)
}

/// Executes a validated [`IntervalDag`] on one thread, visiting intervals
/// in deterministic topological order (lowest available
/// `(timestamp, core)` first). With a total-order DAG this reproduces the
/// recorded schedule exactly; with a partial-order DAG it is one legal
/// linearization — the same one every time.
pub(crate) fn execute_sequential<P: Probe>(
    programs: &[Program],
    dag: &IntervalDag<'_>,
    mut mem: MemImage,
    cost: &CostModel,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    if dag.threads() != programs.len() {
        return Err(ReplayError::ThreadCountMismatch {
            programs: programs.len(),
            logs: dag.threads(),
        });
    }
    let order = dag.topo_order();
    if order.len() != dag.nodes().len() {
        // Unreachable for a constructor-validated DAG; kept typed so a
        // future constructor bug cannot silently truncate replay.
        return Err(ReplayError::CyclicOrdering {
            executed: order.len(),
            intervals: dag.nodes().len(),
        });
    }

    let mut interps: Vec<Interp> = programs.iter().map(Interp::new).collect();
    let mut traces: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let mut events = ReplayEvents::default();

    let mut last_global: Vec<Option<usize>> = vec![None; programs.len()];
    for (gi, &id) in order.iter().enumerate() {
        let node = &dag.nodes()[id];
        events.intervals += 1;
        let core = CoreId::new(node.core as u8);
        // The thread waited iff other threads' intervals ran since its
        // previous one (or before its first).
        let waited = match last_global[node.core] {
            Some(prev) => gi > prev + 1,
            None => gi > 0,
        };
        if waited {
            probe.event(
                node.timestamp,
                TraceEvent::ReplayWait {
                    core: node.core as u8,
                    ordinal: node.ordinal as u64,
                    timestamp: node.timestamp,
                },
            );
        }
        exec_interval_ops(
            node.ops,
            core,
            &mut interps[node.core],
            &mut mem,
            &mut traces[node.core],
            &mut events,
        )?;
        probe.event(
            node.timestamp,
            TraceEvent::ReplayRelease {
                core: node.core as u8,
                ordinal: node.ordinal as u64,
                timestamp: node.timestamp,
                loads_done: traces[node.core].len() as u64,
            },
        );
        last_global[node.core] = Some(gi);
    }

    check_end_state(programs, &interps)?;

    let user_cycles = cost.user_cycles(&events);
    let os_cycles = cost.os_cycles(&events);
    Ok(ReplayOutcome {
        mem,
        load_traces: traces,
        events,
        user_cycles,
        os_cycles,
    })
}

/// Every thread must have reached its end: either halted, past the end of
/// its program, or parked exactly at a final `Halt`.
pub(crate) fn check_end_state(programs: &[Program], interps: &[Interp]) -> Result<(), ReplayError> {
    for (i, interp) in interps.iter().enumerate() {
        let at_end = interp.is_halted()
            || interp.pc() >= programs[i].len()
            || matches!(programs[i].get(interp.pc()), Some(Instr::Halt));
        if !at_end {
            return Err(ReplayError::IncompleteReplay {
                core: CoreId::new(i as u8),
            });
        }
    }
    Ok(())
}

/// The pre-DAG replayer, preserved verbatim as a differential baseline:
/// splits the logs into intervals itself, merges them into the recorded
/// total order with a stable sort by `(timestamp, core)` and executes the
/// merged schedule directly. The DAG-backed [`replay`] must produce
/// byte-identical outcomes — `tests/parallel_replay_engine.rs` holds the
/// differential test.
///
/// # Errors
///
/// Same as [`replay`].
pub fn replay_reference(
    programs: &[Program],
    logs: &[PatchedLog],
    mut mem: MemImage,
    cost: &CostModel,
) -> Result<ReplayOutcome, ReplayError> {
    if programs.len() != logs.len() {
        return Err(ReplayError::ThreadCountMismatch {
            programs: programs.len(),
            logs: logs.len(),
        });
    }
    // Validate core ids before any indexing: a corrupted log can claim an
    // arbitrary core and would otherwise panic on `interps[interval.core]`.
    for log in logs {
        if log.core.index() >= programs.len() {
            return Err(ReplayError::CoreOutOfRange {
                core: log.core.index(),
                threads: programs.len(),
            });
        }
    }
    // Split each core's ops into intervals and merge by (timestamp, core).
    struct IntervalRef<'a> {
        core: usize,
        ops: &'a [ReplayOp],
        timestamp: u64,
    }
    let mut schedule: Vec<IntervalRef> = Vec::new();
    for log in logs {
        let mut start = 0usize;
        for (i, op) in log.ops.iter().enumerate() {
            if let ReplayOp::EndInterval { timestamp, .. } = op {
                schedule.push(IntervalRef {
                    core: log.core.index(),
                    ops: &log.ops[start..i],
                    timestamp: *timestamp,
                });
                start = i + 1;
            }
        }
    }
    schedule.sort_by_key(|iv| (iv.timestamp, iv.core));

    let mut interps: Vec<Interp> = programs.iter().map(Interp::new).collect();
    let mut traces: Vec<Vec<u64>> = vec![Vec::new(); programs.len()];
    let mut events = ReplayEvents::default();

    for interval in &schedule {
        events.intervals += 1;
        let core = CoreId::new(interval.core as u8);
        exec_interval_ops(
            interval.ops,
            core,
            &mut interps[interval.core],
            &mut mem,
            &mut traces[interval.core],
            &mut events,
        )?;
    }

    check_end_state(programs, &interps)?;

    let user_cycles = cost.user_cycles(&events);
    let os_cycles = cost.os_cycles(&events);
    Ok(ReplayOutcome {
        mem,
        load_traces: traces,
        events,
        user_cycles,
        os_cycles,
    })
}

/// Errors from [`replay_sources`]: the log streams failed to decode/patch,
/// or the patched logs failed to replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplaySourceError {
    /// Decoding or patching a per-core log stream failed.
    Patch(PatchSourceError),
    /// The patched logs are inconsistent with the programs.
    Replay(ReplayError),
}

impl fmt::Display for ReplaySourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplaySourceError::Patch(e) => write!(f, "{e}"),
            ReplaySourceError::Replay(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReplaySourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplaySourceError::Patch(e) => Some(e),
            ReplaySourceError::Replay(e) => Some(e),
        }
    }
}

impl From<PatchSourceError> for ReplaySourceError {
    fn from(e: PatchSourceError) -> Self {
        ReplaySourceError::Patch(e)
    }
}

impl From<ReplayError> for ReplaySourceError {
    fn from(e: ReplayError) -> Self {
        ReplaySourceError::Replay(e)
    }
}

/// Patches and replays directly from per-core [`LogSource`]s — the
/// record-once/replay-many path: each source can be a `ChunkedReader`
/// streaming an `.rrlog` file straight off disk.
///
/// # Errors
///
/// Returns [`ReplaySourceError::Patch`] if any stream is truncated,
/// corrupted, or unpatchable, and [`ReplaySourceError::Replay`] if the
/// decoded logs do not deterministically describe an execution of
/// `programs`.
pub fn replay_sources(
    programs: &[Program],
    sources: &mut [&mut dyn LogSource],
    mem: MemImage,
    cost: &CostModel,
) -> Result<ReplayOutcome, ReplaySourceError> {
    let logs = sources
        .iter_mut()
        .map(|s| patch_source(&mut **s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(replay(programs, &logs, mem, cost)?)
}

fn step_traced<M: Memory>(interp: &mut Interp, mem: &mut M, trace: &mut Vec<u64>) {
    match interp.step(mem) {
        StepEvent::Load { value, .. } => trace.push(value),
        StepEvent::Atomic { loaded, .. } => trace.push(loaded),
        _ => {}
    }
}

/// Executes one interval's ops (everything between two `EndInterval`s) on a
/// thread's interpreter — shared by every executor. Generic over [`Memory`]
/// so the sequential engines run against a plain [`MemImage`] while the
/// threaded engine runs against a [`rr_isa::SharedMemHandle`].
pub(crate) fn exec_interval_ops<M: Memory>(
    ops: &[ReplayOp],
    core: CoreId,
    interp: &mut Interp,
    mem: &mut M,
    trace: &mut Vec<u64>,
    events: &mut ReplayEvents,
) -> Result<(), ReplayError> {
    for op in ops {
        match *op {
            ReplayOp::RunBlock { instrs } => {
                events.blocks += 1;
                events.user_instrs += u64::from(instrs);
                let mut remaining = u64::from(instrs);
                while remaining > 0 {
                    let before = interp.retired();
                    step_traced(interp, mem, trace);
                    let delta = interp.retired() - before;
                    if delta == 0 {
                        // Stepping made no progress: the thread already
                        // halted but the block expected more.
                        return Err(ReplayError::BlockEndedEarly { core, remaining });
                    }
                    remaining -= delta;
                }
            }
            ReplayOp::InjectLoad { value } => {
                events.injected_loads += 1;
                let dst = match interp.current_instr() {
                    Some(Instr::Load { dst, .. }) => *dst,
                    other => {
                        return Err(ReplayError::InstructionMismatch {
                            core,
                            pc: interp.pc(),
                            expected: "load",
                            found: format!("{other:?}"),
                        })
                    }
                };
                interp.set_reg(dst, value);
                interp.skip();
                trace.push(value);
            }
            ReplayOp::ApplyStore { addr, value } => {
                events.applied_stores += 1;
                mem.store(addr, value);
            }
            ReplayOp::SkipStore => {
                events.skips += 1;
                match interp.current_instr() {
                    Some(Instr::Store { .. }) => interp.skip(),
                    other => {
                        return Err(ReplayError::InstructionMismatch {
                            core,
                            pc: interp.pc(),
                            expected: "store",
                            found: format!("{other:?}"),
                        })
                    }
                }
            }
            ReplayOp::InjectRmw { loaded } => {
                events.injected_rmws += 1;
                let dst = match interp.current_instr() {
                    Some(Instr::Atomic { dst, .. }) => *dst,
                    other => {
                        return Err(ReplayError::InstructionMismatch {
                            core,
                            pc: interp.pc(),
                            expected: "rmw",
                            found: format!("{other:?}"),
                        })
                    }
                };
                interp.set_reg(dst, loaded);
                interp.skip();
                trace.push(loaded);
            }
            ReplayOp::EndInterval { .. } => unreachable!("stripped by the scheduler"),
        }
    }
    Ok(())
}
