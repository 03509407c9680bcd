//! The multithreaded replay engine: executes an [`IntervalDag`]'s ready
//! intervals concurrently on a pool of OS threads against shared memory.
//!
//! This is the real (wall-clock) counterpart of the cost-model list
//! scheduler in [`crate::replay_parallel`]: where that executor *models*
//! the makespan on one host thread, this one actually runs intervals in
//! parallel — the paper's §3.6 observation ("a scheme that records a
//! partial order admits parallel replay") made concrete.
//!
//! ## Why concurrent interval execution is deterministic
//!
//! Two intervals run concurrently only when the DAG leaves them
//! unordered, which the recorder guarantees means they do not
//! communicate: any conflicting access raises a coherence transaction,
//! which either terminates an interval or is answered with a predecessor
//! edge — both become DAG edges. Unordered intervals therefore race only
//! on reads of the same locations, and word-atomic shared memory
//! ([`rr_isa::SharedMem`]) keeps even structurally racy page traffic
//! safe. Each core's architectural state lives behind its own mutex and
//! is touched by one worker at a time (same-core intervals are chained),
//! so per-core load traces come out in program order at any worker
//! count.
//!
//! Synchronization: dependency counters are atomics decremented on
//! interval completion; ready nodes flow through a mutex-protected heap
//! with a condvar; the queue lock's release/acquire pairing establishes
//! happens-before from a completed interval's stores to every dependent's
//! loads. The first replay error aborts the pool and is returned typed —
//! a corrupt DAG can neither hang nor panic the engine (acyclicity is
//! validated at DAG construction).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use relaxreplay::prof::{Probe, SpanKind};
use relaxreplay::IntervalOrdering;
use rr_isa::{Interp, MemImage, Program, SharedMem};
use rr_mem::CoreId;

use crate::cost::{CostModel, ReplayEvents};
use crate::dag::IntervalDag;
use crate::patch::PatchedLog;
use crate::replayer::{check_end_state, exec_interval_ops, ReplayError, ReplayOutcome};

/// Which executor a replay should run on — the knob `rr_sim` and the
/// CLIs thread through the stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayEngine {
    /// The sequential DAG executor (recorded total order, one thread).
    Sequential,
    /// The multithreaded executor at the given worker count (the recorded
    /// partial order when an [`IntervalOrdering`] is available, else the
    /// total-order chain).
    Threaded {
        /// Pool size; `0` means the host's available parallelism.
        workers: usize,
    },
}

impl ReplayEngine {
    /// A short stable label (`seq`, `thr4`) for reports and CSV columns.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            ReplayEngine::Sequential => "seq".to_string(),
            ReplayEngine::Threaded { workers } => format!("thr{workers}"),
        }
    }

    /// Resolves `Threaded { workers: 0 }` to the host's parallelism.
    #[must_use]
    pub fn resolved_workers(self) -> usize {
        match self {
            ReplayEngine::Sequential => 1,
            ReplayEngine::Threaded { workers: 0 } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ReplayEngine::Threaded { workers } => workers,
        }
    }
}

/// Replays on the chosen engine. `orderings` supplies the recorded
/// partial order; without it the threaded engine falls back to the
/// total-order chain (correct, but serial — every edge of the chain is a
/// dependency).
///
/// # Errors
///
/// Same conditions as [`crate::replay`], plus the DAG validation errors
/// ([`ReplayError::OrderingMismatch`], [`ReplayError::CyclicOrdering`],
/// [`ReplayError::CoreOutOfRange`]) on corrupt ordering inputs.
pub fn replay_with(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: Option<&[IntervalOrdering]>,
    mem: MemImage,
    cost: &CostModel,
    engine: ReplayEngine,
) -> Result<ReplayOutcome, ReplayError> {
    match engine {
        ReplayEngine::Sequential => crate::replayer::replay(programs, logs, mem, cost),
        ReplayEngine::Threaded { .. } => replay_threaded_probed(
            programs,
            logs,
            orderings,
            mem,
            cost,
            engine.resolved_workers(),
            &mut (),
        ),
    }
}

/// Replays the recorded partial order on `workers` OS threads and
/// returns an outcome verifiable exactly like a sequential replay.
///
/// # Errors
///
/// As [`replay_with`] with a threaded engine.
pub fn replay_threaded(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: &[IntervalOrdering],
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
) -> Result<ReplayOutcome, ReplayError> {
    replay_threaded_probed(programs, logs, Some(orderings), mem, cost, workers, &mut ())
}

/// [`replay_with`] on a threaded engine of `workers` OS threads,
/// reporting to `probe` (pass an
/// [`EngineProf`](relaxreplay::prof::EngineProf) for per-worker
/// timelines). A replay that fails inside the pool still fills the
/// probe; one whose DAG fails validation never starts the pool.
///
/// # Errors
///
/// As [`replay_with`] with a threaded engine.
pub fn replay_threaded_probed<P: Probe + Default + Send>(
    programs: &[Program],
    logs: &[PatchedLog],
    orderings: Option<&[IntervalOrdering]>,
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    let dag = match orderings {
        Some(o) => IntervalDag::partial_order(programs.len(), logs, o)?,
        None => IntervalDag::total_order(programs.len(), logs)?,
    };
    execute_threaded_probed(programs, &dag, mem, cost, workers, probe)
}

struct CoreState<'p> {
    interp: Interp<'p>,
    trace: Vec<u64>,
    events: ReplayEvents,
}

struct Queue {
    /// Ready nodes, drained lowest (timestamp, id) first — a deterministic
    /// *priority*, though actual execution order depends on worker timing
    /// (and may: outcomes are interleaving-independent by construction).
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    executed: usize,
    done: bool,
}

/// Executes a validated [`IntervalDag`] on a scoped worker pool.
///
/// # Errors
///
/// Any [`ReplayError`] raised while executing an interval (the first one
/// aborts the pool), or the DAG validation errors if the DAG and
/// `programs` disagree on the thread count.
pub fn execute_threaded(
    programs: &[Program],
    dag: &IntervalDag<'_>,
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
) -> Result<ReplayOutcome, ReplayError> {
    execute_threaded_probed(programs, dag, mem, cost, workers, &mut ())
}

/// Locks a core's state, telling the probe whether another worker held
/// it. Only an enabled probe pays for the `try_lock`.
fn lock_core<'a, 'p, P: Probe>(
    core: &'a Mutex<CoreState<'p>>,
    probe: &mut P,
) -> MutexGuard<'a, CoreState<'p>> {
    if P::ENABLED {
        if let Ok(g) = core.try_lock() {
            probe.core_lock(false);
            return g;
        }
        probe.core_lock(true);
    }
    core.lock().expect("core state poisoned")
}

/// [`execute_threaded`] reporting to `probe`: each worker records into
/// its own [`Probe::fork`] of it — spans (exec / queue-pop / dep-wait /
/// idle), ready-heap depth at each pop, lock acquisitions, and the
/// latency to a replay error — and the forks are joined back in worker
/// order once the pool exits, whether or not the replay succeeded.
///
/// # Errors
///
/// As [`execute_threaded`].
pub(crate) fn execute_threaded_probed<P: Probe + Default + Send>(
    programs: &[Program],
    dag: &IntervalDag<'_>,
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    if dag.threads() != programs.len() {
        return Err(ReplayError::ThreadCountMismatch {
            programs: programs.len(),
            logs: dag.threads(),
        });
    }
    let nodes = dag.nodes();
    let shared = SharedMem::from_image(&mem);
    drop(mem);

    let cores: Vec<Mutex<CoreState>> = programs
        .iter()
        .map(|p| {
            Mutex::new(CoreState {
                interp: Interp::new(p),
                trace: Vec::new(),
                events: ReplayEvents::default(),
            })
        })
        .collect();
    let deps: Vec<AtomicUsize> = nodes.iter().map(|n| AtomicUsize::new(n.preds)).collect();
    let queue = Mutex::new(Queue {
        ready: nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.preds == 0)
            .map(|(i, n)| Reverse((n.timestamp, i)))
            .collect(),
        executed: 0,
        done: nodes.is_empty(),
    });
    let cond = Condvar::new();
    let error: Mutex<Option<ReplayError>> = Mutex::new(None);
    // Ns since the pool started; the `()` probe reads no clock.
    let t0 = P::ENABLED.then(Instant::now);
    let now = move || t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

    let pool = workers.clamp(1, nodes.len().max(1));
    let forks: Vec<P> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(pool);
        for widx in 0..pool {
            let mut wp = probe.fork(widx);
            handles.push(s.spawn(|| {
                let mut memh = shared.handle();
                'work: loop {
                    wp.queue_lock();
                    let mut begin = now();
                    let node = {
                        let mut q = queue.lock().expect("replay queue poisoned");
                        loop {
                            if q.done {
                                drop(q);
                                wp.span(SpanKind::Idle, begin, now() - begin, 0, 0);
                                break 'work;
                            }
                            if let Some(Reverse((_, id))) = q.ready.pop() {
                                wp.heap_depth(q.ready.len() + 1);
                                wp.span(SpanKind::QueuePop, begin, now() - begin, 0, 0);
                                break id;
                            }
                            let wait_begin = now();
                            q = cond.wait(q).expect("replay queue poisoned");
                            if q.done {
                                // A wake into shutdown was idle time, not
                                // a dependency stall.
                                begin = wait_begin;
                            } else {
                                let waited = now() - wait_begin;
                                wp.span(SpanKind::DepWait, wait_begin, waited, 0, 0);
                                begin = now();
                            }
                        }
                    };
                    let n = &nodes[node];
                    let exec_begin = now();
                    // Same-core intervals are chained in the DAG, so this
                    // lock is uncontended; it exists to hand the core's
                    // architectural state from worker to worker.
                    let result = {
                        let mut cs = lock_core(&cores[n.core], &mut wp);
                        cs.events.intervals += 1;
                        let CoreState {
                            interp,
                            trace,
                            events,
                        } = &mut *cs;
                        exec_interval_ops(
                            n.ops,
                            CoreId::new(n.core as u8),
                            interp,
                            &mut memh,
                            trace,
                            events,
                        )
                    };
                    let exec_ns = now() - exec_begin;
                    wp.span(
                        SpanKind::Exec,
                        exec_begin,
                        exec_ns,
                        n.core as u32,
                        node as u64,
                    );
                    match result {
                        Err(e) => {
                            wp.replay_error(now());
                            let mut slot = error.lock().expect("error slot poisoned");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            drop(slot);
                            let mut q = queue.lock().expect("replay queue poisoned");
                            q.done = true;
                            drop(q);
                            cond.notify_all();
                            break 'work;
                        }
                        Ok(()) => {
                            let mut newly_ready = Vec::new();
                            for &succ in &n.succs {
                                if deps[succ].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    newly_ready.push(succ);
                                }
                            }
                            wp.queue_lock();
                            let mut q = queue.lock().expect("replay queue poisoned");
                            q.executed += 1;
                            if q.executed == nodes.len() {
                                q.done = true;
                            }
                            for id in newly_ready {
                                q.ready.push(Reverse((nodes[id].timestamp, id)));
                            }
                            let wake = q.done || !q.ready.is_empty();
                            drop(q);
                            if wake {
                                cond.notify_all();
                            }
                        }
                    }
                }
                wp
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    for wp in forks {
        probe.join(wp);
    }
    probe.engine_done(nodes.len(), now());

    if let Some(e) = error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let q = queue.into_inner().expect("replay queue poisoned");
    if q.executed != nodes.len() {
        // Unreachable for a constructor-validated DAG; kept as a typed
        // error so a future executor bug cannot silently truncate replay.
        return Err(ReplayError::CyclicOrdering {
            executed: q.executed,
            intervals: nodes.len(),
        });
    }

    let mut interps = Vec::with_capacity(cores.len());
    let mut traces = Vec::with_capacity(cores.len());
    let mut events = ReplayEvents::default();
    for c in cores {
        let cs = c.into_inner().expect("core state poisoned");
        events.merge(&cs.events);
        traces.push(cs.trace);
        interps.push(cs.interp);
    }
    check_end_state(programs, &interps)?;

    let user_cycles = cost.user_cycles(&events);
    let os_cycles = cost.os_cycles(&events);
    Ok(ReplayOutcome {
        mem: shared.to_image(),
        load_traces: traces,
        events,
        user_cycles,
        os_cycles,
    })
}
