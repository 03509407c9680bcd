//! The multithreaded replay engine: executes an [`IntervalDag`]'s ready
//! intervals concurrently on a pool of OS threads against shared memory.
//!
//! This is the real (wall-clock) counterpart of the cost-model list
//! schedule ([`IntervalDag::list_schedule`]): where that pure function
//! *models* the makespan, this executor actually runs intervals in
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
use rr_isa::{Interp, MemImage, Program, SharedMem};
use rr_mem::CoreId;

use crate::cost::CostModel;
use crate::dag::IntervalDag;
use crate::replayer::{exec_interval_ops, finish_replay, ReplayError, ReplayOutcome};

struct CoreState<'p> {
    interp: Interp<'p>,
    trace: Vec<u64>,
}

struct Queue {
    /// Ready nodes, drained lowest (timestamp, id) first — a deterministic
    /// *priority*, though actual execution order depends on worker timing
    /// (and may: outcomes are interleaving-independent by construction).
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    executed: usize,
    done: bool,
}

/// Executes a validated [`IntervalDag`] on a scoped worker pool of
/// `workers` OS threads (clamped to `1..=` the node count) and returns an
/// outcome verifiable exactly like a sequential replay.
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
/// order once the pool exits, whether or not the replay succeeded. Pass an
/// [`EngineProf`](relaxreplay::prof::EngineProf) for per-worker
/// timelines.
///
/// # Errors
///
/// As [`execute_threaded`].
pub fn execute_threaded_probed<P: Probe + Default + Send>(
    programs: &[Program],
    dag: &IntervalDag<'_>,
    mem: MemImage,
    cost: &CostModel,
    workers: usize,
    probe: &mut P,
) -> Result<ReplayOutcome, ReplayError> {
    dag.check_threads(programs.len())?;
    let nodes = dag.nodes();
    let shared = SharedMem::from_image(&mem);
    drop(mem);

    let cores: Vec<Mutex<CoreState>> = programs
        .iter()
        .map(|p| {
            Mutex::new(CoreState {
                interp: Interp::new(p),
                trace: Vec::new(),
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
                        let CoreState { interp, trace } = &mut *cs;
                        exec_interval_ops(
                            n.ops,
                            CoreId::new(n.core as u8),
                            interp,
                            &mut memh,
                            trace,
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

    let (interps, traces): (Vec<_>, Vec<_>) = cores
        .into_iter()
        .map(|c| {
            let cs = c.into_inner().expect("core state poisoned");
            (cs.interp, cs.trace)
        })
        .unzip();
    finish_replay(
        programs,
        &interps,
        shared.to_image(),
        traces,
        dag.events(),
        cost,
    )
}
