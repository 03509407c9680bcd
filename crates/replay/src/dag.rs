//! The interval-dependency DAG — the one intermediate representation all
//! replay executors consume.
//!
//! A recorded execution patches into per-core op streams
//! ([`PatchedLog`]); this module lifts them into an explicit graph whose
//! nodes are intervals (with their op slices) and whose edges are the
//! constraints replay must honour:
//!
//! * **same-core chains** — a core's intervals replay in log order;
//! * **cross-core predecessor edges** — the Cyrus-style partial order the
//!   recorder piggybacks on coherence replies ([`IntervalOrdering::preds`]);
//! * **barrier intervals** — conservative total ordering around
//!   directory-mode dirty evictions ([`IntervalOrdering::barriers`]),
//!   placed by the interval timestamps of the log's frames.
//!
//! Two constructors cover the two ordering sources: [`IntervalDag::total_order`]
//! chains every interval in recorded (timestamp, core) order — the paper's
//! §3.5 sequential schedule, available from the logs alone — while
//! [`IntervalDag::partial_order`] keeps only the recorded communication
//! edges, exposing the replay parallelism of §3.6. Both validate their
//! inputs (thread counts, core ids, ordering lengths, acyclicity) and
//! return typed [`ReplayError`]s, so corrupt or hostile inputs can neither
//! panic nor hang an executor. Both also count every interval's replay
//! events once, while splitting the logs ([`IntervalDag::events`]).
//!
//! Two executors consume the DAG: the single-thread
//! [`execute_sequential`](crate::execute_sequential), run in an order the
//! caller derives from the DAG ([`IntervalDag::topo_order`] or
//! [`IntervalDag::list_schedule`]), and the multithreaded
//! [`execute_threaded`](crate::execute_threaded). [`crate::replay`] is the
//! one logs-in shorthand: a total-order DAG run in its topological order.
//! The list schedule itself executes nothing: it is a pure function of the
//! DAG and a [`CostModel`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;

use relaxreplay::IntervalOrdering;

use crate::cost::{CostModel, ReplayEvents};
use crate::patch::{PatchedLog, ReplayOp};
use crate::replayer::ReplayError;

/// One interval: a node of the [`IntervalDag`].
#[derive(Clone, Debug)]
pub struct IntervalNode<'a> {
    /// The core this interval belongs to.
    pub core: usize,
    /// The interval's per-core ordinal (its index in the core's log).
    pub ordinal: usize,
    /// The interval's replay ops (everything between two `EndInterval`s).
    pub ops: &'a [ReplayOp],
    /// The recorded global timestamp (QuickRec ordering).
    pub timestamp: u64,
    /// Whether this is a barrier interval (directory-mode dirty eviction).
    pub barrier: bool,
    /// Number of incoming dependency edges.
    pub preds: usize,
    /// Node ids that depend on this interval.
    pub succs: Vec<usize>,
}

/// Shape statistics of an [`IntervalDag`] — what `rr-inspect dag` prints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagStats {
    /// Interval count.
    pub nodes: usize,
    /// Dependency-edge count: same-core chain edges, one cross-core edge
    /// per predecessor entry that names a logged interval of another core,
    /// and barrier edges.
    pub edges: usize,
    /// Number of replayed cores.
    pub threads: usize,
    /// Longest dependency chain, in intervals.
    pub critical_path: usize,
    /// Largest number of intervals at the same dependency depth — an upper
    /// bound on how many workers the DAG can keep busy at once.
    pub max_width: usize,
}

impl DagStats {
    /// `nodes / critical_path`: the speedup an unbounded worker pool could
    /// reach if every interval cost the same.
    #[must_use]
    pub fn ideal_speedup(&self) -> f64 {
        if self.critical_path == 0 {
            return 1.0;
        }
        self.nodes as f64 / self.critical_path as f64
    }
}

/// The interval-dependency DAG: intervals with their patch-op slices,
/// plus every ordering edge replay must honour. See the module docs.
#[derive(Clone, Debug)]
pub struct IntervalDag<'a> {
    nodes: Vec<IntervalNode<'a>>,
    threads: usize,
    edges: usize,
    events: ReplayEvents,
}

/// Per-core node lists plus the event total of all their intervals.
type Split<'a> = (Vec<Vec<IntervalNode<'a>>>, ReplayEvents);

/// Splits each log's op stream at its `EndInterval` markers, yielding the
/// per-core node lists (timestamps from the interval frames) and the sum
/// of every interval's [`ReplayEvents::for_interval`].
fn split_intervals(threads: usize, logs: &[PatchedLog]) -> Result<Split<'_>, ReplayError> {
    if logs.len() != threads {
        return Err(ReplayError::ThreadCountMismatch {
            programs: threads,
            logs: logs.len(),
        });
    }
    for log in logs {
        if log.core.index() >= threads {
            return Err(ReplayError::CoreOutOfRange {
                core: log.core.index(),
                threads,
            });
        }
    }
    let mut per_core = Vec::with_capacity(logs.len());
    let mut events = ReplayEvents::default();
    for log in logs {
        let mut nodes = Vec::new();
        let mut start = 0usize;
        for (i, op) in log.ops.iter().enumerate() {
            if let ReplayOp::EndInterval { timestamp, .. } = op {
                let ops = &log.ops[start..i];
                events.add_interval(ops);
                nodes.push(IntervalNode {
                    core: log.core.index(),
                    ordinal: nodes.len(),
                    ops,
                    timestamp: *timestamp,
                    barrier: false,
                    preds: 0,
                    succs: Vec::new(),
                });
                start = i + 1;
            }
        }
        per_core.push(nodes);
    }
    Ok((per_core, events))
}

impl<'a> IntervalDag<'a> {
    /// Builds the DAG for the recorded **total order**: one chain through
    /// every interval in (timestamp, core, ordinal) order — exactly the
    /// schedule the paper's sequential OS module replays (§3.5). Needs no
    /// [`IntervalOrdering`], so it works for runs loaded from bare
    /// `.rrlog` files.
    ///
    /// # Errors
    ///
    /// [`ReplayError::ThreadCountMismatch`] / [`ReplayError::CoreOutOfRange`]
    /// on inconsistent inputs.
    pub fn total_order(threads: usize, logs: &'a [PatchedLog]) -> Result<Self, ReplayError> {
        let (per_core, events) = split_intervals(threads, logs)?;
        let mut nodes: Vec<IntervalNode<'a>> = per_core.into_iter().flatten().collect();
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by_key(|&i| (nodes[i].timestamp, nodes[i].core, nodes[i].ordinal));
        for pair in order.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            nodes[from].succs.push(to);
            nodes[to].preds += 1;
        }
        let edges = nodes.len().saturating_sub(1);
        Ok(IntervalDag {
            nodes,
            threads,
            edges,
            events,
        })
    }

    /// Builds the DAG for the recorded **partial order**: same-core
    /// chains, cross-core predecessor edges, and barrier intervals from
    /// `orderings` (paper §3.6). Validated acyclic, so every executor can
    /// rely on making progress.
    ///
    /// Nodes keep their frames' timestamps. Each entry naming a logged
    /// interval of another core is one edge: recorded orderings are
    /// reduced ([`relaxreplay::reduce_orderings`]), and a longer list with
    /// the same closure builds more edges and the same schedules.
    ///
    /// # Errors
    ///
    /// [`ReplayError::ThreadCountMismatch`], [`ReplayError::CoreOutOfRange`]
    /// (a log or ordering names a core outside the thread set),
    /// [`ReplayError::OrderingMismatch`] (an ordering is shorter than its
    /// log's interval count), or [`ReplayError::CyclicOrdering`] (the
    /// recorded edges contradict each other — corrupt input; a correct
    /// recorder cannot produce a cycle).
    pub fn partial_order(
        threads: usize,
        logs: &'a [PatchedLog],
        orderings: &[IntervalOrdering],
    ) -> Result<Self, ReplayError> {
        if orderings.len() != logs.len() {
            return Err(ReplayError::ThreadCountMismatch {
                programs: threads,
                logs: orderings.len(),
            });
        }
        let (per_core, events) = split_intervals(threads, logs)?;

        // Validate lengths up front and mark the barrier intervals; a
        // barrier past the log's last interval orders nothing.
        let mut first_of_core = vec![0];
        let mut nodes: Vec<IntervalNode<'a>> = Vec::new();
        for (c, (mut core_nodes, ord)) in per_core.into_iter().zip(orderings).enumerate() {
            if core_nodes.len() > ord.preds.len() {
                return Err(ReplayError::OrderingMismatch {
                    core: c,
                    intervals: core_nodes.len(),
                    ordered: ord.preds.len(),
                });
            }
            for &b in &ord.barriers {
                if let Some(n) = usize::try_from(b).ok().and_then(|b| core_nodes.get_mut(b)) {
                    n.barrier = true;
                }
            }
            nodes.extend(core_nodes);
            first_of_core.push(nodes.len());
        }
        let intervals_of = |core: usize| first_of_core[core + 1] - first_of_core[core];
        let node_id =
            |core: usize, ordinal: u64| -> usize { first_of_core[core] + ordinal as usize };

        let mut edges = 0usize;
        let mut add_edge = |nodes: &mut Vec<IntervalNode>, from: usize, to: usize| {
            if from != to {
                nodes[from].succs.push(to);
                nodes[to].preds += 1;
                edges += 1;
            }
        };
        // Same-core chains.
        for c in 0..logs.len() {
            for k in 1..intervals_of(c) {
                add_edge(&mut nodes, node_id(c, k as u64 - 1), node_id(c, k as u64));
            }
        }
        // Cross-core predecessor edges, one per entry. Edges into or out of
        // intervals the log never closed (a trailing open one) constrain
        // nothing.
        for (c, ord) in orderings.iter().enumerate() {
            for (k, preds) in ord.preds.iter().enumerate().take(intervals_of(c)) {
                for &(src_core, src_ord) in preds {
                    let sc = src_core.index();
                    // A corrupted ordering can name a core outside the
                    // thread set; `intervals_of` would index out of bounds.
                    if sc >= logs.len() {
                        return Err(ReplayError::CoreOutOfRange {
                            core: sc,
                            threads: logs.len(),
                        });
                    }
                    if sc != c && src_ord < intervals_of(sc) as u64 {
                        add_edge(&mut nodes, node_id(sc, src_ord), node_id(c, k as u64));
                    }
                }
            }
        }
        // Barrier edges: an eviction-closed interval precedes everything
        // with a larger timestamp, and follows everything with a smaller
        // one. A core's intervals are in timestamp order, so the chains
        // order the rest once the barrier follows each other core's latest
        // earlier interval and precedes each core's first later one.
        let mut by_time: Vec<usize> = (0..nodes.len()).collect();
        by_time.sort_by_key(|&i| (nodes[i].timestamp, nodes[i].core));
        // Positions in `by_time`.
        let mut last_of_core: Vec<Option<usize>> = vec![None; logs.len()];
        let mut last_barrier: Option<usize> = None;
        for (t, &i) in by_time.iter().enumerate() {
            let core = nodes[i].core;
            if let Some(b) = last_barrier.filter(|&b| last_of_core[core].is_none_or(|p| p < b)) {
                add_edge(&mut nodes, by_time[b], i);
            }
            if nodes[i].barrier {
                for (c, prev) in last_of_core.iter().enumerate() {
                    if let Some(p) = prev.filter(|_| c != core) {
                        add_edge(&mut nodes, by_time[p], i);
                    }
                }
                last_barrier = Some(t);
            }
            last_of_core[core] = Some(t);
        }

        let dag = IntervalDag {
            nodes,
            threads,
            edges,
            events,
        };
        let executed = dag.topo_order().len();
        if executed != dag.nodes.len() {
            return Err(ReplayError::CyclicOrdering {
                executed,
                intervals: dag.nodes.len(),
            });
        }
        Ok(dag)
    }

    /// The interval nodes, grouped by core (all of core 0's intervals in
    /// log order, then core 1's, …).
    #[must_use]
    pub fn nodes(&self) -> &[IntervalNode<'a>] {
        &self.nodes
    }

    /// Number of replayed cores.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The replay events of all intervals — what every executor reports
    /// once it has run them all.
    #[must_use]
    pub fn events(&self) -> ReplayEvents {
        self.events
    }

    /// Typed check that the DAG replays `programs` threads — the first
    /// step of every executor.
    pub(crate) fn check_threads(&self, programs: usize) -> Result<(), ReplayError> {
        if self.threads == programs {
            Ok(())
        } else {
            Err(ReplayError::ThreadCountMismatch {
                programs,
                logs: self.threads,
            })
        }
    }

    /// Typed check that `order` is a topological order of the DAG — every
    /// node exactly once, each after all its predecessors — in one pass
    /// over the nodes and edges, before an executor runs anything.
    pub(crate) fn check_order(&self, order: &[usize]) -> Result<(), ReplayError> {
        let invalid = |position| ReplayError::InvalidOrder {
            position,
            intervals: self.nodes.len(),
        };
        // Predecessors not yet listed, per node; `usize::MAX` marks a node
        // already listed. A node is listable only at zero, so a successor
        // of a node being listed still counts that node and cannot underflow.
        let mut pending: Vec<usize> = self.nodes.iter().map(|n| n.preds).collect();
        for (position, &id) in order.iter().enumerate() {
            if pending.get(id) != Some(&0) {
                return Err(invalid(position));
            }
            pending[id] = usize::MAX;
            for &s in &self.nodes[id].succs {
                pending[s] -= 1;
            }
        }
        // Every entry named a distinct node, so a short order misses some.
        if order.len() == self.nodes.len() {
            Ok(())
        } else {
            Err(invalid(order.len()))
        }
    }

    /// A deterministic topological order: Kahn's algorithm with ready
    /// nodes drained in (timestamp, core, id) order — so for a
    /// [`total_order`](Self::total_order) DAG this *is* the recorded
    /// replay schedule. [`partial_order`](Self::partial_order) rejects a
    /// DAG on which this walk stops short, so for every constructed DAG
    /// the order covers every node.
    #[must_use]
    pub fn topo_order(&self) -> Vec<usize> {
        let mut deps: Vec<usize> = self.nodes.iter().map(|n| n.preds).collect();
        let mut ready: BinaryHeap<Reverse<(u64, usize, usize)>> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.preds == 0)
            .map(|(i, n)| Reverse((n.timestamp, n.core, i)))
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(Reverse((_, _, i))) = ready.pop() {
            order.push(i);
            for &s in &self.nodes[i].succs {
                deps[s] -= 1;
                if deps[s] == 0 {
                    ready.push(Reverse((self.nodes[s].timestamp, self.nodes[s].core, s)));
                }
            }
        }
        order
    }

    /// The cost-model list schedule of paper §5.4's closing remark, as a
    /// pure function of the DAG: each interval weighs
    /// [`CostModel::interval_cycles`], and the ready interval with the
    /// lowest `(ready_at, id)` starts next on the earliest-free of
    /// `workers` modelled replay cores.
    ///
    /// Returns `(order, makespan, total_work)`: the order intervals start
    /// in (a topological order, generally far from the timestamp order),
    /// the modelled finish time of the last interval, and the sum of all
    /// weights (the sequential replay time). Executes nothing;
    /// [`execute_sequential`](crate::execute_sequential) replays the
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn list_schedule(&self, cost: &CostModel, workers: usize) -> (Vec<usize>, u64, u64) {
        assert!(workers >= 1, "need at least one replay worker");
        let mut deps: Vec<usize> = self.nodes.iter().map(|n| n.preds).collect();
        let mut ready_at = vec![0u64; self.nodes.len()];
        // Min-heaps via Reverse ordering: ready tasks by (ready_at, id);
        // workers by free-at time.
        let mut ready: BinaryHeap<Reverse<(u64, usize)>> = deps
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d == 0)
            .map(|(i, _)| Reverse((0, i)))
            .collect();
        let mut worker_free: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0)).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        let (mut makespan, mut total_work) = (0u64, 0u64);
        while let Some(Reverse((task_ready, i))) = ready.pop() {
            let Reverse(free_at) = worker_free.pop().expect("worker pool is non-empty");
            let weight = cost.interval_cycles(self.nodes[i].ops);
            let finish = task_ready.max(free_at) + weight;
            worker_free.push(Reverse(finish));
            makespan = makespan.max(finish);
            total_work += weight;
            order.push(i);
            for &s in &self.nodes[i].succs {
                ready_at[s] = ready_at[s].max(finish);
                deps[s] -= 1;
                if deps[s] == 0 {
                    ready.push(Reverse((ready_at[s], s)));
                }
            }
        }
        (order, makespan, total_work)
    }

    /// Shape statistics: node/edge counts, critical-path length (longest
    /// dependency chain in intervals), maximum width, ideal speedup.
    #[must_use]
    pub fn stats(&self) -> DagStats {
        let order = self.topo_order();
        let mut depth = vec![0usize; self.nodes.len()];
        let mut critical_path = 0usize;
        for &i in &order {
            let d = depth[i] + 1;
            critical_path = critical_path.max(d);
            for &s in &self.nodes[i].succs {
                depth[s] = depth[s].max(d);
            }
        }
        let mut width = vec![0usize; critical_path];
        for (&d, _) in depth.iter().zip(&self.nodes) {
            width[d] += 1;
        }
        DagStats {
            nodes: self.nodes.len(),
            edges: self.edges,
            threads: self.threads,
            critical_path,
            max_width: width.iter().copied().max().unwrap_or(0),
        }
    }

    /// Graphviz DOT export: one node per interval (barriers as boxes),
    /// one edge per dependency. Load with `dot -Tsvg`.
    #[must_use]
    pub fn to_dot(&self, title: &str) -> String {
        self.to_dot_with_path(title, &[])
    }

    /// [`to_dot`](Self::to_dot) with a highlighted interval chain:
    /// `path` names node ids in execution order (typically
    /// [`critical_path_blame`](crate::critical_path_blame)'s path), and
    /// the chain's nodes and edges are drawn in red with a heavier pen —
    /// the exported graph shows where replay time goes.
    #[must_use]
    pub fn to_dot_with_path(&self, title: &str, path: &[usize]) -> String {
        let on_path: Vec<bool> = {
            let mut v = vec![false; self.nodes.len()];
            for &i in path {
                if let Some(slot) = v.get_mut(i) {
                    *slot = true;
                }
            }
            v
        };
        let mut s = String::new();
        let _ = writeln!(s, "digraph {{");
        let _ = writeln!(s, "  label={title:?};");
        let _ = writeln!(s, "  rankdir=TB; node [fontsize=10];");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = if n.barrier { "box" } else { "ellipse" };
            let hot = if on_path[i] {
                " color=red penwidth=2.0"
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "  n{i} [label=\"c{}.{}\\n@{}\" shape={shape}{hot}];",
                n.core, n.ordinal, n.timestamp
            );
        }
        for (i, n) in self.nodes.iter().enumerate() {
            for &d in &n.succs {
                // Consecutive path nodes are always a real DAG edge (the
                // path is built by predecessor walk-back), so matching
                // window pairs highlights exactly the critical chain.
                let hot = if path.windows(2).any(|w| w[0] == i && w[1] == d) {
                    " [color=red penwidth=2.0]"
                } else {
                    ""
                };
                let _ = writeln!(s, "  n{i} -> n{d}{hot};");
            }
        }
        let _ = writeln!(s, "}}");
        s
    }
}
