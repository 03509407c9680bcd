//! `rr_prof` — profiling the replay engine itself: critical-path blame
//! over the interval DAG, and the `rr-prof/v1` sidecar.
//!
//! Two questions this module answers that nothing else in the system can:
//!
//! * **Where does *modeled* replay time go?** [`critical_path_blame`]
//!   walks the weighted critical path of an [`IntervalDag`] under a
//!   [`CostModel`] and attributes the entire makespan to intervals, cores,
//!   and op kinds. Attribution is *exact*: consecutive path nodes chain
//!   start-to-finish, so the per-interval cycle weights along the path sum
//!   to precisely the makespan (coverage 100%, against the ≥95% floor the
//!   `rr-prof/v1` schema enforces).
//! * **Where does *measured* replay time go?** The production threaded
//!   executor takes a [`Probe`](relaxreplay::prof::Probe) parameter:
//!   [`replay_threaded_probed`](crate::replay_threaded_probed) with an
//!   [`EngineProf`] records per-worker timelines (exec / queue-pop /
//!   dep-wait / idle), ready-heap depth samples, lock counters, and
//!   first-error latency while running the very code
//!   [`execute_threaded`](crate::execute_threaded) runs with the
//!   zero-sized `()` probe. `tests/observability.rs` proves the outcomes
//!   identical.
//!
//! Results serialize to the `<slug>.prof.json` sidecar (schema
//! `rr-prof/v1`, [`prof_json`]) written next to the trace/metrics
//! sidecars, and to per-worker Perfetto timelines via
//! [`relaxreplay::prof::engine_chrome_trace`].

use std::cmp::Reverse;

use relaxreplay::prof::{EngineProf, PROF_SCHEMA};
use relaxreplay::trace::json;

use crate::cost::{CostModel, ReplayEvents};
use crate::dag::IntervalDag;

/// Cycle-cost kinds the blame report decomposes the critical path into.
/// `user` is native block execution; the rest are the OS control-module
/// costs of [`CostModel`].
pub const BLAME_KINDS: [&str; 7] = [
    "user",
    "interval",
    "block",
    "inject-load",
    "apply-store",
    "skip-store",
    "inject-rmw",
];

/// One interval on the critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathInterval {
    /// DAG node id.
    pub node: usize,
    /// Core the interval ran on.
    pub core: usize,
    /// Interval ordinal within its core's log.
    pub ordinal: usize,
    /// Recorded global timestamp.
    pub timestamp: u64,
    /// Modeled replay cycles of this interval.
    pub cycles: u64,
}

/// Critical-path blame: the modeled makespan of an [`IntervalDag`]
/// attributed to intervals, cores, and op kinds.
#[derive(Clone, Debug, Default)]
pub struct BlameReport {
    /// Modeled makespan: the weight of the heaviest dependency chain —
    /// the floor no worker count can beat.
    pub makespan_cycles: u64,
    /// Total modeled work across all intervals (= sequential replay time).
    pub total_work_cycles: u64,
    /// The critical path, as DAG node ids in execution order.
    pub path: Vec<usize>,
    /// Cycles attributed to each core (index = core id) along the path.
    pub per_core: Vec<u64>,
    /// Cycles attributed to each [`BLAME_KINDS`] entry along the path.
    pub per_kind: Vec<(&'static str, u64)>,
    /// The heaviest path intervals, descending by cycles (at most 10).
    pub top_intervals: Vec<PathInterval>,
    /// Cycles the path accounts for — equal to `makespan_cycles` by
    /// construction.
    pub attributed_cycles: u64,
}

impl BlameReport {
    /// Share of the makespan the path attribution explains, in percent
    /// (100.0 for a non-degenerate report; the sidecar schema requires
    /// ≥95).
    #[must_use]
    pub fn coverage_pct(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 100.0;
        }
        self.attributed_cycles as f64 / self.makespan_cycles as f64 * 100.0
    }

    /// Ideal parallel speedup over sequential replay
    /// (`total_work / makespan`).
    #[must_use]
    pub fn ideal_speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 1.0;
        }
        self.total_work_cycles as f64 / self.makespan_cycles as f64
    }

    /// Renders as the `"blame"` JSON object of a prof-sidecar entry.
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| self.json_fields(o))
    }

    /// Writes the [`BlameReport::to_json`] fields into an object.
    pub(crate) fn json_fields(&self, o: &mut json::Obj<'_>) {
        o.field("makespan_cycles", self.makespan_cycles)
            .field("total_work_cycles", self.total_work_cycles)
            .field("attributed_cycles", self.attributed_cycles)
            .field("path_intervals", self.path.len())
            .array("per_core", |a| {
                for (core, &cycles) in self.per_core.iter().enumerate() {
                    a.object(|o| {
                        o.field("core", core).field("cycles", cycles);
                    });
                }
            })
            .array("per_kind", |a| {
                for &(kind, cycles) in &self.per_kind {
                    a.object(|o| {
                        o.field("kind", kind).field("cycles", cycles);
                    });
                }
            })
            .array("top_intervals", |a| {
                for t in &self.top_intervals {
                    a.object(|o| {
                        o.field("node", t.node)
                            .field("core", t.core)
                            .field("ordinal", t.ordinal)
                            .field("timestamp", t.timestamp)
                            .field("cycles", t.cycles);
                    });
                }
            });
    }
}

/// Computes critical-path blame for a validated DAG under a cost model.
///
/// The critical path is the heaviest chain under per-interval weights
/// from [`CostModel::interval_cycles`] — the same weights the cost-model
/// scheduler ([`crate::execute_modeled`]) uses, so the makespan here is
/// exactly that scheduler's infinite-worker makespan. Ties (equal-weight
/// predecessors, equal-finish sinks) break toward smaller node ids, so
/// the report is deterministic.
#[must_use]
pub fn critical_path_blame(dag: &IntervalDag<'_>, cost: &CostModel) -> BlameReport {
    let nodes = dag.nodes();
    let mut report = BlameReport {
        per_core: vec![0; dag.threads()],
        per_kind: BLAME_KINDS.iter().map(|&k| (k, 0)).collect(),
        ..BlameReport::default()
    };
    if nodes.is_empty() {
        return report;
    }
    let weights: Vec<u64> = nodes.iter().map(|n| cost.interval_cycles(n.ops)).collect();
    report.total_work_cycles = weights.iter().sum();

    // Weighted longest path: process in topological order, pushing each
    // node's finish time to its successors and remembering the argmax
    // predecessor so the path can be walked back afterwards.
    let mut start = vec![0u64; nodes.len()];
    let mut from: Vec<Option<usize>> = vec![None; nodes.len()];
    for &i in &dag.topo_order() {
        let finish = start[i] + weights[i];
        for &s in &nodes[i].succs {
            let better = finish > start[s]
                || (finish == start[s] && from[s].is_none_or(|p| i < p) && finish > 0);
            if better {
                start[s] = finish;
                from[s] = Some(i);
            }
        }
    }
    let end = (0..nodes.len())
        .max_by_key(|&i| (start[i] + weights[i], Reverse(i)))
        .expect("non-empty DAG");
    report.makespan_cycles = start[end] + weights[end];

    let mut cur = Some(end);
    while let Some(i) = cur {
        report.path.push(i);
        cur = from[i];
    }
    report.path.reverse();

    for &i in &report.path {
        let n = &nodes[i];
        let ev = ReplayEvents::for_interval(n.ops);
        report.attributed_cycles += weights[i];
        report.per_core[n.core] += weights[i];
        // Kind decomposition per path node, with the per-node user-cycle
        // ceil — so the kind cycles sum exactly to the node weight and
        // the kinds overall to the makespan.
        let kinds = [
            cost.user_cycles(&ev),
            ev.intervals * cost.os_per_interval,
            ev.blocks * cost.os_per_block,
            ev.injected_loads * cost.os_per_injected_load,
            ev.applied_stores * cost.os_per_applied_store,
            ev.skips * cost.os_per_skip,
            ev.injected_rmws * cost.os_per_injected_rmw,
        ];
        for (slot, cycles) in report.per_kind.iter_mut().zip(kinds) {
            slot.1 += cycles;
        }
        report.top_intervals.push(PathInterval {
            node: i,
            core: n.core,
            ordinal: n.ordinal,
            timestamp: n.timestamp,
            cycles: weights[i],
        });
    }
    report
        .top_intervals
        .sort_by_key(|t| (Reverse(t.cycles), t.node));
    report.top_intervals.truncate(10);
    report
}

/// One run × variant entry of a `.prof.json` sidecar.
#[derive(Clone, Debug)]
pub struct ProfEntry {
    /// Workload / run name.
    pub run: String,
    /// Recorder variant label (`Opt-4K`, …).
    pub variant: String,
    /// Critical-path blame for the variant's DAG.
    pub blame: BlameReport,
    /// Measured engine profile, when a profiled replay was performed.
    pub engine: Option<EngineProf>,
}

/// Serializes prof entries as an `rr-prof/v1` sidecar document — the
/// format [`relaxreplay::prof::validate_prof_json`] checks.
#[must_use]
pub fn prof_json(entries: &[ProfEntry]) -> String {
    json::object(|doc| {
        doc.field("schema", PROF_SCHEMA).array("entries", |a| {
            for e in entries {
                a.object(|o| {
                    o.field("run", &e.run)
                        .field("variant", &e.variant)
                        .object("blame", |b| e.blame.json_fields(b));
                    match &e.engine {
                        Some(p) => o.object("engine", |x| p.summary_fields(x)),
                        None => o.field("engine", None::<u64>),
                    };
                });
            }
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::execute_threaded_probed;
    use crate::execute_threaded;
    use crate::patch::{patch, PatchedLog};
    use relaxreplay::{IntervalLog, LogEntry};
    use rr_isa::{MemImage, Program, ProgramBuilder, Reg};
    use rr_mem::CoreId;

    /// Two independent one-interval threads: core 0 stores 7 to its own
    /// word, core 1 stores 9 — no communication, so any interleaving is a
    /// correct replay.
    fn tiny_two_core() -> (Vec<Program>, Vec<PatchedLog>) {
        let mk = |value: i64, addr: i64| {
            let mut b = ProgramBuilder::new();
            b.load_imm(Reg::new(1), value);
            b.load_imm(Reg::new(2), addr);
            b.store(Reg::new(1), Reg::new(2), 0);
            b.halt();
            b.build()
        };
        let programs = vec![mk(7, 0x100), mk(9, 0x200)];
        let logs: Vec<PatchedLog> = (0..2u8)
            .map(|c| {
                patch(&IntervalLog {
                    core: CoreId::new(c),
                    entries: vec![
                        LogEntry::InorderBlock { instrs: 4 },
                        LogEntry::IntervalFrame {
                            cisn: 0,
                            timestamp: 10 + u64::from(c),
                        },
                    ],
                })
                .expect("patches")
            })
            .collect();
        (programs, logs)
    }

    #[test]
    fn blame_attributes_exactly_the_makespan() {
        let (programs, logs) = tiny_two_core();
        let dag = IntervalDag::total_order(programs.len(), &logs).expect("builds");
        let cost = CostModel::splash_default();
        let blame = critical_path_blame(&dag, &cost);

        // Total order chains both intervals: makespan == total work.
        assert_eq!(blame.makespan_cycles, blame.total_work_cycles);
        assert_eq!(blame.attributed_cycles, blame.makespan_cycles);
        assert_eq!(blame.path.len(), 2);
        assert_eq!(blame.per_core.iter().sum::<u64>(), blame.makespan_cycles);
        assert_eq!(
            blame.per_kind.iter().map(|(_, c)| c).sum::<u64>(),
            blame.makespan_cycles,
            "kind decomposition must be exact"
        );
        assert!((blame.coverage_pct() - 100.0).abs() < f64::EPSILON);
        assert_eq!(blame.top_intervals.len(), 2);
        assert!(blame.top_intervals[0].cycles >= blame.top_intervals[1].cycles);
    }

    #[test]
    fn profiled_executor_matches_production() {
        let (programs, logs) = tiny_two_core();
        let cost = CostModel::splash_default();
        let dag = IntervalDag::total_order(programs.len(), &logs).expect("builds");
        let plain = execute_threaded(&programs, &dag, MemImage::new(), &cost, 2).expect("replays");
        let mut prof = EngineProf::default();
        let profiled =
            execute_threaded_probed(&programs, &dag, MemImage::new(), &cost, 2, &mut prof)
                .expect("replays profiled");

        assert!(plain.mem.contents_eq(&profiled.mem));
        assert_eq!(plain.load_traces, profiled.load_traces);
        assert_eq!(plain.events, profiled.events);
        assert_eq!(plain.user_cycles, profiled.user_cycles);
        assert_eq!(plain.os_cycles, profiled.os_cycles);

        assert_eq!(prof.nodes, 2);
        assert!(!prof.workers.is_empty());
        let executed: u64 = prof.workers.iter().map(|w| w.executed).sum();
        assert_eq!(executed, 2, "every interval profiled exactly once");
        assert_eq!(prof.first_error_ns, None);
        assert!(prof.heap_depth_stats().samples == 2);
        assert!(
            prof.workers.iter().any(|w| w.exec_ns > 0),
            "exec spans recorded"
        );
    }

    #[test]
    fn prof_json_round_trips_through_the_validator() {
        let (programs, logs) = tiny_two_core();
        let cost = CostModel::splash_default();
        let dag = IntervalDag::total_order(programs.len(), &logs).expect("builds");
        let blame = critical_path_blame(&dag, &cost);
        let mut engine = EngineProf::default();
        execute_threaded_probed(&programs, &dag, MemImage::new(), &cost, 2, &mut engine)
            .expect("replays");
        let doc = prof_json(&[
            ProfEntry {
                run: "tiny".into(),
                variant: "Opt-4K".into(),
                blame: blame.clone(),
                engine: Some(engine),
            },
            ProfEntry {
                run: "tiny".into(),
                variant: "Base-4K".into(),
                blame,
                engine: None,
            },
        ]);
        let stats = relaxreplay::prof::validate_prof_json(&doc).expect("valid sidecar");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.with_engine, 1);
        assert_eq!(stats.path_intervals, 4);
    }

    #[test]
    fn empty_dag_blames_nothing() {
        let logs: Vec<PatchedLog> = vec![PatchedLog::default()];
        let programs = {
            let mut b = ProgramBuilder::new();
            b.halt();
            vec![b.build()]
        };
        let dag = IntervalDag::total_order(programs.len(), &logs).expect("builds");
        let blame = critical_path_blame(&dag, &CostModel::splash_default());
        assert_eq!(blame.makespan_cycles, 0);
        assert!(blame.path.is_empty());
        assert!((blame.coverage_pct() - 100.0).abs() < f64::EPSILON);
    }
}
