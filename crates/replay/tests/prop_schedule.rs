//! Property tests of the cost-model list schedule over random interval
//! DAGs built with `IntervalDag::partial_order` from random patched logs
//! and orderings. Hostile orderings may contradict themselves; their typed
//! `CyclicOrdering` rejects are skipped. For every DAG that builds:
//!
//! * the schedule's order is a topological order covering every node once;
//! * one worker serialises everything: makespan = total work = blame's
//!   total work;
//! * with at least as many workers as nodes the makespan is the weighted
//!   critical path that `critical_path_blame` reports;
//! * Graham's bound holds: `m·makespan ≤ work + (m−1)·critical_path`.
//!
//! The makespan is deliberately *not* required to fall as workers grow:
//! list scheduling is not monotone in the worker count.

use proptest::prelude::*;
use relaxreplay::{IntervalLog, IntervalOrdering, LogEntry};
use rr_mem::CoreId;
use rr_replay::{critical_path_blame, patch, CostModel, IntervalDag, PatchedLog, ReplayError};

/// One interval: body entries plus its timestamp increment, barrier flag
/// and cross-core predecessor picks `(core, ordinal)`.
type IntervalSpec = (Vec<LogEntry>, u64, bool, Vec<(u8, u64)>);

fn interval_strategy(cores: u8) -> impl Strategy<Value = IntervalSpec> {
    let body = prop_oneof![
        (1u32..3000).prop_map(|instrs| LogEntry::InorderBlock { instrs }),
        any::<u64>().prop_map(|value| LogEntry::ReorderedLoad { value }),
    ];
    (
        proptest::collection::vec(body, 0..4),
        1u64..50,
        (0u8..10).prop_map(|b| b == 0),
        proptest::collection::vec((0..cores, 0u64..7), 0..3),
    )
}

/// Per-core interval specs plus whether the orderings may name
/// predecessors out of timestamp order (and so contain cycles).
fn case_strategy() -> impl Strategy<Value = (Vec<Vec<IntervalSpec>>, bool)> {
    (1u8..5).prop_flat_map(|cores| {
        let per_core: Vec<_> = (0..cores)
            .map(|_| proptest::collection::vec(interval_strategy(cores), 0..7))
            .collect();
        (per_core, (0u8..4).prop_map(|h| h == 0))
    })
}

/// Turns the specs into patched logs and orderings. Per-core timestamps
/// increase; unless `hostile`, a predecessor is kept only when its
/// timestamp is smaller than its successor's, which keeps the DAG acyclic.
fn build(specs: &[Vec<IntervalSpec>], hostile: bool) -> (Vec<PatchedLog>, Vec<IntervalOrdering>) {
    let stamps: Vec<Vec<u64>> = specs
        .iter()
        .map(|core| {
            core.iter()
                .scan(0u64, |t, iv| {
                    *t += iv.1;
                    Some(*t)
                })
                .collect()
        })
        .collect();
    let mut logs = Vec::new();
    let mut orderings = Vec::new();
    for (c, core) in specs.iter().enumerate() {
        let mut entries = Vec::new();
        let mut ordering = IntervalOrdering::default();
        for (k, (body, _, barrier, preds)) in core.iter().enumerate() {
            let timestamp = stamps[c][k];
            entries.extend(body.iter().cloned());
            entries.push(LogEntry::IntervalFrame {
                cisn: k as u16,
                timestamp,
            });
            ordering.timestamps.push(timestamp);
            ordering.barriers.push(*barrier);
            ordering.preds.push(
                preds
                    .iter()
                    .filter(|&&(sc, so)| {
                        hostile
                            || stamps[sc as usize]
                                .get(so as usize)
                                .is_some_and(|&t| t < timestamp)
                    })
                    .map(|&(sc, so)| (CoreId::new(sc), so))
                    .collect(),
            );
        }
        let log = IntervalLog {
            core: CoreId::new(c as u8),
            entries,
        };
        logs.push(patch(&log).expect("loads and blocks always patch"));
        orderings.push(ordering);
    }
    (logs, orderings)
}

proptest! {
    #[test]
    fn list_schedule_is_a_valid_bounded_schedule(case in case_strategy()) {
        let (specs, hostile) = case;
        let (logs, orderings) = build(&specs, hostile);
        let dag = match IntervalDag::partial_order(logs.len(), &logs, &orderings) {
            Ok(dag) => dag,
            Err(ReplayError::CyclicOrdering { .. }) if hostile => {
                return Err(TestCaseError::reject("cyclic ordering"));
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected reject: {e}"))),
        };
        let cost = CostModel::splash_default();
        let nodes = dag.nodes();
        let n = nodes.len();
        let blame = critical_path_blame(&dag, &cost);

        for workers in [1, 2, 3, 4, n.max(1)] {
            let (order, makespan, work) = dag.list_schedule(&cost, workers);
            let mut pos = vec![usize::MAX; n];
            for (p, &id) in order.iter().enumerate() {
                prop_assert!(id < n && pos[id] == usize::MAX, "node {} scheduled twice", id);
                pos[id] = p;
            }
            prop_assert_eq!(order.len(), n, "order covers every node");
            for (i, node) in nodes.iter().enumerate() {
                for &s in &node.succs {
                    prop_assert!(pos[i] < pos[s], "edge {}->{} runs backwards", i, s);
                }
            }
            prop_assert_eq!(work, blame.total_work_cycles);
            if workers == 1 {
                prop_assert_eq!(makespan, work, "one worker serialises all work");
            }
            if workers >= n {
                prop_assert_eq!(makespan, blame.makespan_cycles, "unbounded workers");
            }
            let m = workers as u64;
            prop_assert!(
                m * makespan <= work + (m - 1) * blame.makespan_cycles,
                "Graham's bound at {} workers: makespan {} work {} critical path {}",
                workers, makespan, work, blame.makespan_cycles
            );
        }
    }
}
