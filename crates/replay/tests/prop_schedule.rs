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
//!
//! A second property pads each predecessor list with duplicates and with
//! entries dominated by a later interval of the same source core, and
//! checks that the padded and the transitively reduced
//! (`reduce_orderings`) orderings build DAGs with one reachability
//! closure, one `topo_order`, one list schedule and one set of shape
//! statistics apart from the padded DAG's extra edges, and that the
//! closure orders every padded entry before its interval.
//!
//! A third checks the reduction itself on every acyclic case without
//! barriers: it keeps the closure, dropping any entry it keeps changes
//! the closure, it is idempotent, and the padded and the original
//! orderings reduce alike.

use proptest::prelude::*;
use relaxreplay::{reduce_orderings, IntervalLog, IntervalOrdering, LogEntry};
use rr_mem::CoreId;
use rr_replay::{
    critical_path_blame, patch, CostModel, DagStats, IntervalDag, PatchedLog, ReplayError,
};

/// The largest DAG `case_strategy` builds (4 cores × 6 intervals) fits a
/// `u64` reachability row per node.
type Closure = Vec<u64>;

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
            if *barrier {
                ordering.barriers.push(k as u64);
            }
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

/// Drops the entries that name an interval past their core's log, as a
/// recorder never does (it names closed intervals only). The DAG ignores
/// them, so padding them with the earlier intervals they would dominate
/// would add real edges.
fn named_only(
    orderings: &[IntervalOrdering],
    specs: &[Vec<IntervalSpec>],
) -> Vec<IntervalOrdering> {
    let mut named = orderings.to_vec();
    for o in &mut named {
        for preds in &mut o.preds {
            preds.retain(|&(c, k)| (k as usize) < specs[c.index()].len());
        }
    }
    named
}

/// The orderings after [`reduce_orderings`].
fn reduced(orderings: &[IntervalOrdering]) -> Vec<IntervalOrdering> {
    let mut reduced = orderings.to_vec();
    reduce_orderings(&mut reduced);
    reduced
}

/// Pads every predecessor list: each entry again, plus the earlier
/// intervals `ord / 2` and `0` of its core, the whole list reversed and
/// rotated by `rot`.
fn pad(orderings: &[IntervalOrdering], rot: usize) -> Vec<IntervalOrdering> {
    let mut padded = orderings.to_vec();
    for o in &mut padded {
        for preds in &mut o.preds {
            let mut list: Vec<(CoreId, u64)> = preds
                .iter()
                .flat_map(|&(c, k)| [(c, k / 2), (c, k), (c, 0), (c, k)])
                .collect();
            list.reverse();
            if !list.is_empty() {
                let by = rot % list.len();
                list.rotate_left(by);
            }
            *preds = list;
        }
    }
    padded
}

/// Row `i` has bit `j` set when node `j` is reachable from node `i`.
fn closure(dag: &IntervalDag<'_>) -> Closure {
    let nodes = dag.nodes();
    assert!(nodes.len() <= 64, "closure rows are u64 bitsets");
    let mut reach = vec![0u64; nodes.len()];
    for &i in dag.topo_order().iter().rev() {
        for &s in &nodes[i].succs {
            reach[i] |= (1 << s) | reach[s];
        }
    }
    reach
}

proptest! {
    #[test]
    fn padded_orderings_build_the_reduced_dag(case in case_strategy(), rot in 0usize..16) {
        let (specs, hostile) = case;
        let (logs, orderings) = build(&specs, hostile);
        let orderings = named_only(&orderings, &specs);
        let reduced = reduced(&orderings);
        let padded = pad(&orderings, rot);
        let threads = logs.len();
        let (dag, padded_dag) = match (
            IntervalDag::partial_order(threads, &logs, &reduced),
            IntervalDag::partial_order(threads, &logs, &padded),
        ) {
            (Ok(r), Ok(p)) => (r, p),
            (Err(r), Err(p)) => {
                // Same closure, so the same Kahn walk stops at the same node.
                prop_assert_eq!(r, p);
                return Err(TestCaseError::reject("cyclic ordering"));
            }
            (r, p) => {
                return Err(TestCaseError::fail(format!(
                    "reduced {:?} but padded {:?}",
                    r.map(|d| d.stats()),
                    p.map(|d| d.stats())
                )));
            }
        };
        let reach = closure(&padded_dag);
        prop_assert_eq!(&reach, &closure(&dag));
        // Every padded entry, dominated or not, stays ordered. Nodes are
        // numbered core by core.
        let first: Vec<usize> = specs
            .iter()
            .scan(0, |next, core| {
                let at = *next;
                *next += core.len();
                Some(at)
            })
            .collect();
        for (c, o) in padded.iter().enumerate() {
            for (k, preds) in o.preds.iter().enumerate() {
                for &(sc, so) in preds {
                    let sc = sc.index();
                    if sc != c {
                        let (from, to) = (first[sc] + so as usize, first[c] + k);
                        prop_assert!(
                            reach[from] >> to & 1 == 1,
                            "entry {:?} of interval {:?} lost",
                            (sc, so),
                            (c, k)
                        );
                    }
                }
            }
        }
        prop_assert_eq!(padded_dag.topo_order(), dag.topo_order());
        // Padding only adds edges the reduced DAG implies.
        let (padded_stats, stats) = (padded_dag.stats(), dag.stats());
        prop_assert!(padded_stats.edges >= stats.edges);
        let shape = |s: DagStats| DagStats { edges: 0, ..s };
        prop_assert_eq!(shape(padded_stats), shape(stats));
        let cost = CostModel::splash_default();
        for workers in [1, 2, 3, 5] {
            prop_assert_eq!(
                padded_dag.list_schedule(&cost, workers),
                dag.list_schedule(&cost, workers)
            );
        }
    }

    #[test]
    fn reduction_is_exact_and_canonical(case in case_strategy(), rot in 0usize..16) {
        let (specs, hostile) = case;
        let (logs, orderings) = build(&specs, hostile);
        // The reduction is over chains and entries; barrier edges, placed
        // by timestamp at DAG build, could imply entries it must keep.
        let mut orderings = named_only(&orderings, &specs);
        for o in &mut orderings {
            o.barriers.clear();
        }
        let threads = logs.len();
        let Ok(dag) = IntervalDag::partial_order(threads, &logs, &orderings) else {
            return Err(TestCaseError::reject("cyclic ordering"));
        };
        let reach = closure(&dag);
        let reduced = reduced(&orderings);
        let closure_of = |o: &[IntervalOrdering]| {
            IntervalDag::partial_order(threads, &logs, o).map(|d| closure(&d))
        };
        prop_assert_eq!(closure_of(&reduced), Ok(reach.clone()), "the closure is kept");
        for (c, o) in reduced.iter().enumerate() {
            for (k, preds) in o.preds.iter().enumerate() {
                for i in 0..preds.len() {
                    let mut fewer = reduced.clone();
                    let dropped = fewer[c].preds[k].remove(i);
                    prop_assert_ne!(
                        closure_of(&fewer),
                        Ok(reach.clone()),
                        "entry {:?} of interval {:?} is implied",
                        dropped,
                        (c, k)
                    );
                }
            }
        }
        prop_assert_eq!(&self::reduced(&reduced), &reduced, "idempotent");
        prop_assert_eq!(&self::reduced(&pad(&orderings, rot)), &reduced, "padding");
    }

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
