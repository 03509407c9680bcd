//! Validates the recorded interval partial order (paper §3.6): replaying
//! every workload's intervals in a *topological* order chosen by the
//! parallel scheduler — generally very different from the timestamp total
//! order — must still reproduce every load value and the final memory.

use rr_replay::{execute_sequential, patch, verify, CostModel, IntervalDag};
use rr_sim::{MachineConfig, RecordSession, RecorderSpec, RunResult};
use rr_workloads::{suite, Workload};

/// Replays the variant's partial-order DAG in its list-schedule order on
/// `workers` modelled replay cores, verifies the outcome, and returns the
/// schedule's modelled speedup.
fn check_parallel(w: &Workload, result: &RunResult, variant: usize, workers: usize) -> f64 {
    let v = &result.variants[variant];
    let cost = CostModel::splash_default();
    let patched: Vec<_> = v.logs.iter().map(|l| patch(l).expect("patches")).collect();
    let at = |what: &str| format!("{} [{}]: {what}", w.name, v.spec.label());
    let dag = IntervalDag::partial_order(w.programs.len(), &patched, &v.ordering)
        .unwrap_or_else(|e| panic!("{}: {e}", at("DAG build failed")));
    let (order, makespan, total_work) = dag.list_schedule(&cost, workers);
    let outcome = execute_sequential(
        &w.programs,
        &dag,
        &order,
        w.initial_mem.clone(),
        &cost,
        &mut (),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", at("parallel replay failed")));
    verify(&result.recorded, &outcome)
        .unwrap_or_else(|e| panic!("{}: {e}", at("parallel replay diverged")));
    if makespan == 0 {
        1.0
    } else {
        total_work as f64 / makespan as f64
    }
}

#[test]
fn parallel_replay_reproduces_every_workload_snoopy() {
    let threads = 4;
    let cfg = MachineConfig::splash_default(threads);
    let specs = RecorderSpec::paper_matrix();
    for w in suite(threads, 1) {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .config(&cfg)
            .specs(&specs)
            .run()
            .expect("records");
        for v in 0..specs.len() {
            for workers in [1, 4] {
                let s = check_parallel(&w, &result, v, workers);
                assert!(s >= 0.99, "speedup below 1 is impossible: {s}");
            }
        }
    }
}

#[test]
fn parallel_replay_reproduces_every_workload_directory() {
    // Directory mode is where the partial order has real parallelism (few
    // conservative edges) — and where the barrier machinery matters.
    let threads = 4;
    let cfg = MachineConfig::splash_default(threads).with_directory();
    let specs = vec![
        RecorderSpec {
            design: relaxreplay::Design::Opt,
            max_interval: Some(4096),
        },
        RecorderSpec {
            design: relaxreplay::Design::Base,
            max_interval: None,
        },
    ];
    for w in suite(threads, 1) {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .config(&cfg)
            .specs(&specs)
            .run()
            .expect("records");
        for v in 0..specs.len() {
            check_parallel(&w, &result, v, threads);
        }
    }
}

#[test]
fn directory_mode_exposes_replay_parallelism() {
    // With directory filtering, independent work should yield measurable
    // parallel speedup on at least the queue-based workloads.
    let threads = 4;
    let cfg = MachineConfig::splash_default(threads).with_directory();
    let specs = vec![RecorderSpec {
        design: relaxreplay::Design::Opt,
        max_interval: Some(4096),
    }];
    let mut best: f64 = 0.0;
    for w in suite(threads, 2) {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .config(&cfg)
            .specs(&specs)
            .run()
            .expect("records");
        let s = check_parallel(&w, &result, 0, threads);
        best = best.max(s);
    }
    assert!(
        best > 1.5,
        "expected some workload to show parallel-replay speedup, best was {best:.2}"
    );
}
