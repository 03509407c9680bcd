//! The one replay-scaling measurement behind `fig13_replay`'s scaling
//! table and the `parallel_replay` extension: the modeled speedup of the
//! cost-model list schedule next to measured wall-clock speedups of the
//! multithreaded replay engine, every replayed outcome verified.

use std::time::Instant;

use relaxreplay::EngineProf;
use rr_replay::prof::ProfEntry;
use rr_replay::{
    critical_path_blame, execute_threaded, execute_threaded_probed, verify, CostModel, IntervalDag,
    ReplayError, ReplayOutcome,
};
use rr_sim::{with_variant_dag, Error, RunResult};
use rr_workloads::Workload;

use crate::report::f2;

/// Worker counts of the measured wall-clock columns.
pub const SCALING_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock repetitions per worker count; the best is reported.
pub const SCALING_REPS: usize = 3;

/// What [`replay_scaling`] measured for one recorded variant.
#[derive(Debug)]
pub struct ReplayScaling {
    /// List-schedule speedup (`total_work / makespan`) on the requested
    /// number of modelled replay cores — host-independent.
    pub modeled: f64,
    /// Best-of-[`SCALING_REPS`] wall-clock seconds of the threaded engine
    /// executing the prebuilt DAG at each of [`SCALING_WORKERS`].
    pub secs: Vec<f64>,
    /// The `--prof` entry, when one was requested: critical-path blame
    /// over the same DAG plus a measured engine timeline.
    pub prof: Option<ProfEntry>,
}

impl ReplayScaling {
    /// The table cells: modeled speedup, the one-worker time in ms, then
    /// the measured speedup at each further worker count.
    #[must_use]
    pub fn cells(&self) -> Vec<String> {
        let base = self.secs[0];
        let mut cells = vec![f2(self.modeled), format!("{:.3}", base * 1e3)];
        cells.extend(self.secs[1..].iter().map(|s| f2(base / s)));
        cells
    }
}

/// Measures replay scaling for variant `variant` of a recorded run of
/// `w`, labelling errors with `label`:
///
/// 1. patches the variant's logs and builds the recorded partial-order
///    DAG ([`with_variant_dag`]);
/// 2. takes the modeled speedup at `modeled_workers` from the pure list
///    schedule ([`IntervalDag::list_schedule`], nothing is replayed);
/// 3. times [`execute_threaded`] on that one DAG at every
///    [`SCALING_WORKERS`] count, best of [`SCALING_REPS`] — execution
///    only, the DAG is built outside the timer — verifying every outcome
///    against the recording;
/// 4. with `prof_workers` set, executes once more at that worker count
///    with an [`EngineProf`] attached (verified too) and returns it with
///    the DAG's critical-path blame as a [`ProfEntry`] for run `label`.
///
/// # Errors
///
/// Returns the first patch, DAG, replay or verify failure — each a
/// correctness bug for a recorded run.
pub fn replay_scaling(
    label: &str,
    w: &Workload,
    result: &RunResult,
    variant: usize,
    cost: &CostModel,
    modeled_workers: usize,
    prof_workers: Option<usize>,
) -> Result<ReplayScaling, Error> {
    let v = &result.variants[variant];
    let at = |stage: &str| format!("{label} [{}]: {stage}", v.spec.label());
    let verified = |outcome: Result<ReplayOutcome, ReplayError>, stage: &str| {
        let outcome = outcome.map_err(|e| Error::from(e).context(at(stage)))?;
        verify(&result.recorded, &outcome).map_err(|e| Error::from(e).context(at(stage)))
    };
    let measure = |dag: &IntervalDag<'_>| -> Result<ReplayScaling, Error> {
        let (_, makespan, total_work) = dag.list_schedule(cost, modeled_workers);
        let modeled = if makespan == 0 {
            1.0
        } else {
            total_work as f64 / makespan as f64
        };
        let mut secs = Vec::with_capacity(SCALING_WORKERS.len());
        for workers in SCALING_WORKERS {
            let mut best = f64::INFINITY;
            for _ in 0..SCALING_REPS {
                let mem = w.initial_mem.clone();
                let start = Instant::now();
                let outcome = execute_threaded(&w.programs, dag, mem, cost, workers);
                best = best.min(start.elapsed().as_secs_f64());
                verified(outcome, &format!("threaded replay (w={workers})"))?;
            }
            secs.push(best);
        }
        let prof = match prof_workers {
            None => None,
            Some(workers) => {
                let mut engine = EngineProf::default();
                let outcome = execute_threaded_probed(
                    &w.programs,
                    dag,
                    w.initial_mem.clone(),
                    cost,
                    workers,
                    &mut engine,
                );
                verified(outcome, &format!("profiled replay (w={workers})"))?;
                Some(ProfEntry {
                    run: label.to_string(),
                    variant: v.spec.label(),
                    blame: critical_path_blame(dag, cost),
                    engine: Some(engine),
                })
            }
        };
        Ok(ReplayScaling {
            modeled,
            secs,
            prof,
        })
    };
    with_variant_dag(&v.logs, Some(&v.ordering), None, measure)
        .map_err(|e| e.into_error(at, "dag failed"))?
}
