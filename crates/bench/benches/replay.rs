//! Replay-engine throughput benches — the evidence behind the
//! interval-DAG refactor: one IR ([`rr_replay::IntervalDag`]), three
//! executors, true multithreaded replay.
//!
//! It records small/medium/large workloads, times the sequential DAG
//! executor and the multithreaded engine at 1/2/4/8 workers, writes the
//! results as `BENCH_replay.json` through the shared `rr_bench::run`
//! harness, and — on every invocation — runs the differential gate: the
//! sequential DAG executor must agree with the retained legacy
//! `replay_reference` path, and the threaded engine at every worker count
//! must agree with the sequential executor and verify against the
//! recorded ground truth. Any disagreement exits nonzero (the CI
//! `replay-scaling` gate).
//!
//! Wall-clock scaling tracks the host's real core count; the JSON records
//! `host_cpus` so a 1-cpu CI runner's flat curve reads as what it is.
//!
//! ```text
//! cargo bench -p rr-bench --bench replay            full measurement
//! cargo bench -p rr-bench --bench replay -- --test  CI smoke (fast, same JSON)
//! cargo bench -p rr-bench --bench replay -- --out path/to.json
//! ```

use std::process::ExitCode;

use relaxreplay::trace::json::Fixed;
use rr_bench::{median_ns, BenchArgs};
use rr_replay::{
    execute_threaded, patch, replay, replay_reference, verify, CostModel, IntervalDag, PatchedLog,
    ReplayError, ReplayOp, ReplayOutcome,
};
use rr_sim::{MachineConfig, RecordSession, RecorderSpec};

/// The worker counts the threaded engine is timed at.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

struct Case {
    tag: &'static str,
    workload: &'static str,
    threads: usize,
    size: u32,
}

const FULL_CASES: &[Case] = &[
    Case {
        tag: "small",
        workload: "fft",
        threads: 2,
        size: 1,
    },
    Case {
        tag: "medium",
        workload: "fft",
        threads: 4,
        size: 4,
    },
    Case {
        tag: "large",
        workload: "barnes",
        threads: 8,
        size: 6,
    },
];

const SMOKE_CASES: &[Case] = &[
    Case {
        tag: "small",
        workload: "fft",
        threads: 2,
        size: 1,
    },
    Case {
        tag: "medium",
        workload: "fft",
        threads: 4,
        size: 2,
    },
];

/// One recorded workload, ready to replay over and over.
struct Recording {
    tag: &'static str,
    programs: Vec<rr_isa::Program>,
    initial_mem: rr_isa::MemImage,
    patched: Vec<PatchedLog>,
    ordering: Vec<relaxreplay::IntervalOrdering>,
    recorded: rr_replay::RecordedExecution,
    intervals: usize,
    ops: usize,
}

impl Recording {
    /// The recorded partial-order DAG the threaded engine executes.
    fn dag(&self) -> Result<IntervalDag<'_>, ReplayError> {
        IntervalDag::partial_order(self.programs.len(), &self.patched, &self.ordering)
    }
}

fn record_case(case: &Case) -> Result<Recording, String> {
    let w = rr_workloads::by_name(case.workload, case.threads, case.size)
        .ok_or_else(|| format!("{}: unknown workload {:?}", case.tag, case.workload))?;
    let specs = vec![RecorderSpec {
        design: relaxreplay::Design::Opt,
        max_interval: Some(4096),
    }];
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .config(&MachineConfig::splash_default(case.threads))
        .specs(&specs)
        .run()
        .map_err(|e| format!("{}: recording: {e}", case.tag))?;
    let v = &result.variants[0];
    let patched: Vec<PatchedLog> = v
        .logs
        .iter()
        .map(patch)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: patch: {e}", case.tag))?;
    let intervals = patched
        .iter()
        .flat_map(|p| &p.ops)
        .filter(|op| matches!(op, ReplayOp::EndInterval { .. }))
        .count();
    let ops = patched.iter().map(|p| p.ops.len()).sum();
    Ok(Recording {
        tag: case.tag,
        programs: w.programs,
        initial_mem: w.initial_mem,
        patched,
        ordering: v.ordering.clone(),
        recorded: result.recorded,
        intervals,
        ops,
    })
}

/// The differential gate: sequential-vs-legacy and threaded-vs-sequential
/// agreement on one recording, every outcome verified against ground
/// truth. Returns the sequential outcome for reuse.
fn differential_gate(r: &Recording) -> Result<ReplayOutcome, String> {
    let cost = CostModel::splash_default();
    let seq = replay(&r.programs, &r.patched, r.initial_mem.clone(), &cost)
        .map_err(|e| format!("{}: sequential replay: {e}", r.tag))?;
    verify(&r.recorded, &seq).map_err(|e| format!("{}: sequential verify: {e}", r.tag))?;

    let legacy = replay_reference(&r.programs, &r.patched, r.initial_mem.clone(), &cost)
        .map_err(|e| format!("{}: legacy replay: {e}", r.tag))?;
    if seq.load_traces != legacy.load_traces
        || seq.events != legacy.events
        || seq.user_cycles != legacy.user_cycles
        || seq.os_cycles != legacy.os_cycles
    {
        return Err(format!(
            "{}: DAG executor disagrees with the legacy reference path",
            r.tag
        ));
    }
    verify(&r.recorded, &legacy).map_err(|e| format!("{}: legacy verify: {e}", r.tag))?;

    let dag = r
        .dag()
        .map_err(|e| format!("{}: partial-order DAG: {e}", r.tag))?;
    for workers in WORKERS {
        let thr = execute_threaded(&r.programs, &dag, r.initial_mem.clone(), &cost, workers)
            .map_err(|e| format!("{}: threaded replay (w={workers}): {e}", r.tag))?;
        verify(&r.recorded, &thr)
            .map_err(|e| format!("{}: threaded verify (w={workers}): {e}", r.tag))?;
        if thr.load_traces != seq.load_traces || thr.events != seq.events {
            return Err(format!(
                "{}: threaded engine (w={workers}) diverges from the sequential executor",
                r.tag
            ));
        }
    }
    Ok(seq)
}

struct Sample {
    name: String,
    intervals: usize,
    ops: usize,
    median_ns: f64,
    m_intervals_per_s: f64,
}

fn push_sample(out: &mut Vec<Sample>, name: String, intervals: usize, ops: usize, median_ns: f64) {
    let m_intervals_per_s = intervals as f64 / median_ns * 1e9 / 1e6;
    println!(
        "{name:<28} {median_ns:>12.0} ns/iter  {m_intervals_per_s:>9.3} M intervals/s  ({ops} ops)"
    );
    out.push(Sample {
        name,
        intervals,
        ops,
        median_ns,
        m_intervals_per_s,
    });
}

fn bench_recording(smoke: bool, r: &Recording, out: &mut Vec<Sample>) {
    let cost = CostModel::splash_default();
    let ns = median_ns(smoke, || {
        std::hint::black_box(
            replay(
                std::hint::black_box(&r.programs),
                &r.patched,
                r.initial_mem.clone(),
                &cost,
            )
            .expect("replays"),
        );
    });
    push_sample(out, format!("seq/{}", r.tag), r.intervals, r.ops, ns);
    // Each threaded sample builds its DAG inside the timer, as `replay`
    // does for the sequential one, so the rows stay comparable.
    for workers in WORKERS {
        let ns = median_ns(smoke, || {
            let dag = std::hint::black_box(r).dag().expect("builds");
            std::hint::black_box(
                execute_threaded(&r.programs, &dag, r.initial_mem.clone(), &cost, workers)
                    .expect("replays"),
            );
        });
        push_sample(
            out,
            format!("thr{workers}/{}", r.tag),
            r.intervals,
            r.ops,
            ns,
        );
    }
}

fn write_json(args: &BenchArgs, samples: &[Sample], cases: usize) -> Result<(), String> {
    args.write(
        "rr-bench/replay/v1",
        |o| {
            o.object("differential_gate", |g| {
                g.field("cases", cases)
                    .array("workers", |a| {
                        for w in WORKERS {
                            a.item(w);
                        }
                    })
                    .field("ok", true);
            });
        },
        |rows| {
            for b in samples {
                rows.object(|r| {
                    r.field("name", &b.name)
                        .field("intervals", b.intervals)
                        .field("ops", b.ops)
                        .field("median_ns", Fixed(b.median_ns, 0))
                        .field("m_intervals_per_s", Fixed(b.m_intervals_per_s, 3));
                });
            }
        },
    )
}

fn main() -> ExitCode {
    rr_bench::run("replay", &[], |args| {
        let cases = if args.smoke { SMOKE_CASES } else { FULL_CASES };
        let mut samples = Vec::new();
        for case in cases {
            let r = record_case(case)?;
            differential_gate(&r).map_err(|e| format!("DIFFERENTIAL GATE FAILED: {e}"))?;
            println!(
                "differential gate: {} ({} intervals) — legacy, sequential, and thr1/2/4/8 agree",
                r.tag, r.intervals
            );
            bench_recording(args.smoke, &r, &mut samples);
        }
        write_json(args, &samples, cases.len())
    })
}
