//! Recording benches: the cycle-level simulator with recorders attached,
//! in simulated cycles and instructions per host second.
//!
//! Rows:
//!
//! * `record/{ocean,radix,water_nsq}` — rr-benchmark's record-splash
//!   inputs: 8 cores, size 1, the paper's four recorder variants, one
//!   fixed seeded-stall schedule;
//! * `record/fuzz16` — the first 16 two-core generated fuzz cases, one
//!   after the other;
//! * `record_fft_2c/recorders{0,1,4}` — fft on 2 cores with the first 0,
//!   1 or 4 paper variants attached: what each attached recorder costs.
//!
//! Every recording is first replayed and verified against its ground
//! truth, variant by variant, in `--test` mode too; any failure exits
//! nonzero. The results go to `BENCH_record.json` through the shared
//! `rr_bench::run` harness.
//!
//! ```text
//! cargo bench -p rr-bench --bench record            full measurement
//! cargo bench -p rr-bench --bench record -- --test  CI smoke (fast, same JSON)
//! cargo bench -p rr-bench --bench record -- --out path/to.json
//! ```

use std::process::ExitCode;

use relaxreplay::trace::json::Fixed;
use rr_bench::{median_ns, BenchArgs};
use rr_replay::CostModel;
use rr_sim::{replay_and_verify, RecordSession, RecorderSpec, RunResult, ScheduleStrategy};
use rr_workloads::Workload;

/// The record-splash schedule: rr-benchmark's first item at its default
/// seed 1.
const SPLASH_STALL: ScheduleStrategy = ScheduleStrategy::SeededStall {
    seed: 100,
    stall_permille: 50,
    max_consecutive: 4,
};

/// One recording input: a workload, recorded on the default machine
/// sized to its thread count, with `specs` attached, under `schedule`.
struct Case {
    workload: Workload,
    specs: Vec<RecorderSpec>,
    schedule: ScheduleStrategy,
}

impl Case {
    fn new(workload: Workload) -> Self {
        Case {
            workload,
            specs: RecorderSpec::paper_matrix(),
            schedule: ScheduleStrategy::default(),
        }
    }

    fn record(&self) -> Result<RunResult, String> {
        let w = &self.workload;
        RecordSession::new(&w.programs, &w.initial_mem)
            .specs(&self.specs)
            .schedule(self.schedule.clone())
            .run()
            .map_err(|e| format!("recording: {e}"))
    }

    /// Records once, then replays and verifies every variant. Returns the
    /// simulated cycles and retired instructions.
    fn verify(&self) -> Result<(u64, u64), String> {
        let run = self.record()?;
        let cost = CostModel::splash_default();
        for i in 0..run.variants.len() {
            replay_and_verify(
                &self.workload.programs,
                &self.workload.initial_mem,
                &run,
                i,
                &cost,
            )
            .map_err(|e| format!("replay: {e}"))?;
        }
        Ok((run.cycles, run.total_instrs()))
    }
}

/// A bench row: the cases it records back to back.
struct Row {
    name: String,
    cases: Vec<Case>,
}

fn rows() -> Vec<Row> {
    let mut rows: Vec<Row> = ["ocean", "radix", "water_nsq"]
        .into_iter()
        .map(|name| {
            let w = rr_workloads::by_name(name, 8, 1).expect("a known workload name");
            let mut case = Case::new(w);
            case.schedule = SPLASH_STALL;
            Row {
                name: format!("record/{name}"),
                cases: vec![case],
            }
        })
        .collect();
    rows.push(Row {
        name: "record/fuzz16".to_string(),
        cases: (0..)
            .map(rr_workloads::fuzz_case)
            .filter(|c| c.workload.programs.len() == 2)
            .take(16)
            .map(|c| Case::new(c.workload))
            .collect(),
    });
    for n in [0, 1, 4] {
        let w = rr_workloads::by_name("fft", 2, 1).expect("a known workload name");
        let mut case = Case::new(w);
        case.specs.truncate(n);
        rows.push(Row {
            name: format!("record_fft_2c/recorders{n}"),
            cases: vec![case],
        });
    }
    rows
}

struct Sample {
    name: String,
    median_ns: f64,
    cycles: u64,
    instrs: u64,
}

impl Sample {
    fn m_cycles_per_s(&self) -> f64 {
        self.cycles as f64 / self.median_ns * 1e3
    }

    fn m_instrs_per_s(&self) -> f64 {
        self.instrs as f64 / self.median_ns * 1e3
    }
}

/// Verifies every case of `row`, then times recording them all.
fn bench_row(smoke: bool, row: &Row) -> Result<Sample, String> {
    let (mut cycles, mut instrs) = (0, 0);
    for (k, case) in row.cases.iter().enumerate() {
        let (c, i) = case
            .verify()
            .map_err(|e| format!("VERIFY GATE FAILED: {} case {k}: {e}", row.name))?;
        cycles += c;
        instrs += i;
    }
    let median_ns = median_ns(smoke, || {
        for case in &row.cases {
            std::hint::black_box(case.record().expect("recorded before"));
        }
    });
    let s = Sample {
        name: row.name.clone(),
        median_ns,
        cycles,
        instrs,
    };
    println!(
        "{:<28} {:>12.0} ns/iter  {:>8.2} Mcycles/s  {:>8.2} Minstr/s",
        s.name,
        s.median_ns,
        s.m_cycles_per_s(),
        s.m_instrs_per_s()
    );
    Ok(s)
}

fn write_json(args: &BenchArgs, samples: &[Sample]) -> Result<(), String> {
    args.write(
        "rr-bench/record/v1",
        |o| {
            o.object("verify_gate", |g| {
                g.field("rows", samples.len()).field("ok", true);
            });
        },
        |rows| {
            for s in samples {
                rows.object(|r| {
                    r.field("name", &s.name)
                        .field("median_ns", Fixed(s.median_ns, 0))
                        .field("cycles", s.cycles)
                        .field("instrs", s.instrs)
                        .field("m_cycles_per_s", Fixed(s.m_cycles_per_s(), 3))
                        .field("m_instrs_per_s", Fixed(s.m_instrs_per_s(), 3));
                });
            }
        },
    )
}

fn main() -> ExitCode {
    rr_bench::run("record", &[], |args| {
        let samples = rows()
            .iter()
            .map(|row| bench_row(args.smoke, row))
            .collect::<Result<Vec<_>, _>>()?;
        write_json(args, &samples)
    })
}
