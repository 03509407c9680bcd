#![allow(clippy::needless_range_loop)] // variant index addresses parallel arrays
//! Property-based end-to-end test: *arbitrary* racy straight-line programs
//! over a small shared address pool must record and replay exactly, under
//! every recorder variant. This explores interleavings and sharing
//! patterns no hand-written workload covers.

use proptest::prelude::*;
use rr_isa::{AluOp, MemImage, Program, ProgramBuilder, Reg};
use rr_replay::{execute_sequential, patch, replay, verify, CostModel, IntervalDag, ReplayOutcome};
use rr_sim::{replay_and_verify, MachineConfig, RecordSession, RecorderSpec};
use rr_workloads::suite;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// One step of a generated thread: an access to one of 8 shared words
/// (spanning 2 cache lines — maximal contention) or some local compute.
#[derive(Clone, Debug)]
enum Step {
    Load { slot: u8 },
    Store { slot: u8, val: u8 },
    FetchAdd { slot: u8, val: u8 },
    Cas { slot: u8, expected: u8, desired: u8 },
    Alu { imm: u8 },
    Nops { count: u8 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8).prop_map(|slot| Step::Load { slot }),
        (0u8..8, any::<u8>()).prop_map(|(slot, val)| Step::Store { slot, val }),
        (0u8..8, 1u8..5).prop_map(|(slot, val)| Step::FetchAdd { slot, val }),
        (0u8..8, any::<u8>(), any::<u8>()).prop_map(|(slot, expected, desired)| Step::Cas {
            slot,
            expected,
            desired
        }),
        any::<u8>().prop_map(|imm| Step::Alu { imm }),
        (1u8..20).prop_map(|count| Step::Nops { count }),
    ]
}

const POOL: i64 = 0x8000;

fn build_thread(steps: &[Step]) -> Program {
    let mut b = ProgramBuilder::new();
    let (base, acc, tmp, addr) = (r(1), r(2), r(3), r(4));
    b.load_imm(base, POOL);
    b.load_imm(acc, 1);
    for s in steps {
        match s {
            Step::Load { slot } => {
                b.load(tmp, base, i64::from(*slot) * 8);
                b.add(acc, acc, tmp);
            }
            Step::Store { slot, val } => {
                b.op_imm(AluOp::Add, tmp, acc, i64::from(*val));
                b.store(tmp, base, i64::from(*slot) * 8);
            }
            Step::FetchAdd { slot, val } => {
                b.op_imm(AluOp::Add, addr, base, i64::from(*slot) * 8);
                b.load_imm(tmp, i64::from(*val));
                b.fetch_add(r(5), addr, tmp);
                b.add(acc, acc, r(5));
            }
            Step::Cas {
                slot,
                expected,
                desired,
            } => {
                b.op_imm(AluOp::Add, addr, base, i64::from(*slot) * 8);
                b.load_imm(r(6), i64::from(*expected));
                b.load_imm(r(7), i64::from(*desired));
                b.cas(r(5), addr, r(6), r(7));
                b.add(acc, acc, r(5));
            }
            Step::Alu { imm } => {
                b.op_imm(AluOp::Mul, acc, acc, i64::from(*imm) | 1);
                b.op_imm(AluOp::Xor, acc, acc, 0x55);
            }
            Step::Nops { count } => {
                b.nops(*count as usize);
            }
        }
    }
    // Publish the accumulator so divergence in register state is caught
    // through memory too.
    b.store(acc, base, 0x100);
    b.halt();
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case is a full multi-core simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_racy_programs_replay_exactly(
        threads in proptest::collection::vec(
            proptest::collection::vec(step_strategy(), 5..60),
            2..4
        )
    ) {
        let programs: Vec<Program> = threads.iter().map(|s| build_thread(s)).collect();
        let cfg = MachineConfig::splash_default(programs.len());
        let specs = RecorderSpec::paper_matrix();
        let result = RecordSession::new(&programs, &MemImage::new())
        .config(&cfg)
        .specs(&specs)
        .run()
            .expect("recording finishes");
        for v in 0..specs.len() {
            replay_and_verify(
                &programs,
                &MemImage::new(),
                &result,
                v,
                &CostModel::splash_default(),
            )
            .map_err(|e| TestCaseError::fail(format!("[{}]: {e}", specs[v].label())))?;
        }
    }
}

/// Differential test: on every rr-workloads workload, the Base and Opt
/// recordings must replay to *identical* final memory images and load
/// values — both sequentially and through the parallel replayer. The two
/// designs log different entries (Opt coalesces reordered chunks the Base
/// design logs individually), so agreement here shows the log contents,
/// not the recorder design, determine the replay.
#[test]
fn base_and_opt_replays_are_identical_on_every_workload() {
    let cost = CostModel::splash_default();
    for w in suite(2, 1) {
        let cfg = MachineConfig::splash_default(w.programs.len());
        let specs = RecorderSpec::paper_matrix();
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .config(&cfg)
            .specs(&specs)
            .run()
            .unwrap_or_else(|e| panic!("{}: recording failed: {e}", w.name));

        let mut outcomes: Vec<ReplayOutcome> = Vec::new();
        for (v, spec) in specs.iter().enumerate() {
            let ctx = |what: &str| format!("{} [{}]: {what}", w.name, spec.label());
            let variant = &result.variants[v];
            let patched: Vec<_> = variant
                .logs
                .iter()
                .map(|l| patch(l).unwrap_or_else(|e| panic!("{}: {e}", ctx("patch"))))
                .collect();

            let seq = replay(&w.programs, &patched, w.initial_mem.clone(), &cost)
                .unwrap_or_else(|e| panic!("{}: {e}", ctx("sequential replay")));
            verify(&result.recorded, &seq)
                .unwrap_or_else(|e| panic!("{}: {e}", ctx("sequential verify")));

            let dag = IntervalDag::partial_order(w.programs.len(), &patched, &variant.ordering)
                .unwrap_or_else(|e| panic!("{}: {e}", ctx("parallel DAG")));
            let par = execute_sequential(
                &w.programs,
                &dag,
                &dag.list_schedule(&cost, 2).0,
                w.initial_mem.clone(),
                &cost,
                &mut (),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", ctx("parallel replay")));
            verify(&result.recorded, &par)
                .unwrap_or_else(|e| panic!("{}: {e}", ctx("parallel verify")));

            assert!(
                seq.mem.contents_eq(&par.mem),
                "{}",
                ctx("sequential and parallel final memory differ")
            );
            assert_eq!(
                seq.load_traces,
                par.load_traces,
                "{}",
                ctx("sequential and parallel load values differ")
            );
            outcomes.push(seq);
        }

        // Base vs Opt (and 4K vs INF): identical memory and load values.
        let first = &outcomes[0];
        for (o, spec) in outcomes.iter().zip(&specs).skip(1) {
            assert!(
                first.mem.contents_eq(&o.mem),
                "{}: {} final memory diverges from {}",
                w.name,
                spec.label(),
                specs[0].label()
            );
            assert_eq!(
                first.load_traces,
                o.load_traces,
                "{}: {} load values diverge from {}",
                w.name,
                spec.label(),
                specs[0].label()
            );
        }
    }
}
