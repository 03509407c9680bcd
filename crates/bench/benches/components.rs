//! Microbenchmarks of every RelaxReplay hardware structure and of the
//! simulation / replay pipelines.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use relaxreplay::{
    Design, IntervalLog, LogEntry, Recorder, RecorderConfig, Signature, SnoopTable, H3,
};
use rr_bench::{bench_record, bench_workload};
use rr_cpu::{CoreObserver, PerformRecord};
use rr_isa::{BranchCond, Interp, MemImage, ProgramBuilder, Reg};
use rr_mem::{AccessKind, CoreId, LineAddr, MemConfig, MemorySystem};
use rr_replay::{patch, replay, CostModel};

fn bench_hash(c: &mut Criterion) {
    let h = H3::new(8, 42);
    c.bench_function("h3_hash", |b| {
        let mut line = 0u64;
        b.iter(|| {
            line = line.wrapping_add(0x9e37);
            black_box(h.hash(black_box(line)))
        })
    });
}

fn bench_signature(c: &mut Criterion) {
    c.bench_function("signature_insert_test", |b| {
        let mut sig = Signature::splash_default(1);
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(7);
            sig.insert(LineAddr::from_line_number(n));
            black_box(sig.test(LineAddr::from_line_number(n ^ 1)))
        })
    });
}

fn bench_snoop_table(c: &mut Criterion) {
    c.bench_function("snoop_table_record_sample", |b| {
        let mut t = SnoopTable::splash_default(1);
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(3);
            t.record(LineAddr::from_line_number(n));
            black_box(t.sample(LineAddr::from_line_number(n)))
        })
    });
}

fn bench_recorder_event_path(c: &mut Criterion) {
    // Dispatch + perform + retire + count: the recorder's full per-access
    // hardware path.
    c.bench_function("recorder_access_lifecycle", |b| {
        let mut rec = Recorder::new(
            CoreId::new(0),
            RecorderConfig::splash_default(Design::Opt, Some(4096)),
        );
        let mut seq = 0u64;
        b.iter(|| {
            assert!(rec.on_dispatch(seq, true));
            rec.on_perform(&PerformRecord {
                seq,
                kind: AccessKind::Load,
                addr: (seq % 512) * 8,
                line: LineAddr::containing((seq % 512) * 8),
                loaded: Some(seq),
                stored: None,
                cycle: seq,
            });
            rec.on_retire(seq, true, seq);
            rec.tick(seq);
            seq += 1;
        })
    });
}

fn sample_log() -> IntervalLog {
    let mut log = IntervalLog::new(CoreId::new(0));
    for i in 0..200u64 {
        log.entries.push(LogEntry::InorderBlock { instrs: 100 });
        if i % 3 == 0 {
            log.entries.push(LogEntry::ReorderedLoad { value: i });
        }
        if i % 5 == 0 && i > 0 {
            log.entries.push(LogEntry::ReorderedStore {
                addr: i * 8,
                value: i,
                offset: 1,
            });
        }
        log.entries.push(LogEntry::IntervalFrame {
            cisn: i as u16,
            timestamp: i * 1000,
        });
    }
    log
}

fn bench_log_codec(c: &mut Criterion) {
    let log = sample_log();
    let flat = log.encode_flat();
    let chunked = log.encode();

    // Size comparison: flat fixed-width vs chunked varint/delta `.rrlog`,
    // reported as bytes-per-kilo-instruction alongside the throughput
    // numbers (the instruction count is the sum of the InorderBlock runs).
    let instrs: u64 = log
        .entries
        .iter()
        .map(|e| match e {
            LogEntry::InorderBlock { instrs } => u64::from(*instrs),
            _ => 0,
        })
        .sum();
    let per_kinstr = |bytes: usize| bytes as f64 * 1000.0 / instrs as f64;
    eprintln!(
        "log codec sizes: flat {} B ({:.1} B/kinstr), chunked {} B ({:.1} B/kinstr), \
         ratio {:.3}",
        flat.len(),
        per_kinstr(flat.len()),
        chunked.len(),
        per_kinstr(chunked.len()),
        chunked.len() as f64 / flat.len() as f64
    );

    c.bench_function("log_encode_flat", |b| {
        b.iter(|| black_box(log.encode_flat()))
    });
    c.bench_function("log_encode_chunked", |b| b.iter(|| black_box(log.encode())));
    c.bench_function("log_decode_chunked", |b| {
        b.iter(|| black_box(IntervalLog::decode(&chunked).expect("decodes")))
    });
}

fn bench_patching(c: &mut Criterion) {
    let log = sample_log();
    c.bench_function("log_patch", |b| {
        b.iter(|| black_box(patch(&log).expect("patches")))
    });
}

fn bench_interpreter(c: &mut Criterion) {
    let mut bld = ProgramBuilder::new();
    let (i, lim, base, v) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    bld.load_imm(i, 0)
        .load_imm(lim, 1000)
        .load_imm(base, 0x1000);
    let top = bld.bind_new();
    bld.op_imm(rr_isa::AluOp::And, v, i, 63);
    bld.op_imm(rr_isa::AluOp::Shl, v, v, 3);
    bld.add(v, base, v);
    bld.store(i, v, 0);
    bld.load(v, v, 0);
    bld.add_imm(i, i, 1);
    bld.branch(BranchCond::Lt, i, lim, top);
    bld.halt();
    let p = bld.build();
    c.bench_function("interpreter_7k_instrs", |b| {
        b.iter(|| {
            let mut mem = MemImage::new();
            let mut interp = Interp::new(&p);
            interp.run(&mut mem, u64::MAX);
            black_box(interp.retired())
        })
    });
}

fn bench_record_and_replay(c: &mut Criterion) {
    let w = bench_workload("fft");
    c.bench_function("record_fft_2c", |b| b.iter(|| black_box(bench_record(&w))));
    let result = bench_record(&w);
    let patched: Vec<_> = result.variants[1] // Opt-4K
        .logs
        .iter()
        .map(|l| patch(l).expect("patches"))
        .collect();
    c.bench_function("replay_fft_2c", |b| {
        b.iter(|| {
            black_box(
                replay(
                    &w.programs,
                    &patched,
                    w.initial_mem.clone(),
                    &CostModel::splash_default(),
                )
                .expect("replays"),
            )
        })
    });
}

fn bench_sweep_workers(c: &mut Criterion) {
    // The parallel sweep engine at 1/2/4/8 workers over 8 independent
    // recording jobs. On an N-core host the wall-clock should drop nearly
    // linearly up to N workers; the output is bit-identical at every
    // width (the `sweep_determinism` test pins that down).
    use rr_sim::{run_sweep, MachineConfig, RecorderSpec, ReplayPolicy, SweepJob};
    let jobs: Vec<SweepJob> = [
        "fft", "radix", "barnes", "lu", "fft", "radix", "barnes", "lu",
    ]
    .iter()
    .enumerate()
    .map(|(i, name)| {
        let w = bench_workload(name);
        SweepJob::from_specs(
            format!("{name}#{i}"),
            w.programs,
            w.initial_mem,
            MachineConfig::splash_default(2),
            &RecorderSpec::paper_matrix(),
            ReplayPolicy::Skip,
        )
    })
    .collect();
    for workers in [1usize, 2, 4, 8] {
        c.bench_with_input(
            BenchmarkId::new("sweep_8_jobs", workers),
            &workers,
            |b, &workers| b.iter(|| black_box(run_sweep(&jobs, workers).expect("sweep succeeds"))),
        );
    }
}

fn bench_machine_build(c: &mut Criterion) {
    // Fixed per-run set-up: building the memory system, and one whole
    // rr-check explore run of a short 2-core fuzz case (record, patch,
    // replay and verify both variants), where set-up is a large share.
    use rr_sim::{explore_one, ExploreSpec, MachineConfig, PressureMode};
    let mut group = c.benchmark_group("machine_build");
    for cores in [2usize, 4, 8] {
        let cfg = MemConfig::splash_default(cores);
        group.bench_with_input(BenchmarkId::new("memory_system", cores), &cfg, |b, cfg| {
            b.iter(|| black_box(MemorySystem::new(cfg.clone())))
        });
    }
    let case = (0..)
        .map(rr_workloads::fuzz_case)
        .find(|c| c.workload.programs.len() == 2)
        .expect("the generator makes 2-core cases");
    let w = case.workload;
    let machine = MachineConfig::splash_default(w.programs.len());
    let spec = ExploreSpec::for_seed(1, PressureMode::None);
    group.bench_function("explore_one_fuzz_2c", |b| {
        b.iter(|| {
            black_box(explore_one(&w.programs, &w.initial_mem, &machine, &spec).expect("explores"))
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = components;
    config = config();
    targets = bench_hash, bench_signature, bench_snoop_table,
        bench_recorder_event_path, bench_log_codec, bench_patching,
        bench_interpreter, bench_record_and_replay, bench_sweep_workers,
        bench_machine_build
}
criterion_main!(components);
