//! Golden-output guard for the record path: every run below is reduced to
//! one `rr_hash64` digest of everything recording produces — the encoded
//! `.rrlog` streams, the interval orderings and recorder statistics of
//! every variant, the per-core and memory-system statistics, the cycle
//! count and the per-thread load-value traces — and the digest is pinned.
//!
//! The pinned constants were computed on the simulator *before* its hot
//! paths (H3 hashing, the cycle loop's observer fan-out, the core's and
//! memory system's per-cycle buffers and maps) were optimised, and the
//! canonical ordering digests on the recorder that still kept every
//! predecessor entry, so any change in a recorded bit fails here. A deliberate change to what is
//! recorded must regenerate the table: the failure message prints the
//! full set of actual digests in the table's own syntax.
//!
//! Orderings are hashed in their canonical form ([`canonical`]): per
//! interval, the latest named interval of each source core, in core order.
//! The same-core chain makes that entry imply every earlier interval of its
//! core, so the canonical form has the same reachability as the raw
//! predecessor lists, and a recorder that keeps only these entries hashes
//! the same as one that keeps them all.

use relaxreplay::wire::encode_chunked;
use std::collections::BTreeMap;

use relaxreplay::{rr_hash64, Design, IntervalOrdering, RecorderConfig};
use rr_sim::{MachineConfig, RecordSession, RecorderSpec, RunResult, ScheduleStrategy};
use rr_workloads::{by_name, corpus_suite, litmus_suite, Workload};

/// The recorder variants attached to every run: the paper's four, plus
/// two non-default geometries — a tiny one (a single 16-bit bank, a
/// 16-entry Snoop Table) and one wider than 64 hash bits (8 × 4096).
fn recorder_configs() -> Vec<RecorderConfig> {
    let mut configs: Vec<RecorderConfig> = RecorderSpec::paper_matrix()
        .iter()
        .map(RecorderSpec::recorder_config)
        .collect();
    let mut tiny = RecorderConfig::splash_default(Design::Opt, Some(4096));
    tiny.sig_banks = 1;
    tiny.sig_bits = 16;
    tiny.snoop_entries = 16;
    configs.push(tiny);
    let mut wide = RecorderConfig::splash_default(Design::Opt, None);
    wide.sig_banks = 8;
    wide.sig_bits = 4096;
    configs.push(wide);
    configs
}

fn schedules() -> [(&'static str, ScheduleStrategy); 2] {
    [
        (
            "stall",
            ScheduleStrategy::SeededStall {
                seed: 7,
                stall_permille: 50,
                max_consecutive: 4,
            },
        ),
        ("rotate", ScheduleStrategy::RotatePriority { period: 3 }),
    ]
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reduces every interval's predecessor list to the per-source-core
/// maximum, sorted by core.
fn canonical(ordering: &[IntervalOrdering]) -> Vec<IntervalOrdering> {
    ordering
        .iter()
        .map(|o| IntervalOrdering {
            preds: o
                .preds
                .iter()
                .map(|preds| {
                    let mut latest = BTreeMap::new();
                    for &(core, ord) in preds {
                        let slot = latest.entry(core).or_insert(ord);
                        *slot = (*slot).max(ord);
                    }
                    latest.into_iter().collect()
                })
                .collect(),
            barriers: o.barriers.clone(),
            timestamps: o.timestamps.clone(),
        })
        .collect()
}

/// One digest over everything a recorded run produced.
fn digest(run: &RunResult) -> u64 {
    let mut buf = Vec::new();
    push_u64(&mut buf, run.cycles);
    for v in &run.variants {
        for log in &v.logs {
            let bytes = encode_chunked(log);
            push_u64(&mut buf, bytes.len() as u64);
            buf.extend_from_slice(&bytes);
        }
        push_str(&mut buf, &format!("{:?}", canonical(&v.ordering)));
        push_str(&mut buf, &format!("{:?}", v.stats));
    }
    push_str(&mut buf, &format!("{:?}", run.core_stats));
    push_str(&mut buf, &format!("{:?}", run.mem_stats));
    for trace in &run.recorded.load_traces {
        push_u64(&mut buf, trace.len() as u64);
        for &v in trace {
            push_u64(&mut buf, v);
        }
    }
    rr_hash64(&buf)
}

/// Records every workload under both schedules in snoopy and directory
/// mode and returns `(run name, digest)` pairs in a fixed order.
fn digests(workloads: &[Workload]) -> Vec<(String, u64)> {
    let configs = recorder_configs();
    let mut out = Vec::new();
    for w in workloads {
        for directory in [false, true] {
            let mut cfg = MachineConfig::splash_default(w.programs.len());
            if directory {
                cfg = cfg.with_directory();
            }
            for (sched_name, schedule) in schedules() {
                let run = RecordSession::new(&w.programs, &w.initial_mem)
                    .config(&cfg)
                    .recorder_configs(&configs)
                    .schedule(schedule)
                    .run()
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let mode = if directory { "dir" } else { "snoopy" };
                out.push((format!("{}/{mode}/{sched_name}", w.name), digest(&run)));
            }
        }
    }
    out
}

fn check(actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let matches = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((an, ad), (gn, gd))| an == gn && ad == gd);
    if !matches {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!("recorded output changed; actual digests:\n{table}");
    }
}

#[test]
fn litmus_suite_records_bit_identically() {
    check(&digests(&litmus_suite()), LITMUS);
}

#[test]
fn corpus_shapes_record_bit_identically() {
    check(&digests(&corpus_suite()), CORPUS);
}

#[test]
fn splash_programs_record_bit_identically() {
    let workloads: Vec<Workload> = ["ocean", "radix"]
        .iter()
        .map(|n| by_name(n, 8, 1).expect("known workload"))
        .collect();
    check(&digests(&workloads), SPLASH);
}

const LITMUS: &[(&str, u64)] = &[
    ("sb/snoopy/stall", 0x0a0fadcc8e1e4674),
    ("sb/snoopy/rotate", 0xfee847dcd37648c0),
    ("sb/dir/stall", 0x8ecd8fc68a40930b),
    ("sb/dir/rotate", 0x6405fcc84d25c375),
    ("mp/snoopy/stall", 0x7383de7f01be31e2),
    ("mp/snoopy/rotate", 0x2d4978affc1bdb25),
    ("mp/dir/stall", 0x49966970ccfe73f7),
    ("mp/dir/rotate", 0x115d101070304e80),
    ("lb/snoopy/stall", 0x3e9ebc7d8b4e2b1c),
    ("lb/snoopy/rotate", 0x611c74a8e9122f71),
    ("lb/dir/stall", 0xdb1caba11507e7b7),
    ("lb/dir/rotate", 0xa7826d549f33ef93),
    ("iriw/snoopy/stall", 0xfe5bd5fc039fb62b),
    ("iriw/snoopy/rotate", 0x246f10b9a42fff4a),
    ("iriw/dir/stall", 0x2d58316eb68a8aef),
    ("iriw/dir/rotate", 0x371fc58a5d8b5456),
];

const CORPUS: &[(&str, u64)] = &[
    ("spinlock/snoopy/stall", 0x63484f82f0744384),
    ("spinlock/snoopy/rotate", 0x6b44af4b1f4d2ba5),
    ("spinlock/dir/stall", 0xf8c9f0a10c21e24e),
    ("spinlock/dir/rotate", 0x7b6163e20c21d986),
    ("ticket_lock/snoopy/stall", 0x9f8815c109437c5f),
    ("ticket_lock/snoopy/rotate", 0x4b3721bb10c13f4b),
    ("ticket_lock/dir/stall", 0xc7dfd885b5f13fb4),
    ("ticket_lock/dir/rotate", 0x6abe24151f405c10),
    ("seqlock/snoopy/stall", 0x5aded894b850d9ff),
    ("seqlock/snoopy/rotate", 0xbe43dc220a98cddd),
    ("seqlock/dir/stall", 0xef8b6e0be44780dd),
    ("seqlock/dir/rotate", 0xa529ef93c69a0f8b),
    ("treiber_stack/snoopy/stall", 0xca99db8c88de20ed),
    ("treiber_stack/snoopy/rotate", 0x6df68045f678d03c),
    ("treiber_stack/dir/stall", 0x33642aaa456b4b10),
    ("treiber_stack/dir/rotate", 0x41fe5619384778b5),
    ("mpmc_ring/snoopy/stall", 0xc296f09de1648763),
    ("mpmc_ring/snoopy/rotate", 0x4577b1edbcd44349),
    ("mpmc_ring/dir/stall", 0x97fcf01bbe51d254),
    ("mpmc_ring/dir/rotate", 0x9779b3348445a2ad),
    ("ws_deque/snoopy/stall", 0x5f2287d4e410660c),
    ("ws_deque/snoopy/rotate", 0x690aed7b861d9c38),
    ("ws_deque/dir/stall", 0xb145d8e35ec17aec),
    ("ws_deque/dir/rotate", 0x0b0c52d7da851ac5),
    ("rcu_epoch/snoopy/stall", 0xd793c7a8d245e4e4),
    ("rcu_epoch/snoopy/rotate", 0xabd708ace5f8b964),
    ("rcu_epoch/dir/stall", 0xba1146835a37940e),
    ("rcu_epoch/dir/rotate", 0xcffe24d443d4159c),
];

const SPLASH: &[(&str, u64)] = &[
    ("ocean/snoopy/stall", 0x0be6508fff1c8e14),
    ("ocean/snoopy/rotate", 0x478bb9935f7b6ede),
    ("ocean/dir/stall", 0xa1b8e84ada80599b),
    ("ocean/dir/rotate", 0xf2f520336d359949),
    ("radix/snoopy/stall", 0xd1c779af253d305b),
    ("radix/snoopy/rotate", 0x9709d560b906ac4d),
    ("radix/dir/stall", 0x287e1a5780365186),
    ("radix/dir/rotate", 0xe1e61877ffcc1975),
];
