//! Golden-output guard for the record path: every run below is reduced to
//! one `rr_hash64` digest of everything recording produces — the encoded
//! `.rrlog` streams, the interval orderings and recorder statistics of
//! every variant, the per-core and memory-system statistics, the cycle
//! count and the per-thread load-value traces — and the digest is pinned.
//!
//! The pinned constants were computed on the simulator *before* its hot
//! paths (H3 hashing, the cycle loop's observer fan-out, the core's and
//! memory system's per-cycle buffers and maps) were optimised, so any
//! change in a recorded bit fails here. A deliberate change to what is
//! recorded must regenerate the table: the failure message prints the
//! full set of actual digests in the table's own syntax.

use relaxreplay::wire::encode_chunked;
use relaxreplay::{rr_hash64, Design, RecorderConfig};
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
        push_str(&mut buf, &format!("{:?}", v.ordering));
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
    ("sb/snoopy/stall", 0x634724f41c0cfbfc),
    ("sb/snoopy/rotate", 0xc098cdcbbe06cc02),
    ("sb/dir/stall", 0x3bdf8eed67c9403d),
    ("sb/dir/rotate", 0x83ce369a67fe3325),
    ("mp/snoopy/stall", 0x63b947b79bec2374),
    ("mp/snoopy/rotate", 0xf3c0f24074fda34b),
    ("mp/dir/stall", 0x3c0841b7b4b24f95),
    ("mp/dir/rotate", 0x62ea6d450f113e78),
    ("lb/snoopy/stall", 0xe121c4a5623d94fa),
    ("lb/snoopy/rotate", 0x254d3ad002cc68c6),
    ("lb/dir/stall", 0x94551bcd5ae2c5ab),
    ("lb/dir/rotate", 0x65f34c4e13807e57),
    ("iriw/snoopy/stall", 0xfe5bd5fc039fb62b),
    ("iriw/snoopy/rotate", 0x246f10b9a42fff4a),
    ("iriw/dir/stall", 0x2d58316eb68a8aef),
    ("iriw/dir/rotate", 0x371fc58a5d8b5456),
];

const CORPUS: &[(&str, u64)] = &[
    ("spinlock/snoopy/stall", 0xd80d7166e49c6e80),
    ("spinlock/snoopy/rotate", 0xeaee116533e09cd4),
    ("spinlock/dir/stall", 0xed9fe2621704748a),
    ("spinlock/dir/rotate", 0xd073e19b5482b14e),
    ("ticket_lock/snoopy/stall", 0x660a965b3b5f5cf9),
    ("ticket_lock/snoopy/rotate", 0xf0ce9acfc9511555),
    ("ticket_lock/dir/stall", 0x074d7fcf218a95ba),
    ("ticket_lock/dir/rotate", 0xd1a2ec0571d1773e),
    ("seqlock/snoopy/stall", 0x97d8b41c5a0d8356),
    ("seqlock/snoopy/rotate", 0x183e328d19afd16e),
    ("seqlock/dir/stall", 0xc6de9efc5c65ad03),
    ("seqlock/dir/rotate", 0x17aab3a4174c3ee9),
    ("treiber_stack/snoopy/stall", 0x22c07123ab6d8cc9),
    ("treiber_stack/snoopy/rotate", 0xd9d3bb08efcc4e19),
    ("treiber_stack/dir/stall", 0x6cbba299765facb4),
    ("treiber_stack/dir/rotate", 0xd1c32c67339d21c0),
    ("mpmc_ring/snoopy/stall", 0x8467fbec8b496149),
    ("mpmc_ring/snoopy/rotate", 0x70454e012ca9da9d),
    ("mpmc_ring/dir/stall", 0x2a5db6e71b393714),
    ("mpmc_ring/dir/rotate", 0x4532fa535804e7cb),
    ("ws_deque/snoopy/stall", 0x0631c1625eb7c1fc),
    ("ws_deque/snoopy/rotate", 0x93331cfb1339b5b9),
    ("ws_deque/dir/stall", 0x70db278f96c4daeb),
    ("ws_deque/dir/rotate", 0xfbd25e12c8e98d8d),
    ("rcu_epoch/snoopy/stall", 0x3bb76cd69c165cdd),
    ("rcu_epoch/snoopy/rotate", 0xeed94e2166749541),
    ("rcu_epoch/dir/stall", 0x338234fcf9872ea0),
    ("rcu_epoch/dir/rotate", 0x957388b99c3af374),
];

const SPLASH: &[(&str, u64)] = &[
    ("ocean/snoopy/stall", 0x31ec9d248439b6ef),
    ("ocean/snoopy/rotate", 0xdd8c3a21e8be358e),
    ("ocean/dir/stall", 0x3275788586ade4c5),
    ("ocean/dir/rotate", 0x5ce568f913be6365),
    ("radix/snoopy/stall", 0x64fa08970dc84598),
    ("radix/snoopy/rotate", 0x0b54e033976aa149),
    ("radix/dir/stall", 0x292840bfbf8e31cd),
    ("radix/dir/rotate", 0x4cda3d25442aef9f),
];
