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
//!
//! Orderings are hashed in their canonical form ([`canonical`]): the exact
//! transitive reduction of the predecessor entries over the same-core
//! chains, with barriers as interval ordinals. The reduction of a closure
//! is unique, so two recorders whose orderings have one closure hash the
//! same however many implied entries they keep. The recorder stores the
//! reduction itself, so every recorded ordering must already be
//! canonical; [`canonical`] computes it naively from reachability, apart
//! from the library's vector-clock pass, and so checks that pass too.

use relaxreplay::wire::encode_chunked;
use std::collections::BTreeSet;

use relaxreplay::{rr_hash64, Design, IntervalOrdering, RecorderConfig};
use rr_mem::CoreId;
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

/// The exact transitive reduction of `ordering`, computed naively: each
/// interval's ancestor set is a bitset over all intervals, grown to a
/// fixed point, and an entry survives only when no other direct
/// predecessor of its interval (its chain predecessor or another entry)
/// has the named interval among its ancestors or is that interval.
fn canonical(ordering: &[IntervalOrdering]) -> Vec<IntervalOrdering> {
    let first: Vec<usize> = ordering
        .iter()
        .scan(0, |next, o| {
            let at = *next;
            *next += o.preds.len();
            Some(at)
        })
        .collect();
    let n: usize = ordering.iter().map(|o| o.preds.len()).sum();
    // Direct predecessors of every interval, by interval id.
    let mut direct: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (c, o) in ordering.iter().enumerate() {
        for (k, preds) in o.preds.iter().enumerate() {
            if k > 0 {
                direct[first[c] + k].insert(first[c] + k - 1);
            }
            for &(d, j) in preds {
                let d = d.index();
                assert!(d != c && (j as usize) < ordering[d].preds.len());
                direct[first[c] + k].insert(first[d] + j as usize);
            }
        }
    }
    // `reach[v]`: v and every interval that reaches it.
    let words = n.div_ceil(64);
    let mut reach = vec![vec![0u64; words]; n];
    for (v, row) in reach.iter_mut().enumerate() {
        row[v / 64] |= 1 << (v % 64);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            for &p in &direct[v] {
                let from = reach[p].clone();
                for (word, add) in reach[v].iter_mut().zip(from) {
                    changed |= *word | add != *word;
                    *word |= add;
                }
            }
        }
    }
    let reaches = |from: usize, to: usize| reach[to][from / 64] >> (from % 64) & 1 == 1;
    ordering
        .iter()
        .enumerate()
        .map(|(c, o)| IntervalOrdering {
            preds: o
                .preds
                .iter()
                .enumerate()
                .map(|(k, preds)| {
                    let v = first[c] + k;
                    let mut kept: Vec<(CoreId, u64)> = preds
                        .iter()
                        .copied()
                        .filter(|&(d, j)| {
                            let u = first[d.index()] + j as usize;
                            direct[v].iter().all(|&p| p == u || !reaches(u, p))
                        })
                        .collect();
                    kept.sort_unstable();
                    kept.dedup();
                    kept
                })
                .collect(),
            barriers: o.barriers.clone(),
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
        let reduced = canonical(&v.ordering);
        assert_eq!(reduced, v.ordering, "a recorded ordering is not reduced");
        let rendered: Vec<_> = reduced.iter().map(|o| (&o.preds, &o.barriers)).collect();
        push_str(&mut buf, &format!("{rendered:?}"));
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
    ("sb/snoopy/stall", 0x1f08c4ef8453ae72),
    ("sb/snoopy/rotate", 0x810917196f765332),
    ("sb/dir/stall", 0xc5bfed913c501cb1),
    ("sb/dir/rotate", 0x84141f81408f8bbd),
    ("mp/snoopy/stall", 0x5ea6a6b61e1b594c),
    ("mp/snoopy/rotate", 0x0fdff3359091e79d),
    ("mp/dir/stall", 0x884ccd177bfbfc35),
    ("mp/dir/rotate", 0xf117997d6eaf09d8),
    ("lb/snoopy/stall", 0x1336e11fa15529b7),
    ("lb/snoopy/rotate", 0x77142b57aa7ef933),
    ("lb/dir/stall", 0xe5ccce269104fbe5),
    ("lb/dir/rotate", 0x95fd447ca88c5487),
    ("iriw/snoopy/stall", 0xb5797a819bea57f0),
    ("iriw/snoopy/rotate", 0xcc8d4d8fb03021e3),
    ("iriw/dir/stall", 0x5ef598afc858ac7d),
    ("iriw/dir/rotate", 0x7b0602a80801bf02),
];

const CORPUS: &[(&str, u64)] = &[
    ("spinlock/snoopy/stall", 0x2e5cbfff49ea154e),
    ("spinlock/snoopy/rotate", 0x893e30522aebd296),
    ("spinlock/dir/stall", 0xf656009294ba5c56),
    ("spinlock/dir/rotate", 0x0270f7efbf0c0864),
    ("ticket_lock/snoopy/stall", 0xdc26865956b37e4f),
    ("ticket_lock/snoopy/rotate", 0xaa9c89083c9273b7),
    ("ticket_lock/dir/stall", 0xa1e282c949d254b6),
    ("ticket_lock/dir/rotate", 0x033bfd00e0b1292a),
    ("seqlock/snoopy/stall", 0x8c325054fba13d49),
    ("seqlock/snoopy/rotate", 0xb2be1c62331bd6f0),
    ("seqlock/dir/stall", 0x5b535433baf20a21),
    ("seqlock/dir/rotate", 0x27593d7a311fe50b),
    ("treiber_stack/snoopy/stall", 0x58451c64f4ef8319),
    ("treiber_stack/snoopy/rotate", 0x7e982b5613ea2078),
    ("treiber_stack/dir/stall", 0xf5d79ed8a8497f9e),
    ("treiber_stack/dir/rotate", 0xf467cc88bb3cc945),
    ("mpmc_ring/snoopy/stall", 0x045fbcb4b0a1fce4),
    ("mpmc_ring/snoopy/rotate", 0x02f5fa07d268a1bb),
    ("mpmc_ring/dir/stall", 0x59ca189129aaae0c),
    ("mpmc_ring/dir/rotate", 0x5f2c399a65d06ae9),
    ("ws_deque/snoopy/stall", 0xfc8d8e304ae5914b),
    ("ws_deque/snoopy/rotate", 0x3213568589dbfb84),
    ("ws_deque/dir/stall", 0x6d864f740c6e37f7),
    ("ws_deque/dir/rotate", 0x0f3b2b227bb24e80),
    ("rcu_epoch/snoopy/stall", 0x1ede68c5c54d1326),
    ("rcu_epoch/snoopy/rotate", 0x6e5c4e0b79545ca3),
    ("rcu_epoch/dir/stall", 0xab0c33ffa2532d28),
    ("rcu_epoch/dir/rotate", 0x48d1b8997a0dc354),
];

const SPLASH: &[(&str, u64)] = &[
    ("ocean/snoopy/stall", 0x0bc4d8c504579bcb),
    ("ocean/snoopy/rotate", 0x93af6dfced2c0754),
    ("ocean/dir/stall", 0xc2ea3c3c8441aeb2),
    ("ocean/dir/rotate", 0x71f394b92d3e844b),
    ("radix/snoopy/stall", 0x66031a796faa1d6f),
    ("radix/snoopy/rotate", 0x402ceb74dafde654),
    ("radix/dir/stall", 0x74f0b74b7ec4e18a),
    ("radix/dir/rotate", 0xf26c3646a4c3b91c),
];
