//! Golden-output guard for every JSON emitter: the trace JSONL lines and
//! Chrome export, the engine timeline and summary, the codec phases, the
//! critical-path blame and `rr-prof/v1` sidecar, and the sweep-metrics
//! JSONL objects. Each emitter runs on fixed inputs — including names
//! that need escaping (`"`, `\`, newline, a control character, non-ASCII
//! and non-BMP text) — and its exact bytes are pinned as a length plus an
//! `rr_hash64` digest.
//!
//! The pinned constants were computed on the hand-written emitters that
//! preceded the shared `trace::json` writer, so any change in an emitted
//! byte fails here. A deliberate format change must regenerate the table:
//! the failure message prints the full set of actual values in the
//! table's own syntax. Every output must also parse with `json::parse`,
//! and the Chrome exports must pass `validate_chrome_trace`.

use relaxreplay::prof::{engine_chrome_trace, CodecPhases, EngineProf, SpanKind, WorkerProf};
use relaxreplay::rr_hash64;
use relaxreplay::trace::{
    chrome_trace, json, validate_chrome_trace, CloseReason, CountVerdict, RunTrace, TraceConfig,
    TraceEvent, TraceRecord, MACHINE_CORE,
};
use rr_mem::AccessKind;
use rr_replay::{prof_json, BlameReport, PathInterval, ProfEntry};
use rr_sim::metrics::{jsonl_object, Histogram};
use rr_sim::{MetricsRegistry, PhaseNanos};

/// A string every escaping rule applies to: quote, backslash, newline,
/// tab, a bare control character, non-ASCII and a non-BMP scalar.
const HOSTILE: &str = "q\"b\\s\nt\tc\u{1}\u{1f}é✓𝄞";

/// One event of every [`TraceEvent`] variant.
fn every_event() -> Vec<TraceEvent> {
    vec![
        TraceEvent::IntervalOpen {
            cisn: 3,
            ordinal: 7,
        },
        TraceEvent::IntervalClose {
            cisn: 3,
            ordinal: 7,
            why: CloseReason::Conflict,
            instrs: 64,
        },
        TraceEvent::Perform {
            seq: 11,
            kind: AccessKind::Load,
            addr: 0x208,
            pisn: 2,
        },
        TraceEvent::Count {
            seq: 12,
            kind: AccessKind::Rmw,
            addr: u64::MAX,
            pisn: 2,
            cisn: 4,
            verdict: CountVerdict::ReorderedSnoopConflict,
        },
        TraceEvent::Squash { after_seq: 13 },
        TraceEvent::Snoop {
            line: 0x40,
            is_write: true,
            conflict: false,
        },
        TraceEvent::SnoopTableBump { line: 0x80 },
        TraceEvent::DirtyEviction {
            line: 0xc0,
            conflict: true,
        },
        TraceEvent::Coherence {
            from: 1,
            line: 0x100,
            is_write: false,
        },
        TraceEvent::ReplayWait {
            core: 1,
            ordinal: 5,
            timestamp: 99,
        },
        TraceEvent::ReplayRelease {
            core: 1,
            ordinal: 5,
            timestamp: 99,
            loads_done: 17,
        },
        TraceEvent::VerifyProgress {
            core: 0,
            loads_checked: 1000,
        },
        TraceEvent::Divergence {
            core: 0,
            index: 3,
            recorded: 0xdead,
            replayed: 0xbeef,
        },
    ]
}

/// A two-core run with every event kind spread over the core rings and
/// the coherence ring.
fn full_trace() -> RunTrace {
    let mut trace = RunTrace::new(2, &TraceConfig::full());
    for (i, ev) in every_event().into_iter().enumerate() {
        let cycle = 10 * i as u64 + 5;
        match i % 3 {
            0 => trace.cores[0].push(cycle, ev),
            1 => trace.cores[1].push(cycle, ev),
            _ => trace.coherence.push(cycle, ev),
        }
    }
    trace
}

/// A one-core run whose capacity-2 ring evicts an interval's open while
/// keeping its close, and which leaves a later interval unclosed.
fn evicting_trace() -> RunTrace {
    let mut trace = RunTrace::new(1, &TraceConfig::full().with_capacity(2));
    let ring = &mut trace.cores[0];
    ring.push(
        10,
        TraceEvent::IntervalOpen {
            cisn: 0,
            ordinal: 0,
        },
    );
    ring.push(
        90,
        TraceEvent::IntervalClose {
            cisn: 0,
            ordinal: 0,
            why: CloseReason::Final,
            instrs: 5,
        },
    );
    ring.push(
        95,
        TraceEvent::IntervalOpen {
            cisn: 1,
            ordinal: 1,
        },
    );
    trace
}

/// A two-run trace with a closed interval, instants and an unclosed
/// interval — the shape the Chrome export pairs by ordinal.
fn interval_trace() -> RunTrace {
    let mut trace = RunTrace::new(2, &TraceConfig::full());
    trace.cores[0].push(
        10,
        TraceEvent::IntervalOpen {
            cisn: 0,
            ordinal: 0,
        },
    );
    trace.cores[0].push(
        50,
        TraceEvent::Perform {
            seq: 1,
            kind: AccessKind::Store,
            addr: 0x10,
            pisn: 0,
        },
    );
    trace.cores[0].push(
        90,
        TraceEvent::IntervalClose {
            cisn: 0,
            ordinal: 0,
            why: CloseReason::MaxSize,
            instrs: 80,
        },
    );
    trace.cores[1].push(
        20,
        TraceEvent::IntervalOpen {
            cisn: 0,
            ordinal: 4,
        },
    );
    trace.coherence.push(
        30,
        TraceEvent::Coherence {
            from: 0,
            line: 4,
            is_write: true,
        },
    );
    trace
}

fn engine_prof(first_error_ns: Option<u64>) -> EngineProf {
    let mut prof = EngineProf {
        wall_ns: 1_000,
        nodes: 4,
        first_error_ns,
        ..EngineProf::default()
    };
    for worker in 0..2usize {
        let mut w = WorkerProf::new(worker);
        let base = 100 * worker as u64;
        w.push_span(SpanKind::QueuePop, base, 3, 0, 0);
        w.push_span(
            SpanKind::Exec,
            base + 3,
            40,
            worker as u32,
            2 * worker as u64 + 1,
        );
        w.push_span(SpanKind::DepWait, base + 43, 7, 0, 0);
        w.push_span(SpanKind::Idle, base + 50, 9, 0, 0);
        w.executed = 1;
        w.queue_locks = 2 + worker as u64;
        w.core_locks = 1;
        w.core_locks_contended = worker as u64;
        w.heap_depth = vec![1, 2 + worker as u32];
        w.spans_dropped = worker as u64;
        prof.workers.push(w);
    }
    prof
}

fn blame() -> BlameReport {
    BlameReport {
        makespan_cycles: 500,
        total_work_cycles: 800,
        path: vec![0, 2, 3],
        per_core: vec![300, 200],
        per_kind: vec![("user", 420), ("interval", 60), ("inject-load", 20)],
        top_intervals: vec![
            PathInterval {
                node: 2,
                core: 1,
                ordinal: 0,
                timestamp: 12,
                cycles: 200,
            },
            PathInterval {
                node: 0,
                core: 0,
                ordinal: 0,
                timestamp: 10,
                cycles: 180,
            },
        ],
        attributed_cycles: 500,
    }
}

fn metrics() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.add("sim.cycles", 1234);
    m.set("rec.Opt-4K.log_bits", 99);
    m.add(HOSTILE, 1);
    m.observe("rec.Opt-4K.intervals_per_core", 3);
    m.observe("rec.Opt-4K.intervals_per_core", 5);
    m.merge_histogram(
        "rec.Opt-4K.traq_occupancy",
        &Histogram::from_bins(10, vec![4, 0, 2]),
    );
    m.merge_histogram("empty", &Histogram::from_bins(1, Vec::new()));
    m
}

const PHASES: PhaseNanos = PhaseNanos {
    record: 1_000,
    patch: 20,
    replay: 300,
    verify: 4,
};

/// Every pinned output, labelled.
fn outputs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (i, ev) in every_event().into_iter().enumerate() {
        let core = if i % 2 == 0 { 3 } else { MACHINE_CORE };
        let rec = TraceRecord {
            cycle: 1_000 + i as u64,
            event: ev,
        };
        out.push((format!("to_json/{}", ev.type_name()), rec.to_json(core)));
    }
    let full = full_trace();
    out.push(("to_jsonl/unnamed".into(), full.to_jsonl("")));
    out.push(("to_jsonl/hostile".into(), full.to_jsonl(HOSTILE)));
    out.push((
        "chrome_trace/full".into(),
        chrome_trace(&[("plain".to_string(), &full)]),
    ));
    let evicting = evicting_trace();
    let intervals = interval_trace();
    out.push((
        "chrome_trace/evicting+intervals".into(),
        chrome_trace(&[
            (HOSTILE.to_string(), &evicting),
            ("second".to_string(), &intervals),
        ]),
    ));
    out.push(("chrome_trace/empty".into(), chrome_trace(&[])));
    let ok = engine_prof(None);
    let failed = engine_prof(Some(77));
    out.push(("summary_json/no_error".into(), ok.summary_json()));
    out.push(("summary_json/first_error".into(), failed.summary_json()));
    out.push((
        "engine_chrome_trace/no_error".into(),
        engine_chrome_trace(&[("fft/Opt-4K".to_string(), &ok)]),
    ));
    out.push((
        "engine_chrome_trace/first_error".into(),
        engine_chrome_trace(&[
            (HOSTILE.to_string(), &failed),
            ("empty".to_string(), &EngineProf::default()),
        ]),
    ));
    let phases = CodecPhases {
        crc_ns: 10,
        entries_ns: 80,
        reserve_ns: 5,
        chunks: 2,
        payload_bytes: 4096,
    };
    out.push(("codec_phases".into(), phases.to_json()));
    out.push(("blame/full".into(), blame().to_json()));
    out.push(("blame/default".into(), BlameReport::default().to_json()));
    out.push((
        "prof_json".into(),
        prof_json(&[
            ProfEntry {
                run: "fft".into(),
                variant: "Opt-4K".into(),
                blame: blame(),
                engine: Some(failed.clone()),
            },
            ProfEntry {
                run: HOSTILE.into(),
                variant: "Base-INF".into(),
                blame: blame(),
                engine: None,
            },
        ]),
    ));
    out.push(("prof_json/empty".into(), prof_json(&[])));
    let m = metrics();
    out.push(("metrics".into(), m.to_json()));
    out.push(("metrics/empty".into(), MetricsRegistry::new().to_json()));
    out.push(("phase_nanos".into(), PHASES.to_json()));
    out.push(("jsonl_object".into(), jsonl_object("fft", 3, &m, &PHASES)));
    out.push((
        "jsonl_object/hostile".into(),
        jsonl_object(HOSTILE, 0, &MetricsRegistry::new(), &PhaseNanos::default()),
    ));
    out
}

/// `(label, byte length, rr_hash64 of the bytes)` per output.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("to_json/interval_open", 67, 0xf956320fdfab2824),
    ("to_json/interval_close", 99, 0xdb8afbf351375f7f),
    ("to_json/perform", 83, 0x2ee082da87465ed2),
    ("to_json/count", 145, 0xf261b374cd4adf2c),
    ("to_json/squash", 54, 0x29d064975d00438b),
    ("to_json/snoop", 83, 0x89ebdbd46559765c),
    ("to_json/snoop_table_bump", 60, 0xd7c6511d98179934),
    ("to_json/dirty_eviction", 76, 0xf197b9b5612c2e6e),
    ("to_json/coherence", 79, 0x16b0455aff15c3d1),
    ("to_json/replay_wait", 82, 0xd5cfecb66b249ad7),
    ("to_json/replay_release", 99, 0xa078c39ee8c3a516),
    ("to_json/verify_progress", 80, 0x1883cca800cea0a3),
    ("to_json/divergence", 96, 0x5f6179ad5dc38f8c),
    ("to_jsonl/unnamed", 1088, 0xf99c4f56d7da83b4),
    ("to_jsonl/hostile", 1647, 0xf34ce2dbf0f7cef2),
    ("chrome_trace/full", 1892, 0x2dd9a265014b90df),
    ("chrome_trace/evicting+intervals", 1212, 0xde827348f757d759),
    ("chrome_trace/empty", 41, 0x68198f1b9257fd5d),
    ("summary_json/no_error", 405, 0xc4a2e54b3c9b3952),
    ("summary_json/first_error", 403, 0x39d7c01634f81bfd),
    ("engine_chrome_trace/no_error", 756, 0x60a1d71b58e6d621),
    ("engine_chrome_trace/first_error", 917, 0xb2e79ff36ed8d5cd),
    ("codec_phases", 76, 0xa124469f18976890),
    ("blame/full", 398, 0x2251047bb6baf28e),
    ("blame/default", 131, 0x53730be97d636c24),
    ("prof_json", 1375, 0xdc43635cbd440f36),
    ("prof_json/empty", 36, 0xd6e74c30ceb8a646),
    ("metrics", 280, 0x177d101833ac2663),
    ("metrics/empty", 31, 0x66f0efd34e35e2ff),
    ("phase_nanos", 62, 0x6c18b344cd00ba82),
    ("jsonl_object", 385, 0xe6b5f368c57dfa00),
    ("jsonl_object/hostile", 161, 0x38677c7f0d090528),
];

#[test]
fn every_json_emitter_is_byte_identical_to_the_pinned_output() {
    let actual: Vec<(String, usize, u64)> = outputs()
        .into_iter()
        .map(|(label, s)| (label, s.len(), rr_hash64(s.as_bytes())))
        .collect();
    let table: String = actual
        .iter()
        .map(|(l, n, h)| format!("    ({l:?}, {n}, {h:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, usize, u64)> = GOLDEN
        .iter()
        .map(|&(l, n, h)| (l.to_string(), n, h))
        .collect();
    assert_eq!(
        actual, pinned,
        "JSON emitter output changed; actual table:\n{table}"
    );
}

#[test]
fn every_json_emitter_output_parses() {
    for (label, s) in outputs() {
        let lines: Vec<&str> = if label.starts_with("to_jsonl") {
            s.lines().collect()
        } else {
            vec![s.as_str()]
        };
        for line in lines {
            json::parse(line).unwrap_or_else(|e| panic!("{label}: {e}\n{line}"));
        }
        if label.contains("chrome_trace") {
            validate_chrome_trace(&s).unwrap_or_else(|e| panic!("{label}: {e}\n{s}"));
        }
    }
}

#[test]
fn hostile_names_survive_the_round_trip() {
    let full = full_trace();
    for line in full.to_jsonl(HOSTILE).lines() {
        let v = json::parse(line).expect("parses");
        assert_eq!(v.get("run").and_then(json::Value::as_str), Some(HOSTILE));
    }
    let line = jsonl_object(HOSTILE, 0, &metrics(), &PHASES);
    let v = json::parse(&line).expect("parses");
    assert_eq!(v.get("name").and_then(json::Value::as_str), Some(HOSTILE));
    let counters = v
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .expect("counters");
    assert_eq!(counters.get(HOSTILE).and_then(json::Value::as_u64), Some(1));
}
