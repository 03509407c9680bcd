//! Observability guarantees of the event-tracing layer, end to end:
//!
//! * tracing is a pure side channel — the recorded `.rrlog` bytes are
//!   byte-identical with tracing off and at full level, on every workload
//!   of the litmus suite;
//! * the Chrome trace export is schema-valid with one track per core (plus
//!   the coherence track);
//! * a forced verification divergence produces a `divergence.md` forensics
//!   report carrying both the record-side and replay-side event windows;
//! * the `rr-prof` probes are the same kind of pure side channel: the
//!   codec decoder and the replay engine produce identical results with
//!   their probe on and off on every litmus and corpus shape, and the
//!   `rr-prof/v1` sidecar + per-worker Perfetto timeline both validate.

use relaxreplay::prof::{CodecPhases, EngineProf};
use relaxreplay::trace::{validate_chrome_trace, TraceConfig, TraceLevel};
use relaxreplay::wire::{decode_chunked, decode_chunked_into, encode_chunked};
use relaxreplay::IntervalLog;
use rr_experiments::replay_forensic;
use rr_mem::CoreId;
use rr_replay::prof::ProfEntry;
use rr_replay::{
    critical_path_blame, execute_threaded, execute_threaded_probed, patch, prof_json, CostModel,
    IntervalDag,
};
use rr_sim::{RecordSession, RecorderSpec};
use rr_workloads::{corpus_suite, litmus_suite, suite};

const THREADS: usize = 2;
const SIZE: u32 = 1;

#[test]
fn rrlog_bytes_are_identical_with_tracing_on_and_off() {
    let specs = RecorderSpec::paper_matrix();
    for w in suite(THREADS, SIZE) {
        let off = RecordSession::new(&w.programs, &w.initial_mem)
            .specs(&specs)
            .run()
            .unwrap_or_else(|e| panic!("{}: records (trace off): {e}", w.name));
        let on = RecordSession::new(&w.programs, &w.initial_mem)
            .specs(&specs)
            .trace(TraceConfig::full())
            .run()
            .unwrap_or_else(|e| panic!("{}: records (trace full): {e}", w.name));
        assert!(off.trace.is_none(), "{}", w.name);
        assert!(on.trace.is_some(), "{}", w.name);

        for (v, (a, b)) in off.variants.iter().zip(&on.variants).enumerate() {
            assert_eq!(a.logs.len(), b.logs.len());
            for (core, (la, lb)) in a.logs.iter().zip(&b.logs).enumerate() {
                assert_eq!(
                    encode_chunked(la),
                    encode_chunked(lb),
                    "{} variant {v} core {core}: tracing changed the .rrlog bytes",
                    w.name
                );
            }
        }
    }
}

/// Profiling must be invisible: for every litmus and corpus shape and
/// recorder variant, the decoder with a phase probe yields the same
/// entries as the plain decoder (and re-encodes to the same bytes), and
/// the replay engine's outcome with the engine probe matches the outcome
/// without it field for field.
#[test]
fn profiling_changes_no_rrlog_bytes_and_no_replay_outcomes() {
    let specs = RecorderSpec::paper_matrix();
    let cost = CostModel::splash_default();
    for w in litmus_suite().into_iter().chain(corpus_suite()) {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .specs(&specs)
            .run()
            .unwrap_or_else(|e| panic!("{}: records: {e}", w.name));
        for (v, variant) in result.variants.iter().enumerate() {
            let at = format!("{} variant {v}", w.name);

            // Codec: profiled decode == strict decode, byte-identical
            // round trip, and the phase accounting is populated.
            let mut phases = CodecPhases::default();
            for log in &variant.logs {
                let bytes = encode_chunked(log);
                let plain = decode_chunked(&bytes).unwrap_or_else(|e| panic!("{at}: {e}"));
                let mut profiled = IntervalLog::new(CoreId::new(0));
                decode_chunked_into(&bytes, &mut profiled, &mut phases)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(plain, profiled, "{at}: profiled decode differs");
                assert_eq!(
                    encode_chunked(&profiled),
                    bytes,
                    "{at}: profiled decode does not round-trip"
                );
            }
            assert!(phases.chunks > 0 && phases.payload_bytes > 0, "{at}");

            // Engine: profiled replay == unprofiled replay, field for field.
            let patched: Vec<_> = variant
                .logs
                .iter()
                .map(patch)
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("{at}: patch: {e}"));
            let dag = IntervalDag::partial_order(w.programs.len(), &patched, &variant.ordering)
                .unwrap_or_else(|e| panic!("{at}: dag: {e}"));
            let plain = execute_threaded(&w.programs, &dag, w.initial_mem.clone(), &cost, 2)
                .unwrap_or_else(|e| panic!("{at}: replay: {e}"));
            let mut engine = EngineProf::default();
            let profiled = execute_threaded_probed(
                &w.programs,
                &dag,
                w.initial_mem.clone(),
                &cost,
                2,
                &mut engine,
            )
            .unwrap_or_else(|e| panic!("{at}: profiled replay: {e}"));
            assert!(
                plain.mem.contents_eq(&profiled.mem),
                "{at}: profiled replay changed final memory"
            );
            assert_eq!(plain.load_traces, profiled.load_traces, "{at}");
            assert_eq!(plain.events, profiled.events, "{at}");
            assert_eq!(plain.user_cycles, profiled.user_cycles, "{at}");
            assert_eq!(plain.os_cycles, profiled.os_cycles, "{at}");

            // The engine profile accounts for every executed interval.
            let executed: u64 = engine.workers.iter().map(|p| p.executed).sum();
            assert_eq!(executed, engine.nodes as u64, "{at}");
            assert!(engine.first_error_ns.is_none(), "{at}");
        }
    }
}

/// The `rr-prof/v1` sidecar built from real litmus runs validates, and the
/// per-worker engine timeline is a schema-valid Chrome trace with one
/// track per pool worker.
#[test]
fn prof_sidecar_and_worker_timeline_validate() {
    let cost = CostModel::splash_default();
    let mut entries = Vec::new();
    let mut timelines = Vec::new();
    for w in litmus_suite() {
        let result = RecordSession::new(&w.programs, &w.initial_mem)
            .run()
            .unwrap_or_else(|e| panic!("{}: records: {e}", w.name));
        let variant = &result.variants[0];
        let patched: Vec<_> = variant
            .logs
            .iter()
            .map(patch)
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("{}: patch: {e}", w.name));
        let dag = IntervalDag::partial_order(variant.logs.len(), &patched, &variant.ordering)
            .unwrap_or_else(|e| panic!("{}: dag: {e}", w.name));
        let blame = critical_path_blame(&dag, &cost);
        assert!(blame.coverage_pct() >= 95.0, "{}", w.name);
        let mut engine = EngineProf::default();
        execute_threaded_probed(
            &w.programs,
            &dag,
            w.initial_mem.clone(),
            &cost,
            2,
            &mut engine,
        )
        .unwrap_or_else(|e| panic!("{}: profiled replay: {e}", w.name));
        timelines.push((w.name.to_string(), engine.clone()));
        entries.push(ProfEntry {
            run: w.name.to_string(),
            variant: variant.spec.label(),
            blame,
            engine: Some(engine),
        });
    }

    let json = prof_json(&entries);
    let stats = relaxreplay::validate_prof_json(&json).expect("valid rr-prof/v1 sidecar");
    assert_eq!(stats.entries, entries.len());
    assert_eq!(stats.with_engine, entries.len());
    assert!(stats.path_intervals > 0);

    let refs: Vec<(String, &relaxreplay::prof::EngineProf)> =
        timelines.iter().map(|(n, p)| (n.clone(), p)).collect();
    let chrome = relaxreplay::engine_chrome_trace(&refs);
    let stats = validate_chrome_trace(&chrome).expect("valid chrome trace");
    assert!(stats.events > 0);
    // One track per pool worker per run; every litmus run used 2 workers.
    for worker in 0..2 {
        assert!(
            stats
                .track_names
                .iter()
                .any(|n| n == &format!("worker {worker}")),
            "{:?}",
            stats.track_names
        );
    }
}

#[test]
fn chrome_trace_has_one_track_per_core_for_a_real_run() {
    let w = suite(THREADS, SIZE).into_iter().next().expect("fft");
    let result = RecordSession::new(&w.programs, &w.initial_mem)
        .trace(TraceConfig::level(TraceLevel::Accesses))
        .run()
        .expect("records");
    let trace = result.trace.as_ref().expect("trace present");
    assert!(trace.total_records() > 0);
    let chrome = relaxreplay::trace::chrome_trace(&[(w.name.to_string(), trace)]);
    let stats = validate_chrome_trace(&chrome).expect("schema-valid chrome trace");
    assert_eq!(
        stats.tracks,
        THREADS + 1,
        "one track per core plus coherence: {:?}",
        stats.track_names
    );
    assert!(stats.events > 0);
    for core in 0..THREADS {
        assert!(
            stats
                .track_names
                .iter()
                .any(|n| n == &format!("core {core}")),
            "{:?}",
            stats.track_names
        );
    }
}

#[test]
fn forced_divergence_writes_a_forensics_report_with_both_windows() {
    let w = suite(THREADS, SIZE).into_iter().next().expect("fft");
    // A generous ring so the early counting events (the anchor for load #2)
    // are still resident when the report is written.
    let mut result = RecordSession::new(&w.programs, &w.initial_mem)
        .trace(TraceConfig::full().with_capacity(1 << 20))
        .run()
        .expect("records");

    let report_dir = std::env::temp_dir().join("rr_observability_divergence");
    let _ = std::fs::remove_dir_all(&report_dir);
    std::fs::create_dir_all(&report_dir).expect("mkdir");

    // Sanity: the untampered run verifies and writes no report.
    replay_forensic(
        &w.programs,
        &w.initial_mem,
        &result,
        0,
        &CostModel::splash_default(),
        &report_dir,
    )
    .expect("clean run verifies");
    assert!(!report_dir.join("divergence.md").exists());

    // Tamper with the recorded ground truth: claim thread 0's third load
    // observed a different value. Replay now "diverges".
    let trace0 = &mut result.recorded.load_traces[0];
    assert!(trace0.len() > 3, "workload must issue a few loads");
    trace0[2] ^= 0xDEAD;

    let err = replay_forensic(
        &w.programs,
        &w.initial_mem,
        &result,
        0,
        &CostModel::splash_default(),
        &report_dir,
    )
    .expect_err("tampered truth must fail verification");
    assert!(
        err.to_string().contains("divergence.md"),
        "error should point at the report: {err}"
    );

    let report = std::fs::read_to_string(report_dir.join("divergence.md")).expect("report written");
    assert!(report.contains("# Replay divergence report"), "{report}");
    assert!(report.contains("## Record timeline"), "{report}");
    assert!(report.contains("## Replay timeline"), "{report}");
    assert!(report.contains(">>> "), "anchor marker present: {report}");
    // The divergent load's index and both values are named.
    assert!(report.contains("load #2"), "{report}");
}
