//! `rr_prof` — low-overhead execution profiling primitives.
//!
//! The trace layer ([`crate::trace`]) observes the *simulated machine*;
//! this module observes the *replayer and codec themselves*: where host
//! wall-clock goes inside the multithreaded replay engine
//! (`rr_replay::replay_threaded_probed`) and inside the `.rrlog` decode
//! hot path ([`crate::wire::decode_chunked_into`]).
//!
//! Instrumentation is a type parameter, not a second copy of the code:
//! the production paths are generic over a [`Probe`], and the plain entry
//! points pass `()`, the zero-sized probe whose hooks are all empty and
//! whose [`Probe::ENABLED`] is `false`. With `()` the instrumented paths
//! read no clock and take no extra lock, so profiling off compiles to the
//! uninstrumented code; with a real probe the *same* code runs, so the
//! profile describes the replay that ships. Outputs are bit-identical
//! either way (asserted by `tests/observability.rs` and the codec
//! bench's differential gate). All numbers here are host wall-clock
//! nanoseconds, excluded from every determinism comparison.
//!
//! Three probes ship: [`EngineProf`] (per-worker engine timelines),
//! [`CodecPhases`] (decode phase timings) and [`TraceRing`] (the
//! sequential replayer's scheduling events, for divergence forensics).
//!
//! Three artifact shapes come out of the subsystem:
//!
//! * per-worker span timelines ([`EngineProf`]), exported as Chrome
//!   trace-event JSON with one track per worker
//!   ([`engine_chrome_trace`]);
//! * per-phase codec timings ([`CodecPhases`]), surfaced by the
//!   `rr-bench` codec harness;
//! * the `<slug>.prof.json` sidecar (schema `rr-prof/v1`), validated by
//!   [`validate_prof_json`].

use crate::trace::{chrome_document, json, Phase, TraceEvent, TraceRing};

/// Current prof-sidecar schema identifier.
pub const PROF_SCHEMA: &str = "rr-prof/v1";

/// Per-worker span cap: a runaway replay cannot exhaust memory through
/// its own profiler. Dropped spans are counted, never silently lost.
pub const SPAN_CAP: usize = 1 << 20;

// ---------------------------------------------------------------------------
// The probe parameter
// ---------------------------------------------------------------------------

/// Instrumentation hooks for the replay engines and the strict chunk
/// decoder, passed to them as a type parameter.
///
/// Every hook has an empty default body; a probe overrides only what it
/// records. `()` is the "profiling off" probe: zero-sized, every hook
/// empty, [`Probe::ENABLED`] `false`.
pub trait Probe: Sized {
    /// Whether the probe records anything. The instrumented paths read
    /// the clock, and test locks for contention, only when this is
    /// `true`, so the `()` build does neither.
    const ENABLED: bool = false;

    /// A fresh probe for pool worker `worker` of the threaded engine. It
    /// comes back through [`Probe::join`] once the worker exits.
    fn fork(&self, _worker: usize) -> Self
    where
        Self: Default,
    {
        Self::default()
    }

    /// Takes back a worker's probe from [`Probe::fork`]; the engine joins
    /// workers in index order.
    fn join(&mut self, _worker: Self) {}

    /// A threaded-engine worker finished a timed activity (ns since the
    /// engine started). `core` and `node` are set for [`SpanKind::Exec`].
    fn span(&mut self, _kind: SpanKind, _start_ns: u64, _dur_ns: u64, _core: u32, _node: u64) {}

    /// A worker is about to take the shared ready-heap lock.
    fn queue_lock(&mut self) {}

    /// A worker took a core's state lock, which another worker held when
    /// `contended`.
    fn core_lock(&mut self, _contended: bool) {}

    /// A worker popped a node with `depth` nodes (itself included) ready.
    fn heap_depth(&mut self, _depth: usize) {}

    /// A worker's interval failed to replay, `at_ns` after engine start.
    fn replay_error(&mut self, _at_ns: u64) {}

    /// The threaded engine joined its pool after `wall_ns`, having been
    /// asked to execute `nodes` DAG nodes.
    fn engine_done(&mut self, _nodes: usize, _wall_ns: u64) {}

    /// The strict decoder spent `ns` in `phase`.
    fn codec_phase(&mut self, _phase: CodecPhase, _ns: u64) {}

    /// The strict decoder finished a chunk of `payload_bytes`.
    fn chunk_decoded(&mut self, _payload_bytes: usize) {}

    /// The sequential replayer made a scheduling decision, stamped with
    /// the interval's recorded `timestamp`.
    fn event(&mut self, _timestamp: u64, _event: TraceEvent) {}
}

/// Profiling off.
impl Probe for () {}

impl Probe for TraceRing {
    const ENABLED: bool = true;

    fn event(&mut self, timestamp: u64, event: TraceEvent) {
        self.push(timestamp, event);
    }
}

// ---------------------------------------------------------------------------
// Codec phase timing
// ---------------------------------------------------------------------------

/// A timed phase of the strict chunk decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecPhase {
    /// Verifying a chunk's CRC.
    Crc,
    /// Batched varint entry decode.
    Entries,
    /// Reserving / growing the output entry buffer.
    Reserve,
}

/// Wall-clock decomposition of a chunked `.rrlog` decode: CRC
/// verification vs varint entry decode vs output-buffer reservation.
///
/// The [`Probe`] the `rr-bench` codec harness passes to
/// [`crate::wire::decode_chunked_into`]; it records one per size so
/// throughput cliffs are attributable to a phase instead of a guess.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecPhases {
    /// Nanoseconds verifying chunk CRCs.
    pub crc_ns: u64,
    /// Nanoseconds in the batched varint entry decode.
    pub entries_ns: u64,
    /// Nanoseconds reserving / growing the output entry buffer.
    pub reserve_ns: u64,
    /// Chunks decoded.
    pub chunks: u64,
    /// Payload bytes decoded.
    pub payload_bytes: u64,
}

impl CodecPhases {
    /// Total attributed nanoseconds across all phases.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.crc_ns + self.entries_ns + self.reserve_ns
    }

    /// Accumulates another decode's phases into this one.
    pub fn merge(&mut self, other: &CodecPhases) {
        self.crc_ns += other.crc_ns;
        self.entries_ns += other.entries_ns;
        self.reserve_ns += other.reserve_ns;
        self.chunks += other.chunks;
        self.payload_bytes += other.payload_bytes;
    }

    /// One-line human summary: each phase's share of the attributed time.
    #[must_use]
    pub fn summary(&self) -> String {
        let total = self.total_ns().max(1) as f64;
        format!(
            "crc {:.1}% varint {:.1}% reserve {:.1}% ({} chunk(s), {} payload B)",
            self.crc_ns as f64 / total * 100.0,
            self.entries_ns as f64 / total * 100.0,
            self.reserve_ns as f64 / total * 100.0,
            self.chunks,
            self.payload_bytes
        )
    }

    /// Renders as a JSON object (the `"phases"` field of a codec bench
    /// row).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::object(|o| self.json_fields(o))
    }

    /// Writes the [`CodecPhases::to_json`] fields into an object.
    pub fn json_fields(&self, o: &mut json::Obj<'_>) {
        o.field("crc_ns", self.crc_ns)
            .field("entries_ns", self.entries_ns)
            .field("reserve_ns", self.reserve_ns)
            .field("chunks", self.chunks)
            .field("payload_bytes", self.payload_bytes);
    }
}

impl Probe for CodecPhases {
    const ENABLED: bool = true;

    fn codec_phase(&mut self, phase: CodecPhase, ns: u64) {
        match phase {
            CodecPhase::Crc => self.crc_ns += ns,
            CodecPhase::Entries => self.entries_ns += ns,
            CodecPhase::Reserve => self.reserve_ns += ns,
        }
    }

    fn chunk_decoded(&mut self, payload_bytes: usize) {
        self.chunks += 1;
        self.payload_bytes += payload_bytes as u64;
    }
}

// ---------------------------------------------------------------------------
// Engine worker timelines
// ---------------------------------------------------------------------------

/// What a replay worker was doing during a [`Span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Executing an interval's ops (holding the core's state lock).
    Exec,
    /// Acquiring the shared ready-heap lock and popping a node
    /// (condvar waits excluded — those are [`SpanKind::DepWait`]).
    QueuePop,
    /// Blocked on the ready condvar while unexecuted intervals remain:
    /// every runnable interval is claimed and this worker's next node
    /// still has unmet dependencies.
    DepWait,
    /// The final wait before pool shutdown (no work will arrive).
    Idle,
}

impl SpanKind {
    /// Stable lower-case name, used in trace events and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Exec => "exec",
            SpanKind::QueuePop => "queue-pop",
            SpanKind::DepWait => "dep-wait",
            SpanKind::Idle => "idle",
        }
    }
}

/// One timed activity of one replay worker, in nanoseconds since engine
/// start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What the worker was doing.
    pub kind: SpanKind,
    /// Start, ns since the engine started.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// For [`SpanKind::Exec`]: the executed interval's core.
    pub core: u32,
    /// For [`SpanKind::Exec`]: the executed interval's DAG node id.
    pub node: u64,
}

/// One worker's complete profile: its span timeline plus engine
/// counters attributed to it.
#[derive(Clone, Debug, Default)]
pub struct WorkerProf {
    /// Worker index in the pool.
    pub worker: usize,
    /// The span timeline, in start order (capped at [`SPAN_CAP`]).
    pub spans: Vec<Span>,
    /// Spans dropped once the cap was hit.
    pub spans_dropped: u64,
    /// Total ns per kind (includes dropped spans' time).
    pub exec_ns: u64,
    /// Total queue-pop ns.
    pub pop_ns: u64,
    /// Total dep-wait ns.
    pub dep_wait_ns: u64,
    /// Total idle ns.
    pub idle_ns: u64,
    /// Shared ready-heap lock acquisitions by this worker.
    pub queue_locks: u64,
    /// Per-core state-mutex acquisitions by this worker.
    pub core_locks: u64,
    /// Core-mutex acquisitions that found the lock held (contention —
    /// should be ~0: same-core intervals are chained in the DAG).
    pub core_locks_contended: u64,
    /// Ready-heap depth observed at each pop (including the popped node).
    pub heap_depth: Vec<u32>,
    /// Intervals executed by this worker.
    pub executed: u64,
}

impl WorkerProf {
    /// A fresh profile for worker `worker`.
    #[must_use]
    pub fn new(worker: usize) -> Self {
        WorkerProf {
            worker,
            ..WorkerProf::default()
        }
    }

    /// Records a span, updating the per-kind totals; the timeline itself
    /// is capped at [`SPAN_CAP`] spans.
    pub fn push_span(&mut self, kind: SpanKind, start_ns: u64, dur_ns: u64, core: u32, node: u64) {
        match kind {
            SpanKind::Exec => self.exec_ns += dur_ns,
            SpanKind::QueuePop => self.pop_ns += dur_ns,
            SpanKind::DepWait => self.dep_wait_ns += dur_ns,
            SpanKind::Idle => self.idle_ns += dur_ns,
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                kind,
                start_ns,
                dur_ns,
                core,
                node,
            });
        } else {
            self.spans_dropped += 1;
        }
    }
}

/// Ready-heap depth distribution across every pop the pool performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapDepthStats {
    /// Number of samples (= intervals executed).
    pub samples: u64,
    /// Median observed depth.
    pub p50: u32,
    /// 95th-percentile observed depth.
    pub p95: u32,
    /// Maximum observed depth.
    pub max: u32,
}

/// The multithreaded replay engine's complete profile: one
/// [`WorkerProf`] per pool worker plus engine-wide counters.
#[derive(Clone, Debug, Default)]
pub struct EngineProf {
    /// Per-worker profiles, index = worker id.
    pub workers: Vec<WorkerProf>,
    /// Engine wall-clock from pool start to pool join, ns.
    pub wall_ns: u64,
    /// DAG nodes the engine was asked to execute.
    pub nodes: usize,
    /// Ns from engine start to the first replay error (if any) — the
    /// first-error latency a divergence report would quote.
    pub first_error_ns: Option<u64>,
}

impl EngineProf {
    /// The one worker a [`Probe::fork`] of the engine probe records into.
    fn worker_mut(&mut self) -> &mut WorkerProf {
        self.workers
            .last_mut()
            .expect("worker hooks run on a forked EngineProf")
    }

    /// Total shared ready-heap lock acquisitions across workers.
    #[must_use]
    pub fn queue_lock_acquisitions(&self) -> u64 {
        self.workers.iter().map(|w| w.queue_locks).sum()
    }

    /// Total contended core-mutex acquisitions across workers.
    #[must_use]
    pub fn core_locks_contended(&self) -> u64 {
        self.workers.iter().map(|w| w.core_locks_contended).sum()
    }

    /// Ready-heap depth distribution over every pop.
    #[must_use]
    pub fn heap_depth_stats(&self) -> HeapDepthStats {
        let mut all: Vec<u32> = self
            .workers
            .iter()
            .flat_map(|w| w.heap_depth.iter().copied())
            .collect();
        if all.is_empty() {
            return HeapDepthStats::default();
        }
        all.sort_unstable();
        let rank = |p: f64| all[(((p / 100.0 * all.len() as f64).ceil() as usize).max(1)) - 1];
        HeapDepthStats {
            samples: all.len() as u64,
            p50: rank(50.0),
            p95: rank(95.0),
            max: *all.last().expect("non-empty"),
        }
    }

    /// Renders the engine profile summary as a JSON object (the
    /// `"engine"` field of a prof-sidecar entry).
    #[must_use]
    pub fn summary_json(&self) -> String {
        json::object(|o| self.summary_fields(o))
    }

    /// Writes the [`EngineProf::summary_json`] fields into an object.
    pub fn summary_fields(&self, o: &mut json::Obj<'_>) {
        let depth = self.heap_depth_stats();
        o.field("workers", self.workers.len())
            .field("wall_ns", self.wall_ns)
            .field("nodes", self.nodes)
            .field("queue_lock_acquisitions", self.queue_lock_acquisitions())
            .field("core_locks_contended", self.core_locks_contended())
            .object("heap_depth", |h| {
                h.field("samples", depth.samples)
                    .field("p50", depth.p50)
                    .field("p95", depth.p95)
                    .field("max", depth.max);
            })
            .field("first_error_ns", self.first_error_ns)
            .array("worker_spans", |a| {
                for w in &self.workers {
                    a.object(|o| {
                        o.field("worker", w.worker)
                            .field("executed", w.executed)
                            .field("exec_ns", w.exec_ns)
                            .field("queue_pop_ns", w.pop_ns)
                            .field("dep_wait_ns", w.dep_wait_ns)
                            .field("idle_ns", w.idle_ns)
                            .field("spans", w.spans.len())
                            .field("spans_dropped", w.spans_dropped);
                    });
                }
            });
    }
}

/// The threaded engine's probe: each pool worker records into a forked
/// `EngineProf` holding just its own [`WorkerProf`], and joining appends
/// that worker, so no worker ever waits on another's profile.
impl Probe for EngineProf {
    const ENABLED: bool = true;

    fn fork(&self, worker: usize) -> Self {
        EngineProf {
            workers: vec![WorkerProf::new(worker)],
            ..EngineProf::default()
        }
    }

    fn join(&mut self, worker: Self) {
        self.workers.extend(worker.workers);
        if let Some(ns) = worker.first_error_ns {
            self.replay_error(ns);
        }
    }

    fn span(&mut self, kind: SpanKind, start_ns: u64, dur_ns: u64, core: u32, node: u64) {
        let w = self.worker_mut();
        w.push_span(kind, start_ns, dur_ns, core, node);
        if kind == SpanKind::Exec {
            w.executed += 1;
        }
    }

    fn queue_lock(&mut self) {
        self.worker_mut().queue_locks += 1;
    }

    fn core_lock(&mut self, contended: bool) {
        let w = self.worker_mut();
        w.core_locks += 1;
        w.core_locks_contended += u64::from(contended);
    }

    fn heap_depth(&mut self, depth: usize) {
        self.worker_mut().heap_depth.push(depth as u32);
    }

    fn replay_error(&mut self, at_ns: u64) {
        self.first_error_ns = Some(self.first_error_ns.map_or(at_ns, |ns| ns.min(at_ns)));
    }

    fn engine_done(&mut self, nodes: usize, wall_ns: u64) {
        self.nodes = nodes;
        self.wall_ns = wall_ns;
    }
}

/// Exports engine profiles as a Chrome trace-event document (through the
/// envelope [`chrome_trace`](crate::trace::chrome_trace) uses too): one
/// *process* per named replay, one *thread*
/// (track) per pool worker, spans as complete (`"X"`) duration events in
/// nanoseconds, and the first error (if any) as an instant event. Load the
/// output in Perfetto or `chrome://tracing`.
#[must_use]
pub fn engine_chrome_trace(runs: &[(String, &EngineProf)]) -> String {
    chrome_document(|doc| {
        for (pid, (name, prof)) in runs.iter().enumerate() {
            doc.name(pid, None, name);
            for w in &prof.workers {
                let tid = w.worker;
                doc.name(pid, Some(tid), &format!("worker {tid}"));
                for span in &w.spans {
                    let name = match span.kind {
                        SpanKind::Exec => format!("exec c{}#{}", span.core, span.node),
                        k => k.name().to_string(),
                    };
                    let phase = Phase::Complete(span.dur_ns);
                    doc.event(phase, (pid, tid), span.start_ns, &name, |_| {});
                }
            }
            if let Some(ns) = prof.first_error_ns {
                doc.event(Phase::Instant("p"), (pid, 0), ns, "first error", |_| {});
            }
        }
    })
}

// ---------------------------------------------------------------------------
// prof.json sidecar validation
// ---------------------------------------------------------------------------

/// Summary of a validated `.prof.json` sidecar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfJsonStats {
    /// Entries (run × variant) in the sidecar.
    pub entries: usize,
    /// Entries carrying an engine (worker-timeline) section.
    pub with_engine: usize,
    /// Total critical-path intervals across entries.
    pub path_intervals: u64,
}

/// Parses `s` as a `rr-prof/v1` sidecar and checks the schema: the
/// `schema` marker, a non-empty `entries` array, and for each entry the
/// `run`/`variant` identity plus a `blame` object whose
/// `attributed_cycles` covers ≥95% of `makespan_cycles` (the subsystem's
/// core guarantee — blame that does not explain the makespan is a bug).
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_prof_json(s: &str) -> Result<ProfJsonStats, String> {
    let v = json::parse(s)?;
    let schema = v
        .get("schema")
        .and_then(json::Value::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != PROF_SCHEMA {
        return Err(format!("schema {schema:?}, expected {PROF_SCHEMA:?}"));
    }
    let entries = v
        .get("entries")
        .and_then(json::Value::as_array)
        .ok_or("missing \"entries\" array")?;
    if entries.is_empty() {
        return Err("\"entries\" is empty".into());
    }
    let mut with_engine = 0usize;
    let mut path_intervals = 0u64;
    for (i, e) in entries.iter().enumerate() {
        let ctx = |what: &str| format!("entry {i}: {what}");
        e.get("run")
            .and_then(json::Value::as_str)
            .ok_or_else(|| ctx("missing \"run\""))?;
        e.get("variant")
            .and_then(json::Value::as_str)
            .ok_or_else(|| ctx("missing \"variant\""))?;
        let blame = e.get("blame").ok_or_else(|| ctx("missing \"blame\""))?;
        let num = |k: &str| {
            blame
                .get(k)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| ctx(&format!("blame missing numeric \"{k}\"")))
        };
        let makespan = num("makespan_cycles")?;
        let attributed = num("attributed_cycles")?;
        if attributed * 100 < makespan * 95 {
            return Err(ctx(&format!(
                "blame attributes only {attributed} of {makespan} makespan cycles (<95%)"
            )));
        }
        path_intervals += num("path_intervals")?;
        for k in ["per_core", "per_kind", "top_intervals"] {
            blame
                .get(k)
                .and_then(json::Value::as_array)
                .ok_or_else(|| ctx(&format!("blame missing \"{k}\" array")))?;
        }
        match e.get("engine") {
            None | Some(json::Value::Null) => {}
            Some(engine) => {
                for k in ["workers", "wall_ns", "queue_lock_acquisitions"] {
                    engine
                        .get(k)
                        .and_then(json::Value::as_u64)
                        .ok_or_else(|| ctx(&format!("engine missing numeric \"{k}\"")))?;
                }
                with_engine += 1;
            }
        }
    }
    Ok(ProfJsonStats {
        entries: entries.len(),
        with_engine,
        path_intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_phases_merge_and_summarize() {
        let mut a = CodecPhases {
            crc_ns: 10,
            entries_ns: 80,
            reserve_ns: 10,
            chunks: 2,
            payload_bytes: 100,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total_ns(), 200);
        assert_eq!(a.chunks, 4);
        assert!(a.summary().contains("crc 10.0%"), "{}", a.summary());
        assert!(a.to_json().contains("\"entries_ns\":160"));
    }

    #[test]
    fn worker_prof_caps_spans_but_keeps_totals() {
        let mut w = WorkerProf::new(0);
        w.push_span(SpanKind::Exec, 0, 5, 1, 7);
        assert_eq!(w.exec_ns, 5);
        assert_eq!(w.spans.len(), 1);
        w.spans.resize(
            SPAN_CAP,
            Span {
                kind: SpanKind::Idle,
                start_ns: 0,
                dur_ns: 0,
                core: 0,
                node: 0,
            },
        );
        w.push_span(SpanKind::Exec, 10, 5, 1, 8);
        assert_eq!(w.spans.len(), SPAN_CAP, "capped");
        assert_eq!(w.spans_dropped, 1);
        assert_eq!(w.exec_ns, 10, "totals still accumulate");
    }

    #[test]
    fn heap_depth_stats_over_two_workers() {
        let mut prof = EngineProf::default();
        let mut a = WorkerProf::new(0);
        a.heap_depth = vec![1, 2, 3];
        let mut b = WorkerProf::new(1);
        b.heap_depth = vec![10];
        prof.workers = vec![a, b];
        let d = prof.heap_depth_stats();
        assert_eq!(d.samples, 4);
        assert_eq!(d.max, 10);
        assert_eq!(d.p50, 2);
    }

    #[test]
    fn engine_chrome_trace_has_one_track_per_worker() {
        let mut prof = EngineProf {
            nodes: 2,
            wall_ns: 100,
            ..EngineProf::default()
        };
        for i in 0..3 {
            let mut w = WorkerProf::new(i);
            w.push_span(SpanKind::Exec, 10 * i as u64, 5, 0, i as u64);
            prof.workers.push(w);
        }
        let chrome = engine_chrome_trace(&[("fft/Opt-4K".to_string(), &prof)]);
        let stats = crate::trace::validate_chrome_trace(&chrome).expect("valid chrome trace");
        assert_eq!(stats.tracks, 3);
        assert!(stats.track_names.iter().any(|n| n == "worker 2"));
    }

    #[test]
    fn prof_json_validation_rejects_thin_blame() {
        let good = format!(
            "{{\"schema\":{:?},\"entries\":[{{\"run\":\"fft\",\"variant\":\"Opt-4K\",\
             \"blame\":{{\"makespan_cycles\":100,\"attributed_cycles\":100,\"path_intervals\":4,\
             \"per_core\":[],\"per_kind\":[],\"top_intervals\":[]}},\"engine\":null}}]}}",
            PROF_SCHEMA
        );
        let stats = validate_prof_json(&good).expect("valid sidecar");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.with_engine, 0);
        assert_eq!(stats.path_intervals, 4);

        let thin = good.replace("\"attributed_cycles\":100", "\"attributed_cycles\":90");
        let err = validate_prof_json(&thin).expect_err("<95% coverage must fail");
        assert!(err.contains("95%"), "{err}");

        assert!(validate_prof_json("{}").is_err());
        assert!(validate_prof_json("not json").is_err());
    }
}
