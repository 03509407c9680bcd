//! # relaxreplay — memory race recording for relaxed-consistency multiprocessors
//!
//! A from-scratch reproduction of **RelaxReplay** (Nima Honarmand and Josep
//! Torrellas, *RelaxReplay: Record and Replay for Relaxed-Consistency
//! Multiprocessors*, ASPLOS 2014): the first complete hardware-assisted
//! memory race recorder that works for any relaxed-consistency memory model
//! with write atomicity.
//!
//! ## The idea
//!
//! Each memory instruction has a **perform** event (when it becomes globally
//! visible) and a post-completion, in-program-order **counting** event.
//! Execution is recorded as **intervals** — the periods between
//! inter-processor communications. For almost every access, the perform
//! event can be *logically moved* forward to its counting event because no
//! other processor observed the access in between; such accesses are logged
//! implicitly as part of a compact `InorderBlock` run. The rare access that
//! *was* observed in between is logged explicitly with its value
//! (`ReorderedLoad`) or its address/value/interval-offset
//! (`ReorderedStore`).
//!
//! Two designs are provided (paper §3.2):
//!
//! * [`Design::Base`] declares an access reordered whenever its perform and
//!   counting events fall in different intervals (PISN ≠ CISN);
//! * [`Design::Opt`] adds a [`SnoopTable`] that tracks observed coherence
//!   transactions, declaring the access reordered only on a genuine
//!   (possibly aliased) conflict — shrinking the log by an order of
//!   magnitude (paper Figure 11).
//!
//! ## Pieces
//!
//! * [`Recorder`] — the per-processor Memory Race Recorder: plugs into an
//!   `rr-cpu` core as its `CoreObserver`, watches coherence snoops, and
//!   emits an [`IntervalLog`] for each design variant it records.
//! * [`Traq`-backed tracking](Recorder) — the Tracking Queue that follows
//!   each access from dispatch to counting (paper Figure 3).
//! * [`Signature`] — Bloom-filter read/write sets for interval termination
//!   (QuickRec-style ordering with a global timestamp).
//! * [`SnoopTable`] — RelaxReplay_Opt's conflict filter.
//! * [`IntervalLog`] / [`LogEntry`] — the log format of paper Figure 6(c),
//!   with bit-exact size accounting and a binary codec.
//! * [`wire`] — the `.rrlog` wire format: the [`LogSink`] trait the
//!   recorder streams into, plus a chunked, CRC32-checksummed,
//!   varint/delta codec that survives truncation and detects corruption.
//!   Logs are read back whole (strict or lenient) into an [`IntervalLog`].
//! * [`trace`] — structured event tracing: bounded per-core timelines of
//!   the recorder's internal decisions (interval opens/closes, perform and
//!   counting events with classification verdicts, coherence traffic),
//!   exportable as JSONL sidecars or Perfetto-loadable Chrome trace JSON.
//! * [`prof`] — self-profiling primitives: per-worker replay-engine span
//!   timelines, codec per-phase timings, and the `rr-prof/v1` sidecar
//!   schema. The trace layer observes the simulated machine; this layer
//!   observes the replayer and codec themselves.
//!
//! Deterministic replay of these logs lives in the `rr-replay` crate; the
//! full simulated machine (cores + coherence + recorders) in `rr-sim`.
//!
//! ```
//! use relaxreplay::{Design, Recorder, RecorderConfig};
//! use rr_mem::CoreId;
//!
//! // Base-4K and Opt-4K of one execution, recorded by one recorder.
//! let configs = [Design::Base, Design::Opt]
//!     .map(|design| RecorderConfig::splash_default(design, Some(4096)));
//! let plan = Recorder::hash_plan(&configs); // shared by every core's recorder
//! let mut rec = Recorder::with_variants(CoreId::new(0), &configs, &plan);
//! // ... attach to a core, run, then:
//! rec.finish(0);
//! for recording in rec.into_recordings() {
//!     assert_eq!(recording.log.intervals(), 0); // nothing was recorded here
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hash;
mod log;
pub mod prof;
mod recorder;
mod signature;
mod snoop_table;
pub mod trace;
mod traq;
pub mod wire;

pub use trace::{
    CloseReason, CountVerdict, RunTrace, TraceConfig, TraceEvent, TraceLevel, TraceRecord,
    TraceRing,
};

pub use crate::log::{IntervalLog, LogEntry};
pub use crate::prof::{
    engine_chrome_trace, validate_prof_json, CodecPhases, EngineProf, Span, SpanKind, WorkerProf,
};
pub use hash::{rr_hash64, HashPlan, LineHashes, H3};
pub use recorder::{
    reduce_orderings, Design, IntervalOrdering, Recorder, RecorderConfig, RecorderStats, Recording,
};
pub use signature::Signature;
pub use snoop_table::{SnoopSample, SnoopTable};
pub use wire::{
    chunk_spans, ChunkInfo, ChunkedWriter, FailingSink, LogSink, Salvage, VecSink, WireError,
};
