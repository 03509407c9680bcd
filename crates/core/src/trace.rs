//! Structured event tracing: per-core timelines of the recorder's (and
//! replayer's) internal decisions, captured into bounded ring buffers and
//! exportable as JSONL sidecars or Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`).
//!
//! The paper's entire argument rests on *event timing* — where each
//! access's perform event lands relative to its counting event, and which
//! intervals a coherence transaction splits. Aggregate counters
//! (`rr-sim`'s metrics) cannot show *which* event sequence caused a Base/
//! Opt disagreement or a replay divergence; this module records the
//! sequence itself:
//!
//! * [`TraceEvent`] — the compact event taxonomy: interval open/close with
//!   CISN, perform/counting events, reordered-access classification
//!   decisions (with the *why*: PISN ≠ CISN vs. Snoop Table conflict),
//!   coherence transactions, Snoop Table activity, replay patch
//!   waits/releases, and verify progress.
//! * [`TraceConfig`] — level + event mask. Tracing is **zero-cost when
//!   disabled**: a recorder without an attached ring does one `Option`
//!   check per hook, and trace capture never feeds back into recording
//!   decisions, so recorded logs are byte-identical with tracing on or
//!   off (pinned by an integration test).
//! * [`TraceRing`] — a bounded per-core ring buffer; when full, the oldest
//!   events are dropped (and counted), so tracing a long run keeps the
//!   most recent window — exactly what divergence forensics needs.
//! * [`RunTrace`] — one ring per core plus a machine-level coherence ring,
//!   with JSONL and Chrome trace-event exporters.
//! * [`json`] — a minimal JSON parser used to validate exported traces and
//!   to convert `trace.jsonl` sidecars back into Perfetto JSON
//!   (`rr-inspect trace`).

use core::fmt;
use std::collections::VecDeque;

use rr_mem::{AccessKind, CoreId};

/// Event-category bits for [`TraceConfig::mask`].
pub mod kind {
    /// Interval open/close events.
    pub const INTERVAL: u32 = 1 << 0;
    /// Perform events and pipeline squashes.
    pub const ACCESS: u32 = 1 << 1;
    /// Counting events with their reordered-classification verdicts.
    pub const CLASSIFY: u32 = 1 << 2;
    /// Coherence transactions (machine-level and per-core snoops).
    pub const COHERENCE: u32 = 1 << 3;
    /// Snoop Table counter bumps (Opt's conflict filter).
    pub const SNOOP_TABLE: u32 = 1 << 4;
    /// Replay-side interval waits and releases.
    pub const REPLAY: u32 = 1 << 5;
    /// Verification progress and divergences.
    pub const VERIFY: u32 = 1 << 6;
    /// Every category.
    pub const ALL: u32 = 0x7F;
}

/// Coarse tracing levels, each a preset event mask.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// No tracing (the default; zero overhead).
    #[default]
    Off,
    /// Interval structure plus replay/verify milestones.
    Intervals,
    /// `Intervals` plus perform/counting/classification events.
    Accesses,
    /// Everything, including coherence and Snoop Table traffic.
    Full,
}

impl TraceLevel {
    /// The event mask this level enables.
    #[must_use]
    pub fn mask(self) -> u32 {
        match self {
            TraceLevel::Off => 0,
            TraceLevel::Intervals => kind::INTERVAL | kind::REPLAY | kind::VERIFY,
            TraceLevel::Accesses => TraceLevel::Intervals.mask() | kind::ACCESS | kind::CLASSIFY,
            TraceLevel::Full => kind::ALL,
        }
    }

    /// Parses a level name (`off`, `intervals`, `accesses`, `full`, or the
    /// digits `0`–`3`), as accepted by `--trace <level>` / `RR_TRACE`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(TraceLevel::Off),
            "intervals" | "1" => Some(TraceLevel::Intervals),
            "accesses" | "2" => Some(TraceLevel::Accesses),
            "full" | "3" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceLevel::Off => write!(f, "off"),
            TraceLevel::Intervals => write!(f, "intervals"),
            TraceLevel::Accesses => write!(f, "accesses"),
            TraceLevel::Full => write!(f, "full"),
        }
    }
}

/// Default per-core ring capacity (events retained per core).
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// Tracing configuration: an event mask plus the per-core ring capacity.
///
/// The default is off. Capture is a pure side channel — enabling it must
/// never change simulation behavior or recorded log bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Bitwise OR of [`kind`] category bits; 0 disables tracing.
    pub mask: u32,
    /// Events retained per ring before the oldest are dropped.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Tracing disabled.
    #[must_use]
    pub fn off() -> Self {
        TraceConfig {
            mask: 0,
            capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// The preset mask for `level` with the default ring capacity.
    #[must_use]
    pub fn level(level: TraceLevel) -> Self {
        TraceConfig {
            mask: level.mask(),
            capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// Everything enabled (the `full` level).
    #[must_use]
    pub fn full() -> Self {
        Self::level(TraceLevel::Full)
    }

    /// Same config with a different ring capacity (clamped to ≥ 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Whether any category is enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }

    /// Whether all of `bits` are enabled.
    #[must_use]
    pub fn wants(&self, bits: u32) -> bool {
        self.mask & bits == bits
    }
}

/// Why an interval terminated (the public mirror of the recorder's
/// internal termination reasons).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// A conflicting coherence transaction (or dirty eviction).
    Conflict,
    /// The configured maximum interval size was reached.
    MaxSize,
    /// The final termination at thread end.
    Final,
    /// A pressure-injection hook forced the close (schedule-exploration
    /// harness; never emitted during normal recording).
    Forced,
}

impl CloseReason {
    /// Stable lower-case name (used in JSONL).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CloseReason::Conflict => "conflict",
            CloseReason::MaxSize => "max_size",
            CloseReason::Final => "final",
            CloseReason::Forced => "forced",
        }
    }
}

/// The recorder's verdict when an access reaches its counting event —
/// including *why* an access was declared reordered (paper §3.2: Base uses
/// the PISN ≠ CISN test alone; Opt additionally consults the Snoop Table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CountVerdict {
    /// Perform and counting events fell in the same interval (PISN = CISN).
    InOrder,
    /// PISN ≠ CISN but no conflicting transaction was observed (Opt):
    /// the perform event moves across intervals to the counting event.
    MovedAcross,
    /// Reordered because PISN ≠ CISN (Base's test).
    ReorderedPisnMismatch,
    /// Reordered because the Snoop Table saw a conflicting transaction
    /// between the perform and counting events (Opt's test).
    ReorderedSnoopConflict,
    /// Conservatively reordered because ≥ u16::MAX coherence transactions
    /// were observed between perform and counting — enough for the 16-bit
    /// Snoop Table counters to have wrapped all the way around, blinding
    /// the both-changed test (Opt only).
    ReorderedSnoopWrap,
}

impl CountVerdict {
    /// Stable lower-case name (used in JSONL).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CountVerdict::InOrder => "in_order",
            CountVerdict::MovedAcross => "moved_across",
            CountVerdict::ReorderedPisnMismatch => "reordered_pisn_mismatch",
            CountVerdict::ReorderedSnoopConflict => "reordered_snoop_conflict",
            CountVerdict::ReorderedSnoopWrap => "reordered_snoop_wrap",
        }
    }

    /// Whether this verdict produced an explicit reordered log entry.
    #[must_use]
    pub fn is_reordered(self) -> bool {
        matches!(
            self,
            CountVerdict::ReorderedPisnMismatch
                | CountVerdict::ReorderedSnoopConflict
                | CountVerdict::ReorderedSnoopWrap
        )
    }
}

fn kind_name(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Load => "load",
        AccessKind::Store => "store",
        AccessKind::Rmw => "rmw",
    }
}

/// One traced event. Compact and `Copy`; the enclosing [`TraceRecord`]
/// carries the cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An interval opened (`ordinal` counts intervals from 0; `cisn` is the
    /// wrapping 16-bit interval sequence number).
    IntervalOpen {
        /// Wrapping interval sequence number.
        cisn: u16,
        /// Non-wrapping interval ordinal.
        ordinal: u64,
    },
    /// An interval closed.
    IntervalClose {
        /// Wrapping interval sequence number.
        cisn: u16,
        /// Non-wrapping interval ordinal.
        ordinal: u64,
        /// Why the interval terminated.
        why: CloseReason,
        /// Instructions counted into the interval so far.
        instrs: u32,
    },
    /// A memory access performed (became globally visible).
    Perform {
        /// Per-core sequence number.
        seq: u64,
        /// Load, store or RMW.
        kind: AccessKind,
        /// Byte address.
        addr: u64,
        /// The interval (CISN) current at perform time — the access's PISN.
        pisn: u16,
    },
    /// A memory access reached its counting event and was classified.
    Count {
        /// Per-core sequence number.
        seq: u64,
        /// Load, store or RMW.
        kind: AccessKind,
        /// Byte address.
        addr: u64,
        /// Interval current at perform time.
        pisn: u16,
        /// Interval current at counting time.
        cisn: u16,
        /// The classification decision and its reason.
        verdict: CountVerdict,
    },
    /// The pipeline squashed every instruction younger than `after_seq`.
    Squash {
        /// Last surviving sequence number.
        after_seq: u64,
    },
    /// A remote coherence transaction was observed by this core.
    Snoop {
        /// Line number (byte address / line size).
        line: u64,
        /// Remote write (true) or read (false).
        is_write: bool,
        /// Whether it conflicted with the current interval's signatures
        /// (conflicts terminate the interval).
        conflict: bool,
    },
    /// The Snoop Table counters covering `line` were bumped (Opt).
    SnoopTableBump {
        /// Line number.
        line: u64,
    },
    /// This core's L1 evicted a dirty line (directory mode).
    DirtyEviction {
        /// Line number.
        line: u64,
        /// Whether the line was in the current interval's signatures.
        conflict: bool,
    },
    /// A machine-level coherence transaction (the bus/directory view; one
    /// instant event per transaction, on the coherence track).
    Coherence {
        /// Requesting core.
        from: u8,
        /// Line number.
        line: u64,
        /// Write (true) or read (false) transaction.
        is_write: bool,
    },
    /// Replay: a thread's next interval had to wait for other threads'
    /// intervals (the patch/schedule order released them first).
    ReplayWait {
        /// The waiting thread.
        core: u8,
        /// Ordinal of the interval about to run.
        ordinal: u64,
        /// The interval's recorded timestamp.
        timestamp: u64,
    },
    /// Replay: an interval was released (executed to completion).
    ReplayRelease {
        /// The thread that ran.
        core: u8,
        /// Ordinal of the interval within its thread.
        ordinal: u64,
        /// The interval's recorded timestamp.
        timestamp: u64,
        /// Cumulative loads/RMWs this thread has replayed afterwards —
        /// forensics uses this to locate the interval containing a
        /// divergent load index.
        loads_done: u64,
    },
    /// Verification checked one thread's whole load trace.
    VerifyProgress {
        /// The verified thread.
        core: u8,
        /// Loads compared.
        loads_checked: u64,
    },
    /// Verification found a divergence.
    Divergence {
        /// The diverging thread.
        core: u8,
        /// Load index in program order.
        index: u64,
        /// Value during recording.
        recorded: u64,
        /// Value during replay.
        replayed: u64,
    },
}

impl TraceEvent {
    /// The [`kind`] category bit this event belongs to.
    #[must_use]
    pub fn kind_mask(&self) -> u32 {
        match self {
            TraceEvent::IntervalOpen { .. } | TraceEvent::IntervalClose { .. } => kind::INTERVAL,
            TraceEvent::Perform { .. } | TraceEvent::Squash { .. } => kind::ACCESS,
            TraceEvent::Count { .. } => kind::CLASSIFY,
            TraceEvent::Snoop { .. }
            | TraceEvent::DirtyEviction { .. }
            | TraceEvent::Coherence { .. } => kind::COHERENCE,
            TraceEvent::SnoopTableBump { .. } => kind::SNOOP_TABLE,
            TraceEvent::ReplayWait { .. } | TraceEvent::ReplayRelease { .. } => kind::REPLAY,
            TraceEvent::VerifyProgress { .. } | TraceEvent::Divergence { .. } => kind::VERIFY,
        }
    }
}

/// One payload field type of [`TraceEvent`]: how a JSONL line writes and
/// reads it.
trait EventField: Sized {
    fn write(self, o: &mut json::Obj<'_>, key: &str);
    fn read(v: &json::Value, key: &str) -> Result<Self, String>;
}

macro_rules! uint_field {
    ($($t:ty),*) => {$(
        impl EventField for $t {
            fn write(self, o: &mut json::Obj<'_>, key: &str) {
                o.field(key, self);
            }
            fn read(v: &json::Value, key: &str) -> Result<Self, String> {
                let n = v
                    .get(key)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("missing or non-numeric \"{key}\""))?;
                <$t>::try_from(n).map_err(|_| format!("\"{key}\" exceeds {}", stringify!($t)))
            }
        }
    )*};
}
uint_field!(u8, u16, u32, u64);

impl EventField for bool {
    fn write(self, o: &mut json::Obj<'_>, key: &str) {
        o.field(key, self);
    }
    fn read(v: &json::Value, key: &str) -> Result<Self, String> {
        v.get(key)
            .and_then(json::Value::as_bool)
            .ok_or_else(|| format!("missing or non-bool \"{key}\""))
    }
}

/// Enum fields travel as their stable names; `all` lists every value.
macro_rules! named_field {
    ($($t:ty: $name:expr, $all:expr;)*) => {$(
        impl EventField for $t {
            fn write(self, o: &mut json::Obj<'_>, key: &str) {
                o.field(key, $name(self));
            }
            fn read(v: &json::Value, key: &str) -> Result<Self, String> {
                let s = v
                    .get(key)
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| format!("missing or non-string \"{key}\""))?;
                $all.into_iter()
                    .find(|&x| $name(x) == s)
                    .ok_or_else(|| format!("unknown \"{key}\" value {s:?}"))
            }
        }
    )*};
}
named_field! {
    AccessKind: kind_name, [AccessKind::Load, AccessKind::Store, AccessKind::Rmw];
    CloseReason: CloseReason::name,
        [CloseReason::Conflict, CloseReason::MaxSize, CloseReason::Final, CloseReason::Forced];
    CountVerdict: CountVerdict::name, [
        CountVerdict::InOrder,
        CountVerdict::MovedAcross,
        CountVerdict::ReorderedPisnMismatch,
        CountVerdict::ReorderedSnoopConflict,
        CountVerdict::ReorderedSnoopWrap,
    ];
}

/// Declares each event's JSONL `type` name and payload fields, in order,
/// once: [`TraceEvent::type_name`], the JSONL writer and
/// [`record_from_jsonl`] are generated from it, so they cannot disagree,
/// and a field added to an event fails to compile until it is listed.
macro_rules! event_schema {
    ($($variant:ident = $name:literal { $($field:ident),* };)*) => {
        impl TraceEvent {
            /// Stable snake-case type name (the `"type"` field in JSONL).
            #[must_use]
            pub fn type_name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)*
                }
            }

            /// Writes this event's payload fields (no `type`, `core`, or
            /// `cycle`).
            fn json_fields(&self, o: &mut json::Obj<'_>) {
                match *self {
                    $(TraceEvent::$variant { $($field),* } => {
                        $(EventField::write($field, o, stringify!($field));)*
                    })*
                }
            }

            /// Reads the payload of an event of type `name` from a JSONL
            /// object.
            fn from_json(name: &str, v: &json::Value) -> Result<Self, String> {
                match name {
                    $($name => Ok(TraceEvent::$variant {
                        $($field: EventField::read(v, stringify!($field))?),*
                    }),)*
                    other => Err(format!("unknown event type {other:?}")),
                }
            }
        }
    };
}

// The replay and verify events' payload `core` shares its key with the
// record's own `core`; both carry the same value on the replay ring, so
// the reader's first-key lookup is lossless.
event_schema! {
    IntervalOpen = "interval_open" { cisn, ordinal };
    IntervalClose = "interval_close" { cisn, ordinal, why, instrs };
    Perform = "perform" { seq, kind, addr, pisn };
    Count = "count" { seq, kind, addr, pisn, cisn, verdict };
    Squash = "squash" { after_seq };
    Snoop = "snoop" { line, is_write, conflict };
    SnoopTableBump = "snoop_table_bump" { line };
    DirtyEviction = "dirty_eviction" { line, conflict };
    Coherence = "coherence" { from, line, is_write };
    ReplayWait = "replay_wait" { core, ordinal, timestamp };
    ReplayRelease = "replay_release" { core, ordinal, timestamp, loads_done };
    VerifyProgress = "verify_progress" { core, loads_checked };
    Divergence = "divergence" { core, index, recorded, replayed };
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::IntervalOpen { cisn, ordinal } => {
                write!(f, "interval #{ordinal} open (cisn {cisn})")
            }
            TraceEvent::IntervalClose {
                cisn,
                ordinal,
                why,
                instrs,
            } => write!(
                f,
                "interval #{ordinal} close (cisn {cisn}, {}, {instrs} instrs)",
                why.name()
            ),
            TraceEvent::Perform {
                seq,
                kind,
                addr,
                pisn,
            } => write!(
                f,
                "perform {} seq {seq} addr {addr:#x} (pisn {pisn})",
                kind_name(kind)
            ),
            TraceEvent::Count {
                seq,
                kind,
                addr,
                pisn,
                cisn,
                verdict,
            } => write!(
                f,
                "count {} seq {seq} addr {addr:#x} pisn {pisn} cisn {cisn} -> {}",
                kind_name(kind),
                verdict.name()
            ),
            TraceEvent::Squash { after_seq } => write!(f, "squash after seq {after_seq}"),
            TraceEvent::Snoop {
                line,
                is_write,
                conflict,
            } => write!(
                f,
                "snoop {} line {line:#x}{}",
                if is_write { "write" } else { "read" },
                if conflict { " (conflict)" } else { "" }
            ),
            TraceEvent::SnoopTableBump { line } => write!(f, "snoop-table bump line {line:#x}"),
            TraceEvent::DirtyEviction { line, conflict } => write!(
                f,
                "dirty eviction line {line:#x}{}",
                if conflict { " (conflict)" } else { "" }
            ),
            TraceEvent::Coherence {
                from,
                line,
                is_write,
            } => write!(
                f,
                "coherence {} from P{from} line {line:#x}",
                if is_write { "write" } else { "read" }
            ),
            TraceEvent::ReplayWait {
                core,
                ordinal,
                timestamp,
            } => write!(f, "replay wait P{core} interval #{ordinal} (ts {timestamp})"),
            TraceEvent::ReplayRelease {
                core,
                ordinal,
                timestamp,
                loads_done,
            } => write!(
                f,
                "replay release P{core} interval #{ordinal} (ts {timestamp}, {loads_done} loads done)"
            ),
            TraceEvent::VerifyProgress { core, loads_checked } => {
                write!(f, "verify P{core}: {loads_checked} loads checked")
            }
            TraceEvent::Divergence {
                core,
                index,
                recorded,
                replayed,
            } => write!(
                f,
                "DIVERGENCE P{core} load #{index}: recorded {recorded:#x}, replayed {replayed:#x}"
            ),
        }
    }
}

/// One captured event with its cycle (record side) or logical timestamp
/// (replay side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle (or replay timestamp) at capture.
    pub cycle: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders this record as one JSONL object with its owning core id.
    #[must_use]
    pub fn to_json(&self, core: u8) -> String {
        json::object(|o| self.json_fields(o, core))
    }

    /// Writes this record's JSONL fields: `core`, `cycle`, `type`, then
    /// the event payload.
    fn json_fields(&self, o: &mut json::Obj<'_>, core: u8) {
        o.field("core", core)
            .field("cycle", self.cycle)
            .field("type", self.event.type_name());
        self.event.json_fields(o);
    }
}

/// The pseudo core id used for rings that are not tied to one core (the
/// coherence ring and the replay ring).
pub const MACHINE_CORE: u8 = u8::MAX;

/// A bounded ring buffer of trace records for one core (or for the
/// machine/replay pseudo-core [`MACHINE_CORE`]).
///
/// Pushing past capacity drops the oldest record and counts it in
/// [`TraceRing::dropped`] — tracing never grows unboundedly and always
/// retains the most recent window.
#[derive(Clone, Debug)]
pub struct TraceRing {
    core: CoreId,
    mask: u32,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl TraceRing {
    /// An empty ring for `core` under `cfg`'s mask and capacity.
    #[must_use]
    pub fn new(core: CoreId, cfg: &TraceConfig) -> Self {
        TraceRing {
            core,
            mask: cfg.mask,
            capacity: cfg.capacity.max(1),
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The ring's core.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Whether the ring captures events in all of `bits` categories.
    #[must_use]
    pub fn wants(&self, bits: u32) -> bool {
        self.mask & bits == bits
    }

    /// Captures `event` at `cycle` if its category is enabled, evicting
    /// the oldest record when the ring is full.
    pub fn push(&mut self, cycle: u64, event: TraceEvent) {
        if self.mask & event.kind_mask() == 0 {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { cycle, event });
    }

    /// Records currently held, oldest first.
    #[must_use]
    pub fn records(&self) -> &VecDeque<TraceRecord> {
        &self.records
    }

    /// Number of records currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Everything one traced run captured: a ring per core plus a machine-level
/// coherence ring.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Per-core rings, index = core id.
    pub cores: Vec<TraceRing>,
    /// Machine-level coherence transactions (core = [`MACHINE_CORE`]).
    pub coherence: TraceRing,
}

impl RunTrace {
    /// An empty trace for `num_cores` cores under `cfg`.
    #[must_use]
    pub fn new(num_cores: usize, cfg: &TraceConfig) -> Self {
        RunTrace {
            cores: (0..num_cores)
                .map(|i| TraceRing::new(CoreId::new(i as u8), cfg))
                .collect(),
            coherence: TraceRing::new(CoreId::new(MACHINE_CORE), cfg),
        }
    }

    /// Total records held across all rings.
    #[must_use]
    pub fn total_records(&self) -> usize {
        self.cores.iter().map(TraceRing::len).sum::<usize>() + self.coherence.len()
    }

    /// Renders every ring as JSONL, one object per line. When `run` is
    /// non-empty each line opens with a `"run"` identity field, so
    /// sidecars aggregating several runs stay self-describing.
    #[must_use]
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::new();
        for ring in self.cores.iter().chain(std::iter::once(&self.coherence)) {
            let core = ring.core().index() as u8;
            for r in ring.records() {
                json::write_object(&mut out, |o| {
                    if !run.is_empty() {
                        o.field("run", run);
                    }
                    r.json_fields(o, core);
                });
                out.push('\n');
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event (Perfetto) export
// ---------------------------------------------------------------------------

/// Renders one Chrome trace-event document,
/// `{"traceEvents":[...],"displayTimeUnit":"ns"}` (Perfetto, `chrome://tracing`),
/// with the events `events` writes: the one envelope of [`chrome_trace`]
/// and [`engine_chrome_trace`](crate::prof::engine_chrome_trace).
#[must_use]
pub(crate) fn chrome_document(events: impl FnOnce(&mut ChromeEvents<'_, '_>)) -> String {
    json::object(|doc| {
        doc.array("traceEvents", |arr| events(&mut ChromeEvents(arr)))
            .field("displayTimeUnit", "ns");
    })
}

/// The `traceEvents` array of a [`chrome_document`] being written.
pub(crate) struct ChromeEvents<'w, 'o>(&'w mut json::Arr<'o>);

/// A complete (`"X"`) event of the given duration, or an instant (`"i"`)
/// of the given scope (`"t"` thread, `"p"` process).
#[derive(Clone, Copy)]
pub(crate) enum Phase<'a> {
    Complete(u64),
    Instant(&'a str),
}

impl ChromeEvents<'_, '_> {
    /// Names process `pid` or, given a `tid`, that track of it (a
    /// `process_name` or `thread_name` metadata event).
    pub(crate) fn name(&mut self, pid: usize, tid: Option<usize>, name: &str) {
        let kind = if tid.is_some() {
            "thread_name"
        } else {
            "process_name"
        };
        self.0.object(|e| {
            e.field("ph", "M")
                .field("pid", pid)
                .field("tid", tid.unwrap_or(0))
                .field("name", kind)
                .object("args", |a| {
                    a.field("name", name);
                });
        });
    }

    /// One event at `ts` on track `tid` of process `pid`; `extra` writes
    /// any fields after `name` (such as `args`).
    pub(crate) fn event(
        &mut self,
        phase: Phase<'_>,
        (pid, tid): (usize, usize),
        ts: u64,
        name: &str,
        extra: impl FnOnce(&mut json::Obj<'_>),
    ) {
        self.0.object(|e| {
            match phase {
                Phase::Complete(_) => e.field("ph", "X"),
                Phase::Instant(scope) => e.field("ph", "i").field("s", scope),
            };
            e.field("pid", pid).field("tid", tid).field("ts", ts);
            if let Phase::Complete(dur) = phase {
                e.field("dur", dur);
            }
            e.field("name", name);
            extra(e);
        });
    }
}

/// Exports one or more named run traces as a Chrome trace-event document
/// (through the one envelope every Chrome export shares).
///
/// Layout: one *process* per run, one *thread* (track) per core, plus a
/// dedicated coherence track. Intervals become complete (`"X"`) duration
/// events paired by ordinal — robust against ring eviction dropping an
/// open while keeping its close — and everything else becomes an instant
/// (`"i"`) event with its payload under `args`.
#[must_use]
pub fn chrome_trace(runs: &[(String, &RunTrace)]) -> String {
    chrome_document(|doc| {
        for (pid, (name, trace)) in runs.iter().enumerate() {
            doc.name(pid, None, name);
            for ring in trace.cores.iter().chain(std::iter::once(&trace.coherence)) {
                let tid = ring.core().index();
                let track = if tid == MACHINE_CORE as usize {
                    "coherence".to_string()
                } else {
                    format!("core {tid}")
                };
                doc.name(pid, Some(tid), &track);
                // Pair interval opens and closes by ordinal.
                let mut open_at = std::collections::BTreeMap::new();
                for r in ring.records() {
                    match r.event {
                        TraceEvent::IntervalOpen { ordinal, .. } => {
                            open_at.insert(ordinal, r.cycle);
                        }
                        TraceEvent::IntervalClose {
                            cisn,
                            ordinal,
                            why,
                            instrs,
                        } => {
                            let ts = open_at.remove(&ordinal).unwrap_or(r.cycle);
                            let span = Phase::Complete(r.cycle.saturating_sub(ts));
                            doc.event(span, (pid, tid), ts, &format!("interval {ordinal}"), |e| {
                                e.object("args", |a| {
                                    a.field("cisn", cisn)
                                        .field("why", why.name())
                                        .field("instrs", instrs);
                                });
                            });
                        }
                        ev => doc.event(
                            Phase::Instant("t"),
                            (pid, tid),
                            r.cycle,
                            ev.type_name(),
                            |e| {
                                e.object("args", |a| {
                                    a.field("detail", ev.to_string());
                                });
                            },
                        ),
                    }
                }
                // An interval left open (no close captured) still gets a mark.
                for (ordinal, ts) in open_at {
                    let name = format!("interval {ordinal} (unclosed)");
                    doc.event(Phase::Instant("t"), (pid, tid), ts, &name, |e| {
                        e.object("args", |_| {});
                    });
                }
            }
        }
    })
}

/// Summary of a validated Chrome trace (see [`validate_chrome_trace`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChromeStats {
    /// Total events in `traceEvents` (metadata included).
    pub events: usize,
    /// Distinct processes (runs).
    pub processes: usize,
    /// Distinct `(pid, tid)` tracks.
    pub tracks: usize,
    /// Every `thread_name` metadata value, sorted.
    pub track_names: Vec<String>,
}

/// Parses `s` as Chrome trace-event JSON and checks the schema: a top-level
/// object with a `traceEvents` array whose every element is an object with
/// a string `ph`, numeric `pid`/`tid`, and (for non-metadata phases) a
/// numeric `ts`.
///
/// # Errors
///
/// Returns a description of the first schema violation.
pub fn validate_chrome_trace(s: &str) -> Result<ChromeStats, String> {
    let v = json::parse(s)?;
    v.as_object().ok_or("top level is not a JSON object")?;
    let events = v
        .get("traceEvents")
        .ok_or("missing \"traceEvents\"")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut tracks = std::collections::BTreeSet::new();
    let mut processes = std::collections::BTreeSet::new();
    let mut track_names = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        ev.as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |name: &str| {
            ev.get(name)
                .ok_or_else(|| format!("event {i} missing \"{name}\""))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: \"ph\" is not a string"))?
            .to_string();
        let pid = field("pid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: \"pid\" is not a number"))?;
        let tid = field("tid")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: \"tid\" is not a number"))?;
        processes.insert(pid);
        if ph == "M" {
            let name = field("name")?
                .as_str()
                .ok_or_else(|| format!("event {i}: metadata \"name\" is not a string"))?;
            if name == "thread_name" {
                tracks.insert((pid, tid));
                if let Some(n) = ev.get("args").and_then(|a| a.get("name")) {
                    track_names.extend(n.as_str().map(str::to_string));
                }
            }
            continue;
        }
        field("ts")?
            .as_u64()
            .ok_or_else(|| format!("event {i}: \"ts\" is not a number"))?;
        if ph == "X" {
            field("dur")?
                .as_u64()
                .ok_or_else(|| format!("event {i}: \"dur\" is not a number"))?;
        }
        if !matches!(ph.as_str(), "X" | "i" | "B" | "E" | "C") {
            return Err(format!("event {i}: unexpected phase {ph:?}"));
        }
    }
    track_names.sort();
    Ok(ChromeStats {
        events: events.len(),
        processes: processes.len(),
        tracks: tracks.len(),
        track_names,
    })
}

/// Rebuilds a [`TraceRecord`] (plus its run and core identity) from one
/// `trace.jsonl` line, for tooling that converts sidecars back into
/// Perfetto JSON. Returns `(run, core, record)`; `run` is empty when the
/// line carries no `"run"` field.
///
/// # Errors
///
/// Returns a description of the first malformed or unknown field.
pub fn record_from_jsonl(line: &str) -> Result<(String, u8, TraceRecord), String> {
    let v = json::parse(line)?;
    v.as_object().ok_or("line is not a JSON object")?;
    let run = v
        .get("run")
        .and_then(json::Value::as_str)
        .unwrap_or("")
        .to_string();
    let ty = v
        .get("type")
        .and_then(json::Value::as_str)
        .ok_or("missing or non-string \"type\"")?;
    let record = TraceRecord {
        cycle: EventField::read(&v, "cycle")?,
        event: TraceEvent::from_json(ty, &v)?,
    };
    Ok((run, EventField::read(&v, "core")?, record))
}

/// Converts a `trace.jsonl` sidecar (as written by [`RunTrace::to_jsonl`])
/// back into Chrome trace-event JSON — the `rr-inspect trace` conversion.
///
/// Lines are grouped by their `"run"` field (first-seen order); records on
/// [`MACHINE_CORE`] land on each run's coherence/replay track. Blank lines
/// are skipped.
///
/// # Errors
///
/// Returns `line <n>: <detail>` for the first malformed line.
pub fn chrome_trace_from_jsonl(input: &str) -> Result<String, String> {
    let mut parsed: Vec<(String, u8, TraceRecord)> = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        parsed.push(record_from_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    let cfg = TraceConfig::full().with_capacity(parsed.len().max(1));
    let mut order: Vec<String> = Vec::new();
    for (run, _, _) in &parsed {
        if !order.iter().any(|r| r == run) {
            order.push(run.clone());
        }
    }
    let mut traces: Vec<RunTrace> = Vec::new();
    for run in &order {
        let cores = parsed
            .iter()
            .filter(|(r, c, _)| r == run && *c != MACHINE_CORE)
            .map(|(_, c, _)| *c as usize + 1)
            .max()
            .unwrap_or(0);
        let mut t = RunTrace::new(cores, &cfg);
        for (r, c, rec) in &parsed {
            if r != run {
                continue;
            }
            if *c == MACHINE_CORE {
                t.coherence.push(rec.cycle, rec.event);
            } else {
                t.cores[*c as usize].push(rec.cycle, rec.event);
            }
        }
        traces.push(t);
    }
    let pairs: Vec<(String, &RunTrace)> = order.into_iter().zip(traces.iter()).collect();
    Ok(chrome_trace(&pairs))
}

// ---------------------------------------------------------------------------
// Minimal JSON writer and parser (no external deps)
// ---------------------------------------------------------------------------

/// The one JSON writer every sidecar, Chrome trace and bench document is
/// built with ([`object`](json::object)), beside a small recursive-descent
/// parser that validates Chrome traces and reads `trace.jsonl` sidecars
/// back without external crates.
///
/// Integers that fit `u64` are preserved exactly
/// ([`Value::UInt`](json::Value::UInt)); other numbers fall back to `f64`.
pub mod json {
    use std::fmt::Write as _;

    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// A non-negative integer that fits `u64`, preserved exactly.
        UInt(u64),
        /// Any other number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, as key/value pairs in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The value as a `u64`, if it is a non-negative integer.
        #[must_use]
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::UInt(n) => Some(*n),
                Value::Num(f) if *f >= 0.0 && f.fract() == 0.0 && *f <= u64::MAX as f64 => {
                    Some(*f as u64)
                }
                _ => None,
            }
        }

        /// The value as a string slice, if it is a string.
        #[must_use]
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as a bool, if it is one.
        #[must_use]
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value's fields, if it is an object.
        #[must_use]
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        /// The value's elements, if it is an array.
        #[must_use]
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }

        /// Looks up a key, if the value is an object.
        #[must_use]
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object()?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        }
    }

    /// Escapes `s` as a JSON string literal (with quotes).
    #[must_use]
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        write_str(&mut out, s);
        out
    }

    /// Appends `s` to `out` as a JSON string literal (with quotes).
    fn write_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// A value [`Obj::field`] and [`Arr::item`] write as one JSON scalar.
    pub trait Scalar {
        /// Appends this value's JSON text to `out`.
        fn write_to(&self, out: &mut String);
    }

    macro_rules! display_scalar {
        ($($t:ty),*) => {$(
            impl Scalar for $t {
                fn write_to(&self, out: &mut String) {
                    let _ = write!(out, "{self}");
                }
            }
        )*};
    }
    display_scalar!(bool, u8, u16, u32, u64, usize);

    /// Finite floats in Rust's shortest round-trip form; NaN and the
    /// infinities, which JSON cannot express, as `null`.
    impl Scalar for f64 {
        fn write_to(&self, out: &mut String) {
            if self.is_finite() {
                let _ = write!(out, "{self}");
            } else {
                out.push_str("null");
            }
        }
    }

    impl Scalar for str {
        fn write_to(&self, out: &mut String) {
            write_str(out, self);
        }
    }

    impl Scalar for String {
        fn write_to(&self, out: &mut String) {
            write_str(out, self);
        }
    }

    impl<T: Scalar + ?Sized> Scalar for &T {
        fn write_to(&self, out: &mut String) {
            (**self).write_to(out);
        }
    }

    /// `None` is written as `null`.
    impl<T: Scalar> Scalar for Option<T> {
        fn write_to(&self, out: &mut String) {
            match self {
                Some(v) => v.write_to(out),
                None => out.push_str("null"),
            }
        }
    }

    /// An `f64` written with a fixed number of decimals (`Fixed(2.345, 1)`
    /// is `2.3`); not-finite values are written as `null`.
    #[derive(Clone, Copy, Debug)]
    pub struct Fixed(pub f64, pub usize);

    impl Scalar for Fixed {
        fn write_to(&self, out: &mut String) {
            if self.0.is_finite() {
                let _ = write!(out, "{:.*}", self.1, self.0);
            } else {
                out.push_str("null");
            }
        }
    }

    /// The fields of one JSON object being written; see [`object`].
    pub struct Obj<'a> {
        out: &'a mut String,
        first: bool,
    }

    /// Writes the `,` before every element but the first; returns `out`.
    fn next<'s>(out: &'s mut String, first: &mut bool) -> &'s mut String {
        if !std::mem::take(first) {
            out.push(',');
        }
        out
    }

    impl Obj<'_> {
        /// Writes `"key":` after the separator, returning the buffer for
        /// the value.
        fn key(&mut self, key: &str) -> &mut String {
            let out = next(self.out, &mut self.first);
            write_str(out, key);
            out.push(':');
            out
        }

        /// Writes `"key":value`.
        pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
            value.write_to(self.key(key));
            self
        }

        /// Writes `"key":{..}` with the fields `fields` writes.
        pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
            write_object(self.key(key), fields);
            self
        }

        /// Writes `"key":[..]` with the items `items` writes.
        pub fn array(&mut self, key: &str, items: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
            let out = self.key(key);
            out.push('[');
            items(&mut Arr { out, first: true });
            out.push(']');
            self
        }
    }

    /// The items of one JSON array being written; see [`Obj::array`].
    pub struct Arr<'a> {
        out: &'a mut String,
        first: bool,
    }

    impl Arr<'_> {
        /// Writes one scalar item.
        pub fn item(&mut self, value: impl Scalar) -> &mut Self {
            value.write_to(next(self.out, &mut self.first));
            self
        }

        /// Writes one object item, its fields written by `fields`.
        pub fn object(&mut self, fields: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
            write_object(next(self.out, &mut self.first), fields);
            self
        }
    }

    /// Appends one JSON object to `out`, its fields written by `fields`.
    pub(crate) fn write_object(out: &mut String, fields: impl FnOnce(&mut Obj<'_>)) {
        out.push('{');
        fields(&mut Obj { out, first: true });
        out.push('}');
    }

    /// Renders one JSON object, its fields written by `fields`:
    ///
    /// ```
    /// use relaxreplay::trace::json;
    /// let doc = json::object(|o| {
    ///     o.field("name", "a\"b").field("n", 3u64).array("xs", |a| {
    ///         a.item(1.5).item(f64::NAN);
    ///     });
    /// });
    /// assert_eq!(doc, r#"{"name":"a\"b","n":3,"xs":[1.5,null]}"#);
    /// ```
    #[must_use]
    pub fn object(fields: impl FnOnce(&mut Obj<'_>)) -> String {
        let mut out = String::new();
        write_object(&mut out, fields);
        out
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parses one complete JSON value from `s` (trailing whitespace
    /// allowed, trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a description with a byte offset on malformed input.
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn err(&self, what: &str) -> String {
            format!("{what} at byte {}", self.pos)
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(self.err("invalid literal"))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.err("unexpected character")),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let v = self.value()?;
                fields.push((key, v));
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b't') => out.push('\t'),
                            Some(b'r') => out.push('\r'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let hex = std::str::from_utf8(hex)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("bad \\u escape"))?;
                                // Surrogates degrade to the replacement char;
                                // trace strings never contain them.
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                        let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.bytes.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            let mut is_integer = true;
            while let Some(&b) = self.bytes.get(self.pos) {
                match b {
                    b'0'..=b'9' => self.pos += 1,
                    b'.' | b'e' | b'E' | b'+' | b'-' => {
                        is_integer = false;
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| self.err("bad number"))?;
            if is_integer && !text.starts_with('-') {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::UInt(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| self.err("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_full() -> TraceConfig {
        TraceConfig::full()
    }

    #[test]
    fn levels_nest() {
        assert_eq!(TraceLevel::Off.mask(), 0);
        let i = TraceLevel::Intervals.mask();
        let a = TraceLevel::Accesses.mask();
        let f = TraceLevel::Full.mask();
        assert_eq!(i & a, i, "accesses includes intervals");
        assert_eq!(a & f, a, "full includes accesses");
        assert_eq!(f, kind::ALL);
        assert_eq!(TraceLevel::parse("Accesses"), Some(TraceLevel::Accesses));
        assert_eq!(TraceLevel::parse("2"), Some(TraceLevel::Accesses));
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let cfg = cfg_full().with_capacity(3);
        let mut ring = TraceRing::new(CoreId::new(0), &cfg);
        for i in 0..10 {
            ring.push(i, TraceEvent::Squash { after_seq: i });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 7);
        let cycles: Vec<u64> = ring.records().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9], "keeps the newest window");
    }

    #[test]
    fn mask_filters_categories() {
        let cfg = TraceConfig {
            mask: kind::INTERVAL,
            capacity: 16,
        };
        let mut ring = TraceRing::new(CoreId::new(0), &cfg);
        ring.push(1, TraceEvent::Squash { after_seq: 0 }); // ACCESS: filtered
        ring.push(
            2,
            TraceEvent::IntervalOpen {
                cisn: 0,
                ordinal: 0,
            },
        );
        assert_eq!(ring.len(), 1);
        assert!(ring.wants(kind::INTERVAL));
        assert!(!ring.wants(kind::ACCESS));
    }

    #[test]
    fn jsonl_lines_parse_and_round_trip() {
        let cfg = cfg_full();
        let mut trace = RunTrace::new(2, &cfg);
        trace.cores[0].push(
            5,
            TraceEvent::Count {
                seq: 9,
                kind: AccessKind::Rmw,
                addr: 0x208,
                pisn: 3,
                cisn: 4,
                verdict: CountVerdict::ReorderedSnoopConflict,
            },
        );
        trace.cores[1].push(
            6,
            TraceEvent::Perform {
                seq: 1,
                kind: AccessKind::Load,
                addr: u64::MAX,
                pisn: 0,
            },
        );
        trace.coherence.push(
            7,
            TraceEvent::Coherence {
                from: 1,
                line: 8,
                is_write: true,
            },
        );
        // Every other event kind, on the replay ring as the replayer
        // pushes them (their payload `core` matches the ring's).
        for ev in [
            TraceEvent::IntervalOpen {
                cisn: 1,
                ordinal: 2,
            },
            TraceEvent::IntervalClose {
                cisn: 1,
                ordinal: 2,
                why: CloseReason::Forced,
                instrs: 7,
            },
            TraceEvent::Squash { after_seq: 3 },
            TraceEvent::Snoop {
                line: 4,
                is_write: false,
                conflict: true,
            },
            TraceEvent::SnoopTableBump { line: 5 },
            TraceEvent::DirtyEviction {
                line: 6,
                conflict: false,
            },
            TraceEvent::ReplayWait {
                core: MACHINE_CORE,
                ordinal: 1,
                timestamp: 2,
            },
            TraceEvent::ReplayRelease {
                core: MACHINE_CORE,
                ordinal: 1,
                timestamp: 2,
                loads_done: 3,
            },
            TraceEvent::VerifyProgress {
                core: MACHINE_CORE,
                loads_checked: 4,
            },
            TraceEvent::Divergence {
                core: MACHINE_CORE,
                index: 5,
                recorded: 6,
                replayed: 7,
            },
        ] {
            trace.coherence.push(8, ev);
        }
        let jsonl = trace.to_jsonl("demo");
        assert_eq!(jsonl.lines().count(), 13);
        for line in jsonl.lines() {
            let (run, _core, rec) = record_from_jsonl(line).expect("parses");
            assert_eq!(run, "demo");
            // Find the original record and compare exactly (u64::MAX must
            // survive the JSON round trip).
            let all: Vec<TraceRecord> = trace
                .cores
                .iter()
                .chain(std::iter::once(&trace.coherence))
                .flat_map(|r| r.records().iter().copied())
                .collect();
            assert!(all.contains(&rec), "{line}");
        }
        for bad in [
            r#"{"core":0,"cycle":1,"type":"perform","seq":1,"kind":"fly","addr":0,"pisn":0}"#,
            r#"{"core":0,"cycle":1,"type":"interval_open","cisn":65536,"ordinal":0}"#,
            r#"{"core":256,"cycle":1,"type":"squash","after_seq":0}"#,
            r#"{"core":0,"cycle":1,"type":"snoop","line":1,"is_write":1,"conflict":true}"#,
            r#"{"core":0,"cycle":1,"type":"warp","line":1}"#,
        ] {
            assert!(record_from_jsonl(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn jsonl_sidecar_converts_to_a_valid_chrome_trace() {
        let cfg = cfg_full();
        let mut trace = RunTrace::new(2, &cfg);
        trace.cores[0].push(
            10,
            TraceEvent::IntervalOpen {
                cisn: 0,
                ordinal: 0,
            },
        );
        trace.cores[0].push(
            90,
            TraceEvent::IntervalClose {
                cisn: 0,
                ordinal: 0,
                why: CloseReason::Conflict,
                instrs: 64,
            },
        );
        trace.cores[1].push(15, TraceEvent::Squash { after_seq: 2 });
        trace.coherence.push(
            12,
            TraceEvent::Coherence {
                from: 0,
                line: 4,
                is_write: false,
            },
        );
        let jsonl = trace.to_jsonl("demo");
        let chrome = chrome_trace_from_jsonl(&jsonl).expect("converts");
        let stats = validate_chrome_trace(&chrome).expect("valid");
        // 2 core tracks + the coherence track.
        assert_eq!(stats.tracks, 3, "{chrome}");
        assert!(chrome_trace_from_jsonl("{\"nope\":1}\n").is_err());
    }

    #[test]
    fn chrome_export_validates_with_one_track_per_core() {
        let cfg = cfg_full();
        let mut trace = RunTrace::new(2, &cfg);
        for (c, ring) in trace.cores.iter_mut().enumerate() {
            ring.push(
                10,
                TraceEvent::IntervalOpen {
                    cisn: 0,
                    ordinal: 0,
                },
            );
            ring.push(
                90 + c as u64,
                TraceEvent::IntervalClose {
                    cisn: 0,
                    ordinal: 0,
                    why: CloseReason::MaxSize,
                    instrs: 80,
                },
            );
            ring.push(50, TraceEvent::Squash { after_seq: 3 });
        }
        trace.coherence.push(
            20,
            TraceEvent::Coherence {
                from: 0,
                line: 4,
                is_write: false,
            },
        );
        let json = chrome_trace(&[("run-a".to_string(), &trace)]);
        let stats = validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(stats.processes, 1);
        assert_eq!(stats.tracks, 3, "core 0, core 1, coherence");
        assert!(stats.track_names.contains(&"core 0".to_string()));
        assert!(stats.track_names.contains(&"core 1".to_string()));
        assert!(stats.track_names.contains(&"coherence".to_string()));
    }

    #[test]
    fn chrome_export_survives_evicted_interval_opens() {
        // Capacity 1: the close survives, its open was evicted.
        let cfg = cfg_full().with_capacity(1);
        let mut trace = RunTrace::new(1, &cfg);
        trace.cores[0].push(
            10,
            TraceEvent::IntervalOpen {
                cisn: 0,
                ordinal: 0,
            },
        );
        trace.cores[0].push(
            90,
            TraceEvent::IntervalClose {
                cisn: 0,
                ordinal: 0,
                why: CloseReason::Final,
                instrs: 5,
            },
        );
        let json = chrome_trace(&[("r".to_string(), &trace)]);
        validate_chrome_trace(&json).expect("still valid");
    }

    #[test]
    fn json_parser_handles_the_basics() {
        use json::Value;
        let v = json::parse(r#"{"a":[1,2.5,true,null,"x\n"],"b":18446744073709551615}"#)
            .expect("parses");
        assert_eq!(v.get("b").and_then(Value::as_u64), Some(u64::MAX));
        let arr = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1], Value::Num(2.5));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[4].as_str(), Some("x\n"));
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,2] tail").is_err());
    }
}
