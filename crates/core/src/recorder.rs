use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::{AccessKind, CoreId, LineAddr};

use std::sync::Arc;

use crate::hash::{HashPlan, HashSlot, LineHashes};
use crate::log::{IntervalLog, LogEntry};
use crate::signature::Signature;
use crate::snoop_table::{SnoopSample, SnoopTable};
use crate::trace::{CloseReason, CountVerdict, TraceEvent, TraceRing};
use crate::traq::{Traq, TraqEntry, TraqKind};
use crate::wire::{LogSink, WireError};

/// Which RelaxReplay design the recorder implements (paper §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// RelaxReplay_Base: an access whose perform and counting events fall
    /// in different intervals (PISN ≠ CISN) is always logged as reordered.
    Base,
    /// RelaxReplay_Opt: additionally consults the Snoop Table, logging the
    /// access as reordered only if a conflicting coherence transaction was
    /// actually observed between the two events.
    Opt,
}

impl std::fmt::Display for Design {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Design::Base => write!(f, "Base"),
            Design::Opt => write!(f, "Opt"),
        }
    }
}

/// Why an interval terminated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Termination {
    Conflict,
    MaxSize,
    Final,
    /// Externally forced (rr-check pressure injection).
    Forced,
}

/// A per-processor partial order of intervals, recorded alongside the
/// total-order timestamps of the log's frames (the Cyrus-style pairing
/// the paper's §3.6 describes: "RelaxReplay can be paired with any
/// chunk-based MRR scheme"; a partial order admits **parallel replay**).
///
/// * `preds` — for each interval (by ordinal, matching the log's frame
///   order), intervals of *other* cores that must replay first. An edge
///   is created whenever this core's coherence transaction was observed by
///   another core: the observer replies with its latest closed interval
///   (the conflicting one if the snoop terminated it, conservatively the
///   previous one otherwise), exactly the information Cyrus piggybacks on
///   coherence replies. The recorder keeps the latest interval each
///   source core named (it implies the earlier ones), and
///   [`reduce_orderings`] then drops every entry another path implies
///   (Jones, Khan and Vaidya: a record needs only those edges).
/// * `barriers` — the ordinals of the intervals closed by a dirty
///   eviction (directory mode), ascending: this core stops observing the
///   line, so each must precede every later-timestamped interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntervalOrdering {
    /// Cross-core predecessors `(source core, source ordinal)`, one list
    /// per interval, so its length is the interval count. Each list is
    /// sorted by core with at most one entry per source core.
    pub preds: Vec<Vec<(CoreId, u64)>>,
    /// Ordinals of the barrier intervals, ascending.
    pub barriers: Vec<u64>,
}

/// Reduces every predecessor list to the exact transitive reduction over
/// the same-core chains: an entry stays only when neither its interval's
/// chain predecessor nor another of its entries already reaches it. The
/// closure is unchanged and its reduction unique, so orderings with one
/// closure reduce alike. Entries that order nothing (own core, a core
/// outside the set, an interval never closed) are dropped.
///
/// One topological pass keeps a vector clock per interval: per core, one
/// more than the latest of its intervals that reaches this one. Intervals
/// on or after a cycle (corrupt input) keep their lists, so the DAG build
/// still rejects them.
pub fn reduce_orderings(orderings: &mut [IntervalOrdering]) {
    let cores = orderings.len();
    let counts: Vec<u64> = orderings.iter().map(|o| o.preds.len() as u64).collect();
    let mut first = vec![0usize; cores + 1];
    for c in 0..cores {
        first[c + 1] = first[c] + counts[c] as usize;
    }
    let row = |c: usize, k: u64| (first[c] + k as usize) * cores;
    let mut clocks = vec![0u64; first[cores] * cores];
    let mut next = vec![0u64; cores];
    let mut named = Vec::new();
    let mut progressed = true;
    while progressed {
        progressed = false;
        for c in 0..cores {
            while next[c] < counts[c] {
                let k = next[c];
                let preds = &mut orderings[c].preds[k as usize];
                let orders = |&(d, j): &(CoreId, u64)| {
                    d.index() != c && d.index() < cores && j < counts[d.index()]
                };
                if preds.iter().any(|e| orders(e) && e.1 >= next[e.0.index()]) {
                    break;
                }
                // The latest named interval of each core implies its earlier ones.
                preds.retain(orders);
                preds.sort_unstable_by_key(|&(d, j)| (d, std::cmp::Reverse(j)));
                preds.dedup_by_key(|e| e.0);
                let at = row(c, k);
                if k > 0 {
                    clocks.copy_within(at - cores..at, at);
                }
                for &(d, j) in preds.iter() {
                    let from = row(d.index(), j);
                    for i in 0..cores {
                        clocks[at + i] = clocks[at + i].max(clocks[from + i]);
                    }
                }
                clocks[at + c] = k + 1;
                named.clone_from(preds);
                let reaches = |from: usize, (d, j): (CoreId, u64)| clocks[from + d.index()] > j;
                preds.retain(|&e| {
                    let implied = (k > 0 && reaches(at - cores, e))
                        || named
                            .iter()
                            .any(|&(d, j)| d != e.0 && reaches(row(d.index(), j), e));
                    !implied
                });
                next[c] += 1;
                progressed = true;
            }
        }
    }
}

/// Recorder configuration (paper Table 1, "RelaxReplay Parameters").
#[derive(Clone, Debug)]
pub struct RecorderConfig {
    /// Base or Opt design.
    pub design: Design,
    /// Maximum interval size in instructions (`None` = unbounded, the
    /// paper's "INF" configuration; `Some(4096)` is its "4K").
    pub max_interval_instrs: Option<u32>,
    /// TRAQ capacity (Table 1: 176).
    pub traq_entries: usize,
    /// Bloom banks per signature (Table 1: 4).
    pub sig_banks: usize,
    /// Bits per Bloom bank (Table 1: 256).
    pub sig_bits: u32,
    /// Counters per Snoop Table array (Table 1: 64). Only used by Opt.
    pub snoop_entries: usize,
    /// Maximum value of the NMI field (4 bits ⇒ 15).
    pub nmi_max: u32,
    /// TRAQ entries counted per cycle (Table 1: the TRAQ is read twice per
    /// cycle at counting events).
    pub count_per_cycle: usize,
    /// Seed for the H3 hash functions.
    pub seed: u64,
}

impl RecorderConfig {
    /// The paper's parameters for the given design and maximum interval
    /// size.
    #[must_use]
    pub fn splash_default(design: Design, max_interval_instrs: Option<u32>) -> Self {
        RecorderConfig {
            design,
            max_interval_instrs,
            traq_entries: 176,
            sig_banks: 4,
            sig_bits: 256,
            snoop_entries: 64,
            nmi_max: 15,
            count_per_cycle: 2,
            seed: 0x5e1a_c4e9_1a97_0001,
        }
    }

    /// Whether `self` and `other` can share one TRAQ: a [`Recorder`]
    /// drives every variant attached to a core through one TRAQ, so they
    /// must agree on its depth, its counting bandwidth and the NMI field
    /// width, the three parameters that shape TRAQ dynamics.
    #[must_use]
    pub fn shares_traq_with(&self, other: &RecorderConfig) -> bool {
        (self.traq_entries, self.count_per_cycle, self.nmi_max)
            == (other.traq_entries, other.count_per_cycle, other.nmi_max)
    }

    /// The `(out_bits, lane seeds)` H3 geometries of the read signature,
    /// the write signature and, for Opt, the Snoop Table.
    fn hash_geometries(&self) -> impl Iterator<Item = (u32, Vec<u64>)> {
        assert!(
            self.sig_banks > 0
                && self.sig_bits.is_power_of_two()
                && (self.design == Design::Base || self.snoop_entries.is_power_of_two()),
            "signature banks must be non-empty, bits per bank and Snoop Table entries powers of two"
        );
        let sig = |seed| {
            let seeds = Signature::lane_seeds(self.sig_banks, seed);
            (self.sig_bits.trailing_zeros(), seeds)
        };
        let table = (self.design == Design::Opt).then(|| {
            let seeds = SnoopTable::lane_seeds(self.seed ^ 0x5009);
            (self.snoop_entries.trailing_zeros(), seeds)
        });
        [
            Some(sig(self.seed ^ 0x0ead)),
            Some(sig(self.seed ^ 0x317e)),
            table,
        ]
        .into_iter()
        .flatten()
    }
}

/// Counters the recorder accumulates, feeding Figures 9–12 and 14.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Memory-access instructions counted (loads).
    pub counted_loads: u64,
    /// Memory-access instructions counted (stores).
    pub counted_stores: u64,
    /// Memory-access instructions counted (RMWs).
    pub counted_rmws: u64,
    /// Total instructions counted (including non-memory ones via NMI).
    pub counted_instrs: u64,
    /// Loads logged as reordered.
    pub reordered_loads: u64,
    /// Stores logged as reordered.
    pub reordered_stores: u64,
    /// RMWs logged as reordered.
    pub reordered_rmws: u64,
    /// Accesses whose perform event was moved **across intervals** to the
    /// counting event (PISN ≠ CISN but declared in order — Opt only).
    pub moved_across_intervals: u64,
    /// Interval terminations due to a conflicting snoop.
    pub term_conflict: u64,
    /// Interval terminations due to the maximum interval size.
    pub term_max_size: u64,
    /// The final termination at thread end.
    pub term_final: u64,
    /// Interval terminations forced externally (rr-check pressure modes).
    pub term_forced: u64,
    /// Accesses conservatively declared reordered because ≥ `u16::MAX`
    /// coherence transactions were observed between their perform and
    /// counting events — enough for the 16-bit Snoop Table counters to
    /// have wrapped all the way around to the sampled value (Opt only).
    pub snoop_wrap_conservative: u64,
    /// Errors the streaming sink reported (the log is poisoned after the
    /// first one).
    pub sink_errors: u64,
    /// Sum of TRAQ occupancy over all samples (for the average).
    pub traq_occupancy_sum: u64,
    /// Number of TRAQ occupancy samples.
    pub traq_samples: u64,
    /// Histogram of TRAQ occupancy in bins of 10 entries (Figure 12(b)).
    pub traq_hist: Vec<u64>,
    /// Highest TRAQ occupancy seen.
    pub traq_peak: usize,
}

impl RecorderStats {
    /// Memory-access instructions counted in total.
    #[must_use]
    pub fn counted_mem(&self) -> u64 {
        self.counted_loads + self.counted_stores + self.counted_rmws
    }

    /// Memory-access instructions logged as reordered.
    #[must_use]
    pub fn reordered(&self) -> u64 {
        self.reordered_loads + self.reordered_stores + self.reordered_rmws
    }

    /// Fraction of memory-access instructions logged as reordered
    /// (Figure 9's metric).
    #[must_use]
    pub fn reordered_fraction(&self) -> f64 {
        let mem = self.counted_mem();
        if mem == 0 {
            return 0.0;
        }
        self.reordered() as f64 / mem as f64
    }

    /// Average TRAQ occupancy (Figure 12(a)).
    #[must_use]
    pub fn traq_avg(&self) -> f64 {
        if self.traq_samples == 0 {
            return 0.0;
        }
        self.traq_occupancy_sum as f64 / self.traq_samples as f64
    }

    /// Every scalar counter as a `(name, value)` pair, for the metrics
    /// registry (`traq_hist` is exported separately as a histogram).
    ///
    /// Names are stable identifiers (they end up in JSONL sidecars that
    /// downstream tooling diffs across runs); add to this list, never
    /// rename.
    #[must_use]
    pub fn counter_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("counted_loads", self.counted_loads),
            ("counted_stores", self.counted_stores),
            ("counted_rmws", self.counted_rmws),
            ("counted_instrs", self.counted_instrs),
            ("reordered_loads", self.reordered_loads),
            ("reordered_stores", self.reordered_stores),
            ("reordered_rmws", self.reordered_rmws),
            ("moved_across_intervals", self.moved_across_intervals),
            ("term_conflict", self.term_conflict),
            ("term_max_size", self.term_max_size),
            ("term_final", self.term_final),
            ("term_forced", self.term_forced),
            ("snoop_wrap_conservative", self.snoop_wrap_conservative),
            ("sink_errors", self.sink_errors),
            ("traq_occupancy_sum", self.traq_occupancy_sum),
            ("traq_samples", self.traq_samples),
            ("traq_peak", self.traq_peak as u64),
        ]
    }
}

/// What one variant recorded on one core, taken from a finished
/// [`Recorder`] ([`Recorder::into_recordings`]).
#[derive(Clone, Debug)]
pub struct Recording {
    /// The interval log (in streaming mode, only what the sink never
    /// accepted).
    pub log: IntervalLog,
    /// The interval partial order, parallel to the log's frames.
    pub ordering: IntervalOrdering,
    /// The variant's statistics.
    pub stats: RecorderStats,
}

/// A per-processor RelaxReplay Memory Race Recorder (paper Figure 6(a)),
/// recording one or more design variants of the same execution.
///
/// Attach it to a core as its [`CoreObserver`]; route coherence snoops from
/// the memory system through [`Recorder::on_snoop`] (and dirty evictions
/// through [`Recorder::on_dirty_eviction`] in directory mode); call
/// [`Recorder::tick`] once per cycle after the core's tick so counting
/// proceeds; call [`Recorder::finish`] when the thread completes. Each
/// variant's [`IntervalLog`] replays with `rr-replay`.
///
/// The recorder is a pure observer, so one execution can be recorded under
/// several designs (Base/Opt × interval sizes × signature geometries) at
/// once. What does not depend on the variant is kept once: the TRAQ, whose
/// dynamics depend neither on Base/Opt nor on the interval length, the
/// retirement and NMI bookkeeping, and one [`SnoopTable`] per table
/// geometry, whose counters are never cleared and are bumped by the same
/// events in every variant. Each variant keeps its signatures, interval
/// counters, log, ordering and statistics. Line addresses are hashed once
/// per geometry of a [`HashPlan`] shared by all cores of a run.
/// [`Recorder::new`] is the one-variant case.
pub struct Recorder {
    plan: Arc<HashPlan>,
    /// Scratch for hashing this core's own line events.
    hashes: LineHashes,
    traq: Traq,
    count_per_cycle: usize,
    nmi_max: u32,
    /// Non-memory instructions dispatched since the last TRAQ allocation.
    nmi_pending: u32,
    /// Sequence number of the newest TRAQ allocation (or last counted
    /// entry), `-1` before any. Used to recompute `nmi_pending` after a
    /// squash.
    alloc_boundary: i64,
    /// Sequence number of the last counted entry.
    counted_up_to: i64,
    /// Sequence number of the last retired instruction, `-1` before any.
    /// Retirement is in program order and a squash never discards a
    /// retired seq, so a TRAQ entry has retired exactly when its seq is at
    /// most this watermark.
    retired_up_to: i64,
    /// Total coherence transactions this recorder has observed (remote
    /// snoops, dirty evictions, and own store performs — every event that
    /// bumps the Snoop Table). Snapshotted into each TRAQ entry at perform
    /// time so counting can detect a full 16-bit counter wrap.
    snoops_seen: u64,
    /// TRAQ occupancy samples (only the `traq_*` fields are used), copied
    /// into every variant's stats at [`Recorder::finish`].
    occupancy: RecorderStats,
    /// One Snoop Table per distinct table geometry of the Opt variants,
    /// with its slot in the hash plan.
    tables: Vec<(SnoopTable, HashSlot)>,
    variants: Vec<Variant>,
    finished: bool,
}

/// One variant's own state in a [`Recorder`].
struct Variant {
    /// Maximum interval size in instructions (`None` = unbounded).
    max_interval_instrs: Option<u32>,
    cisn: u16,
    /// The *Current InorderBlock Size* count (instructions, not just
    /// memory accesses — eases replay; paper §3.3.3).
    block_size: u32,
    /// Instructions counted in the current interval (for max-size
    /// termination).
    instrs_in_interval: u32,
    /// Entries logged since the last frame (to know the final interval is
    /// non-empty).
    entries_since_frame: usize,
    read_sig: Signature,
    read_slot: HashSlot,
    write_sig: Signature,
    write_slot: HashSlot,
    /// Index of its Snoop Table in [`Recorder::tables`] (Opt only).
    table: Option<usize>,
    log: IntervalLog,
    ordering: IntervalOrdering,
    /// Cross-core predecessors of the interval currently being recorded:
    /// the latest interval named by each source core, sorted by core. A
    /// scratch list reused across intervals, so adding to it allocates only
    /// until it has grown to the core count.
    current_preds: Vec<(CoreId, u64)>,
    stats: RecorderStats,
    /// Event tracing: when attached, the variant's decisions are captured
    /// into this bounded ring. Capture is a pure side channel — it never
    /// feeds back into recording, so logs are byte-identical with tracing
    /// on or off.
    tracer: Option<TraceRing>,
    /// Streaming mode: entries drain into this sink at every interval
    /// boundary instead of accumulating in `log`.
    sink: Option<Box<dyn LogSink>>,
    /// First sink failure, latched: once set, the recording is poisoned,
    /// nothing more is sent to the sink and un-emitted entries stay
    /// buffered for inspection.
    sink_error: Option<WireError>,
    /// Entries streamed out through the sink so far (successful emits
    /// only).
    streamed_entries: u64,
}

/// A coherence event a recorder observes on a line.
#[derive(Clone, Copy)]
enum Observed {
    /// Another processor's transaction; a remote write conflicts with both
    /// signatures, a remote read with the write signature only.
    Snoop { is_write: bool },
    /// This core's L1 evicted the line dirty (directory mode).
    DirtyEviction,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("core", &self.variants[0].log.core)
            .field("variants", &self.variants.len())
            .field("traq_len", &self.traq.len())
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// Creates a one-variant recorder for `core`.
    #[must_use]
    pub fn new(core: CoreId, cfg: RecorderConfig) -> Self {
        let configs = [cfg];
        Recorder::with_variants(core, &configs, &Recorder::hash_plan(&configs))
    }

    /// The hash plan of a run recording `configs`: build it once and pass
    /// it to [`Recorder::with_variants`] for every core.
    #[must_use]
    pub fn hash_plan(configs: &[RecorderConfig]) -> Arc<HashPlan> {
        let mut plan = HashPlan::default();
        for (bits, seeds) in configs.iter().flat_map(RecorderConfig::hash_geometries) {
            plan.add(bits, seeds);
        }
        Arc::new(plan)
    }

    /// Creates a recorder for `core` that records every variant in
    /// `configs` (variant `v` is `configs[v]`), hashing with `plan`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, if two configurations do not
    /// [share a TRAQ](RecorderConfig::shares_traq_with), or if `plan` was
    /// not built from configurations covering `configs`.
    #[must_use]
    pub fn with_variants(core: CoreId, configs: &[RecorderConfig], plan: &Arc<HashPlan>) -> Self {
        let first = configs
            .first()
            .expect("a recorder records at least one variant");
        assert!(
            configs.iter().all(|c| c.shares_traq_with(first)),
            "every variant of a recorder must share one TRAQ geometry"
        );
        let mut tables: Vec<(SnoopTable, HashSlot)> = Vec::new();
        let variants: Vec<Variant> = configs
            .iter()
            .map(|cfg| {
                let mut geometries = cfg.hash_geometries().map(|(bits, seeds)| {
                    plan.find(bits, &seeds)
                        .expect("the hash plan covers every variant")
                });
                let (read_slot, read_hash) = geometries.next().expect("read signature");
                let (write_slot, write_hash) = geometries.next().expect("write signature");
                let table = geometries.next().map(|(slot, hash)| {
                    tables
                        .iter()
                        .position(|&(_, s)| s == slot)
                        .unwrap_or_else(|| {
                            tables.push((SnoopTable::with_hash(hash), slot));
                            tables.len() - 1
                        })
                });
                Variant {
                    cisn: 0,
                    block_size: 0,
                    instrs_in_interval: 0,
                    entries_since_frame: 0,
                    read_sig: Signature::with_hash(read_hash),
                    read_slot,
                    write_sig: Signature::with_hash(write_hash),
                    write_slot,
                    table,
                    log: IntervalLog::new(core),
                    ordering: IntervalOrdering::default(),
                    current_preds: Vec::new(),
                    stats: RecorderStats::default(),
                    tracer: None,
                    sink: None,
                    sink_error: None,
                    streamed_entries: 0,
                    max_interval_instrs: cfg.max_interval_instrs,
                }
            })
            .collect();
        Recorder {
            plan: Arc::clone(plan),
            hashes: LineHashes::default(),
            traq: Traq::new(first.traq_entries, variants.len(), tables.len()),
            count_per_cycle: first.count_per_cycle,
            nmi_max: first.nmi_max,
            nmi_pending: 0,
            alloc_boundary: -1,
            counted_up_to: -1,
            retired_up_to: -1,
            snoops_seen: 0,
            occupancy: RecorderStats {
                traq_hist: vec![0; first.traq_entries / 10 + 1],
                ..RecorderStats::default()
            },
            tables,
            variants,
            finished: false,
        }
    }

    /// Number of variants this recorder records.
    #[must_use]
    pub fn variants(&self) -> usize {
        self.variants.len()
    }

    /// Attaches an event-trace ring to variant `v`. The first interval's
    /// open event is emitted immediately (at cycle 0), so the timeline
    /// starts balanced.
    pub fn set_tracer(&mut self, v: usize, ring: TraceRing) {
        let var = &mut self.variants[v];
        var.tracer = Some(ring);
        let cisn = var.cisn;
        let ordinal = var.intervals_completed();
        var.trace(0, TraceEvent::IntervalOpen { cisn, ordinal });
    }

    /// Detaches and returns variant `v`'s trace ring, if any.
    pub fn take_tracer(&mut self, v: usize) -> Option<TraceRing> {
        self.variants[v].tracer.take()
    }

    /// Switches variant `v` into streaming mode: from now on, its log
    /// entries drain into `sink` at every interval boundary instead of
    /// accumulating unboundedly in memory (the production shape — the log
    /// is a continuously produced artifact, not an in-memory value).
    ///
    /// In streaming mode [`Recorder::log`] and the finished
    /// [`Recording::log`] only hold the entries the sink has not taken;
    /// sink failures are latched and reported by [`Recorder::sink_error`]
    /// (the hardware-event entry points cannot propagate errors).
    pub fn set_sink(&mut self, v: usize, sink: Box<dyn LogSink>) {
        self.variants[v].sink = Some(sink);
    }

    /// The first error variant `v`'s sink reported, if any. The variant
    /// is then [poisoned](Recorder::is_poisoned): a recording whose sink
    /// failed is incomplete and must be discarded.
    #[must_use]
    pub fn sink_error(&self, v: usize) -> Option<&WireError> {
        self.variants[v].sink_error.as_ref()
    }

    /// Whether a sink failure poisoned variant `v`'s recording. Once
    /// poisoned, nothing more is emitted; entries that never reached the
    /// sink stay buffered in [`Recorder::log`] and
    /// [`Recorder::streamed_entries`] counts only what the sink actually
    /// accepted.
    #[must_use]
    pub fn is_poisoned(&self, v: usize) -> bool {
        self.variants[v].sink_error.is_some()
    }

    /// Entries variant `v`'s sink actually accepted so far (streaming mode
    /// only).
    #[must_use]
    pub fn streamed_entries(&self, v: usize) -> u64 {
        self.variants[v].streamed_entries
    }

    /// Variant `v`'s log so far.
    #[must_use]
    pub fn log(&self, v: usize) -> &IntervalLog {
        &self.variants[v].log
    }

    /// Variant `v`'s statistics so far. The TRAQ occupancy fields are
    /// filled in by [`Recorder::finish`].
    #[must_use]
    pub fn stats(&self, v: usize) -> &RecorderStats {
        &self.variants[v].stats
    }

    /// Consumes the recorder, returning what each variant recorded.
    ///
    /// # Panics
    ///
    /// Panics if [`Recorder::finish`] has not been called.
    #[must_use]
    pub fn into_recordings(self) -> Vec<Recording> {
        assert!(
            self.finished,
            "finish() must be called before taking the log"
        );
        self.variants
            .into_iter()
            .map(|v| Recording {
                log: v.log,
                ordering: v.ordering,
                stats: v.stats,
            })
            .collect()
    }

    /// Current TRAQ occupancy (entries in use).
    #[must_use]
    pub fn traq_len(&self) -> usize {
        self.traq.len()
    }

    // ----- coherence-side events ----------------------------------------

    /// Reports a coherence transaction observed from another processor.
    ///
    /// Updates the Snoop Tables (Opt) and terminates a variant's current
    /// interval if the transaction conflicts with its read/write
    /// signatures: a remote write conflicts with both sets; a remote read
    /// conflicts with local writes only.
    pub fn on_snoop(&mut self, line: LineAddr, is_write: bool, cycle: u64) {
        let mut hashes = std::mem::take(&mut self.hashes);
        self.plan.hash(line, &mut hashes);
        self.on_hashed_snoop(&hashes, is_write, cycle);
        self.hashes = hashes;
    }

    /// [`Recorder::on_snoop`] for a line already hashed with this
    /// recorder's plan, so a snoop that several cores observe is hashed
    /// once.
    pub fn on_hashed_snoop(&mut self, line: &LineHashes, is_write: bool, cycle: u64) {
        self.observe(line, Observed::Snoop { is_write }, cycle);
    }

    /// Reports that this core's L1 evicted a dirty line (directory mode,
    /// paper §4.3). Two conservative actions keep recording sound once the
    /// core stops observing the line's coherence traffic:
    ///
    /// * the Snoop Table counters are bumped, so any performed-but-
    ///   uncounted access to the line is declared reordered (the paper's
    ///   fix), and
    /// * if the line is in the current interval's signatures, the interval
    ///   is terminated — otherwise an unobserved later remote write could
    ///   end up ordered *before* this interval even though this core's
    ///   accesses performed first (the interval-ordering side of §4.3,
    ///   which the paper delegates to a directory-aware chunk scheme).
    pub fn on_dirty_eviction(&mut self, line: LineAddr, cycle: u64) {
        let mut hashes = std::mem::take(&mut self.hashes);
        self.plan.hash(line, &mut hashes);
        self.observe(&hashes, Observed::DirtyEviction, cycle);
        self.hashes = hashes;
    }

    fn observe(&mut self, line: &LineHashes, what: Observed, cycle: u64) {
        self.snoops_seen += 1;
        for (table, slot) in &mut self.tables {
            table.record_hashed(line.lanes(*slot));
        }
        for v in &mut self.variants {
            v.observe(line, what, cycle);
        }
    }

    /// Records a cross-core ordering predecessor for variant `v`'s
    /// interval currently being recorded: this core's latest coherence
    /// transaction was observed by `src_core`, whose interval
    /// `src_interval` (an ordinal, not a wrapping CISN) must replay before
    /// this one. In hardware this is the ordering information Cyrus-style
    /// recorders piggyback on coherence replies (paper §2, §3.6); the
    /// simulator delivers it when it routes the snoop.
    ///
    /// Only the latest interval of each source core is kept: the
    /// same-core chain orders every earlier one before it, so dropping
    /// them loses no ordering. The update costs a binary search and at
    /// most one shift of a list no longer than the core count.
    pub fn on_predecessor(&mut self, v: usize, src_core: CoreId, src_interval: u64) {
        let preds = &mut self.variants[v].current_preds;
        match preds.binary_search_by_key(&src_core, |&(core, _)| core) {
            Ok(i) => preds[i].1 = preds[i].1.max(src_interval),
            Err(i) => preds.insert(i, (src_core, src_interval)),
        }
    }

    /// Number of intervals variant `v` has closed so far (the next frame
    /// gets this ordinal).
    #[must_use]
    pub fn intervals_completed(&self, v: usize) -> u64 {
        self.variants[v].intervals_completed()
    }

    /// Variant `v`'s recorded partial order of this core's intervals
    /// (parallel replay, paper §3.6). Parallel to the log's frames.
    #[must_use]
    pub fn ordering(&self, v: usize) -> &IntervalOrdering {
        &self.variants[v].ordering
    }

    // ----- counting ------------------------------------------------------

    /// Advances the counting machinery by one cycle: counts up to
    /// `count_per_cycle` ready TRAQ-head entries and samples TRAQ
    /// occupancy.
    pub fn tick(&mut self, cycle: u64) {
        let occupancy = self.traq.len();
        let stats = &mut self.occupancy;
        stats.traq_occupancy_sum += occupancy as u64;
        stats.traq_samples += 1;
        let bin = (occupancy / 10).min(stats.traq_hist.len() - 1);
        stats.traq_hist[bin] += 1;
        stats.traq_peak = stats.traq_peak.max(occupancy);
        for _ in 0..self.count_per_cycle {
            let Some(slot) = self.traq.pop_ready(self.retired_up_to) else {
                break;
            };
            self.count(slot, cycle);
        }
    }

    /// Flushes remaining state when the thread completes: groups any
    /// trailing non-memory instructions, drains the TRAQ and terminates
    /// every variant's final interval.
    ///
    /// # Panics
    ///
    /// Panics if the core has not actually finished (some TRAQ entry is not
    /// ready to count).
    pub fn finish(&mut self, cycle: u64) {
        if self.finished {
            return;
        }
        // Counting what is queued first leaves room for the trailing
        // filler in a TRAQ that is full of ready entries.
        loop {
            while let Some(slot) = self.traq.pop_ready(self.retired_up_to) {
                self.count(slot, cycle);
            }
            if self.nmi_pending == 0 {
                break;
            }
            let seq = (self.alloc_boundary + i64::from(self.nmi_pending)) as u64;
            self.push_traq(seq, TraqKind::Filler);
        }
        assert_eq!(
            self.traq.len(),
            0,
            "finish() on a core that is still executing"
        );
        for v in &mut self.variants {
            v.finish(cycle, &self.occupancy);
        }
        self.finished = true;
    }

    /// Allocates a TRAQ entry carrying the pending non-memory count.
    fn push_traq(&mut self, seq: u64, kind: TraqKind) {
        self.alloc_boundary = seq as i64;
        let nmi = std::mem::take(&mut self.nmi_pending);
        self.traq.push(TraqEntry::new(seq, kind, nmi));
    }

    /// Counts the entry just popped from `slot` in every variant.
    fn count(&mut self, slot: usize, cycle: u64) {
        let entry = self.traq.entry(slot);
        self.counted_up_to = entry.seq as i64;
        let TraqKind::Mem(kind) = entry.kind else {
            for v in &mut self.variants {
                v.block_size += entry.nmi;
                v.note_counted(entry.nmi, cycle);
            }
            return;
        };
        let ordinals = self.traq.ordinals(slot);
        // Only an access counted outside its perform interval consults the
        // Snoop Table or re-enters a signature.
        if (self.variants.iter().zip(ordinals)).any(|(v, &o)| o != v.intervals_completed()) {
            self.plan.hash(entry.line, &mut self.hashes);
        }
        // Full-wrap guard for the Snoop Table (Opt): its 16-bit counters
        // return to the sampled value after exactly 65536 bumps, hiding a
        // conflict. Total transactions observed bound any single counter's
        // increments, so if fewer than u16::MAX happened between perform
        // and counting no counter can have wrapped and the table is
        // trustworthy; otherwise conservatively declare the access
        // reordered.
        let snoop_wrap_possible = self.snoops_seen - entry.snoops_at_perform >= u64::from(u16::MAX);
        let samples = self.traq.samples(slot);
        for (v, &perform_ordinal) in self.variants.iter_mut().zip(ordinals) {
            let access = Counted {
                entry,
                kind,
                perform_ordinal,
                snoop_wrap_possible,
                table: v
                    .table
                    .map(|t| (&self.tables[t].0, self.tables[t].1, samples[t])),
                line: &self.hashes,
            };
            v.count_access(&access, cycle);
        }
    }

    // ----- pressure injection (rr-check) ---------------------------------

    /// Forces every variant's current interval to close, as if a
    /// conflicting snoop had arrived. Sound — closing an interval early
    /// never loses ordering information, it only shortens the atomicity
    /// unit — so rr-check uses it to pressure interval-boundary paths (the
    /// replayed execution must still match).
    pub fn force_terminate(&mut self, cycle: u64) {
        debug_assert!(!self.finished, "force_terminate after finish()");
        for v in &mut self.variants {
            v.terminate_interval(cycle, Termination::Forced);
        }
    }

    /// Closes `n` empty intervals in every variant up front, pre-advancing
    /// the interval counter so a short workload executes near (or across)
    /// the 16-bit CISN wrap at 65536. rr-check's `cisn-wrap` pressure mode
    /// calls this before the first instruction dispatches.
    pub fn pre_advance_intervals(&mut self, n: u64, cycle: u64) {
        for v in &mut self.variants {
            debug_assert_eq!(
                v.intervals_completed(),
                0,
                "pre-advance must happen before recording starts"
            );
            for _ in 0..n {
                v.terminate_interval(cycle, Termination::Forced);
            }
        }
    }
}

/// A memory access being counted, as every variant sees it.
struct Counted<'a> {
    entry: &'a TraqEntry,
    kind: AccessKind,
    /// The counting variant's interval ordinal at perform time.
    perform_ordinal: u64,
    snoop_wrap_possible: bool,
    /// The counting variant's Snoop Table (Opt), its slot in the hash plan
    /// and the perform-time sample.
    table: Option<(&'a SnoopTable, HashSlot, SnoopSample)>,
    /// The line's hashes; current whenever the access counts outside its
    /// perform interval.
    line: &'a LineHashes,
}

impl Variant {
    /// Captures `event` if a tracer is attached (no-op otherwise).
    fn trace(&mut self, cycle: u64, event: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.push(cycle, event);
        }
    }

    fn intervals_completed(&self) -> u64 {
        self.ordering.preds.len() as u64
    }

    /// Inserts an access's line into the current interval's signatures so
    /// conflicting snoops terminate the interval (paper §4.1).
    fn insert(&mut self, kind: AccessKind, line: &LineHashes) {
        if matches!(kind, AccessKind::Load | AccessKind::Rmw) {
            self.read_sig.insert_hashed(line.lanes(self.read_slot));
        }
        if matches!(kind, AccessKind::Store | AccessKind::Rmw) {
            self.write_sig.insert_hashed(line.lanes(self.write_slot));
        }
    }

    fn observe(&mut self, line: &LineHashes, what: Observed, cycle: u64) {
        let line_number = line.line().line_number();
        if self.table.is_some() {
            self.trace(cycle, TraceEvent::SnoopTableBump { line: line_number });
        }
        let with_reads = !matches!(what, Observed::Snoop { is_write: false });
        let conflict = (with_reads && self.read_sig.test_hashed(line.lanes(self.read_slot)))
            || self.write_sig.test_hashed(line.lanes(self.write_slot));
        let event = match what {
            Observed::Snoop { is_write } => TraceEvent::Snoop {
                line: line_number,
                is_write,
                conflict,
            },
            Observed::DirtyEviction => TraceEvent::DirtyEviction {
                line: line_number,
                conflict,
            },
        };
        self.trace(cycle, event);
        if conflict {
            if let Observed::DirtyEviction = what {
                // For the partial order (parallel replay), an
                // eviction-closed interval must precede every
                // later-timestamped interval: this core stops observing
                // the line, so no more edges can be generated for it. The
                // closing interval's ordinal is the number of intervals
                // closed before it.
                let ordinal = self.intervals_completed();
                self.ordering.barriers.push(ordinal);
            }
            self.terminate_interval(cycle, Termination::Conflict);
        }
    }

    /// Counts a performed access: in order as part of the current block,
    /// or logged as reordered.
    fn count_access(&mut self, access: &Counted<'_>, cycle: u64) {
        let Counted {
            entry,
            kind,
            perform_ordinal,
            snoop_wrap_possible,
            table,
            line,
        } = *access;
        let current_ordinal = self.intervals_completed();
        // Classify on the exact (non-wrapping) interval ordinal, not the
        // 16-bit PISN/CISN pair: once perform and counting drift ≥ 65536
        // intervals apart the hardware fields alias and an old access would
        // look freshly in-interval.
        let same_interval = perform_ordinal == current_ordinal;
        let mut wrap_conservative = false;
        let reordered = if same_interval {
            false
        } else {
            match table {
                // Base: a different interval means reordered.
                None => true,
                // Opt: only if a conflicting transaction was seen (or could
                // have been hidden by a full wrap).
                Some((table, slot, sample)) => {
                    let table_says = table.is_reordered_hashed(line.lanes(slot), sample);
                    wrap_conservative = snoop_wrap_possible && !table_says;
                    table_says || snoop_wrap_possible
                }
            }
        };
        if wrap_conservative {
            self.stats.snoop_wrap_conservative += 1;
        }
        match kind {
            AccessKind::Load => self.stats.counted_loads += 1,
            AccessKind::Store => self.stats.counted_stores += 1,
            AccessKind::Rmw => self.stats.counted_rmws += 1,
        }
        // The PISN is the low half of the perform ordinal, as the CISN is
        // of the current one.
        let pisn = perform_ordinal as u16;
        if self.tracer.is_some() {
            let verdict = if same_interval {
                CountVerdict::InOrder
            } else if !reordered {
                CountVerdict::MovedAcross
            } else if wrap_conservative {
                CountVerdict::ReorderedSnoopWrap
            } else if table.is_some() {
                CountVerdict::ReorderedSnoopConflict
            } else {
                CountVerdict::ReorderedPisnMismatch
            };
            let cisn = self.cisn;
            self.trace(
                cycle,
                TraceEvent::Count {
                    seq: entry.seq,
                    kind,
                    addr: entry.addr,
                    pisn,
                    cisn,
                    verdict,
                },
            );
        }
        if !reordered {
            if !same_interval {
                // The perform event moves across intervals to the counting
                // event; re-insert the address into the current interval's
                // signature so later conflicts still order intervals
                // correctly (paper §4.2).
                self.stats.moved_across_intervals += 1;
                self.insert(kind, line);
            }
            self.block_size += entry.nmi + 1;
        } else {
            // The NMI instructions preceding the access are still in order;
            // they close the current block.
            self.block_size += entry.nmi;
            self.flush_block();
            // Exact interval distance; the 16-bit `cisn.wrapping_sub(pisn)`
            // the hardware would compute aliases once the distance reaches
            // 65536.
            let offset = u32::try_from(current_ordinal - perform_ordinal)
                .expect("perform-to-count distance exceeds u32");
            debug_assert_eq!(offset as u16, self.cisn.wrapping_sub(pisn));
            let log_entry = match kind {
                AccessKind::Load => {
                    self.stats.reordered_loads += 1;
                    LogEntry::ReorderedLoad {
                        value: entry.loaded.expect("performed load has a value"),
                    }
                }
                AccessKind::Store => {
                    self.stats.reordered_stores += 1;
                    LogEntry::ReorderedStore {
                        addr: entry.addr,
                        value: entry.stored.expect("performed store has a value"),
                        offset,
                    }
                }
                AccessKind::Rmw => {
                    self.stats.reordered_rmws += 1;
                    LogEntry::ReorderedRmw {
                        loaded: entry.loaded.expect("performed RMW has a loaded value"),
                        addr: entry.addr,
                        stored: entry.stored,
                        offset,
                    }
                }
            };
            self.log.entries.push(log_entry);
            self.entries_since_frame += 1;
        }
        self.note_counted(entry.nmi + 1, cycle);
    }

    fn note_counted(&mut self, instrs: u32, cycle: u64) {
        self.stats.counted_instrs += u64::from(instrs);
        self.instrs_in_interval += instrs;
        if let Some(max) = self.max_interval_instrs {
            if self.instrs_in_interval >= max {
                self.terminate_interval(cycle, Termination::MaxSize);
            }
        }
    }

    fn flush_block(&mut self) {
        if self.block_size > 0 {
            self.log.entries.push(LogEntry::InorderBlock {
                instrs: self.block_size,
            });
            self.entries_since_frame += 1;
            self.block_size = 0;
        }
    }

    fn terminate_interval(&mut self, cycle: u64, why: Termination) {
        match why {
            Termination::Conflict => self.stats.term_conflict += 1,
            Termination::MaxSize => self.stats.term_max_size += 1,
            Termination::Final => self.stats.term_final += 1,
            Termination::Forced => self.stats.term_forced += 1,
        }
        if self.tracer.is_some() {
            let reason = match why {
                Termination::Conflict => CloseReason::Conflict,
                Termination::MaxSize => CloseReason::MaxSize,
                Termination::Final => CloseReason::Final,
                Termination::Forced => CloseReason::Forced,
            };
            let cisn = self.cisn;
            let ordinal = self.intervals_completed();
            let instrs = self.instrs_in_interval;
            self.trace(
                cycle,
                TraceEvent::IntervalClose {
                    cisn,
                    ordinal,
                    why: reason,
                    instrs,
                },
            );
        }
        self.flush_block();
        self.log.entries.push(LogEntry::IntervalFrame {
            cisn: self.cisn,
            timestamp: cycle,
        });
        self.ordering.preds.push(self.current_preds.clone());
        self.current_preds.clear();
        self.entries_since_frame = 0;
        self.cisn = self.cisn.wrapping_add(1);
        self.instrs_in_interval = 0;
        self.read_sig.clear();
        self.write_sig.clear();
        if self.tracer.is_some() {
            let cisn = self.cisn;
            let ordinal = self.intervals_completed();
            self.trace(cycle, TraceEvent::IntervalOpen { cisn, ordinal });
        }
        self.drain_into_sink();
    }

    /// Terminates the final interval, closes the sink and takes the
    /// recorder's TRAQ occupancy samples.
    fn finish(&mut self, cycle: u64, occupancy: &RecorderStats) {
        if self.entries_since_frame > 0 || self.block_size > 0 {
            self.terminate_interval(cycle, Termination::Final);
        }
        if let Some(sink) = &mut self.sink {
            if let Err(err) = sink.close() {
                self.latch_sink_error(err);
            }
        }
        let stats = &mut self.stats;
        stats.traq_occupancy_sum = occupancy.traq_occupancy_sum;
        stats.traq_samples = occupancy.traq_samples;
        stats.traq_hist.clone_from(&occupancy.traq_hist);
        stats.traq_peak = occupancy.traq_peak;
    }

    fn latch_sink_error(&mut self, err: WireError) {
        self.stats.sink_errors += 1;
        self.sink_error.get_or_insert(err);
    }

    /// Drains every buffered entry into the sink (streaming mode only).
    /// On a sink failure the recording is poisoned: the failed entry and
    /// everything after it stay buffered (nothing is silently dropped),
    /// the error is latched, and no further emits are attempted.
    fn drain_into_sink(&mut self) {
        let Some(sink) = &mut self.sink else {
            return;
        };
        if self.sink_error.is_some() {
            return;
        }
        let mut emitted = 0usize;
        let mut failure = None;
        for e in &self.log.entries {
            match sink.emit(e) {
                Ok(()) => emitted += 1,
                Err(err) => {
                    failure = Some(err);
                    break;
                }
            }
        }
        self.streamed_entries += emitted as u64;
        self.log.entries.drain(..emitted);
        if let Some(err) = failure {
            self.latch_sink_error(err);
        }
    }
}

impl CoreObserver for Recorder {
    fn on_dispatch(&mut self, seq: u64, is_mem: bool) -> bool {
        debug_assert!(!self.finished, "dispatch after finish()");
        if is_mem {
            if self.traq.is_full() {
                return false;
            }
            // The access kind is refined at perform time; dispatch only
            // needs a slot. Use Load as a placeholder.
            self.push_traq(seq, TraqKind::Mem(AccessKind::Load));
            true
        } else {
            // After a squash, `nmi_pending` is recomputed and may exceed
            // `nmi_max`; the excess is simply absorbed by the next TRAQ
            // allocation (real hardware would emit extra fillers — the
            // block-size arithmetic is identical either way).
            if self.nmi_pending + 1 == self.nmi_max && self.traq.is_full() {
                return false; // need a filler slot; stall
            }
            self.nmi_pending += 1;
            if self.nmi_pending == self.nmi_max {
                self.push_traq(seq, TraqKind::Filler);
            }
            true
        }
    }

    fn on_perform(&mut self, rec: &PerformRecord) {
        for v in &mut self.variants {
            let pisn = v.cisn;
            v.trace(
                rec.cycle,
                TraceEvent::Perform {
                    seq: rec.seq,
                    kind: rec.kind,
                    addr: rec.addr,
                    pisn,
                },
            );
        }
        self.plan.hash(rec.line, &mut self.hashes);
        // Soundness extension over the paper (see DESIGN.md §2.2): the
        // Snoop Table must also observe this core's *own* store performs.
        // Otherwise a load whose perform is moved across intervals can
        // slide past its own core's younger same-address store — the store
        // performs in the earlier interval and is patched to its end, so
        // replay would execute the (program-order-older) load after it.
        // Remote conflicts alone cannot reveal this local anti-dependence.
        // Recording before sampling keeps a store from flagging itself.
        if matches!(rec.kind, AccessKind::Store | AccessKind::Rmw) {
            for (table, slot) in &mut self.tables {
                table.record_hashed(self.hashes.lanes(*slot));
            }
            self.snoops_seen += 1;
        }
        let slot = self
            .traq
            .find(rec.seq)
            .expect("perform for an instruction not in the TRAQ");
        let entry = self.traq.entry_mut(slot);
        entry.kind = TraqKind::Mem(rec.kind);
        entry.snoops_at_perform = self.snoops_seen;
        entry.performed = true;
        entry.addr = rec.addr;
        entry.line = rec.line;
        entry.loaded = rec.loaded;
        entry.stored = rec.stored;
        for (sample, (table, table_slot)) in
            self.traq.samples_mut(slot).iter_mut().zip(&self.tables)
        {
            *sample = table.sample_hashed(self.hashes.lanes(*table_slot));
        }
        for (ordinal, v) in self
            .traq
            .ordinals_mut(slot)
            .iter_mut()
            .zip(&mut self.variants)
        {
            *ordinal = v.intervals_completed();
            v.insert(rec.kind, &self.hashes);
        }
    }

    fn on_retire(&mut self, seq: u64, _is_mem: bool, _cycle: u64) {
        debug_assert!(seq as i64 > self.retired_up_to, "retirement is in order");
        self.retired_up_to = seq as i64;
    }

    fn on_squash_after(&mut self, bseq: u64, cycle: u64) {
        debug_assert!(bseq as i64 >= self.retired_up_to, "squash of a retired seq");
        for v in &mut self.variants {
            v.trace(cycle, TraceEvent::Squash { after_seq: bseq });
        }
        self.traq.squash_after(bseq);
        let boundary = self
            .traq
            .newest_seq()
            .map_or(self.counted_up_to, |s| (s as i64).max(self.counted_up_to));
        self.alloc_boundary = boundary;
        self.nmi_pending = (bseq as i64 - boundary).max(0) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::VecSink;

    /// Drives a recorder through a synthetic access stream: dispatch,
    /// perform, retire, tick per access, touching enough distinct lines to
    /// cross interval boundaries via the max-size limit.
    fn drive(rec: &mut Recorder, accesses: u64) {
        for seq in 0..accesses {
            assert!(rec.on_dispatch(seq, true));
            rec.on_perform(&PerformRecord {
                seq,
                kind: AccessKind::Load,
                addr: (seq % 64) * 8,
                line: LineAddr::containing((seq % 64) * 8),
                loaded: Some(seq),
                stored: None,
                cycle: seq,
            });
            rec.on_retire(seq, true, seq);
            rec.tick(seq);
            if seq % 5 == 0 {
                // Remote write snoops terminate intervals on conflicts.
                rec.on_snoop(LineAddr::containing((seq % 64) * 8), true, seq);
            }
        }
        rec.finish(accesses);
    }

    #[test]
    fn on_predecessor_keeps_the_latest_interval_of_each_source_core() {
        let cfg = RecorderConfig::splash_default(Design::Opt, None);
        let mut rec = Recorder::new(CoreId::new(1), cfg);
        for (core, ord) in [(3, 4), (0, 2), (3, 1), (2, 7), (0, 5), (3, 4), (0, 0)] {
            rec.on_predecessor(0, CoreId::new(core), ord);
        }
        rec.force_terminate(10);
        // An interval named by no other core records no predecessor, and
        // the scratch list does not carry entries across intervals.
        rec.force_terminate(20);
        rec.on_predecessor(0, CoreId::new(2), 9);
        rec.force_terminate(30);
        let c = CoreId::new;
        assert_eq!(
            rec.ordering(0).preds,
            vec![
                vec![(c(0), 5), (c(2), 7), (c(3), 4)],
                vec![],
                vec![(c(2), 9)]
            ]
        );
    }

    #[test]
    fn streaming_recorder_matches_buffered_recorder() {
        let cfg = RecorderConfig::splash_default(Design::Base, Some(64));
        let mut buffered = Recorder::new(CoreId::new(0), cfg.clone());
        drive(&mut buffered, 500);
        let buffered_log = buffered.into_recordings().remove(0).log;
        assert!(buffered_log.intervals() > 1, "want multiple intervals");

        let shared = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        struct SharedSink(std::rc::Rc<std::cell::RefCell<Vec<LogEntry>>>);
        impl LogSink for SharedSink {
            fn emit(&mut self, e: &LogEntry) -> Result<(), WireError> {
                self.0.borrow_mut().push(*e);
                Ok(())
            }
            fn close(&mut self) -> Result<(), WireError> {
                Ok(())
            }
        }
        let mut streaming = Recorder::new(CoreId::new(0), cfg);
        streaming.set_sink(0, Box::new(SharedSink(shared.clone())));
        drive(&mut streaming, 500);
        assert!(streaming.sink_error(0).is_none());
        assert_eq!(
            streaming.streamed_entries(0),
            buffered_log.entries.len() as u64
        );
        assert_eq!(*shared.borrow(), buffered_log.entries);
        // Streaming mode leaves nothing buffered after finish().
        assert!(streaming.log(0).entries.is_empty());
    }

    #[test]
    fn vec_sink_collects_entries() {
        let cfg = RecorderConfig::splash_default(Design::Base, Some(64));
        let mut rec = Recorder::new(CoreId::new(0), cfg);
        rec.set_sink(0, Box::new(VecSink::default()));
        drive(&mut rec, 200);
        assert!(rec.sink_error(0).is_none());
        assert!(rec.streamed_entries(0) > 0);
    }

    /// Regression: a store that performs and then stays pending while more
    /// than 65536 intervals close must log its exact interval distance.
    /// Pre-fix, `offset = cisn.wrapping_sub(pisn)` into a 16-bit field
    /// aliased 65537 to 1, so replay would patch the store one interval
    /// back instead of 65537.
    #[test]
    fn offset_survives_cisn_wraparound() {
        let cfg = RecorderConfig::splash_default(Design::Base, None);
        let mut rec = Recorder::new(CoreId::new(0), cfg);
        assert!(rec.on_dispatch(0, true));
        rec.on_perform(&PerformRecord {
            seq: 0,
            kind: AccessKind::Store,
            addr: 8,
            line: LineAddr::containing(8),
            loaded: None,
            stored: Some(1),
            cycle: 0,
        });
        const INTERVALS: u64 = (u16::MAX as u64) + 2; // 65537
        for i in 0..INTERVALS {
            rec.force_terminate(i);
        }
        rec.on_retire(0, true, INTERVALS);
        rec.tick(INTERVALS);
        rec.finish(INTERVALS + 1);
        assert_eq!(rec.stats(0).reordered_stores, 1);
        let log = rec.into_recordings().remove(0).log;
        let offset = log
            .entries
            .iter()
            .find_map(|e| match e {
                LogEntry::ReorderedStore { offset, .. } => Some(*offset),
                _ => None,
            })
            .expect("pending store must be logged as reordered");
        assert_eq!(offset, u32::try_from(INTERVALS).unwrap());
    }

    /// Regression: exactly 65536 same-line remote *read* snoops between a
    /// load's perform and counting wrap the 16-bit Snoop Table counters
    /// back to the sampled value. Pre-fix, Opt trusted the table and
    /// counted the load as merely moved-across; the recorder must fall
    /// back to the total-transaction count and conservatively declare it
    /// reordered.
    #[test]
    fn full_snoop_counter_wrap_is_conservatively_reordered() {
        let cfg = RecorderConfig::splash_default(Design::Opt, None);
        let mut rec = Recorder::new(CoreId::new(0), cfg);
        let line = LineAddr::containing(0x40);
        assert!(rec.on_dispatch(0, true));
        rec.on_perform(&PerformRecord {
            seq: 0,
            kind: AccessKind::Load,
            addr: 0x40,
            line,
            loaded: Some(7),
            stored: None,
            cycle: 0,
        });
        // Remote reads conflict only with the write signature, so the
        // interval stays open while the counters make a full lap.
        let laps = 1u64 << 16;
        for i in 0..laps {
            rec.on_snoop(line, false, i);
        }
        rec.force_terminate(laps);
        rec.on_retire(0, true, laps);
        rec.tick(laps);
        rec.finish(laps + 1);
        assert_eq!(rec.stats(0).reordered_loads, 1);
        assert_eq!(rec.stats(0).snoop_wrap_conservative, 1);
        assert_eq!(rec.stats(0).moved_across_intervals, 0);
    }

    fn load(rec: &mut Recorder, seq: u64, addr: u64, cycle: u64) {
        rec.on_perform(&PerformRecord {
            seq,
            kind: AccessKind::Load,
            addr,
            line: LineAddr::containing(addr),
            loaded: Some(addr),
            stored: None,
            cycle,
        });
    }

    /// A squash after some instructions retired leaves the retire
    /// watermark where it was, so re-dispatched instructions that reuse the
    /// squashed seqs count only once they retire themselves.
    #[test]
    fn squash_after_partial_retirement_recounts_reused_seqs() {
        let cfg = RecorderConfig::splash_default(Design::Base, None);
        let mut rec = Recorder::new(CoreId::new(0), cfg);
        for seq in 0..4 {
            assert!(rec.on_dispatch(seq, true));
        }
        for seq in 0..4 {
            load(&mut rec, seq, 0x40 * (seq + 1), 1);
        }
        rec.on_retire(0, true, 2);
        rec.on_retire(1, true, 2);
        rec.on_squash_after(1, 3);
        assert_eq!(rec.traq_len(), 2, "retired entries survive the squash");
        // The correct path reuses seqs 2 and 3: a load that performs at
        // once, then a non-memory instruction.
        assert!(rec.on_dispatch(2, true));
        assert!(rec.on_dispatch(3, false));
        load(&mut rec, 2, 0x400, 4);
        rec.tick(5);
        rec.tick(6);
        assert_eq!(rec.traq_len(), 1, "seq 2 is performed but not retired");
        rec.on_retire(2, true, 7);
        rec.tick(7);
        assert_eq!(rec.traq_len(), 0);
        rec.on_retire(3, false, 8);
        rec.finish(9);
        let log = rec.into_recordings().remove(0).log;
        assert_eq!(log.entries[0], LogEntry::InorderBlock { instrs: 4 });
        assert_eq!(log.intervals(), 1);
    }

    /// The filler `finish` adds for trailing non-memory instructions is
    /// counted because the watermark has passed its seq, not by a flag.
    #[test]
    fn finish_filler_counts_through_the_watermark() {
        let cfg = RecorderConfig::splash_default(Design::Base, None);
        let mut rec = Recorder::new(CoreId::new(0), cfg);
        assert!(rec.on_dispatch(0, true));
        load(&mut rec, 0, 0x40, 1);
        assert!(rec.on_dispatch(1, false));
        assert!(rec.on_dispatch(2, false));
        for seq in 0..3 {
            rec.on_retire(seq, seq == 0, 2);
        }
        rec.finish(3);
        let log = rec.into_recordings().remove(0).log;
        assert_eq!(log.entries[0], LogEntry::InorderBlock { instrs: 3 });
        assert_eq!(log.intervals(), 1);
    }

    #[test]
    #[should_panic(expected = "finish() on a core that is still executing")]
    fn finish_filler_of_unretired_instructions_is_refused() {
        let cfg = RecorderConfig::splash_default(Design::Base, None);
        let mut rec = Recorder::new(CoreId::new(0), cfg);
        assert!(rec.on_dispatch(0, false));
        assert!(rec.on_dispatch(1, false));
        rec.on_retire(0, false, 1);
        rec.finish(2);
    }

    /// Regression: a sink failure mid-record must poison the recording and
    /// keep the un-emitted entries buffered. Pre-fix, the drain dropped
    /// every buffered entry on the floor and counted them all as streamed.
    #[test]
    fn sink_failure_poisons_and_keeps_unsent_entries() {
        let cfg = RecorderConfig::splash_default(Design::Base, Some(64));
        let mut buffered = Recorder::new(CoreId::new(0), cfg.clone());
        drive(&mut buffered, 500);
        let reference = buffered.into_recordings().remove(0).log;
        assert!(reference.entries.len() > 3);

        let mut rec = Recorder::new(CoreId::new(0), cfg);
        let sink = crate::wire::FailingSink::new(3);
        let accepted = sink.handle();
        rec.set_sink(0, Box::new(sink));
        drive(&mut rec, 500);
        assert!(rec.is_poisoned(0));
        assert_eq!(rec.stats(0).sink_errors, 1);
        assert_eq!(rec.streamed_entries(0), 3, "only accepted emits count");
        assert!(
            !rec.log(0).entries.is_empty(),
            "un-emitted entries stay buffered, not silently dropped"
        );
        assert!(matches!(rec.sink_error(0), Some(WireError::Io(_))));
        let accepted = accepted.lock().expect("lock");
        assert_eq!(accepted[..], reference.entries[..3]);
        // Everything the sink accepted plus everything still buffered is a
        // prefix of the reference log: nothing was lost or reordered.
        let recovered: Vec<_> = accepted
            .iter()
            .chain(rec.log(0).entries.iter())
            .copied()
            .collect();
        assert_eq!(recovered[..], reference.entries[..recovered.len()]);
    }
}
