use core::fmt;

use relaxreplay::trace::TraceEvent;
use relaxreplay::{IntervalLog, LineHashes, Recorder, RecorderStats, RunTrace, TraceRing};
use rr_cpu::{Core, CoreObserver, CoreStats, PerformRecord};
use rr_isa::{MemImage, Program};
use rr_mem::{CoherenceMode, CoreId, MemStats, MemTickOutput, MemorySystem};
use rr_replay::RecordedExecution;

use crate::config::{MachineConfig, RecorderSpec};
use crate::tracer::TraceCollector;

/// Everything a recorder variant produced during one recorded run.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// The variant's configuration.
    pub spec: RecorderSpec,
    /// Per-core interval logs.
    pub logs: Vec<IntervalLog>,
    /// Per-core recorder statistics.
    pub stats: Vec<RecorderStats>,
    /// Per-core interval partial order (parallel replay, paper §3.6),
    /// transitively reduced ([`relaxreplay::reduce_orderings`]).
    pub ordering: Vec<relaxreplay::IntervalOrdering>,
}

impl VariantResult {
    /// Total log size in bits across all cores.
    #[must_use]
    pub fn log_bits(&self) -> u64 {
        self.logs.iter().map(IntervalLog::bits).sum()
    }

    /// Aggregated recorder stats across cores.
    #[must_use]
    pub fn reordered(&self) -> u64 {
        self.stats.iter().map(RecorderStats::reordered).sum()
    }

    /// Total memory accesses counted across cores.
    #[must_use]
    pub fn counted_mem(&self) -> u64 {
        self.stats.iter().map(RecorderStats::counted_mem).sum()
    }

    /// Fraction of memory accesses logged as reordered (Figure 9).
    #[must_use]
    pub fn reordered_fraction(&self) -> f64 {
        let mem = self.counted_mem();
        if mem == 0 {
            return 0.0;
        }
        self.reordered() as f64 / mem as f64
    }

    /// Number of `InorderBlock` entries across cores (Figure 10).
    #[must_use]
    pub fn inorder_blocks(&self) -> u64 {
        self.logs.iter().map(|l| l.inorder_blocks() as u64).sum()
    }

    /// Log bits per 1000 instructions (Figure 11's metric).
    #[must_use]
    pub fn bits_per_kilo_instr(&self) -> f64 {
        let instrs: u64 = self.stats.iter().map(|s| s.counted_instrs).sum();
        if instrs == 0 {
            return 0.0;
        }
        self.log_bits() as f64 * 1000.0 / instrs as f64
    }
}

/// The result of recording one parallel execution.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Cycles until every thread finished and all buffers drained.
    pub cycles: u64,
    /// Per-core execution statistics.
    pub core_stats: Vec<CoreStats>,
    /// Memory-system statistics.
    pub mem_stats: MemStats,
    /// Ground truth for replay verification: final memory and per-thread
    /// load-value traces.
    pub recorded: RecordedExecution,
    /// One entry per attached recorder variant.
    pub variants: Vec<VariantResult>,
    /// Clock frequency used for bandwidth conversions.
    pub clock_ghz: f64,
    /// Event timelines captured during the run, when
    /// [`MachineConfig::trace`](crate::MachineConfig) was enabled. The
    /// per-core rings reflect the **first** recorder variant's interval
    /// structure (variants share perform/coherence events but close
    /// intervals at different points); the coherence ring is machine-wide.
    pub trace: Option<RunTrace>,
}

impl RunResult {
    /// Aggregate fraction of memory accesses performed out of program
    /// order (Figure 1's metric).
    #[must_use]
    pub fn ooo_fraction(&self) -> f64 {
        let mem: u64 = self.core_stats.iter().map(CoreStats::mem_instrs).sum();
        let ooo: u64 = self
            .core_stats
            .iter()
            .map(|s| s.ooo_loads + s.ooo_stores)
            .sum();
        if mem == 0 {
            return 0.0;
        }
        ooo as f64 / mem as f64
    }

    /// Log generation rate of a variant in MB/s at the configured clock
    /// (Figures 11 and 14(b)). Returns `None` if `variant` is out of
    /// range.
    #[must_use]
    pub fn log_rate_mbps(&self, variant: usize) -> Option<f64> {
        let v = self.variants.get(variant)?;
        if self.cycles == 0 {
            return Some(0.0);
        }
        let bits = v.log_bits() as f64;
        let seconds = self.cycles as f64 / (self.clock_ghz * 1e9);
        Some(bits / 8.0 / 1e6 / seconds)
    }

    /// Total instructions retired across all cores.
    #[must_use]
    pub fn total_instrs(&self) -> u64 {
        self.core_stats.iter().map(|s| s.retired).sum()
    }

    /// The `index`-th recorded variant.
    ///
    /// # Errors
    ///
    /// An out-of-range `index`.
    pub fn variant(&self, index: usize) -> Result<&VariantResult, crate::Error> {
        let n = self.variants.len();
        self.variants.get(index).ok_or_else(|| {
            crate::Error::msg(format!("variant index {index} out of range ({n} recorded)"))
        })
    }
}

/// Errors from recording a run ([`RecordSession::run`](crate::RecordSession::run)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The machine did not finish within `max_cycles`.
    Deadlock {
        /// The cycle at which the run was aborted.
        at: u64,
    },
    /// More programs than the machine has cores.
    TooManyThreads {
        /// Threads requested.
        threads: usize,
        /// Cores available.
        cores: usize,
    },
    /// A recorder variant that cannot share the first variant's TRAQ
    /// ([`RecorderConfig::shares_traq_with`](relaxreplay::RecorderConfig::shares_traq_with)):
    /// one recorder per core drives every variant through one TRAQ.
    MixedTraq {
        /// Index of the first such variant.
        variant: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at } => write!(f, "simulation did not finish by cycle {at}"),
            SimError::TooManyThreads { threads, cores } => {
                write!(f, "{threads} threads but only {cores} cores")
            }
            SimError::MixedTraq { variant } => write!(
                f,
                "recorder variant {variant} differs from variant 0 in traq_entries, \
                 count_per_cycle or nmi_max; variants recorded together share one TRAQ"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// How the per-cycle core schedule is perturbed — the `rr-check`
/// schedule-exploration knob. Every strategy is a pure function of its
/// parameters and the cycle count: the same strategy always produces the
/// same execution, regardless of host, worker count, or wall clock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ScheduleStrategy {
    /// The untouched baseline order: core 0 ticks first, every core ticks
    /// every cycle. A [`RecordSession`](crate::RecordSession) with no
    /// schedule set runs exactly this.
    #[default]
    Baseline,
    /// Seeded stalls: each cycle, each core skips its pipeline tick with
    /// probability `stall_permille`/1000 (never more than
    /// `max_consecutive` skips in a row), decided by hashing
    /// (seed, cycle, core). Stalling a core is always legal — it is
    /// indistinguishable from a structural hazard — so every stall
    /// schedule is a valid execution the recorder must handle.
    SeededStall {
        /// Hash seed; different seeds give unrelated stall patterns.
        seed: u64,
        /// Per-core per-cycle stall probability in 1/1000ths.
        stall_permille: u16,
        /// Upper bound on consecutive stalls of one core (forward
        /// progress guarantee).
        max_consecutive: u32,
    },
    /// Rotate which core ticks first every `period` cycles, reordering
    /// same-cycle memory-system arrivals between cores.
    RotatePriority {
        /// Cycles between rotations (0 is treated as 1).
        period: u64,
    },
}

/// SplitMix64 finalizer — the stateless hash behind
/// [`ScheduleStrategy::SeededStall`].
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Per-run schedule state: the tick order for the current cycle and the
/// consecutive-stall counters enforcing forward progress.
struct SchedulePlanner {
    strategy: ScheduleStrategy,
    consecutive: Vec<u32>,
    /// `mix64(core)` of each core, the per-core half of the stall hash.
    core_hashes: Vec<u64>,
}

impl SchedulePlanner {
    fn new(strategy: &ScheduleStrategy, n: usize) -> Self {
        SchedulePlanner {
            strategy: strategy.clone(),
            consecutive: vec![0; n],
            core_hashes: (0..n as u64).map(mix64).collect(),
        }
    }

    /// Writes this cycle's core tick order (a rotation of `0..n`) into
    /// `order`.
    fn fill_order(&self, cycle: u64, order: &mut [usize]) {
        let n = order.len();
        let start = match self.strategy {
            ScheduleStrategy::RotatePriority { period } if n > 0 => {
                ((cycle / period.max(1)) % n as u64) as usize
            }
            _ => 0,
        };
        for (k, slot) in order.iter_mut().enumerate() {
            *slot = k;
        }
        order.rotate_left(start);
    }

    /// Whether `core` skips its pipeline tick this cycle.
    fn stalls(&mut self, cycle: u64, core: usize) -> bool {
        let ScheduleStrategy::SeededStall {
            seed,
            stall_permille,
            max_consecutive,
        } = self.strategy
        else {
            return false;
        };
        let h = mix64(seed ^ mix64(cycle ^ self.core_hashes[core]));
        if h % 1000 < u64::from(stall_permille) && self.consecutive[core] < max_consecutive {
            self.consecutive[core] += 1;
            true
        } else {
            self.consecutive[core] = 0;
            false
        }
    }
}

/// Targeted recorder stress applied during a run — the `rr-check`
/// pressure modes. Pressure perturbs only the *recorders* (which are pure
/// observers), never the cores or the memory system, so the sequential
/// ground truth of the execution is untouched and every pressured log
/// must still replay to it exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PressureSpec {
    /// Force-close every recorder's current interval every `period`
    /// cycles (`Some(0)` never force-closes), exercising the `Forced`
    /// termination path and pathologically small intervals.
    pub force_close_period: Option<u64>,
    /// Advance every recorder's interval counter by this many empty
    /// intervals before the first cycle, pushing the 16-bit CISN toward
    /// and across its wrap point (65 500 puts the wrap mid-run).
    pub preadvance_intervals: u64,
    /// Attach a *shadow* copy of the first recorder variant whose log
    /// streams into a sink that fails after accepting this many entries.
    /// The shadow observes the identical execution, so its poisoning and
    /// retention behavior can be audited byte-for-byte against the real
    /// variant's log (see [`SinkFaultReport`]).
    pub sink_fail_after: Option<usize>,
}

impl PressureSpec {
    /// True when no pressure is configured.
    #[must_use]
    pub fn is_none(&self) -> bool {
        *self == PressureSpec::default()
    }
}

/// Options for [`RecordSession::options`](crate::RecordSession::options):
/// a schedule strategy plus recorder pressure. The default is
/// byte-identical to a session run without options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Per-cycle core schedule perturbation.
    pub schedule: ScheduleStrategy,
    /// Recorder stress injection.
    pub pressure: PressureSpec,
}

/// What the injected pressure actually did — the contract `rr-check`
/// audits after each run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PressureReport {
    /// Empty intervals pre-advanced per recorder.
    pub preadvanced: u64,
    /// `force_terminate` calls issued across all cores and variants.
    pub forced_closes: u64,
    /// Core pipeline ticks skipped by the schedule strategy.
    pub stalled_ticks: u64,
    /// Audit of the failing-sink shadow recorder, when one was attached.
    pub sink: Option<SinkFaultReport>,
}

/// Per-core audit of the failing-sink shadow recorder: what survived the
/// injected mid-record sink fault, checked against the fault-free first
/// variant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SinkFaultReport {
    /// Whether each shadow recorder latched its poisoned flag.
    pub poisoned: Vec<bool>,
    /// Entries each shadow streamed successfully before the fault.
    pub streamed: Vec<u64>,
    /// Entries still buffered in each shadow after `finish` — retained,
    /// not dropped.
    pub retained: Vec<usize>,
    /// First sink error per core (empty string = no fault hit).
    pub errors: Vec<String>,
    /// Whether on every core the accepted entries plus the retained
    /// buffer reproduce the fault-free variant's log exactly — nothing
    /// lost, nothing duplicated, nothing reordered.
    pub prefix_intact: bool,
}

/// Everything observing one core: its recorder, when any variant is
/// attached, then its load-value collector (which never refuses a
/// dispatch).
struct CoreObservers<'a> {
    recorder: Option<&'a mut Recorder>,
    values: &'a mut TraceCollector,
}

impl CoreObserver for CoreObservers<'_> {
    fn on_dispatch(&mut self, seq: u64, is_mem: bool) -> bool {
        let recorded = self
            .recorder
            .as_deref_mut()
            .is_none_or(|r| r.on_dispatch(seq, is_mem));
        recorded && self.values.on_dispatch(seq, is_mem)
    }

    fn on_perform(&mut self, record: &PerformRecord) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.on_perform(record);
        }
        self.values.on_perform(record);
    }

    fn on_retire(&mut self, seq: u64, is_mem: bool, cycle: u64) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.on_retire(seq, is_mem, cycle);
        }
        self.values.on_retire(seq, is_mem, cycle);
    }

    fn on_squash_after(&mut self, seq: u64, cycle: u64) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.on_squash_after(seq, cycle);
        }
        self.values.on_squash_after(seq, cycle);
    }
}

/// The recording engine behind [`crate::RecordSession`]: one parallel execution of `programs`
/// against `initial_mem` with every recorder variant attached, under the
/// given schedule/pressure options.
pub(crate) fn run_machine(
    programs: &[Program],
    initial_mem: &MemImage,
    cfg: &MachineConfig,
    configs: &[relaxreplay::RecorderConfig],
    options: &RunOptions,
) -> Result<(RunResult, PressureReport), SimError> {
    if programs.len() > cfg.num_cores {
        return Err(SimError::TooManyThreads {
            threads: programs.len(),
            cores: cfg.num_cores,
        });
    }
    if let Some(variant) = configs
        .iter()
        .position(|c| !c.shares_traq_with(&configs[0]))
    {
        return Err(SimError::MixedTraq { variant });
    }
    let specs: Vec<RecorderSpec> = configs
        .iter()
        .map(|c| RecorderSpec {
            design: c.design,
            max_interval: c.max_interval_instrs,
        })
        .collect();
    let n = programs.len();
    let mut img = initial_mem.clone();
    let mut mem = MemorySystem::new(cfg.mem.clone());
    let mut cores: Vec<Core> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| Core::new(CoreId::new(i as u8), cfg.cpu.clone(), p))
        .collect();
    // Failing-sink pressure: a shadow copy of the first variant, streaming
    // into sinks that fault mid-record. It rides along as one more variant
    // (observing the identical event stream) and is split off before
    // results are collected, so it can be audited against the fault-free
    // first variant without disturbing it.
    let shadow = options
        .pressure
        .sink_fail_after
        .filter(|_| !configs.is_empty());
    let mut attached = configs.to_vec();
    attached.extend(shadow.map(|_| configs[0].clone()));
    // One recorder per core drives every variant; with none attached the
    // cores run unobserved.
    let plan = Recorder::hash_plan(&attached);
    let mut recorders: Vec<Recorder> = if attached.is_empty() {
        Vec::new()
    } else {
        (0..n)
            .map(|i| Recorder::with_variants(CoreId::new(i as u8), &attached, &plan))
            .collect()
    };
    let mut report = PressureReport {
        preadvanced: options.pressure.preadvance_intervals,
        ..PressureReport::default()
    };
    let mut sink_handles = Vec::new();
    if let Some(fail_after) = shadow {
        for rec in &mut recorders {
            let sink = relaxreplay::FailingSink::new(fail_after);
            sink_handles.push(sink.handle());
            rec.set_sink(configs.len(), Box::new(sink));
        }
    }
    // CISN-wrap pressure: burn through empty intervals before the first
    // instruction so the interesting part of the run records with its
    // interval counters near (and past) the 16-bit wrap point.
    if options.pressure.preadvance_intervals > 0 {
        for rec in &mut recorders {
            rec.pre_advance_intervals(options.pressure.preadvance_intervals, 0);
        }
    }
    let mut planner = SchedulePlanner::new(&options.schedule, n);
    let mut tick_order: Vec<usize> = (0..n).collect();
    let mut tracers: Vec<TraceCollector> = (0..n).map(|_| TraceCollector::new()).collect();
    // Event tracing: attach per-core rings to the first recorder variant
    // (its interval structure becomes the timeline) and keep a machine-
    // level ring for coherence traffic. Capture never feeds back into the
    // recorders, so enabling it cannot perturb the recorded logs.
    let mut event_trace = if cfg.trace.enabled() && !configs.is_empty() {
        for (i, rec) in recorders.iter_mut().enumerate() {
            rec.set_tracer(0, TraceRing::new(CoreId::new(i as u8), &cfg.trace));
        }
        Some(RunTrace::new(n, &cfg.trace))
    } else {
        None
    };
    let directory = cfg.mem.mode == CoherenceMode::Directory;
    let mut out = MemTickOutput::default();
    let mut line = LineHashes::default();
    // Ordering replies to a snoop's requester: (variant, observer, interval).
    let mut edges: Vec<(usize, CoreId, u64)> = Vec::new();

    let mut cycle = 0u64;
    let final_cycle = loop {
        mem.tick(cycle, &mut out);
        for c in &out.completions {
            cores[c.core.index()].push_completion(c.req);
        }
        for snoop in &out.snoops {
            if let Some(t) = &mut event_trace {
                t.coherence.push(
                    cycle,
                    TraceEvent::Coherence {
                        from: snoop.from.index() as u8,
                        line: snoop.line.line_number(),
                        is_write: snoop.is_write,
                    },
                );
            }
            // Hashed once for every observer. Observers process the snoop,
            // then "reply" with ordering information for the requester's
            // current interval in each variant — the Cyrus-style piggyback
            // the paper's §3.6 pairing implies.
            plan.hash(snoop.line, &mut line);
            edges.clear();
            for (i, rec) in recorders.iter_mut().enumerate() {
                let core = CoreId::new(i as u8);
                if snoop.scope.observes(core) {
                    rec.on_hashed_snoop(&line, snoop.is_write, cycle);
                    for v in 0..rec.variants() {
                        if let Some(ord) = rec.intervals_completed(v).checked_sub(1) {
                            edges.push((v, core, ord));
                        }
                    }
                }
            }
            if let Some(requester) = recorders.get_mut(snoop.from.index()) {
                for &(v, core, ord) in &edges {
                    requester.on_predecessor(v, core, ord);
                }
            }
        }
        if directory {
            for &(core, line) in &out.dirty_evictions {
                if let Some(rec) = recorders.get_mut(core.index()) {
                    rec.on_dirty_eviction(line, cycle);
                }
            }
        }
        planner.fill_order(cycle, &mut tick_order);
        for &i in &tick_order {
            let stalled = planner.stalls(cycle, i);
            let mut observers = CoreObservers {
                recorder: recorders.get_mut(i),
                values: &mut tracers[i],
            };
            if stalled {
                // A stalled pipeline still performs accesses whose
                // completions arrive this cycle (the memory system's
                // perform-at-delivery contract): otherwise a remote
                // conflicting snoop can land between completion and
                // perform and the recorder never sees the conflict.
                report.stalled_ticks += 1;
                cores[i].drain_completions(cycle, &mut img, &mut observers);
            } else {
                cores[i].tick(cycle, &mut img, &mut mem, &mut observers);
            }
        }
        if let Some(period) = options.pressure.force_close_period {
            if period > 0 && cycle > 0 && cycle.is_multiple_of(period) {
                for rec in &mut recorders {
                    rec.force_terminate(cycle);
                    report.forced_closes += rec.variants() as u64;
                }
            }
        }
        for rec in &mut recorders {
            rec.tick(cycle);
        }
        if cfg.invariant_check_period > 0 && cycle.is_multiple_of(cfg.invariant_check_period) {
            rr_mem::invariants::assert_swmr(&mem);
        }
        if cores.iter().all(Core::is_done) && mem.quiescent() {
            break cycle;
        }
        cycle += 1;
        if cycle >= cfg.max_cycles {
            return Err(SimError::Deadlock { at: cycle });
        }
    };

    let mut sink_report = shadow.map(|_| SinkFaultReport {
        prefix_intact: true,
        ..SinkFaultReport::default()
    });
    let mut recordings = Vec::with_capacity(n);
    for (i, mut rec) in recorders.into_iter().enumerate() {
        rec.finish(final_cycle);
        if let Some(t) = &mut event_trace {
            if let Some(ring) = rec.take_tracer(0) {
                t.cores[i] = ring;
            }
        }
        if let Some(sink) = &mut sink_report {
            let v = configs.len();
            sink.poisoned.push(rec.is_poisoned(v));
            sink.streamed.push(rec.streamed_entries(v));
            sink.errors.push(
                rec.sink_error(v)
                    .map(ToString::to_string)
                    .unwrap_or_default(),
            );
        }
        recordings.push(rec.into_recordings().into_iter());
    }
    let variants: Vec<VariantResult> = specs
        .into_iter()
        .map(|spec| {
            let (mut logs, mut stats, mut ordering) = (Vec::new(), Vec::new(), Vec::new());
            for r in recordings.iter_mut().filter_map(Iterator::next) {
                logs.push(r.log);
                stats.push(r.stats);
                ordering.push(r.ordering);
            }
            // Every consumer gets the reduced form: only the edges replay needs.
            relaxreplay::reduce_orderings(&mut ordering);
            VariantResult {
                spec,
                logs,
                stats,
                ordering,
            }
        })
        .collect();

    // Audit the failing-sink shadow against the (fault-free) first
    // variant's final log: accepted prefix + retained buffer must
    // reproduce it exactly on every core.
    if let Some(mut sink) = sink_report {
        for (i, r) in recordings.iter_mut().filter_map(Iterator::next).enumerate() {
            let buffered = r.log.entries;
            sink.retained.push(buffered.len());
            let mut combined = sink_handles[i]
                .lock()
                .expect("sink handle poisoned")
                .clone();
            combined.extend(buffered);
            if variants[0].logs[i].entries != combined {
                sink.prefix_intact = false;
            }
        }
        report.sink = Some(sink);
    }

    Ok((
        RunResult {
            cycles: final_cycle,
            core_stats: cores.iter().map(|c| c.stats().clone()).collect(),
            mem_stats: mem.stats().clone(),
            recorded: RecordedExecution {
                final_mem: img,
                load_traces: tracers
                    .into_iter()
                    .map(TraceCollector::into_trace)
                    .collect(),
            },
            variants,
            clock_ghz: cfg.clock_ghz,
            trace: event_trace,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use crate::RecordSession;
    use relaxreplay::{Design, RecorderConfig};

    use super::SimError;

    #[test]
    fn variants_that_cannot_share_a_traq_are_refused_before_the_first_cycle() {
        let w = rr_workloads::by_name("fft", 2, 1).expect("fft");
        let mut small = RecorderConfig::splash_default(Design::Base, Some(4096));
        small.traq_entries = 4;
        let opt = RecorderConfig::splash_default(Design::Opt, Some(4096));
        for configs in [[small.clone(), opt.clone()], [opt, small]] {
            let refused = RecordSession::new(&w.programs, &w.initial_mem)
                .recorder_configs(&configs)
                .run();
            assert_eq!(refused.err(), Some(SimError::MixedTraq { variant: 1 }));
        }
        let mut counting = RecorderConfig::splash_default(Design::Base, None);
        let mut nmi = counting.clone();
        counting.count_per_cycle = 4;
        nmi.nmi_max = 3;
        for odd in [counting, nmi] {
            let configs = [RecorderConfig::splash_default(Design::Opt, None), odd];
            let refused = RecordSession::new(&w.programs, &w.initial_mem)
                .recorder_configs(&configs)
                .run();
            assert_eq!(refused.err(), Some(SimError::MixedTraq { variant: 1 }));
        }
    }
}
