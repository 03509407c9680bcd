use std::collections::VecDeque;

use crate::{
    cache::SetAssocCache, config::CoherenceMode, CoreId, CoreSet, IdHashMap, LineAddr, MemConfig,
    MemStats, MesiState,
};

/// Identifier of an in-flight memory request, matched against
/// [`Completion::req`].
pub type ReqId = u64;

/// The kind of memory access a core issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load: needs a readable copy (GetS on miss).
    Load,
    /// A store: needs an exclusive copy (GetM/Upgrade on miss).
    Store,
    /// An atomic read-modify-write: like a store, but flagged so snoop
    /// events report it as a write.
    Rmw,
}

impl AccessKind {
    fn needs_write(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::Rmw)
    }
}

/// Result of [`MemorySystem::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// The access hit in the L1. **It performs now** (in the current
    /// cycle): the core must sample/update the functional memory image and
    /// notify the recorder immediately. The loaded value becomes available
    /// to dependent instructions after `latency` cycles.
    Hit {
        /// L1 hit latency in cycles.
        latency: u64,
    },
    /// The access missed; a [`Completion`] with this id will be delivered
    /// by a future [`MemorySystem::tick`]. The access performs at delivery.
    Pending {
        /// Request id to match against [`Completion::req`].
        req: ReqId,
    },
    /// The request could not be accepted (MSHRs exhausted); retry next
    /// cycle.
    Retry,
}

/// Notification that a pending request has completed. The access performs at
/// the cycle this is delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The requesting core.
    pub core: CoreId,
    /// The request id returned by [`MemorySystem::access`].
    pub req: ReqId,
    /// The line the request was for.
    pub line: LineAddr,
}

/// Which cores observe a coherence transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnoopScope {
    /// Snoopy mode: every core except the requester observes it.
    AllExcept(CoreId),
    /// Directory mode: only the listed cores observe it.
    Cores(CoreSet),
}

impl SnoopScope {
    /// Whether `core` observes a snoop with this scope.
    #[must_use]
    pub fn observes(&self, core: CoreId) -> bool {
        match self {
            SnoopScope::AllExcept(c) => *c != core,
            SnoopScope::Cores(cs) => cs.contains(&core),
        }
    }
}

/// A coherence transaction observed by other cores.
///
/// The recorder checks these against its read/write signatures (interval
/// termination) and Snoop Table (RelaxReplay_Opt reorder detection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnoopEvent {
    /// The core whose transaction this is.
    pub from: CoreId,
    /// The line address of the transaction.
    pub line: LineAddr,
    /// `true` for GetM/Upgrade (a remote write), `false` for GetS (a
    /// remote read).
    pub is_write: bool,
    /// Which cores observe the event.
    pub scope: SnoopScope,
}

impl SnoopEvent {
    /// The transaction's coherence verb, for human-readable event labels
    /// (`"GetM"` for writes, `"GetS"` for reads).
    #[must_use]
    pub fn kind_str(&self) -> &'static str {
        if self.is_write {
            "GetM"
        } else {
            "GetS"
        }
    }
}

/// Everything the memory system produced in one cycle. The caller owns it
/// and hands the same buffer to every [`MemorySystem::tick`], which clears
/// and refills it, so the cycle loop allocates nothing once the buffers
/// have grown.
#[derive(Clone, Debug, Default)]
pub struct MemTickOutput {
    /// Requests that completed (and perform) this cycle.
    pub completions: Vec<Completion>,
    /// Coherence transactions delivered to observers this cycle.
    pub snoops: Vec<SnoopEvent>,
    /// Dirty L1 lines evicted this cycle, as `(evicting core, line)`.
    /// Used by RelaxReplay_Opt in directory mode (paper §4.3).
    pub dirty_evictions: Vec<(CoreId, LineAddr)>,
}

impl MemTickOutput {
    /// True when nothing happened this cycle.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty() && self.snoops.is_empty() && self.dirty_evictions.is_empty()
    }

    fn clear(&mut self) {
        self.completions.clear();
        self.snoops.clear();
        self.dirty_evictions.clear();
    }
}

#[derive(Clone, Debug)]
struct Pending {
    core: CoreId,
    kind: AccessKind,
    line: LineAddr,
    reqs: Vec<ReqId>,
    enqueued: u64,
}

#[derive(Clone, Debug)]
struct Inflight {
    core: CoreId,
    line: LineAddr,
    write: bool,
    complete_at: u64,
    reqs: Vec<ReqId>,
    install: MesiState,
}

#[derive(Clone, Debug)]
struct ScheduledSnoop {
    at: u64,
    ev: SnoopEvent,
}

/// The coherent memory system: per-core MESI L1s, a shared L2, and a
/// ring-based bus that serializes transactions and broadcasts snoops.
///
/// # Timing model and correctness invariants
///
/// * At most one *real* bus transaction is granted per cycle (round-robin
///   over queued requests); any number of *quick grants* (requests whose
///   permission already arrived by grant time) may resolve per cycle.
/// * A granted transaction keeps its line **busy** until completion; later
///   requests to the line wait. This serializes same-line transactions,
///   which is how the model provides write atomicity.
/// * Snoops are delivered at `grant + snoop_delay` and the transaction
///   completes no earlier than `snoop_delay + l1_hit_latency + 1` cycles
///   after the grant, so every stale copy is invalidated strictly before
///   the requester's access performs.
/// * Within [`MemorySystem::tick`], snoops are processed before
///   completions, and grants last; cores must call
///   [`MemorySystem::access`] after `tick`. Together with perform-at-hit
///   semantics (see [`Response::Hit`]) this guarantees that any two
///   conflicting performs on different cores are separated by a snoop that
///   the earlier core observes *after* its perform — exactly the property
///   interval-based recording needs.
pub struct MemorySystem {
    cfg: MemConfig,
    l1s: Vec<SetAssocCache<MesiState>>,
    l2: SetAssocCache<()>,
    pending: VecDeque<Pending>,
    inflight: Vec<Inflight>,
    /// Completions due this cycle, moved out of `inflight` (kept to reuse
    /// its capacity).
    completing: Vec<Inflight>,
    snoops: Vec<ScheduledSnoop>,
    next_req: ReqId,
    /// Directory mode: the sharer list the directory *believes* (clean
    /// evictions are silent, so stale sharers remain and keep receiving
    /// invalidations — only dirty evictions/writebacks remove a core).
    dir_sharers: IdHashMap<LineAddr, CoreSet>,
    stats: MemStats,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("cores", &self.cfg.num_cores)
            .field("pending", &self.pending.len())
            .field("inflight", &self.inflight.len())
            .finish_non_exhaustive()
    }
}

impl MemorySystem {
    /// Creates a memory system for `cfg.num_cores` cores.
    ///
    /// The shared L2's set count is rounded up to a power of two, so at a
    /// core count that is not a power of two (3, 5–7) it holds more than
    /// `l2_bytes_per_core` per core. Construction allocates nothing sized
    /// by either cache's capacity (see [`SetAssocCache`]).
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        let l1_sets = cfg.l1_sets();
        let l2_sets = cfg.l2_sets().next_power_of_two();
        MemorySystem {
            l1s: (0..cfg.num_cores)
                .map(|_| SetAssocCache::new(l1_sets, cfg.l1_assoc))
                .collect(),
            l2: SetAssocCache::new(l2_sets, cfg.l2_assoc),
            pending: VecDeque::new(),
            inflight: Vec::new(),
            completing: Vec::new(),
            snoops: Vec::new(),
            next_req: 0,
            dir_sharers: IdHashMap::default(),
            stats: MemStats::default(),
            cfg,
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The MESI state of `line` in `core`'s L1 (Invalid if absent).
    /// Exposed for tests and invariant checks.
    #[must_use]
    pub fn l1_state(&self, core: CoreId, line: LineAddr) -> MesiState {
        self.l1s[core.index()]
            .peek(line)
            .copied()
            .unwrap_or(MesiState::Invalid)
    }

    /// Iterates over all resident lines of `core`'s L1.
    pub fn l1_lines(&self, core: CoreId) -> impl Iterator<Item = (LineAddr, MesiState)> + '_ {
        self.l1s[core.index()].iter().map(|(l, s)| (l, *s))
    }

    /// Number of outstanding (pending + in-flight) transactions for `core`.
    #[must_use]
    pub fn outstanding(&self, core: CoreId) -> usize {
        self.pending.iter().filter(|p| p.core == core).count()
            + self.inflight.iter().filter(|t| t.core == core).count()
    }

    /// True when no request is queued or in flight.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.pending.is_empty() && self.inflight.is_empty()
    }

    fn snoop_delay(&self) -> u64 {
        (self.cfg.ring_traversal() / 2).max(self.cfg.l1_hit_latency + 1)
    }

    fn min_txn_latency(&self) -> u64 {
        self.snoop_delay() + self.cfg.l1_hit_latency + 1
    }

    /// Issues an access for `core` to `line`.
    ///
    /// Must be called *after* this cycle's [`MemorySystem::tick`]. On
    /// [`Response::Hit`] the access performs immediately (see the type's
    /// docs); otherwise a [`Completion`] will be delivered later.
    pub fn access(
        &mut self,
        cycle: u64,
        core: CoreId,
        kind: AccessKind,
        line: LineAddr,
    ) -> Response {
        let l1 = &mut self.l1s[core.index()];
        if let Some(state) = l1.get_mut(line) {
            let hit = if kind.needs_write() {
                if state.writable() {
                    *state = MesiState::Modified;
                    true
                } else {
                    false
                }
            } else {
                state.readable()
            };
            if hit {
                self.stats.l1_hits += 1;
                return Response::Hit {
                    latency: self.cfg.l1_hit_latency,
                };
            }
        }
        // Miss path. Try to merge into an existing transaction or request.
        self.stats.l1_misses += 1;
        let req = self.next_req;
        if let Some(t) = self
            .inflight
            .iter_mut()
            .find(|t| t.core == core && t.line == line)
        {
            if t.write || !kind.needs_write() {
                t.reqs.push(req);
                self.next_req += 1;
                return Response::Pending { req };
            }
            // Read transaction in flight but we need write permission: fall
            // through to queue a separate request (deferred by line-busy).
        }
        if let Some(p) = self
            .pending
            .iter_mut()
            .find(|p| p.core == core && p.line == line)
        {
            if kind.needs_write() && !p.kind.needs_write() {
                p.kind = AccessKind::Store; // upgrade the queued request
            }
            p.reqs.push(req);
            self.next_req += 1;
            return Response::Pending { req };
        }
        if self.outstanding(core) >= self.cfg.l1_mshrs {
            self.stats.mshr_retries += 1;
            return Response::Retry;
        }
        self.next_req += 1;
        self.pending.push_back(Pending {
            core,
            kind,
            line,
            reqs: vec![req],
            enqueued: cycle,
        });
        Response::Pending { req }
    }

    /// Advances the memory system one cycle, replacing the contents of
    /// `out` with what happened in it.
    ///
    /// Processing order (load-bearing for correctness, see the type docs):
    /// due snoops first, then due completions, then new grants.
    pub fn tick(&mut self, cycle: u64, out: &mut MemTickOutput) {
        out.clear();
        self.deliver_snoops(cycle, out);
        self.deliver_completions(cycle, out);
        self.grant(cycle, out);
    }

    fn deliver_snoops(&mut self, cycle: u64, out: &mut MemTickOutput) {
        for ScheduledSnoop { ev, .. } in self.snoops.extract_if(.., |s| s.at == cycle) {
            // Update every observer's L1 state.
            for (idx, l1) in self.l1s.iter_mut().enumerate() {
                let core = CoreId::new(idx as u8);
                if core == ev.from {
                    continue;
                }
                if let Some(state) = l1.peek(ev.line).copied() {
                    if ev.is_write {
                        l1.remove(ev.line);
                    } else {
                        let new = state.after_remote_read();
                        if let Some(s) = l1.get_mut(ev.line) {
                            *s = new;
                        }
                    }
                }
                if ev.scope.observes(core) {
                    self.stats.snoops_delivered += 1;
                }
            }
            out.snoops.push(ev);
        }
    }

    fn deliver_completions(&mut self, cycle: u64, out: &mut MemTickOutput) {
        let mut done = std::mem::take(&mut self.completing);
        done.extend(self.inflight.extract_if(.., |t| t.complete_at == cycle));
        for t in done.drain(..) {
            self.install(t.core, t.line, t.install, out);
            out.completions.extend(t.reqs.iter().map(|&req| Completion {
                core: t.core,
                req,
                line: t.line,
            }));
        }
        self.completing = done;
    }

    /// A line is busy while an in-flight transaction holds it; since no
    /// request to a busy line is granted, at most one ever does.
    fn line_busy(&self, line: LineAddr) -> bool {
        self.inflight.iter().any(|t| t.line == line)
    }

    fn install(&mut self, core: CoreId, line: LineAddr, state: MesiState, out: &mut MemTickOutput) {
        if let Some((victim_line, victim_state)) = self.l1s[core.index()].insert(line, state) {
            if victim_state.dirty() {
                self.stats.dirty_evictions += 1;
                out.dirty_evictions.push((core, victim_line));
                // The write-back installs the line in the L2 (timing of the
                // PutM itself is not modeled; see DESIGN.md). The directory
                // learns about the write-back and drops the owner.
                self.l2.insert(victim_line, ());
                if self.cfg.mode == CoherenceMode::Directory {
                    if let Some(sharers) = self.dir_sharers.get_mut(&victim_line) {
                        sharers.remove(core);
                    }
                }
            }
            // Clean evictions are silent: the directory keeps the stale
            // sharer.
        }
    }

    fn grant(&mut self, cycle: u64, out: &mut MemTickOutput) {
        // Resolve any number of quick grants (no bus occupancy), and at most
        // one real transaction per cycle.
        let mut granted_real = false;
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if self.line_busy(p.line) {
                i += 1;
                continue;
            }
            let state = self.l1_state(p.core, p.line);
            let quick = if p.kind.needs_write() {
                state.writable()
            } else {
                state.readable()
            };
            if quick {
                let p = self.pending.remove(i).expect("index in range");
                self.stats.quick_grants += 1;
                self.stats.queue_wait_cycles += cycle - p.enqueued;
                if p.kind.needs_write() {
                    if let Some(s) = self.l1s[p.core.index()].get_mut(p.line) {
                        *s = MesiState::Modified;
                    }
                }
                // Performs now, at the grant cycle (see type docs).
                for req in &p.reqs {
                    out.completions.push(Completion {
                        core: p.core,
                        req: *req,
                        line: p.line,
                    });
                }
                continue; // same index now holds the next element
            }
            if granted_real {
                i += 1;
                continue;
            }
            // A real transaction.
            let p = self.pending.remove(i).expect("index in range");
            granted_real = true;
            self.stats.queue_wait_cycles += cycle - p.enqueued;
            self.launch(cycle, p, state, out);
            // Keep scanning: later requests may still quick-grant.
        }
    }

    fn launch(&mut self, cycle: u64, p: Pending, state: MesiState, _out: &mut MemTickOutput) {
        let write = p.kind.needs_write();
        let upgrade = write && state == MesiState::Shared;
        // Who observes the transaction? In directory mode, the cores the
        // *directory* lists as sharers — a superset of the actual holders,
        // because clean evictions are silent (stale sharers still receive
        // invalidations; this over-approximation is what keeps interval
        // ordering and the Snoop Table sound without extra hardware).
        let scope = match self.cfg.mode {
            CoherenceMode::Snoopy => SnoopScope::AllExcept(p.core),
            CoherenceMode::Directory => {
                let sharers = self.dir_sharers.entry(p.line).or_default();
                let mut observers = *sharers;
                observers.remove(p.core);
                // Directory update: a write leaves only the requester; a
                // read adds it.
                if write {
                    *sharers = CoreSet::default();
                }
                sharers.insert(p.core);
                SnoopScope::Cores(observers)
            }
        };
        // Data source and raw latency.
        let raw_latency = if upgrade {
            self.stats.upgrades += 1;
            self.cfg.upgrade_latency()
        } else {
            let other_has_m = (0..self.cfg.num_cores)
                .filter(|&i| i != p.core.index())
                .any(|i| self.l1s[i].peek(p.line) == Some(&MesiState::Modified));
            if write {
                self.stats.getm += 1;
            } else {
                self.stats.gets += 1;
            }
            if other_has_m {
                self.stats.src_c2c += 1;
                // The dirty data also reaches the L2 on the way.
                self.l2.insert(p.line, ());
                self.cfg.c2c_total_latency()
            } else if self.l2.get(p.line).is_some() {
                self.stats.src_l2 += 1;
                self.cfg.l2_total_latency()
            } else {
                self.stats.src_memory += 1;
                self.l2.insert(p.line, ());
                self.cfg.memory_total_latency()
            }
        };
        let latency = raw_latency.max(self.min_txn_latency());
        // Install state at completion.
        let install = if write {
            MesiState::Modified
        } else {
            let any_other = (0..self.cfg.num_cores)
                .filter(|&i| i != p.core.index())
                .any(|i| self.l1s[i].contains(p.line));
            if any_other {
                MesiState::Shared
            } else {
                MesiState::Exclusive
            }
        };
        self.snoops.push(ScheduledSnoop {
            at: cycle + self.snoop_delay(),
            ev: SnoopEvent {
                from: p.core,
                line: p.line,
                is_write: write,
                scope,
            },
        });
        self.inflight.push(Inflight {
            core: p.core,
            line: p.line,
            write,
            complete_at: cycle + latency,
            reqs: p.reqs,
            install,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(cores: usize) -> MemorySystem {
        MemorySystem::new(MemConfig::splash_default(cores))
    }

    fn core(i: u8) -> CoreId {
        CoreId::new(i)
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    /// Runs ticks until the request with `req` completes, returning the
    /// completion cycle and all outputs seen.
    fn run_until_complete(
        m: &mut MemorySystem,
        start: u64,
        req: ReqId,
    ) -> (u64, Vec<MemTickOutput>) {
        let mut outs = Vec::new();
        for cycle in start..start + 10_000 {
            let mut out = MemTickOutput::default();
            m.tick(cycle, &mut out);
            let done = out.completions.iter().any(|c| c.req == req);
            outs.push(out);
            if done {
                return (cycle, outs);
            }
        }
        panic!("request {req} never completed");
    }

    #[test]
    fn cold_load_misses_to_memory_then_hits() {
        let mut m = mem(2);
        let r = match m.access(0, core(0), AccessKind::Load, line(1)) {
            Response::Pending { req } => req,
            other => panic!("expected miss, got {other:?}"),
        };
        let (done_at, _) = run_until_complete(&mut m, 1, r);
        assert!(done_at >= m.config().memory_total_latency());
        assert_eq!(m.l1_state(core(0), line(1)), MesiState::Exclusive);
        // Second access hits.
        match m.access(done_at, core(0), AccessKind::Load, line(1)) {
            Response::Hit { latency } => assert_eq!(latency, 2),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(m.stats().src_memory, 1);
    }

    #[test]
    fn store_hit_on_exclusive_silently_upgrades() {
        let mut m = mem(2);
        let r = match m.access(0, core(0), AccessKind::Load, line(1)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t, _) = run_until_complete(&mut m, 1, r);
        assert!(matches!(
            m.access(t, core(0), AccessKind::Store, line(1)),
            Response::Hit { .. }
        ));
        assert_eq!(m.l1_state(core(0), line(1)), MesiState::Modified);
        assert_eq!(m.stats().transactions(), 1, "no extra bus transaction");
    }

    #[test]
    fn second_sharer_installs_shared_and_l2_services() {
        let mut m = mem(2);
        let r0 = match m.access(0, core(0), AccessKind::Load, line(1)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t, _) = run_until_complete(&mut m, 1, r0);
        let r1 = match m.access(t, core(1), AccessKind::Load, line(1)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t2, _) = run_until_complete(&mut m, t + 1, r1);
        assert_eq!(m.l1_state(core(1), line(1)), MesiState::Shared);
        // Core 0 was downgraded by the read snoop.
        assert_eq!(m.l1_state(core(0), line(1)), MesiState::Shared);
        // Served by L2 (faster than memory).
        assert!(t2 - t <= m.config().l2_total_latency() + 2);
        assert_eq!(m.stats().src_l2, 1);
    }

    #[test]
    fn remote_write_invalidates_sharers_with_snoop_before_completion() {
        let mut m = mem(4);
        // Core 0 obtains the line.
        let r0 = match m.access(0, core(0), AccessKind::Load, line(9)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t, _) = run_until_complete(&mut m, 1, r0);
        // Core 1 writes it.
        let r1 = match m.access(t, core(1), AccessKind::Store, line(9)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t2, outs) = run_until_complete(&mut m, t + 1, r1);
        // The snoop to core 0 must have been delivered strictly before the
        // completion cycle.
        let snoop_cycle = outs
            .iter()
            .enumerate()
            .find(|(_, o)| o.snoops.iter().any(|s| s.line == line(9) && s.is_write))
            .map(|(i, _)| t + 1 + i as u64)
            .expect("snoop delivered");
        assert!(snoop_cycle < t2, "snoop {snoop_cycle} !< completion {t2}");
        assert_eq!(m.l1_state(core(0), line(9)), MesiState::Invalid);
        assert_eq!(m.l1_state(core(1), line(9)), MesiState::Modified);
    }

    #[test]
    fn dirty_line_is_serviced_cache_to_cache() {
        let mut m = mem(2);
        let r0 = match m.access(0, core(0), AccessKind::Store, line(3)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t, _) = run_until_complete(&mut m, 1, r0);
        assert_eq!(m.l1_state(core(0), line(3)), MesiState::Modified);
        let r1 = match m.access(t, core(1), AccessKind::Load, line(3)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        run_until_complete(&mut m, t + 1, r1);
        assert_eq!(m.stats().src_c2c, 1);
        assert_eq!(m.l1_state(core(0), line(3)), MesiState::Shared);
        assert_eq!(m.l1_state(core(1), line(3)), MesiState::Shared);
    }

    #[test]
    fn same_line_transactions_serialize() {
        let mut m = mem(2);
        let r0 = match m.access(0, core(0), AccessKind::Store, line(5)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let r1 = match m.access(0, core(1), AccessKind::Store, line(5)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t0, _) = run_until_complete(&mut m, 1, r0);
        let (t1, _) = run_until_complete(&mut m, t0 + 1, r1);
        assert!(t1 > t0, "line-busy must serialize same-line transactions");
        // The second write invalidated the first writer.
        assert_eq!(m.l1_state(core(0), line(5)), MesiState::Invalid);
        assert_eq!(m.l1_state(core(1), line(5)), MesiState::Modified);
    }

    #[test]
    fn merge_same_core_loads_into_one_transaction() {
        let mut m = mem(2);
        let r0 = match m.access(0, core(0), AccessKind::Load, line(7)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let r1 = match m.access(0, core(0), AccessKind::Load, line(7)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        assert_ne!(r0, r1);
        let (t, outs) = run_until_complete(&mut m, 1, r1);
        // Both complete on the same cycle via one transaction.
        let last = outs.last().expect("ran at least one tick");
        assert!(last.completions.iter().any(|c| c.req == r0));
        assert_eq!(m.stats().transactions(), 1);
        let _ = t;
    }

    #[test]
    fn store_after_load_to_same_line_upgrades() {
        let mut m = mem(2);
        let r0 = match m.access(0, core(0), AccessKind::Load, line(2)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t, _) = run_until_complete(&mut m, 1, r0);
        // Make core 1 share the line so core 0 ends up in S.
        let r1 = match m.access(t, core(1), AccessKind::Load, line(2)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t2, _) = run_until_complete(&mut m, t + 1, r1);
        assert_eq!(m.l1_state(core(0), line(2)), MesiState::Shared);
        let r2 = match m.access(t2, core(0), AccessKind::Store, line(2)) {
            Response::Pending { req } => req,
            other => panic!("expected upgrade miss, got {other:?}"),
        };
        run_until_complete(&mut m, t2 + 1, r2);
        assert_eq!(m.stats().upgrades, 1);
        assert_eq!(m.l1_state(core(0), line(2)), MesiState::Modified);
        assert_eq!(m.l1_state(core(1), line(2)), MesiState::Invalid);
    }

    #[test]
    fn mshr_exhaustion_returns_retry() {
        let mut cfg = MemConfig::splash_default(2);
        cfg.l1_mshrs = 2;
        let mut m = MemorySystem::new(cfg);
        assert!(matches!(
            m.access(0, core(0), AccessKind::Load, line(10)),
            Response::Pending { .. }
        ));
        assert!(matches!(
            m.access(0, core(0), AccessKind::Load, line(11)),
            Response::Pending { .. }
        ));
        assert!(matches!(
            m.access(0, core(0), AccessKind::Load, line(12)),
            Response::Retry
        ));
        assert_eq!(m.stats().mshr_retries, 1);
    }

    #[test]
    fn directory_mode_scopes_snoops_to_sharers() {
        let mut cfg = MemConfig::splash_default(4);
        cfg.mode = CoherenceMode::Directory;
        let mut m = MemorySystem::new(cfg);
        // Core 0 gets the line; cores 2,3 never touch it.
        let r0 = match m.access(0, core(0), AccessKind::Load, line(1)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (t, _) = run_until_complete(&mut m, 1, r0);
        // Core 1 writes it: only core 0 should observe.
        let r1 = match m.access(t, core(1), AccessKind::Store, line(1)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (_, outs) = run_until_complete(&mut m, t + 1, r1);
        let snoop = outs
            .iter()
            .flat_map(|o| &o.snoops)
            .find(|s| s.is_write)
            .expect("write snoop");
        assert!(snoop.scope.observes(core(0)));
        assert!(!snoop.scope.observes(core(2)));
        assert!(!snoop.scope.observes(core(3)));
    }

    #[test]
    fn snoopy_mode_broadcasts_to_everyone_else() {
        let mut m = mem(4);
        let r0 = match m.access(0, core(0), AccessKind::Store, line(1)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        let (_, outs) = run_until_complete(&mut m, 1, r0);
        let snoop = outs
            .iter()
            .flat_map(|o| &o.snoops)
            .next()
            .expect("snoop broadcast");
        assert!(!snoop.scope.observes(core(0)));
        for i in 1..4 {
            assert!(snoop.scope.observes(core(i)));
        }
    }

    #[test]
    fn dirty_eviction_is_reported() {
        // 1-set-per-way tiny L1 to force evictions quickly.
        let mut cfg = MemConfig::splash_default(2);
        cfg.l1_bytes = 4 * 32; // 4 lines total, 4-way => a single set
        let mut m = MemorySystem::new(cfg);
        let mut evicted = Vec::new();
        let mut cycle = 0;
        for n in 0..5 {
            let r = match m.access(cycle, core(0), AccessKind::Store, line(n)) {
                Response::Pending { req } => req,
                Response::Hit { .. } => continue,
                Response::Retry => panic!("unexpected retry"),
            };
            let (t, outs) = run_until_complete(&mut m, cycle + 1, r);
            for o in outs {
                evicted.extend(o.dirty_evictions);
            }
            cycle = t + 1;
        }
        assert_eq!(evicted, vec![(core(0), line(0))]);
        assert_eq!(m.stats().dirty_evictions, 1);
    }

    #[test]
    fn quick_grant_when_permission_already_arrived() {
        let mut m = mem(2);
        // Two separate store requests to the same line from the same core:
        // the first misses; the second cannot merge into a *pending* write
        // it created itself (it does merge) — instead exercise: load txn in
        // flight, then store queued separately.
        let r0 = match m.access(0, core(0), AccessKind::Load, line(4)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        // Tick once so the load transaction is *in flight* (a store cannot
        // merge into a read transaction and must queue separately).
        m.tick(1, &mut MemTickOutput::default());
        let r1 = match m.access(1, core(0), AccessKind::Store, line(4)) {
            Response::Pending { req } => req,
            other => panic!("{other:?}"),
        };
        // The line arrives Exclusive (no other sharer); the queued store
        // quick-grants in the same cycle the line installs, with no
        // Upgrade transaction.
        let mut done = [false, false];
        let mut out = MemTickOutput::default();
        for cycle in 2..10_000 {
            m.tick(cycle, &mut out);
            for c in &out.completions {
                done[c.req as usize] = true;
            }
            if done == [true, true] {
                break;
            }
        }
        assert_eq!(done, [true, true], "both requests must complete");
        let _ = (r0, r1);
        assert_eq!(m.stats().quick_grants, 1);
        assert_eq!(m.stats().upgrades, 0);
        assert_eq!(m.l1_state(core(0), line(4)), MesiState::Modified);
    }
}
