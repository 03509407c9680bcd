use std::collections::VecDeque;

use rr_isa::{AtomicOp, FenceKind, Instr, MemImage, Program, Reg, NUM_REGS};
use rr_mem::{AccessKind, CoreId, LineAddr, MemorySystem, ReqId, Response};

use crate::{ConsistencyModel, CoreObserver, CoreStats, CpuConfig, PerformRecord, Predictor};

/// Pipeline stage of a ROB entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Waiting for source operands.
    Waiting,
    /// Operands ready; queued for an execution port.
    Ready,
    /// Executing (completion scheduled in `exec_inflight`).
    Executing,
    /// Address computed; a load waits for issue, an atomic waits to reach
    /// the ROB head.
    MemWait,
    /// Issued to the memory system; waiting for its completion.
    MemPending,
    /// Finished (result, if any, broadcast). Eligible to retire.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpSlot {
    /// Unused slot.
    None,
    /// Operand value available.
    Ready(u64),
    /// Waiting for the instruction with this sequence number.
    Wait(u64),
}

#[derive(Clone, Debug)]
struct MemSide {
    kind: AccessKind,
    addr: Option<u64>,
    /// Store data / atomic operand.
    data: Option<u64>,
    /// Atomic CAS expected value.
    expected: Option<u64>,
    performed: bool,
    issued: bool,
    /// Performed while an older memory access was still pending (counted
    /// into the stats only if the instruction commits).
    ooo: bool,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: u64,
    pc: u32,
    instr: Instr,
    ops: [OpSlot; 3],
    stage: Stage,
    result: Option<u64>,
    dest: Option<Reg>,
    predicted_taken: bool,
    mem: Option<MemSide>,
}

impl MemSide {
    fn new(kind: AccessKind) -> Self {
        MemSide {
            kind,
            addr: None,
            data: None,
            expected: None,
            performed: false,
            issued: false,
            ooo: false,
        }
    }
}

impl RobEntry {
    fn ops_ready(&self) -> bool {
        !self.ops.iter().any(|o| matches!(o, OpSlot::Wait(_)))
    }

    fn op_value(&self, i: usize) -> u64 {
        match self.ops[i] {
            OpSlot::Ready(v) => v,
            other => panic!("operand {i} of seq {} not ready: {other:?}", self.seq),
        }
    }
}

#[derive(Clone, Debug)]
struct WbEntry {
    id: u64,
    seq: u64,
    addr: u64,
    line: LineAddr,
    data: u64,
    issued: bool,
    performed: bool,
}

/// The consumers waiting on one producer's result. Indexed by the
/// producer's ROB slot and tagged with its sequence number: a slot's list
/// belongs to the one producer that may still complete through it.
#[derive(Clone, Debug)]
struct Waiters {
    producer: u64,
    consumers: Vec<u64>,
}

/// `Waiters::producer` of a slot whose list belongs to no producer.
const NO_PRODUCER: u64 = u64::MAX;

/// An ascending set of sequence numbers. Members are pushed at dispatch,
/// always with the newest seq, and a squash cuts off the newest ones, so a
/// sorted deque does what a `BTreeSet` would: the minimum is the front,
/// and the usual removal (the oldest) pops it.
#[derive(Clone, Debug, Default)]
struct SeqDeque(VecDeque<u64>);

impl SeqDeque {
    /// Adds `seq`, which must be newer than every member.
    fn push_newest(&mut self, seq: u64) {
        debug_assert!(self.0.back().is_none_or(|&b| b < seq), "seqs ascend");
        self.0.push_back(seq);
    }

    fn remove(&mut self, seq: u64) {
        if let Ok(i) = self.0.binary_search(&seq) {
            self.0.remove(i);
        }
    }

    /// Whether some member is older than `seq`.
    fn any_older_than(&self, seq: u64) -> bool {
        self.0.front().is_some_and(|&s| s < seq)
    }

    /// Drops every member newer than `bseq`.
    fn truncate_after(&mut self, bseq: u64) {
        while self.0.back().is_some_and(|&s| s > bseq) {
            self.0.pop_back();
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum MemTarget {
    Rob(u64),
    Wb(u64),
    /// The requesting instruction was squashed while the transaction was in
    /// flight; the completion is dropped. (Sequence numbers are reused
    /// after a squash, so the stale request must not be re-matched against
    /// the re-dispatched instruction.)
    Orphan,
}

/// A 4-issue out-of-order superscalar core with a release-consistent memory
/// model (paper §5.1, Table 1).
///
/// The core executes one thread's [`Program`] against the shared functional
/// memory ([`MemImage`]) and the timing/coherence model
/// ([`MemorySystem`]). A [`CoreObserver`] — in the full system, the
/// RelaxReplay recorder — watches dispatches, performs, retirements and
/// squashes, and may stall dispatch when its TRAQ is full.
///
/// ## Release-consistency rules implemented
///
/// * Loads issue to memory out of order as soon as their address is known,
///   provided no older store in the LSQ has an unknown or same-word
///   address (same-word with ready data ⇒ store-to-load forwarding, from
///   the LSQ or the write buffer).
/// * Stores retire into a write buffer and merge with memory via coherence
///   transactions; independent stores overlap, so stores may also perform
///   out of program order.
/// * `Fence(Acquire)` blocks younger loads from issuing until it retires;
///   `Fence(Release)` retires only once the write buffer has drained;
///   `Full` does both. Atomic RMWs have acquire+release semantics: they
///   drain the write buffer, perform as one coherence transaction at the
///   ROB head, and block younger loads until they perform.
pub struct Core<'p> {
    id: CoreId,
    cfg: CpuConfig,
    program: &'p Program,
    // Front end.
    fetch_pc: usize,
    dispatch_stopped: bool,
    halted: bool,
    redirect_ready_at: u64,
    predictor: Predictor,
    // ROB: a ring of `rob_entries.next_power_of_two()` slots, slot =
    // `seq & rob_mask`, filled on its first lap. Only `head_seq..next_seq`
    // is live; a squash reuses the seqs of the squashed path.
    slots: Vec<RobEntry>,
    rob_mask: u64,
    head_seq: u64,
    next_seq: u64,
    // Register state.
    regmap: [Option<u64>; NUM_REGS],
    committed: [u64; NUM_REGS],
    // Scheduling.
    /// Consumers waiting on each in-flight producer, one list per ROB
    /// slot.
    waiters: Vec<Waiters>,
    ready_q: VecDeque<u64>,
    exec_inflight: Vec<(u64, u64)>, // (done_at, seq)
    /// Scratch for `finish_execution`: the seqs finishing this cycle.
    due: Vec<u64>,
    // Memory ordering.
    lsq: VecDeque<u64>,
    write_buffer: VecDeque<WbEntry>,
    wb_next_id: u64,
    wb_inflight: usize,
    blocking: SeqDeque,
    outstanding_mem: SeqDeque,
    /// Unperformed loads/RMWs only (TSO load-load ordering).
    outstanding_loads: SeqDeque,
    /// Loads in `Stage::MemWait`: while none waits, `issue_loads` has
    /// nothing to do.
    mem_wait_loads: usize,
    /// In-flight memory requests (a handful at a time: an unordered
    /// small vector).
    pending_reqs: Vec<(ReqId, MemTarget)>,
    completions_in: Vec<ReqId>,
    /// Scratch for `issue_loads`: per older store or unperformed atomic in
    /// the LSQ, its word address and forwardable data (`None` = must wait).
    older_stores: Vec<(u64, Option<u64>)>,
    /// Scratch for `drain_write_buffer`: lines with an older store still
    /// unperformed.
    lines_blocked: Vec<LineAddr>,
    stats: CoreStats,
}

impl std::fmt::Debug for Core<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("fetch_pc", &self.fetch_pc)
            .field("rob", &(self.next_seq - self.head_seq))
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl<'p> Core<'p> {
    /// Creates a core that will execute `program`.
    #[must_use]
    pub fn new(id: CoreId, cfg: CpuConfig, program: &'p Program) -> Self {
        let ring = cfg.rob_entries.next_power_of_two();
        let predictor = Predictor::new(cfg.predictor_entries);
        Core {
            id,
            cfg,
            program,
            fetch_pc: 0,
            dispatch_stopped: false,
            halted: false,
            redirect_ready_at: 0,
            predictor,
            slots: Vec::with_capacity(ring),
            rob_mask: ring as u64 - 1,
            head_seq: 0,
            next_seq: 0,
            regmap: [None; NUM_REGS],
            committed: [0; NUM_REGS],
            waiters: vec![
                Waiters {
                    producer: NO_PRODUCER,
                    consumers: Vec::new(),
                };
                ring
            ],
            ready_q: VecDeque::new(),
            exec_inflight: Vec::new(),
            due: Vec::new(),
            lsq: VecDeque::new(),
            write_buffer: VecDeque::new(),
            wb_next_id: 0,
            wb_inflight: 0,
            blocking: SeqDeque::default(),
            outstanding_mem: SeqDeque::default(),
            outstanding_loads: SeqDeque::default(),
            mem_wait_loads: 0,
            pending_reqs: Vec::new(),
            completions_in: Vec::new(),
            older_stores: Vec::new(),
            lines_blocked: Vec::new(),
            stats: CoreStats::default(),
        }
    }

    /// This core's identifier.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Execution statistics so far.
    #[must_use]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The architectural value of `reg` (committed state).
    #[must_use]
    pub fn committed_reg(&self, reg: Reg) -> u64 {
        self.committed[reg.index()]
    }

    /// Whether the thread has finished: it halted (or ran out of program)
    /// and every buffered effect has reached memory.
    #[must_use]
    pub fn is_done(&self) -> bool {
        let fetch_exhausted =
            self.halted || self.dispatch_stopped || self.fetch_pc >= self.program.len();
        fetch_exhausted
            && self.rob_is_empty()
            && self.write_buffer.is_empty()
            && self.wb_inflight == 0
            && self.pending_reqs.is_empty()
    }

    fn rob_is_empty(&self) -> bool {
        self.head_seq == self.next_seq
    }

    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    fn slot_of(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// The live entry `seq`. The ring holds at least `rob_entries` slots,
    /// so the live range never wraps onto itself and the slot of a live
    /// seq holds that seq.
    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        if seq < self.head_seq || seq >= self.next_seq {
            return None;
        }
        let e = &self.slots[self.slot_of(seq)];
        debug_assert_eq!(e.seq, seq, "ROB slot holds another seq");
        Some(e)
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        if seq < self.head_seq || seq >= self.next_seq {
            return None;
        }
        let idx = self.slot_of(seq);
        let e = &mut self.slots[idx];
        debug_assert_eq!(e.seq, seq, "ROB slot holds another seq");
        Some(e)
    }

    /// Delivers a memory-system completion to this core. The request
    /// performs during the next [`Core::tick`].
    pub fn push_completion(&mut self, req: ReqId) {
        self.completions_in.push(req);
    }

    /// Processes delivered completions without otherwise advancing the
    /// pipeline.
    ///
    /// Schedule perturbation (rr-check stall strategies) calls this on
    /// cycles where the pipeline is held: an access still *performs* at
    /// the cycle its completion is delivered — the memory system's timing
    /// contract, which interval-ordering correctness rests on — just as a
    /// real core's write buffer and MSHRs keep operating through a
    /// front-end stall. Skipping this lets a conflicting remote snoop
    /// slip between a transaction's completion and its perform, erasing
    /// the only ordering evidence the recorder would ever see.
    pub fn drain_completions(
        &mut self,
        cycle: u64,
        img: &mut MemImage,
        obs: &mut dyn CoreObserver,
    ) {
        if self.is_done() {
            return;
        }
        self.process_completions(cycle, img, obs);
    }

    /// Advances the core one cycle.
    ///
    /// Must be called after the memory system's tick for the same cycle
    /// (with completions already routed via [`Core::push_completion`]).
    pub fn tick(
        &mut self,
        cycle: u64,
        img: &mut MemImage,
        mem: &mut MemorySystem,
        obs: &mut dyn CoreObserver,
    ) {
        if self.is_done() {
            return;
        }
        self.stats.active_cycles += 1;
        self.process_completions(cycle, img, obs);
        self.finish_execution(cycle, obs);
        self.schedule_ready(cycle);
        self.issue_loads(cycle, img, mem, obs);
        self.retire(cycle, img, mem, obs);
        self.drain_write_buffer(cycle, img, mem, obs);
        self.dispatch(cycle, obs);
        debug_assert_eq!(
            self.mem_wait_loads,
            self.lsq
                .iter()
                .filter(|&&s| self.entry(s).is_some_and(|e| {
                    e.stage == Stage::MemWait && matches!(e.instr, Instr::Load { .. })
                }))
                .count(),
            "issuable-load count"
        );
    }

    // ----- perform bookkeeping -------------------------------------------

    /// Registers a perform event. Returns whether an older memory access
    /// was still pending (the Figure 1 "out of program order" condition);
    /// loads/RMWs bank that flag in their ROB entry and count it at
    /// retirement (so squashed speculative performs are not counted), while
    /// write-buffer stores — already committed — count it immediately.
    #[allow(clippy::too_many_arguments)]
    fn note_perform(
        &mut self,
        obs: &mut dyn CoreObserver,
        seq: u64,
        kind: AccessKind,
        addr: u64,
        loaded: Option<u64>,
        stored: Option<u64>,
        cycle: u64,
    ) -> bool {
        let older_pending = self.outstanding_mem.any_older_than(seq);
        self.outstanding_mem.remove(seq);
        self.outstanding_loads.remove(seq);
        obs.on_perform(&PerformRecord {
            seq,
            kind,
            addr,
            line: LineAddr::containing(addr),
            loaded,
            stored,
            cycle,
        });
        older_pending
    }

    /// Performs a ROB-resident access (load/RMW): marks it performed,
    /// reports the perform and banks its out-of-order flag.
    fn perform_in_rob(
        &mut self,
        obs: &mut dyn CoreObserver,
        seq: u64,
        loaded: u64,
        stored: Option<u64>,
        cycle: u64,
    ) {
        let m = self
            .entry_mut(seq)
            .and_then(|e| e.mem.as_mut())
            .expect("mem side");
        m.performed = true;
        let (kind, addr) = (m.kind, m.addr.expect("performed implies address"));
        let ooo = self.note_perform(obs, seq, kind, addr, Some(loaded), stored, cycle);
        self.entry_mut(seq)
            .and_then(|e| e.mem.as_mut())
            .expect("mem side")
            .ooo = ooo;
    }

    /// Performs the atomic `seq` on `addr` and completes it.
    fn perform_rmw(
        &mut self,
        img: &mut MemImage,
        obs: &mut dyn CoreObserver,
        seq: u64,
        addr: u64,
        cycle: u64,
    ) {
        let (old, stored) = self.apply_rmw(img, seq, addr);
        self.blocking.remove(seq);
        self.perform_in_rob(obs, seq, old, stored, cycle);
        self.complete_entry(seq, Some(old));
    }

    // ----- completions -----------------------------------------------------

    fn process_completions(&mut self, cycle: u64, img: &mut MemImage, obs: &mut dyn CoreObserver) {
        let mut reqs = std::mem::take(&mut self.completions_in);
        for &req in &reqs {
            let Some(at) = self.pending_reqs.iter().position(|&(r, _)| r == req) else {
                panic!("completion for unknown request {req}");
            };
            let (_, target) = self.pending_reqs.swap_remove(at);
            match target {
                MemTarget::Orphan => continue,
                MemTarget::Rob(seq) => {
                    let Some(entry) = self.entry(seq) else {
                        continue; // squashed while in flight
                    };
                    let mem_side = entry.mem.clone().expect("memory entry");
                    let addr = mem_side.addr.expect("issued implies address");
                    match mem_side.kind {
                        AccessKind::Load => {
                            let value = img.load(addr);
                            self.perform_in_rob(obs, seq, value, None, cycle);
                            self.complete_entry(seq, Some(value));
                        }
                        AccessKind::Rmw => self.perform_rmw(img, obs, seq, addr, cycle),
                        AccessKind::Store => unreachable!("ROB stores perform via write buffer"),
                    }
                }
                MemTarget::Wb(id) => {
                    let entry = self
                        .write_buffer
                        .iter_mut()
                        .find(|e| e.id == id)
                        .expect("write-buffer entry for completion");
                    entry.performed = true;
                    let (seq, addr, data) = (entry.seq, entry.addr, entry.data);
                    img.store(addr, data);
                    self.wb_inflight -= 1;
                    if self.note_perform(obs, seq, AccessKind::Store, addr, None, Some(data), cycle)
                    {
                        self.stats.ooo_stores += 1;
                    }
                    self.pop_performed_wb();
                }
            }
        }
        reqs.clear();
        self.completions_in = reqs;
    }

    fn apply_rmw(&mut self, img: &mut MemImage, seq: u64, addr: u64) -> (u64, Option<u64>) {
        let entry = self.entry(seq).expect("RMW entry");
        let Instr::Atomic { op, .. } = entry.instr else {
            panic!("apply_rmw on non-atomic seq {seq}");
        };
        let mem_side = entry.mem.as_ref().expect("mem side");
        let operand = mem_side.data.expect("atomic operand");
        let expected = mem_side.expected.expect("atomic expected");
        let mut stored = None;
        let old = img.rmw(addr, |old| {
            stored = match op {
                AtomicOp::Cas => (old == expected).then_some(operand),
                AtomicOp::FetchAdd => Some(old.wrapping_add(operand)),
                AtomicOp::Swap => Some(operand),
            };
            stored
        });
        (old, stored)
    }

    fn pop_performed_wb(&mut self) {
        while self.write_buffer.front().is_some_and(|e| e.performed) {
            self.write_buffer.pop_front();
        }
    }

    // ----- execution -------------------------------------------------------

    fn finish_execution(&mut self, cycle: u64, obs: &mut dyn CoreObserver) {
        let mut due = std::mem::take(&mut self.due);
        due.extend(
            self.exec_inflight
                .extract_if(.., |&mut (done_at, _)| done_at <= cycle)
                .map(|(_, seq)| seq),
        );
        for &seq in &due {
            self.finish_one(seq, cycle, obs);
        }
        due.clear();
        self.due = due;
    }

    fn finish_one(&mut self, seq: u64, cycle: u64, obs: &mut dyn CoreObserver) {
        let Some(entry) = self.entry(seq) else {
            return; // squashed
        };
        match entry.instr {
            Instr::Op { op, .. } => {
                let v = op.apply(entry.op_value(0), entry.op_value(1));
                self.complete_entry(seq, Some(v));
            }
            Instr::OpImm { op, imm, .. } => {
                let v = op.apply(entry.op_value(0), imm as u64);
                self.complete_entry(seq, Some(v));
            }
            Instr::Branch { cond, target, .. } => {
                let taken = cond.eval(entry.op_value(0), entry.op_value(1));
                let (pc, predicted) = (entry.pc, entry.predicted_taken);
                self.predictor.update(pc, taken);
                self.complete_entry(seq, None);
                if taken != predicted {
                    let new_pc = if taken {
                        target as usize
                    } else {
                        pc as usize + 1
                    };
                    self.squash_after(seq, new_pc, cycle, obs);
                }
            }
            Instr::Load { offset, .. } => {
                let mem_side = entry.mem.as_ref().expect("mem side");
                if mem_side.performed {
                    // Data arrived (hit or forward); broadcast it.
                    self.complete_entry(seq, entry.result);
                } else {
                    // Address-generation step.
                    let addr = entry.op_value(0).wrapping_add(offset as u64);
                    let e = self.entry_mut(seq).expect("entry");
                    e.mem.as_mut().expect("mem side").addr = Some(addr);
                    e.stage = Stage::MemWait;
                    self.mem_wait_loads += 1;
                }
            }
            Instr::Store { offset, .. } => {
                let addr = entry.op_value(0).wrapping_add(offset as u64);
                let data = entry.op_value(1);
                let e = self.entry_mut(seq).expect("entry");
                let m = e.mem.as_mut().expect("mem side");
                m.addr = Some(addr);
                m.data = Some(data);
                e.stage = Stage::Done;
                self.check_memory_order(seq, addr, cycle, obs);
            }
            Instr::Atomic { .. } => {
                let mem_side = entry.mem.as_ref().expect("mem side");
                if mem_side.performed {
                    self.complete_entry(seq, entry.result);
                } else {
                    let addr = entry.op_value(0);
                    let expected = entry.op_value(1);
                    let operand = entry.op_value(2);
                    let e = self.entry_mut(seq).expect("entry");
                    let m = e.mem.as_mut().expect("mem side");
                    m.addr = Some(addr);
                    m.expected = Some(expected);
                    m.data = Some(operand);
                    e.stage = Stage::MemWait;
                    self.check_memory_order(seq, addr, cycle, obs);
                }
            }
            _ => unreachable!("instruction {:?} does not execute", entry.instr),
        }
    }

    fn schedule_ready(&mut self, cycle: u64) {
        for _ in 0..self.cfg.issue_width {
            let Some(seq) = self.ready_q.pop_front() else {
                break;
            };
            let Some(entry) = self.entry(seq) else {
                continue; // squashed
            };
            if entry.stage != Stage::Ready {
                continue;
            }
            let latency = match entry.instr {
                Instr::Op { op, .. } | Instr::OpImm { op, .. } => {
                    if op == rr_isa::AluOp::Mul {
                        self.cfg.mul_latency
                    } else {
                        self.cfg.alu_latency
                    }
                }
                _ => self.cfg.alu_latency,
            };
            self.entry_mut(seq).expect("entry").stage = Stage::Executing;
            self.exec_inflight.push((cycle + latency, seq));
        }
    }

    /// Marks `seq` done, stores its result and wakes up consumers.
    fn complete_entry(&mut self, seq: u64, result: Option<u64>) {
        {
            let e = self.entry_mut(seq).expect("completing a live entry");
            e.stage = Stage::Done;
            e.result = result;
        }
        let slot = self.slot_of(seq);
        if self.waiters[slot].producer != seq {
            return;
        }
        self.waiters[slot].producer = NO_PRODUCER;
        let mut consumers = std::mem::take(&mut self.waiters[slot].consumers);
        let value = result.unwrap_or(0);
        for &w in &consumers {
            let Some(entry) = self.entry_mut(w) else {
                continue; // squashed
            };
            let mut filled = false;
            for op in &mut entry.ops {
                if *op == OpSlot::Wait(seq) {
                    *op = OpSlot::Ready(value);
                    filled = true;
                }
            }
            if filled && entry.ops_ready() && entry.stage == Stage::Waiting {
                entry.stage = Stage::Ready;
                self.ready_q.push_back(w);
            }
        }
        consumers.clear();
        self.waiters[slot].consumers = consumers;
    }

    // ----- load issue ------------------------------------------------------

    fn issue_loads(
        &mut self,
        cycle: u64,
        img: &mut MemImage,
        mem: &mut MemorySystem,
        obs: &mut dyn CoreObserver,
    ) {
        if self.mem_wait_loads == 0 {
            return;
        }
        let mut units = self.cfg.ldst_units;
        // Older stores in LSQ order; the youngest one per word address
        // decides: Some(data) = forwardable, None = must wait (unperformed
        // atomic).
        let mut store_data = std::mem::take(&mut self.older_stores);
        for i in 0..self.lsq.len() {
            let seq = self.lsq[i];
            if units == 0 {
                break;
            }
            let Some(entry) = self.entry(seq) else {
                unreachable!("LSQ holds only live entries");
            };
            let mem_side = entry.mem.as_ref().expect("LSQ entry has a mem side");
            match mem_side.kind {
                AccessKind::Store => {
                    // An unresolved store address does NOT stop younger
                    // loads: they issue speculatively, and the violation
                    // check at address resolution squashes any load that
                    // guessed wrong (memory-dependence speculation).
                    if let Some(addr) = mem_side.addr {
                        store_data.push((addr, Some(mem_side.data.expect("store data"))));
                    }
                }
                AccessKind::Rmw => {
                    // Younger loads are held back by the blocking set
                    // anyway (atomics have acquire semantics).
                    if let Some(addr) = mem_side.addr {
                        if !mem_side.performed {
                            store_data.push((addr, None));
                        }
                    }
                }
                AccessKind::Load => {
                    if entry.stage != Stage::MemWait {
                        continue; // not ready to issue, or already issued
                    }
                    if self.blocking.any_older_than(seq) {
                        // An acquire fence or unperformed atomic blocks this
                        // load and everything younger.
                        break;
                    }
                    // Consistency-model issue gate. Under SC every access
                    // waits for all older accesses (including buffered
                    // stores); under TSO loads stay ordered among
                    // themselves but bypass stores; under RC anything goes.
                    match self.cfg.consistency {
                        ConsistencyModel::Sc => {
                            if self.outstanding_mem.any_older_than(seq)
                                || !self.write_buffer.is_empty()
                                || self.wb_inflight > 0
                            {
                                break; // strictly in order: younger wait too
                            }
                        }
                        ConsistencyModel::Tso => {
                            if self.outstanding_loads.any_older_than(seq) {
                                break; // load-load order
                            }
                        }
                        ConsistencyModel::Rc => {}
                    }
                    let addr = mem_side.addr.expect("MemWait implies address");
                    // Store-to-load forwarding: LSQ first (younger than the
                    // write buffer), then the write buffer (youngest entry).
                    if let Some(&(_, forward)) = store_data.iter().rev().find(|&&(a, _)| a == addr)
                    {
                        if let Some(value) = forward {
                            self.stats.forwarded_loads += 1;
                            self.perform_at_issue(obs, seq, value, cycle + 1, cycle);
                            units -= 1;
                        }
                        // (None = unperformed atomic: the load waits.)
                        continue;
                    }
                    if let Some(e) = self.write_buffer.iter().rev().find(|e| e.addr == addr) {
                        let value = e.data;
                        self.stats.forwarded_loads += 1;
                        self.perform_at_issue(obs, seq, value, cycle + 1, cycle);
                        units -= 1;
                        continue;
                    }
                    // Issue to the memory system.
                    let line = LineAddr::containing(addr);
                    match mem.access(cycle, self.id, AccessKind::Load, line) {
                        Response::Hit { latency } => {
                            // Performs now; data reaches consumers after the
                            // hit latency.
                            let value = img.load(addr);
                            self.perform_at_issue(obs, seq, value, cycle + latency, cycle);
                            units -= 1;
                        }
                        Response::Pending { req } => {
                            let e = self.entry_mut(seq).expect("entry");
                            e.stage = Stage::MemPending;
                            e.mem.as_mut().expect("mem side").issued = true;
                            self.mem_wait_loads -= 1;
                            self.pending_reqs.push((req, MemTarget::Rob(seq)));
                            units -= 1;
                        }
                        Response::Retry => break,
                    }
                }
            }
        }
        store_data.clear();
        self.older_stores = store_data;
    }

    /// Performs a waiting load at issue (a forward or a cache hit); its
    /// value reaches consumers at `done_at`.
    fn perform_at_issue(
        &mut self,
        obs: &mut dyn CoreObserver,
        seq: u64,
        value: u64,
        done_at: u64,
        cycle: u64,
    ) {
        let e = self.entry_mut(seq).expect("entry");
        e.result = Some(value);
        e.stage = Stage::Executing;
        self.mem_wait_loads -= 1;
        self.perform_in_rob(obs, seq, value, None, cycle);
        self.exec_inflight.push((done_at, seq));
    }

    // ----- retire ----------------------------------------------------------

    fn retire(
        &mut self,
        cycle: u64,
        img: &mut MemImage,
        mem: &mut MemorySystem,
        obs: &mut dyn CoreObserver,
    ) {
        for _ in 0..self.cfg.issue_width {
            if self.halted {
                break;
            }
            let head = self.head_seq;
            let Some(entry) = self.entry(head) else {
                break; // ROB empty
            };
            // Head-of-ROB actions for atomics and fences.
            match entry.instr {
                Instr::Atomic { .. } => {
                    if entry.stage == Stage::MemWait {
                        // Release part: drain the write buffer first.
                        if !self.write_buffer.is_empty() || self.wb_inflight > 0 {
                            break;
                        }
                        let addr = entry.mem.as_ref().expect("mem side").addr.expect("address");
                        let line = LineAddr::containing(addr);
                        match mem.access(cycle, self.id, AccessKind::Rmw, line) {
                            Response::Hit { .. } => {
                                self.perform_rmw(img, obs, head, addr, cycle);
                                // Falls through: may retire this cycle.
                            }
                            Response::Pending { req } => {
                                let e = self.entry_mut(head).expect("entry");
                                e.stage = Stage::MemPending;
                                e.mem.as_mut().expect("mem side").issued = true;
                                self.pending_reqs.push((req, MemTarget::Rob(head)));
                                break;
                            }
                            Response::Retry => break,
                        }
                    } else if entry.stage != Stage::Done {
                        break;
                    }
                }
                Instr::Fence(FenceKind::Release | FenceKind::Full)
                    if (!self.write_buffer.is_empty() || self.wb_inflight > 0) =>
                {
                    break;
                }
                Instr::Store { .. }
                    if entry.stage == Stage::Done
                        && self.write_buffer.len() >= self.cfg.write_buffer_entries =>
                {
                    self.stats.wb_stall_cycles += 1;
                    break;
                }
                _ => {}
            }
            let Some(entry) = self.entry(head) else {
                break;
            };
            if entry.stage != Stage::Done {
                break;
            }
            // Commit.
            let instr = entry.instr;
            let result = entry.result;
            let dest = entry.dest;
            let is_mem = instr.is_memory_access();
            let ooo = entry.mem.as_ref().is_some_and(|m| m.ooo);
            if let Instr::Store { .. } = instr {
                let m = entry.mem.as_ref().expect("mem side");
                let addr = m.addr.expect("address");
                let data = m.data.expect("data");
                self.write_buffer.push_back(WbEntry {
                    id: self.wb_next_id,
                    seq: head,
                    addr,
                    line: LineAddr::containing(addr),
                    data,
                    issued: false,
                    performed: false,
                });
                self.wb_next_id += 1;
            }
            obs.on_retire(head, is_mem, cycle);
            self.stats.retired += 1;
            match instr {
                Instr::Load { .. } => {
                    self.stats.loads += 1;
                    if ooo {
                        self.stats.ooo_loads += 1;
                    }
                }
                Instr::Store { .. } => self.stats.stores += 1,
                Instr::Atomic { .. } => {
                    self.stats.rmws += 1;
                    if ooo {
                        self.stats.ooo_stores += 1;
                    }
                }
                Instr::Halt => self.halted = true,
                _ => {}
            }
            if let Some(d) = dest {
                // In-order retirement: the architectural file always takes
                // the retiring value (later retirees overwrite). The map is
                // cleared only if no younger in-flight producer took over.
                self.committed[d.index()] = result.unwrap_or(0);
                if self.regmap[d.index()] == Some(head) {
                    self.regmap[d.index()] = None;
                }
            }
            if is_mem {
                let popped = self.lsq.pop_front();
                debug_assert_eq!(popped, Some(head), "LSQ must retire in order");
            }
            self.blocking.remove(head);
            self.head_seq += 1;
        }
    }

    // ----- write buffer ----------------------------------------------------

    fn drain_write_buffer(
        &mut self,
        cycle: u64,
        img: &mut MemImage,
        mem: &mut MemorySystem,
        obs: &mut dyn CoreObserver,
    ) {
        if self.wb_inflight >= self.cfg.write_buffer_inflight {
            return;
        }
        // SC/TSO: the write buffer drains strictly FIFO, one store at a
        // time — only the front unperformed entry may issue.
        if self.cfg.consistency != ConsistencyModel::Rc {
            if self.wb_inflight > 0 {
                return;
            }
            let Some(front) = self.write_buffer.front() else {
                return;
            };
            if front.issued || front.performed {
                return;
            }
        }
        // Find the oldest unissued store whose line has no older store
        // still unperformed (same-line stores stay ordered; independent
        // lines overlap — the RC write buffer).
        let mut candidate: Option<usize> = None;
        let lines_blocked = &mut self.lines_blocked;
        lines_blocked.clear();
        for (k, e) in self.write_buffer.iter().enumerate() {
            if !e.performed && e.issued {
                lines_blocked.push(e.line);
                continue;
            }
            if !e.issued && !e.performed {
                if lines_blocked.contains(&e.line) {
                    lines_blocked.push(e.line);
                    continue;
                }
                candidate = Some(k);
                break;
            }
        }
        let Some(k) = candidate else {
            return;
        };
        let WbEntry {
            id,
            seq,
            addr,
            line,
            data,
            ..
        } = self.write_buffer[k];
        match mem.access(cycle, self.id, AccessKind::Store, line) {
            Response::Hit { .. } => {
                // Performs now (atomically with the hit decision — the
                // signature insertion must not race with incoming snoops;
                // see rr-mem's ordering invariants).
                self.write_buffer[k].performed = true;
                img.store(addr, data);
                if self.note_perform(obs, seq, AccessKind::Store, addr, None, Some(data), cycle) {
                    self.stats.ooo_stores += 1;
                }
                self.pop_performed_wb();
            }
            Response::Pending { req } => {
                self.write_buffer[k].issued = true;
                self.wb_inflight += 1;
                self.pending_reqs.push((req, MemTarget::Wb(id)));
            }
            Response::Retry => {}
        }
    }

    // ----- dispatch --------------------------------------------------------

    fn dispatch(&mut self, cycle: u64, obs: &mut dyn CoreObserver) {
        if cycle < self.redirect_ready_at {
            return;
        }
        for _ in 0..self.cfg.issue_width {
            if self.dispatch_stopped || self.halted {
                break;
            }
            if self.fetch_pc >= self.program.len() {
                self.dispatch_stopped = true;
                break;
            }
            if self.rob_len() >= self.cfg.rob_entries {
                self.stats.rob_stall_cycles += 1;
                break;
            }
            let instr = *self.program.get(self.fetch_pc).expect("checked length");
            let is_mem = instr.is_memory_access();
            if is_mem && self.lsq.len() >= self.cfg.lsq_entries {
                self.stats.lsq_stall_cycles += 1;
                break;
            }
            if !obs.on_dispatch(self.next_seq, is_mem) {
                self.stats.traq_stall_cycles += 1;
                break;
            }
            self.dispatch_one(instr);
        }
    }

    fn dispatch_one(&mut self, instr: Instr) {
        let seq = self.next_seq;
        let pc = self.fetch_pc as u32;
        self.next_seq += 1;

        let mut ops = [OpSlot::None; 3];
        let mut dest = None;
        let mut mem_side = None;
        let mut predicted_taken = false;
        let mut next_pc = self.fetch_pc + 1;
        let mut stage;

        match instr {
            Instr::Op { dst, a, b, .. } => {
                ops[0] = self.resolve_operand(a, seq);
                ops[1] = self.resolve_operand(b, seq);
                dest = Some(dst);
                stage = Stage::Waiting;
            }
            Instr::OpImm { dst, a, .. } => {
                ops[0] = self.resolve_operand(a, seq);
                dest = Some(dst);
                stage = Stage::Waiting;
            }
            Instr::LoadImm { dst, imm } => {
                dest = Some(dst);
                stage = Stage::Done;
                // Result set below via entry construction.
                ops[0] = OpSlot::Ready(imm as u64);
            }
            Instr::Load { dst, base, .. } => {
                ops[0] = self.resolve_operand(base, seq);
                dest = Some(dst);
                mem_side = Some(MemSide::new(AccessKind::Load));
                stage = Stage::Waiting;
            }
            Instr::Store { src, base, .. } => {
                ops[0] = self.resolve_operand(base, seq);
                ops[1] = self.resolve_operand(src, seq);
                mem_side = Some(MemSide::new(AccessKind::Store));
                stage = Stage::Waiting;
            }
            Instr::Atomic {
                dst,
                addr,
                expected,
                operand,
                ..
            } => {
                ops[0] = self.resolve_operand(addr, seq);
                ops[1] = self.resolve_operand(expected, seq);
                ops[2] = self.resolve_operand(operand, seq);
                dest = Some(dst);
                mem_side = Some(MemSide::new(AccessKind::Rmw));
                self.blocking.push_newest(seq);
                stage = Stage::Waiting;
            }
            Instr::Branch { a, b, target, .. } => {
                ops[0] = self.resolve_operand(a, seq);
                ops[1] = self.resolve_operand(b, seq);
                predicted_taken = self.predictor.predict(pc);
                next_pc = if predicted_taken {
                    target as usize
                } else {
                    self.fetch_pc + 1
                };
                stage = Stage::Waiting;
            }
            Instr::Jump { target } => {
                next_pc = target as usize;
                stage = Stage::Done;
            }
            Instr::Fence(kind) => {
                if matches!(kind, FenceKind::Acquire | FenceKind::Full) {
                    self.blocking.push_newest(seq);
                }
                stage = Stage::Done;
            }
            Instr::Nop => stage = Stage::Done,
            Instr::Halt => {
                self.dispatch_stopped = true;
                stage = Stage::Done;
            }
        }

        // Promote to Ready when all operands resolved at dispatch.
        let needs_exec = matches!(
            instr,
            Instr::Op { .. }
                | Instr::OpImm { .. }
                | Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Atomic { .. }
                | Instr::Branch { .. }
        );
        let ops_ready = !ops.iter().any(|o| matches!(o, OpSlot::Wait(_)));
        if needs_exec && ops_ready {
            stage = Stage::Ready;
        }

        let result = if let Instr::LoadImm { imm, .. } = instr {
            Some(imm as u64)
        } else {
            None
        };

        let entry = RobEntry {
            seq,
            pc,
            instr,
            ops,
            stage,
            result,
            dest,
            predicted_taken,
            mem: mem_side,
        };
        let idx = self.slot_of(seq);
        if idx == self.slots.len() {
            self.slots.push(entry); // the ring's first lap
        } else {
            self.slots[idx] = entry;
        }

        if let Some(d) = dest {
            self.regmap[d.index()] = Some(seq);
        }
        if instr.is_memory_access() {
            self.lsq.push_back(seq);
            self.outstanding_mem.push_newest(seq);
            if !matches!(instr, Instr::Store { .. }) {
                self.outstanding_loads.push_newest(seq);
            }
        }
        if stage == Stage::Ready {
            self.ready_q.push_back(seq);
        }
        self.fetch_pc = next_pc;
    }

    fn resolve_operand(&mut self, reg: Reg, consumer: u64) -> OpSlot {
        match self.regmap[reg.index()] {
            None => OpSlot::Ready(self.committed[reg.index()]),
            Some(producer) => {
                let done = self
                    .entry(producer)
                    .map(|e| (e.stage == Stage::Done, e.result))
                    .expect("producer is live");
                if done.0 {
                    OpSlot::Ready(done.1.unwrap_or(0))
                } else {
                    let slot = self.slot_of(producer);
                    let waiters = &mut self.waiters[slot];
                    if waiters.producer != producer {
                        // Another live seq holds this slot, so the old
                        // tag's seq is older than the ROB head: it has
                        // retired and its list can never complete again.
                        waiters.producer = producer;
                        waiters.consumers.clear();
                    }
                    waiters.consumers.push(consumer);
                    OpSlot::Wait(producer)
                }
            }
        }
    }

    /// Memory-dependence speculation recovery: when a store (or RMW)
    /// resolves its address, any *younger* load that already performed on
    /// the same word guessed wrong and is squashed together with everything
    /// after it (it re-executes and then forwards correctly). This is the
    /// "speculative load is squashed and replayed due to memory consistency
    /// requirements" case the paper's TRAQ handles by overwrite (§4.1).
    fn check_memory_order(
        &mut self,
        store_seq: u64,
        addr: u64,
        cycle: u64,
        obs: &mut dyn CoreObserver,
    ) {
        let mut victim: Option<(u64, u32)> = None;
        let younger = self.lsq.partition_point(|&s| s <= store_seq);
        for &s in self.lsq.range(younger..) {
            let Some(e) = self.entry(s) else { continue };
            let m = e.mem.as_ref().expect("LSQ entry has a mem side");
            // Performed loads read a stale value; issued-but-unperformed
            // loads *will* read memory without this store's value. Both
            // guessed wrong.
            if m.kind == AccessKind::Load && (m.performed || m.issued) && m.addr == Some(addr) {
                victim = Some((s, e.pc));
                break; // LSQ is in program order: this is the oldest victim
            }
        }
        if let Some((seq, pc)) = victim {
            self.stats.memory_order_squashes += 1;
            self.squash_after(seq - 1, pc as usize, cycle, obs);
        }
    }

    // ----- squash ----------------------------------------------------------

    fn squash_after(&mut self, bseq: u64, new_pc: usize, cycle: u64, obs: &mut dyn CoreObserver) {
        self.stats.squashes += 1;
        for seq in (bseq + 1)..self.next_seq {
            let e = self.entry(seq).expect("squashed seq is live");
            if e.stage == Stage::MemWait && matches!(e.instr, Instr::Load { .. }) {
                self.mem_wait_loads -= 1;
            }
        }
        self.outstanding_mem.truncate_after(bseq);
        self.outstanding_loads.truncate_after(bseq);
        self.blocking.truncate_after(bseq);
        while self.lsq.back().is_some_and(|&s| s > bseq) {
            self.lsq.pop_back();
        }
        self.exec_inflight.retain(|&(_, s)| s <= bseq);
        self.ready_q.retain(|&s| s <= bseq);
        // Orphan in-flight requests of squashed instructions: their seqs
        // will be reused by the re-dispatched path.
        for (_, target) in &mut self.pending_reqs {
            if let MemTarget::Rob(s) = target {
                if *s > bseq {
                    *target = MemTarget::Orphan;
                }
            }
        }
        self.next_seq = bseq + 1;
        // Rebuild the register map from the surviving entries.
        self.regmap = [None; NUM_REGS];
        for seq in self.head_seq..self.next_seq {
            if let Some(e) = self.entry(seq) {
                if let Some(d) = e.dest {
                    self.regmap[d.index()] = Some(seq);
                }
            }
        }
        self.fetch_pc = new_pc;
        self.dispatch_stopped = false;
        self.redirect_ready_at = cycle + self.cfg.mispredict_penalty;
        obs.on_squash_after(bseq, cycle);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::SeqDeque;

    #[derive(Clone, Debug)]
    enum Op {
        /// Push the newest seq: the model's maximum plus this gap.
        Push(u64),
        Remove(u64),
        TruncateAfter(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Pushes twice as often as each other op, so the deque fills up.
        prop_oneof![
            (1u64..4).prop_map(Op::Push),
            (1u64..4).prop_map(Op::Push),
            (0u64..64).prop_map(Op::Remove),
            (0u64..64).prop_map(Op::TruncateAfter),
        ]
    }

    proptest! {
        #[test]
        fn seq_deque_matches_a_btreeset(ops in proptest::collection::vec(op(), 0..80), probe in 0u64..70) {
            let mut deque = SeqDeque::default();
            let mut model = BTreeSet::new();
            // Seqs only grow, as at dispatch, except that a squash lets the
            // next push reuse the seqs it cut off.
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::Push(gap) => {
                        let seq = next + gap - 1;
                        next = seq + 1;
                        deque.push_newest(seq);
                        model.insert(seq);
                    }
                    Op::Remove(seq) => {
                        deque.remove(seq);
                        model.remove(&seq);
                    }
                    Op::TruncateAfter(bseq) => {
                        deque.truncate_after(bseq);
                        model.retain(|&s| s <= bseq);
                        next = next.min(bseq + 1);
                    }
                }
                prop_assert_eq!(deque.0.iter().copied().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(deque.0.front(), model.iter().next());
                prop_assert_eq!(deque.any_older_than(probe), model.range(..probe).next().is_some());
            }
        }
    }
}
