//! Differential property: one recorder driving k variants records exactly
//! what k one-variant recorders record from the same event stream — the
//! same logs, interval orderings and statistics for every variant.
//!
//! The streams are random but legal: dispatches (memory and non-memory,
//! including ones the TRAQ refuses), performs of any dispatched access,
//! in-order retirement, squashes, counting ticks, remote read and write
//! snoops, dirty evictions, forced interval closes and ordering
//! predecessors, then a drain and `finish`. The variants are the paper's
//! Base/Opt × 4K/INF, a tiny geometry (one 16-bit bank, a 16-entry Snoop
//! Table), a wide one (8 × 4096 bits) and a short-interval Opt variant
//! with a seed of its own, in random subsets, over several TRAQ shapes.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use relaxreplay::{Design, HashPlan, LineHashes, Recorder, RecorderConfig};
use rr_cpu::{CoreObserver, PerformRecord};
use rr_mem::{AccessKind, CoreId, LineAddr};

#[derive(Clone, Copy, Debug)]
enum Event {
    Dispatch {
        is_mem: bool,
    },
    /// Performs the `pick`-th dispatched access that has not performed.
    Perform {
        pick: u64,
        kind: u8,
        line: u64,
    },
    Retire,
    /// Squashes after the `pick`-th instruction that may still be squashed.
    Squash {
        pick: u64,
    },
    Tick,
    Snoop {
        line: u64,
        is_write: bool,
    },
    DirtyEviction {
        line: u64,
    },
    ForceTerminate,
    Predecessor {
        core: u8,
        ordinal: u64,
    },
}

/// Mostly a handful of lines, so accesses and snoops collide; sometimes
/// any line, so every hash input bit is exercised.
fn line() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..12, 0u64..12, any::<u64>().prop_map(|l| l >> 6)]
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Dispatch { is_mem: true }),
        Just(Event::Dispatch { is_mem: true }),
        Just(Event::Dispatch { is_mem: false }),
        (any::<u64>(), 0u8..3, line()).prop_map(|(pick, kind, line)| Event::Perform {
            pick,
            kind,
            line
        }),
        (any::<u64>(), 0u8..3, line()).prop_map(|(pick, kind, line)| Event::Perform {
            pick,
            kind,
            line
        }),
        Just(Event::Retire),
        Just(Event::Retire),
        any::<u64>().prop_map(|pick| Event::Squash { pick }),
        Just(Event::Tick),
        Just(Event::Tick),
        (line(), any::<bool>()).prop_map(|(line, is_write)| Event::Snoop { line, is_write }),
        line().prop_map(|line| Event::DirtyEviction { line }),
        Just(Event::ForceTerminate),
        (0u8..4, 0u64..8).prop_map(|(core, ordinal)| Event::Predecessor { core, ordinal }),
    ]
}

/// Every variant the test draws from, with one TRAQ shape.
fn all_variants(traq_entries: usize, nmi_max: u32, count_per_cycle: usize) -> Vec<RecorderConfig> {
    let mut configs: Vec<RecorderConfig> = [
        (Design::Base, Some(4096)),
        (Design::Base, None),
        (Design::Opt, Some(4096)),
        (Design::Opt, None),
    ]
    .into_iter()
    .map(|(design, max)| RecorderConfig::splash_default(design, max))
    .collect();
    let mut tiny = RecorderConfig::splash_default(Design::Opt, Some(4096));
    tiny.sig_banks = 1;
    tiny.sig_bits = 16;
    tiny.snoop_entries = 16;
    let mut wide = RecorderConfig::splash_default(Design::Opt, None);
    wide.sig_banks = 8;
    wide.sig_bits = 4096;
    let mut short = RecorderConfig::splash_default(Design::Opt, Some(5));
    short.seed ^= 1;
    configs.extend([tiny, wide, short]);
    for c in &mut configs {
        c.traq_entries = traq_entries;
        c.nmi_max = nmi_max;
        c.count_per_cycle = count_per_cycle;
    }
    configs
}

/// Feeds one event stream to a k-variant recorder and to k one-variant
/// recorders, keeping the stream legal.
struct Driver {
    multi: Recorder,
    singles: Vec<Recorder>,
    plan: Arc<HashPlan>,
    hashes: LineHashes,
    /// Every live instruction: seq → (is_mem, performed).
    insts: BTreeMap<u64, (bool, bool)>,
    next_seq: u64,
    retired: i64,
    cycle: u64,
}

impl Driver {
    fn each(&mut self, mut f: impl FnMut(&mut Recorder)) {
        f(&mut self.multi);
        self.singles.iter_mut().for_each(f);
    }

    fn perform(&mut self, seq: u64, kind: AccessKind, line: u64) {
        let addr = line.wrapping_mul(64).wrapping_add(8);
        let record = PerformRecord {
            seq,
            kind,
            addr,
            line: LineAddr::from_line_number(line),
            loaded: (kind != AccessKind::Store).then_some(addr ^ 0xf00d),
            stored: (kind != AccessKind::Load).then_some(seq),
            cycle: self.cycle,
        };
        self.each(|r| r.on_perform(&record));
        self.insts.insert(seq, (true, true));
    }

    fn retire_next(&mut self) -> bool {
        let seq = (self.retired + 1) as u64;
        let Some(&(is_mem, _)) = self.insts.get(&seq) else {
            return false;
        };
        let cycle = self.cycle;
        self.each(|r| r.on_retire(seq, is_mem, cycle));
        self.retired = seq as i64;
        true
    }

    fn apply(&mut self, event: Event) -> Result<(), TestCaseError> {
        let cycle = self.cycle;
        match event {
            Event::Dispatch { is_mem } => {
                let seq = self.next_seq;
                let accepted = self.multi.on_dispatch(seq, is_mem);
                for single in &mut self.singles {
                    prop_assert_eq!(single.on_dispatch(seq, is_mem), accepted);
                }
                if accepted {
                    self.insts.insert(seq, (is_mem, false));
                    self.next_seq += 1;
                }
            }
            Event::Perform { pick, kind, line } => {
                let waiting: Vec<u64> = (self.insts.iter())
                    .filter(|(_, &(is_mem, performed))| is_mem && !performed)
                    .map(|(&seq, _)| seq)
                    .collect();
                if let Some(&seq) = waiting.get((pick % waiting.len().max(1) as u64) as usize) {
                    let kind =
                        [AccessKind::Load, AccessKind::Store, AccessKind::Rmw][kind as usize];
                    self.perform(seq, kind, line);
                }
            }
            Event::Retire => {
                self.retire_next();
            }
            Event::Squash { pick } => {
                let first = self.retired.max(0) as u64;
                let live: Vec<u64> = self.insts.range(first..).map(|(&seq, _)| seq).collect();
                if let Some(&bseq) = live.get((pick % live.len().max(1) as u64) as usize) {
                    self.each(|r| r.on_squash_after(bseq, cycle));
                    self.insts.retain(|&seq, _| seq <= bseq);
                    self.next_seq = bseq + 1;
                }
            }
            Event::Tick => {
                self.cycle += 1;
                let cycle = self.cycle;
                self.each(|r| r.tick(cycle));
            }
            Event::Snoop { line, is_write } => {
                let line = LineAddr::from_line_number(line);
                // The machine's path: hash once, hand the hashes over.
                self.plan.hash(line, &mut self.hashes);
                self.multi.on_hashed_snoop(&self.hashes, is_write, cycle);
                for single in &mut self.singles {
                    single.on_snoop(line, is_write, cycle);
                }
            }
            Event::DirtyEviction { line } => {
                let line = LineAddr::from_line_number(line);
                self.each(|r| r.on_dirty_eviction(line, cycle));
            }
            Event::ForceTerminate => self.each(|r| r.force_terminate(cycle)),
            Event::Predecessor { core, ordinal } => {
                let core = CoreId::new(core);
                for v in 0..self.multi.variants() {
                    self.multi.on_predecessor(v, core, ordinal);
                }
                for single in &mut self.singles {
                    single.on_predecessor(0, core, ordinal);
                }
            }
        }
        for single in &self.singles {
            prop_assert_eq!(single.traq_len(), self.multi.traq_len());
        }
        Ok(())
    }

    /// Performs and retires everything still live, then finishes.
    fn finish(&mut self) {
        let waiting: Vec<u64> = (self.insts.iter())
            .filter(|(_, &(is_mem, performed))| is_mem && !performed)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in waiting {
            self.perform(seq, AccessKind::Load, seq % 12);
        }
        while self.retire_next() {}
        self.cycle += 1;
        let cycle = self.cycle;
        self.each(|r| r.finish(cycle));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 192,
        ..ProptestConfig::default()
    })]

    #[test]
    fn one_recorder_of_k_variants_records_what_k_recorders_record(
        traq_entries in prop_oneof![Just(2usize), Just(5), Just(176)],
        nmi_max in prop_oneof![Just(3u32), Just(15)],
        count_per_cycle in 1usize..=2,
        mask in 1u32..1 << 7,
        events in proptest::collection::vec(event(), 0..400),
    ) {
        let configs: Vec<RecorderConfig> = all_variants(traq_entries, nmi_max, count_per_cycle)
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect();
        let core = CoreId::new(1);
        let plan = Recorder::hash_plan(&configs);
        let mut driver = Driver {
            multi: Recorder::with_variants(core, &configs, &plan),
            singles: configs.iter().map(|c| Recorder::new(core, c.clone())).collect(),
            plan,
            hashes: LineHashes::default(),
            insts: BTreeMap::new(),
            next_seq: 0,
            retired: -1,
            cycle: 0,
        };
        for event in events {
            driver.apply(event)?;
        }
        driver.finish();
        let multi = driver.multi.into_recordings();
        prop_assert_eq!(multi.len(), configs.len());
        for (v, (single, m)) in driver.singles.into_iter().zip(multi).enumerate() {
            let s = single.into_recordings().remove(0);
            prop_assert_eq!(&m.log, &s.log, "variant {} log", v);
            prop_assert_eq!(&m.ordering, &s.ordering, "variant {} ordering", v);
            prop_assert_eq!(&m.stats, &s.stats, "variant {} stats", v);
        }
    }
}
