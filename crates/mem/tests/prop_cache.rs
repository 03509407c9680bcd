//! `SetAssocCache` against the per-set-`Vec` cache it replaced.
//!
//! The oracle below is the earlier implementation: one `Vec` of ways per
//! set, allocated up front, true LRU by a shared clock. The flat cache
//! claims a set's ways only when the set is first filled; under any
//! sequence of operations both must return the same values, evict the same
//! victims and hold the same lines.

use proptest::prelude::*;
use rr_mem::{LineAddr, SetAssocCache};

struct Way {
    line: LineAddr,
    payload: u32,
    last_used: u64,
}

/// One `Vec` of ways per set.
struct OracleCache {
    sets: Vec<Vec<Way>>,
    assoc: usize,
    clock: u64,
}

impl OracleCache {
    fn new(num_sets: usize, assoc: usize) -> Self {
        OracleCache {
            sets: (0..num_sets).map(|_| Vec::with_capacity(assoc)).collect(),
            assoc,
            clock: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.line_number() as usize) & (self.sets.len() - 1)
    }

    fn get_mut(&mut self, line: LineAddr) -> Option<&mut u32> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(line);
        self.sets[set].iter_mut().find(|w| w.line == line).map(|w| {
            w.last_used = clock;
            &mut w.payload
        })
    }

    fn peek(&self, line: LineAddr) -> Option<&u32> {
        let set = self.set_index(line);
        self.sets[set]
            .iter()
            .find(|w| w.line == line)
            .map(|w| &w.payload)
    }

    fn insert(&mut self, line: LineAddr, payload: u32) -> Option<(LineAddr, u32)> {
        self.clock += 1;
        let clock = self.clock;
        let assoc = self.assoc;
        let set_idx = self.set_index(line);
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.iter_mut().find(|w| w.line == line) {
            w.payload = payload;
            w.last_used = clock;
            return None;
        }
        let new_way = Way {
            line,
            payload,
            last_used: clock,
        };
        if set.len() < assoc {
            set.push(new_way);
            return None;
        }
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.last_used)
            .map(|(i, _)| i)
            .expect("full set has a victim");
        let victim = std::mem::replace(&mut set[victim_idx], new_way);
        Some((victim.line, victim.payload))
    }

    fn remove(&mut self, line: LineAddr) -> Option<u32> {
        let set = self.set_index(line);
        let pos = self.sets[set].iter().position(|w| w.line == line)?;
        Some(self.sets[set].swap_remove(pos).payload)
    }

    fn resident(&self) -> Vec<(LineAddr, u32)> {
        let mut all: Vec<_> = self
            .sets
            .iter()
            .flat_map(|s| s.iter().map(|w| (w.line, w.payload)))
            .collect();
        all.sort();
        all
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Get(u64),
    GetMut(u64, u32),
    Peek(u64),
    Insert(u64, u32),
    Remove(u64),
}

/// Lines from a small range, so sets fill, overflow and evict.
fn op() -> impl Strategy<Value = Op> {
    let line = 0u64..48;
    prop_oneof![
        line.clone().prop_map(Op::Get),
        (line.clone(), any::<u32>()).prop_map(|(l, v)| Op::GetMut(l, v)),
        line.clone().prop_map(Op::Peek),
        (line.clone(), any::<u32>()).prop_map(|(l, v)| Op::Insert(l, v)),
        (line.clone(), any::<u32>()).prop_map(|(l, v)| Op::Insert(l, v)),
        line.prop_map(Op::Remove),
    ]
}

proptest! {
    #[test]
    fn flat_cache_matches_the_per_set_vec_oracle(
        log_sets in 0u32..=3,
        assoc in prop_oneof![Just(1usize), Just(2), Just(4), Just(16)],
        ops in proptest::collection::vec(op(), 0..300),
    ) {
        let sets = 1usize << log_sets;
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(sets, assoc);
        let mut oracle = OracleCache::new(sets, assoc);
        for op in ops {
            match op {
                Op::Get(l) => {
                    let l = LineAddr::from_line_number(l);
                    prop_assert_eq!(cache.get(l).copied(), oracle.get_mut(l).map(|p| *p));
                }
                Op::GetMut(l, v) => {
                    let l = LineAddr::from_line_number(l);
                    let (a, b) = (cache.get_mut(l), oracle.get_mut(l));
                    prop_assert_eq!(a.as_deref().copied(), b.as_deref().copied());
                    if let (Some(a), Some(b)) = (a, b) {
                        *a = v;
                        *b = v;
                    }
                }
                Op::Peek(l) => {
                    let l = LineAddr::from_line_number(l);
                    prop_assert_eq!(cache.peek(l), oracle.peek(l));
                    prop_assert_eq!(cache.contains(l), oracle.peek(l).is_some());
                }
                Op::Insert(l, v) => {
                    let l = LineAddr::from_line_number(l);
                    prop_assert_eq!(cache.insert(l, v), oracle.insert(l, v));
                }
                Op::Remove(l) => {
                    let l = LineAddr::from_line_number(l);
                    prop_assert_eq!(cache.remove(l), oracle.remove(l));
                }
            }
            prop_assert_eq!(cache.len(), oracle.len());
            prop_assert_eq!(cache.is_empty(), oracle.len() == 0);
            let mut resident: Vec<_> = cache.iter().map(|(l, &p)| (l, p)).collect();
            resident.sort();
            prop_assert_eq!(resident, oracle.resident());
        }
    }
}
