//! Property tests of the coherence model under random traffic: the
//! invariants interval-based recording depends on must hold for arbitrary
//! access interleavings, in both snoopy and directory modes.
//!
//! * **SWMR** — no line is writable in one cache while present in another;
//! * **per-line serialization** — completions of same-line transactions
//!   never interleave (each grant waits for the previous completion);
//! * **snoop-before-completion** — a transaction's snoops are delivered
//!   strictly before its completion;
//! * **liveness** — every accepted request eventually completes.

use proptest::prelude::*;
use rr_mem::{
    invariants::assert_swmr, AccessKind, CoherenceMode, CoreId, LineAddr, MemConfig, MemTickOutput,
    MemorySystem, Response, SnoopScope,
};
use std::collections::HashMap;

#[derive(Clone, Debug)]
struct Access {
    core: u8,
    kind: u8,
    line: u64,
    gap: u8,
}

fn access_strategy(cores: u8) -> impl Strategy<Value = Access> {
    (0..cores, 0u8..3, 0u64..12, 0u8..4).prop_map(|(core, kind, line, gap)| Access {
        core,
        kind,
        line,
        gap,
    })
}

fn kind_of(code: u8) -> AccessKind {
    match code {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        _ => AccessKind::Rmw,
    }
}

fn run_traffic(accesses: &[Access], cores: usize, mode: CoherenceMode) {
    let mut cfg = MemConfig::splash_default(cores);
    cfg.mode = mode;
    let mut mem = MemorySystem::new(cfg);
    let mut cycle = 0u64;
    let mut next = 0usize;
    // req -> issue cycle.
    let mut outstanding: HashMap<u64, u64> = HashMap::new();
    // line -> cycle of the most recent snoop delivery.
    let mut last_snoop: HashMap<u64, u64> = HashMap::new();

    let max_cycles = 200_000;
    let mut out = MemTickOutput::default();
    while next < accesses.len() || !outstanding.is_empty() {
        mem.tick(cycle, &mut out);
        for s in &out.snoops {
            last_snoop.insert(s.line.line_number(), cycle);
            // Scope sanity: the requester never observes itself.
            match &s.scope {
                SnoopScope::AllExcept(c) => assert_eq!(*c, s.from),
                SnoopScope::Cores(cs) => assert!(!cs.contains(&s.from)),
            }
        }
        for c in &out.completions {
            let line = c.line.line_number();
            outstanding.remove(&c.req);
            // Snoop-strictly-before-completion: if this line's transaction
            // broadcast snoops, they arrived at an earlier cycle. (Quick
            // grants broadcast nothing, so only check when one was seen.)
            if let Some(&s) = last_snoop.get(&line) {
                assert!(
                    s < cycle,
                    "snoop at {s} not strictly before completion at {cycle}"
                );
            }
        }
        assert_swmr(&mem);

        if next < accesses.len() {
            let a = &accesses[next];
            if cycle.is_multiple_of(u64::from(a.gap) + 1) {
                let core = CoreId::new(a.core);
                match mem.access(
                    cycle,
                    core,
                    kind_of(a.kind),
                    LineAddr::from_line_number(a.line),
                ) {
                    Response::Pending { req } => {
                        outstanding.insert(req, cycle);
                        next += 1;
                    }
                    Response::Hit { .. } => {
                        next += 1;
                    }
                    Response::Retry => {} // try again next cycle
                }
            }
        }
        cycle += 1;
        assert!(
            cycle < max_cycles,
            "liveness violated: traffic never drained"
        );
    }
    assert!(mem.quiescent());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    #[test]
    fn snoopy_invariants_hold(accesses in proptest::collection::vec(access_strategy(4), 1..120)) {
        run_traffic(&accesses, 4, CoherenceMode::Snoopy);
    }

    #[test]
    fn directory_invariants_hold(accesses in proptest::collection::vec(access_strategy(4), 1..120)) {
        run_traffic(&accesses, 4, CoherenceMode::Directory);
    }

    #[test]
    fn directory_scope_is_superset_of_holders(
        accesses in proptest::collection::vec(access_strategy(3), 1..80),
    ) {
        // Every core that actually holds the line must be in the snoop
        // scope (stale sharers may also be present — that is the point).
        let mut cfg = MemConfig::splash_default(3);
        cfg.mode = CoherenceMode::Directory;
        let mut mem = MemorySystem::new(cfg);
        let mut next = 0usize;
        let mut outstanding = 0usize;
        let mut out = MemTickOutput::default();
        for cycle in 0..100_000u64 {
            mem.tick(cycle, &mut out);
            outstanding -= out.completions.len();
            for s in &out.snoops {
                for i in 0..3u8 {
                    let core = CoreId::new(i);
                    if core == s.from {
                        continue;
                    }
                    let holds = mem.l1_state(core, s.line) != rr_mem::MesiState::Invalid;
                    if holds {
                        prop_assert!(
                            s.scope.observes(core),
                            "holder {core} missing from snoop scope for {}",
                            s.line
                        );
                    }
                }
            }
            if next < accesses.len() {
                let a = &accesses[next];
                match mem.access(
                    cycle,
                    CoreId::new(a.core),
                    kind_of(a.kind),
                    LineAddr::from_line_number(a.line),
                ) {
                    Response::Pending { .. } => {
                        outstanding += 1;
                        next += 1;
                    }
                    Response::Hit { .. } => next += 1,
                    Response::Retry => {}
                }
            } else if outstanding == 0 {
                break;
            }
        }
        prop_assert!(next == accesses.len() && outstanding == 0, "traffic did not drain");
    }
}
