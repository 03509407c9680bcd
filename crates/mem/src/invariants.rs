//! Coherence-invariant checkers used by tests and the simulator's debug
//! mode.
//!
//! The central one is **SWMR** (single-writer / multiple-reader): at any
//! instant, a line is either writable in exactly one L1 (Modified, with no
//! other readable copy) or readable in any number of L1s. Write atomicity —
//! the property RelaxReplay requires of the coherence substrate (paper
//! §3.2) — follows from SWMR plus the per-line transaction serialization
//! the bus enforces.

use std::collections::HashMap;

use crate::{CoreId, LineAddr, MemorySystem, MesiState};

/// A violation found by [`check_swmr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwmrViolation {
    /// The offending line.
    pub line: LineAddr,
    /// All `(core, state)` holders of the line.
    pub holders: Vec<(CoreId, MesiState)>,
}

impl std::fmt::Display for SwmrViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWMR violated for {}: {:?}", self.line, self.holders)
    }
}

/// Checks the single-writer/multiple-reader invariant across all L1s.
///
/// A line in `Modified` or `Exclusive` state in one cache must not be
/// present in any other cache. Lines whose transaction is still in flight
/// are transiently exempt (the requester has not yet installed its copy, so
/// they cannot violate the check anyway).
///
/// Returns every violating line.
#[must_use]
pub fn check_swmr(mem: &MemorySystem) -> Vec<SwmrViolation> {
    let cores = mem.config().num_cores;
    let mut holders: HashMap<LineAddr, Vec<(CoreId, MesiState)>> = HashMap::new();
    for i in 0..cores {
        let core = CoreId::new(i as u8);
        for (line, state) in mem.l1_lines(core) {
            holders.entry(line).or_default().push((core, state));
        }
    }
    let mut violations = Vec::new();
    for (line, holders) in holders {
        let exclusive_holders = holders
            .iter()
            .filter(|(_, s)| matches!(s, MesiState::Modified | MesiState::Exclusive))
            .count();
        if exclusive_holders > 0 && holders.len() > 1 {
            violations.push(SwmrViolation { line, holders });
        }
    }
    violations.sort_by_key(|v| v.line);
    violations
}

/// Panics if the SWMR invariant is violated, printing every offender.
///
/// # Panics
///
/// Panics on the first violation, with a message listing all of them.
pub fn assert_swmr(mem: &MemorySystem) {
    let violations = check_swmr(mem);
    assert!(
        violations.is_empty(),
        "coherence invariant violations: {}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, MemConfig, MemTickOutput, Response};

    #[test]
    fn swmr_holds_under_random_traffic() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut mem = MemorySystem::new(MemConfig::splash_default(4));
        let mut cycle = 0u64;
        let mut out = MemTickOutput::default();
        for _ in 0..3000 {
            cycle += 1;
            mem.tick(cycle, &mut out);
            if rng.gen_bool(0.5) {
                let core = CoreId::new(rng.gen_range(0..4));
                let kind = match rng.gen_range(0..3) {
                    0 => AccessKind::Load,
                    1 => AccessKind::Store,
                    _ => AccessKind::Rmw,
                };
                let line = LineAddr::from_line_number(rng.gen_range(0..16));
                let _ = mem.access(cycle, core, kind, line);
            }
            assert_swmr(&mem);
        }
        // Drain.
        while !mem.quiescent() {
            cycle += 1;
            mem.tick(cycle, &mut out);
            assert_swmr(&mem);
        }
        let _: Response; // silence unused-import lints in some configs
    }
}
