//! Divergence forensics: when verification finds a replay divergence,
//! turn the record- and replay-side event timelines into a human-readable
//! markdown report (`divergence.md`) that shows *where* the two executions
//! disagreed and what each side was doing around that point.
//!
//! Anchoring works as follows. On the record side, counting events fire in
//! program (retirement) order, so the `index`-th `Count` event of kind
//! `Load`/`Rmw` in the divergent core's ring corresponds exactly to load
//! index `index` of the verified trace — and it carries the access's
//! address and classification verdict. On the replay side, every
//! `ReplayRelease` event carries the thread's cumulative replayed load
//! count (`loads_done`), so the first release with `loads_done > index` is
//! the interval that replayed the divergent load.

use std::fmt::Write as _;

use relaxreplay::trace::{TraceEvent, TraceRing};
use relaxreplay::{CountVerdict, RunTrace};
use rr_mem::AccessKind;

use crate::replayer::ReplayOutcome;
use crate::verify::{RecordedExecution, VerifyError};

/// How many events to show on each side of an anchor by default.
pub const DEFAULT_WINDOW: usize = 16;

fn write_window(out: &mut String, ring: &TraceRing, anchor: Option<usize>, window: usize) {
    let records = ring.records();
    if records.is_empty() {
        out.push_str("*(no events captured)*\n");
        return;
    }
    let (lo, hi, mark) = match anchor {
        Some(i) => (
            i.saturating_sub(window),
            (i + window + 1).min(records.len()),
            Some(i),
        ),
        // No anchor: show the tail, which ends nearest the failure.
        None => (
            records.len().saturating_sub(2 * window),
            records.len(),
            None,
        ),
    };
    out.push_str("```text\n");
    if lo > 0 || ring.dropped() > 0 {
        let _ = writeln!(
            out,
            "... ({} earlier events{})",
            lo as u64 + ring.dropped(),
            if ring.dropped() > 0 {
                " incl. ring-evicted"
            } else {
                ""
            }
        );
    }
    for (i, r) in records.iter().enumerate().take(hi).skip(lo) {
        let marker = if Some(i) == mark { ">>> " } else { "    " };
        let _ = writeln!(out, "{marker}[{:>10}] {}", r.cycle, r.event);
    }
    if hi < records.len() {
        let _ = writeln!(out, "... ({} later events)", records.len() - hi);
    }
    out.push_str("```\n");
}

/// Position of the `index`-th counted load/RMW in a record-side ring —
/// counting events fire in program order, so this is the divergent load's
/// counting event. `None` if it was evicted from the ring (or tracing ran
/// below the `accesses` level).
fn record_anchor(ring: &TraceRing, index: u64) -> Option<usize> {
    let mut loads = 0u64;
    for (i, r) in ring.records().iter().enumerate() {
        if let TraceEvent::Count { kind, .. } = r.event {
            if matches!(kind, AccessKind::Load | AccessKind::Rmw) {
                if loads == index {
                    return Some(i);
                }
                loads += 1;
            }
        }
    }
    None
}

/// Position of the replay-side `ReplayRelease` whose interval replayed
/// load `index` of thread `core`.
fn replay_anchor(ring: &TraceRing, core: u8, index: u64) -> Option<usize> {
    ring.records().iter().position(|r| {
        matches!(
            r.event,
            TraceEvent::ReplayRelease {
                core: c,
                loads_done,
                ..
            } if c == core && loads_done > index
        )
    })
}

/// Builds a markdown divergence report from the verification error and the
/// two timelines: the recording's [`RunTrace`] and the replay/verify ring.
/// `window` bounds how many events are shown on each side of an anchor.
#[must_use]
pub fn divergence_report(
    err: &VerifyError,
    recorded: &RecordedExecution,
    outcome: &ReplayOutcome,
    record_trace: &RunTrace,
    replay_trace: &TraceRing,
    window: usize,
) -> String {
    let mut out = String::new();
    out.push_str("# Replay divergence report\n\n");
    let _ = writeln!(out, "**Verdict:** {err}\n");

    match *err {
        VerifyError::TraceValueMismatch {
            core,
            index,
            recorded: rec_val,
            replayed: rep_val,
        } => {
            let c = core.index();
            let _ = writeln!(
                out,
                "Thread {core}, load #{index} (program order): recorded \
                 `{rec_val:#x}`, replayed `{rep_val:#x}`.\n"
            );
            let record_ring = record_trace.cores.get(c);
            let anchor = record_ring.and_then(|r| record_anchor(r, index as u64));
            if let Some(ring) = record_ring {
                if let Some(i) = anchor {
                    if let TraceEvent::Count {
                        seq,
                        addr,
                        pisn,
                        cisn,
                        verdict,
                        ..
                    } = ring.records()[i].event
                    {
                        let _ = writeln!(
                            out,
                            "During recording this was seq {seq}, addr `{addr:#x}`, \
                             performed in interval {pisn} and counted in interval \
                             {cisn} ({}{}).\n",
                            verdict.name(),
                            if verdict == CountVerdict::InOrder {
                                ""
                            } else {
                                " — a candidate for mis-patching"
                            }
                        );
                    }
                } else {
                    out.push_str(
                        "The divergent load's counting event is not in the record \
                         ring (evicted, or tracing ran below the `accesses` \
                         level); showing the timeline tail instead.\n\n",
                    );
                }
                let _ = writeln!(out, "## Record timeline ({core})\n");
                write_window(&mut out, ring, anchor, window);
            }
            let _ = writeln!(out, "\n## Replay timeline\n");
            write_window(
                &mut out,
                replay_trace,
                replay_anchor(replay_trace, c as u8, index as u64),
                window,
            );
        }
        VerifyError::TraceLengthMismatch {
            core,
            recorded: rec_len,
            replayed: rep_len,
        } => {
            let c = core.index();
            let _ = writeln!(
                out,
                "Thread {core} recorded {rec_len} loads but replayed {rep_len} — \
                 the executions took different paths. Timeline tails:\n"
            );
            if let Some(ring) = record_trace.cores.get(c) {
                let _ = writeln!(out, "## Record timeline ({core})\n");
                write_window(&mut out, ring, None, window);
            }
            let _ = writeln!(out, "\n## Replay timeline\n");
            write_window(&mut out, replay_trace, None, window);
        }
        VerifyError::MemoryMismatch => {
            let diffs = diff_memory(recorded, outcome, 16);
            out.push_str(
                "Load traces matched but the final memory images differ — a \
                 store was misapplied (or a patched store landed at the wrong \
                 point).\n\n## First differing cells\n\n```text\n",
            );
            for (addr, a, b) in &diffs {
                let _ = writeln!(out, "[{addr:#x}] recorded {a:#x}, replayed {b:#x}");
            }
            out.push_str("```\n");
            for (i, ring) in record_trace.cores.iter().enumerate() {
                let _ = writeln!(out, "\n## Record timeline (P{i}) tail\n");
                write_window(&mut out, ring, None, window);
            }
            let _ = writeln!(out, "\n## Replay timeline\n");
            write_window(&mut out, replay_trace, None, window);
        }
        VerifyError::ThreadCountMismatch { recorded, replayed } => {
            let _ = writeln!(
                out,
                "{recorded} threads recorded but {replayed} replayed — the run \
                 setup itself is inconsistent; no per-thread timeline applies.\n"
            );
        }
    }
    out
}

/// First differing `(addr, recorded, replayed)` cells between the two
/// final memory images, up to `limit`.
fn diff_memory(
    recorded: &RecordedExecution,
    outcome: &ReplayOutcome,
    limit: usize,
) -> Vec<(u64, u64, u64)> {
    let mut cells: Vec<(u64, u64, u64)> = Vec::new();
    let mut addrs: Vec<u64> = recorded
        .final_mem
        .words()
        .map(|(a, _)| a)
        .chain(outcome.mem.words().map(|(a, _)| a))
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    for addr in addrs {
        let a = recorded.final_mem.load(addr);
        let b = outcome.mem.load(addr);
        if a != b {
            cells.push((addr, a, b));
            if cells.len() == limit {
                break;
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use relaxreplay::trace::TraceConfig;
    use rr_mem::CoreId;

    use crate::cost::ReplayEvents;
    use rr_isa::MemImage;

    fn outcome(traces: Vec<Vec<u64>>, mem: MemImage) -> ReplayOutcome {
        ReplayOutcome {
            mem,
            load_traces: traces,
            events: ReplayEvents::default(),
            user_cycles: 0,
            os_cycles: 0,
        }
    }

    #[test]
    fn value_mismatch_report_anchors_both_sides() {
        let cfg = TraceConfig::full();
        let mut record_trace = RunTrace::new(1, &cfg);
        // Three counted loads; load #1 will diverge.
        for (i, addr) in [0x100u64, 0x108, 0x110].iter().enumerate() {
            record_trace.cores[0].push(
                10 + i as u64,
                TraceEvent::Count {
                    seq: i as u64,
                    kind: AccessKind::Load,
                    addr: *addr,
                    pisn: 0,
                    cisn: 0,
                    verdict: CountVerdict::InOrder,
                },
            );
        }
        let mut replay_ring = TraceRing::new(CoreId::new(u8::MAX), &cfg);
        replay_ring.push(
            5,
            TraceEvent::ReplayRelease {
                core: 0,
                ordinal: 0,
                timestamp: 5,
                loads_done: 3,
            },
        );
        let err = VerifyError::TraceValueMismatch {
            core: CoreId::new(0),
            index: 1,
            recorded: 2,
            replayed: 9,
        };
        let recorded = RecordedExecution {
            final_mem: MemImage::new(),
            load_traces: vec![vec![1, 2, 3]],
        };
        let report = divergence_report(
            &err,
            &recorded,
            &outcome(vec![vec![1, 9, 3]], MemImage::new()),
            &record_trace,
            &replay_ring,
            4,
        );
        assert!(report.contains("Record timeline"), "{report}");
        assert!(report.contains("Replay timeline"), "{report}");
        assert!(report.contains("addr `0x108`"), "{report}");
        assert!(report.contains(">>> "), "anchors are marked: {report}");
        assert!(report.contains("3 loads done"), "{report}");
    }

    #[test]
    fn memory_mismatch_report_lists_cells() {
        let cfg = TraceConfig::full();
        let record_trace = RunTrace::new(1, &cfg);
        let replay_ring = TraceRing::new(CoreId::new(u8::MAX), &cfg);
        let mut mem = MemImage::new();
        mem.store(0x40, 7);
        let recorded = RecordedExecution {
            final_mem: mem,
            load_traces: vec![],
        };
        let report = divergence_report(
            &VerifyError::MemoryMismatch,
            &recorded,
            &outcome(vec![], MemImage::new()),
            &record_trace,
            &replay_ring,
            4,
        );
        assert!(
            report.contains("[0x40] recorded 0x7, replayed 0x0"),
            "{report}"
        );
    }
}
