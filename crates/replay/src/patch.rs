use core::fmt;

use relaxreplay::{IntervalLog, LogEntry};
use rr_isa::WORD_BYTES;
use rr_mem::CoreId;

/// One operation of a *patched*, replay-ready log.
///
/// Produced from raw [`LogEntry`]s by [`patch`], which moves each
/// `ReorderedStore` back to the interval where the store performed and
/// leaves a dummy at its counting position (paper §3.3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayOp {
    /// Natively execute `instrs` consecutive instructions (the OS arms the
    /// instruction counter and resumes the application; paper §3.5).
    RunBlock {
        /// Instructions to execute.
        instrs: u32,
    },
    /// The next instruction is a reordered load: write `value` to its
    /// destination register and advance the PC without executing it.
    InjectLoad {
        /// The recorded load value.
        value: u64,
    },
    /// Apply a patched store to memory. The PC does **not** advance — the
    /// store instruction itself is elsewhere (it was counted in a later
    /// interval, where a [`ReplayOp::SkipStore`] dummy stands in for it).
    ApplyStore {
        /// Byte address to write.
        addr: u64,
        /// Value to write.
        value: u64,
    },
    /// The dummy left where a patched store was counted: advance the PC
    /// past the store instruction without executing it.
    SkipStore,
    /// The next instruction is a reordered atomic RMW: write `loaded` to
    /// its destination register and advance the PC. Its store half (if
    /// any) was patched back as an [`ReplayOp::ApplyStore`].
    InjectRmw {
        /// The recorded old value the RMW read.
        loaded: u64,
    },
    /// End of an interval: release successors in the global interval
    /// order.
    EndInterval {
        /// Interval sequence number.
        cisn: u16,
        /// Global ordering timestamp.
        timestamp: u64,
    },
}

/// A per-processor log after the patching step, ready for replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatchedLog {
    /// The processor this log replays.
    pub core: CoreId,
    /// Replay operations in execution order; each interval ends with
    /// [`ReplayOp::EndInterval`].
    pub ops: Vec<ReplayOp>,
}

/// Errors from [`patch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PatchError {
    /// A reordered store's offset points before the first interval.
    OffsetOutOfRange {
        /// Interval index (per this core) holding the store entry.
        interval: usize,
        /// The offending offset.
        offset: u32,
    },
    /// A reordered store's (or RMW's) address is not word-aligned.
    UnalignedStore {
        /// Interval index (per this core) holding the store entry.
        interval: usize,
        /// The offending byte address.
        addr: u64,
    },
    /// The log did not end with an `IntervalFrame`.
    UnterminatedInterval,
}

impl fmt::Display for PatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatchError::OffsetOutOfRange { interval, offset } => write!(
                f,
                "reordered store in interval {interval} has offset {offset} pointing before the log start"
            ),
            PatchError::UnalignedStore { interval, addr } => write!(
                f,
                "reordered store in interval {interval} has unaligned address {addr:#x}"
            ),
            PatchError::UnterminatedInterval => {
                write!(f, "log does not end with an IntervalFrame")
            }
        }
    }
}

impl std::error::Error for PatchError {}

/// The patching step (paper §3.3.2): converts a raw [`IntervalLog`] into a
/// [`PatchedLog`] by moving every reordered store (and the store half of
/// every reordered RMW) back `offset` intervals, to the end of the interval
/// where it performed, leaving a dummy at its counting position.
///
/// Patched stores land *after* all in-order entries of their target
/// interval, which is always correct: everything counted in that interval
/// is program-order earlier than the store, and any remote access that
/// conflicted after the store performed would have terminated the interval
/// (so no remote interval orders between the store's perform and its
/// interval's end).
///
/// Entries are converted to [`ReplayOp`]s in one pass over
/// `log.entries`; only the per-interval op lists are buffered until
/// assembly.
///
/// # Errors
///
/// Returns [`PatchError`] if an offset points before the start of the log,
/// a reordered store's address is not word-aligned, or the log is not
/// frame-terminated.
pub fn patch(log: &IntervalLog) -> Result<PatchedLog, PatchError> {
    let core = log.core;
    // Completed interval bodies (ops in counting order) and frames, plus
    // appendices: stores moved back to the end of earlier intervals.
    let mut bodies: Vec<Vec<ReplayOp>> = Vec::new();
    let mut frames: Vec<(u16, u64)> = Vec::new();
    let mut appendices: Vec<Vec<ReplayOp>> = Vec::new();
    let mut body: Vec<ReplayOp> = Vec::new();

    for &e in &log.entries {
        // Index of the interval currently being filled.
        let i = bodies.len();
        let move_back = |appendices: &mut Vec<Vec<ReplayOp>>,
                         addr: u64,
                         value: u64,
                         offset: u32|
         -> Result<(), PatchError> {
            if !addr.is_multiple_of(WORD_BYTES) {
                return Err(PatchError::UnalignedStore { interval: i, addr });
            }
            let target = i
                .checked_sub(offset as usize)
                .ok_or(PatchError::OffsetOutOfRange {
                    interval: i,
                    offset,
                })?;
            if appendices.len() <= target {
                appendices.resize_with(target + 1, Vec::new);
            }
            appendices[target].push(ReplayOp::ApplyStore { addr, value });
            Ok(())
        };
        match e {
            LogEntry::InorderBlock { instrs } => body.push(ReplayOp::RunBlock { instrs }),
            LogEntry::ReorderedLoad { value } => body.push(ReplayOp::InjectLoad { value }),
            LogEntry::ReorderedStore {
                addr,
                value,
                offset,
            } => {
                move_back(&mut appendices, addr, value, offset)?;
                body.push(ReplayOp::SkipStore);
            }
            LogEntry::ReorderedRmw {
                loaded,
                addr,
                stored,
                offset,
            } => {
                if let Some(value) = stored {
                    move_back(&mut appendices, addr, value, offset)?;
                }
                body.push(ReplayOp::InjectRmw { loaded });
            }
            LogEntry::IntervalFrame { cisn, timestamp } => {
                bodies.push(std::mem::take(&mut body));
                frames.push((cisn, timestamp));
            }
        }
    }
    if !body.is_empty() {
        return Err(PatchError::UnterminatedInterval);
    }

    let mut ops = Vec::new();
    for (i, (body, frame)) in bodies.into_iter().zip(frames).enumerate() {
        ops.extend(body);
        if let Some(appendix) = appendices.get(i) {
            ops.extend(appendix.iter().copied());
        }
        ops.push(ReplayOp::EndInterval {
            cisn: frame.0,
            timestamp: frame.1,
        });
    }
    Ok(PatchedLog { core, ops })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(cisn: u16, ts: u64) -> LogEntry {
        LogEntry::IntervalFrame {
            cisn,
            timestamp: ts,
        }
    }

    #[test]
    fn store_moves_back_and_leaves_dummy() {
        let log = IntervalLog {
            core: CoreId::new(0),
            entries: vec![
                LogEntry::InorderBlock { instrs: 4 },
                frame(0, 10),
                frame(1, 20),
                LogEntry::ReorderedStore {
                    addr: 0x8,
                    value: 9,
                    offset: 2,
                },
                LogEntry::InorderBlock { instrs: 1 },
                frame(2, 30),
            ],
        };
        let p = patch(&log).expect("patches");
        assert_eq!(
            p.ops,
            vec![
                ReplayOp::RunBlock { instrs: 4 },
                ReplayOp::ApplyStore {
                    addr: 0x8,
                    value: 9
                }, // end of interval 0
                ReplayOp::EndInterval {
                    cisn: 0,
                    timestamp: 10
                },
                ReplayOp::EndInterval {
                    cisn: 1,
                    timestamp: 20
                },
                ReplayOp::SkipStore,
                ReplayOp::RunBlock { instrs: 1 },
                ReplayOp::EndInterval {
                    cisn: 2,
                    timestamp: 30
                },
            ]
        );
    }

    #[test]
    fn rmw_splits_into_inject_and_apply() {
        let log = IntervalLog {
            core: CoreId::new(1),
            entries: vec![
                frame(0, 5),
                LogEntry::ReorderedRmw {
                    loaded: 3,
                    addr: 0x10,
                    stored: Some(4),
                    offset: 1,
                },
                frame(1, 9),
            ],
        };
        let p = patch(&log).expect("patches");
        assert_eq!(
            p.ops,
            vec![
                ReplayOp::ApplyStore {
                    addr: 0x10,
                    value: 4
                },
                ReplayOp::EndInterval {
                    cisn: 0,
                    timestamp: 5
                },
                ReplayOp::InjectRmw { loaded: 3 },
                ReplayOp::EndInterval {
                    cisn: 1,
                    timestamp: 9
                },
            ]
        );
    }

    #[test]
    fn failed_cas_has_no_store_half() {
        let log = IntervalLog {
            core: CoreId::new(1),
            entries: vec![
                frame(0, 5),
                LogEntry::ReorderedRmw {
                    loaded: 3,
                    addr: 0x10,
                    stored: None,
                    offset: 1,
                },
                frame(1, 9),
            ],
        };
        let p = patch(&log).expect("patches");
        assert!(!p
            .ops
            .iter()
            .any(|o| matches!(o, ReplayOp::ApplyStore { .. })));
    }

    #[test]
    fn bad_offset_is_rejected() {
        let log = IntervalLog {
            core: CoreId::new(0),
            entries: vec![
                LogEntry::ReorderedStore {
                    addr: 0,
                    value: 0,
                    offset: 1,
                },
                frame(0, 1),
            ],
        };
        assert_eq!(
            patch(&log),
            Err(PatchError::OffsetOutOfRange {
                interval: 0,
                offset: 1
            })
        );
    }

    /// Regression companion to the recorder's CISN-wrap fix: an offset
    /// wider than 16 bits must move the store back its exact distance.
    /// Pre-fix, the u16 field aliased 65537 to 1 and the store landed one
    /// interval back instead of at the log start.
    #[test]
    fn wide_offset_moves_back_across_cisn_wrap() {
        let offset = u32::from(u16::MAX) + 2; // 65537
        let mut entries = Vec::new();
        for i in 0..offset as usize {
            entries.push(frame(i as u16, i as u64)); // cisn wraps naturally
        }
        entries.push(LogEntry::ReorderedStore {
            addr: 0x8,
            value: 9,
            offset,
        });
        entries.push(frame(offset as u16, u64::from(offset)));
        let log = IntervalLog {
            core: CoreId::new(0),
            entries,
        };
        let p = patch(&log).expect("patches");
        assert_eq!(
            p.ops[0],
            ReplayOp::ApplyStore {
                addr: 0x8,
                value: 9
            },
            "store must land in the very first interval"
        );
        assert_eq!(
            p.ops
                .iter()
                .filter(|o| matches!(o, ReplayOp::ApplyStore { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn unaligned_store_address_is_rejected() {
        let store = LogEntry::ReorderedStore {
            addr: 0x103,
            value: 7,
            offset: 0,
        };
        let rmw = LogEntry::ReorderedRmw {
            loaded: 1,
            addr: 0x10c,
            stored: Some(2),
            offset: 0,
        };
        for (entry, addr) in [(store, 0x103), (rmw, 0x10c)] {
            let log = IntervalLog {
                core: CoreId::new(0),
                entries: vec![frame(0, 1), entry, frame(1, 2)],
            };
            assert_eq!(
                patch(&log),
                Err(PatchError::UnalignedStore { interval: 1, addr })
            );
        }
    }

    #[test]
    fn unterminated_log_is_rejected() {
        let log = IntervalLog {
            core: CoreId::new(0),
            entries: vec![LogEntry::InorderBlock { instrs: 1 }],
        };
        assert_eq!(patch(&log), Err(PatchError::UnterminatedInterval));
    }

    #[test]
    fn loads_stay_in_place() {
        let log = IntervalLog {
            core: CoreId::new(0),
            entries: vec![
                LogEntry::InorderBlock { instrs: 2 },
                LogEntry::ReorderedLoad { value: 42 },
                LogEntry::InorderBlock { instrs: 1 },
                frame(0, 7),
            ],
        };
        let p = patch(&log).expect("patches");
        assert_eq!(p.ops[1], ReplayOp::InjectLoad { value: 42 });
    }
}
