//! # rr-replay — deterministic replay of RelaxReplay logs
//!
//! Turns the interval logs produced by the `relaxreplay` recorder into a
//! deterministic re-execution (paper §3.5):
//!
//! 1. [`patch`] performs the off-line **patching step** of §3.3.2: every
//!    `ReorderedStore` entry moves back `offset` intervals to where the
//!    store *performed*, leaving a dummy at the position where it was
//!    *counted*.
//! 2. [`replay`] emulates the OS control module: it merges all processors'
//!    intervals into the recorded total order, runs `InorderBlock`s
//!    natively (with an instruction-count interrupt, stood in for by the
//!    `rr-isa` interpreter's budgeted `run`), injects logged values for
//!    reordered loads, applies patched stores, and skips dummies.
//! 3. [`verify`] proves determinism: every load of every thread must read
//!    exactly the value it read during recording, and the final memory
//!    images must match.
//! 4. [`CostModel`] estimates replay time (user vs. OS cycles) to
//!    reproduce the paper's Figure 13.
//!
//! Replay reads whole logs, as the paper's offline patch step does: an
//! `.rrlog`'s bytes (a file read whole, a store blob, a network fetch)
//! decode with `relaxreplay::wire::decode_chunked` (one log per worker
//! on [`ordered_pool`]) into an
//! `IntervalLog`, which [`patch`] turns into replay ops. So a recording
//! saved with `--save-logs` can be replayed by a later invocation without
//! the recorder in the loop.
//!
//! Patched logs become an [`IntervalDag`] — [`IntervalDag::total_order`]
//! from the logs alone, [`IntervalDag::partial_order`] with the recorded
//! [`IntervalOrdering`](relaxreplay::IntervalOrdering)s — which one of two
//! executors runs: [`execute_sequential`] in an order derived from the DAG
//! ([`IntervalDag::topo_order`] or [`IntervalDag::list_schedule`]), or
//! [`execute_threaded`] on a worker pool. [`replay`] is the one logs-in
//! shorthand: a total-order DAG run sequentially in its topological order.
//!
//! ```
//! use relaxreplay::{IntervalLog, LogEntry};
//! use rr_isa::{MemImage, ProgramBuilder, Reg};
//! use rr_replay::{patch, replay, CostModel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A trivial one-thread "recording": two instructions, one interval.
//! let mut b = ProgramBuilder::new();
//! b.load_imm(Reg::new(1), 7);
//! b.halt();
//! let program = b.build();
//! let log = IntervalLog {
//!     core: rr_mem::CoreId::new(0),
//!     entries: vec![
//!         LogEntry::InorderBlock { instrs: 2 },
//!         LogEntry::IntervalFrame { cisn: 0, timestamp: 10 },
//!     ],
//! };
//! let patched = patch(&log)?;
//! let outcome = replay(
//!     std::slice::from_ref(&program),
//!     std::slice::from_ref(&patched),
//!     MemImage::new(),
//!     &CostModel::splash_default(),
//! )?;
//! assert_eq!(outcome.events.user_instrs, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
pub mod dag;
mod engine;
pub mod forensics;
mod ingest;
pub mod oracle;
mod patch;
pub mod prof;
mod replayer;
mod verify;

pub use cost::{CostModel, ReplayEvents};
pub use dag::{DagStats, IntervalDag, IntervalNode};
pub use engine::{execute_threaded, execute_threaded_probed};
pub use forensics::divergence_report;
pub use ingest::{host_parallelism, ordered_pool, pool_workers};
pub use oracle::{cross_check, minimize, DifferentialError, Shrink};
pub use patch::{patch, PatchError, PatchedLog, ReplayOp};
pub use prof::{critical_path_blame, prof_json, BlameReport, PathInterval, ProfEntry, BLAME_KINDS};
pub use replayer::{execute_sequential, replay, replay_reference, ReplayError, ReplayOutcome};
pub use verify::{verify, verify_traced, RecordedExecution, VerifyError};
