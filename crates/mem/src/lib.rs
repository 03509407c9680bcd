//! # rr-mem — cache hierarchy and coherence for the RelaxReplay reproduction
//!
//! Timing and coherence model of the simulated multicore's memory system
//! (paper §5.1, Table 1): private L1 caches kept coherent by a MESI protocol
//! over a ring-based snoopy bus, a shared L2, and main memory. A
//! directory-style filtering mode is also provided for the paper's §4.3
//! discussion (only sharers observe coherence transactions, and dirty
//! evictions are reported so the recorder's Snoop Table can compensate).
//!
//! This crate models **when** accesses perform and **which coherence events
//! each core observes**; data values live in `rr_isa::MemImage` and are
//! applied by the core model at perform time. That split cleanly encodes the
//! write-atomicity property RelaxReplay relies on (paper §3.2, Observation
//! 1): a store's value becomes visible to everyone at the single instant its
//! coherence transaction completes.
//!
//! Key guarantees of the model (asserted by tests):
//!
//! * **Per-line serialization** — a line with a transaction in flight is
//!   *busy*; later requests to it are deferred past its completion.
//! * **Snoop-before-completion** — invalidations/downgrades for a
//!   transaction are delivered to other cores no later than the requester's
//!   completion, so a store is globally visible only after all stale copies
//!   are gone.
//! * **SWMR** — at any instant a line has either one writer (M) or any
//!   number of readers (E/S); checked by [`invariants::check_swmr`].
//!
//! ```
//! use rr_mem::{AccessKind, CoreId, LineAddr, MemConfig, MemorySystem, Response};
//!
//! let mut mem = MemorySystem::new(MemConfig::splash_default(2));
//! // Core 0 load-misses: the request is queued and completes later.
//! let resp = mem.access(
//!     0,
//!     CoreId::new(0),
//!     AccessKind::Load,
//!     LineAddr::containing(0x1000),
//! );
//! assert!(matches!(resp, Response::Pending { .. }));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod config;
pub mod invariants;
mod line;
mod memory;
mod mesi;
mod stats;

pub use cache::SetAssocCache;
pub use config::{CoherenceMode, MemConfig};
pub use line::{CoreId, CoreSet, LineAddr};
pub use memory::{
    AccessKind, Completion, MemTickOutput, MemorySystem, ReqId, Response, SnoopEvent, SnoopScope,
};
pub use mesi::MesiState;
pub use rr_isa::{IdHashMap, IdHasher};
pub use stats::MemStats;
