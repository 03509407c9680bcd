//! # rr-cpu — out-of-order core model for the RelaxReplay reproduction
//!
//! A 4-issue out-of-order superscalar core (paper §5.1, Table 1: 176-entry
//! ROB, 128-entry load/store queue, 2 load/store units, write buffer) that
//! executes the `rr-isa` instruction set under a **release-consistent**
//! memory model: loads issue and perform out of program order, stores drain
//! from a write buffer with overlapping coherence transactions, and fences /
//! atomics restore order where workloads ask for it.
//!
//! The core exposes the exact event stream the RelaxReplay recorder consumes
//! (paper §4.1: "instruction dispatch into the ROB, instruction retirement,
//! memory operation performed, and pipeline squash") through the
//! [`CoreObserver`] trait. The recorder lives in the `relaxreplay` crate and
//! is attached by the simulator; [`NullObserver`] runs the core bare.
//!
//! Timing semantics shared with `rr-mem`: an access that hits in the L1
//! *performs immediately* (its value is sampled and `on_perform` fires in
//! the same cycle), while misses perform when their completion is delivered.
//! See `rr-mem`'s crate docs for why this makes every cross-core conflict
//! observable to interval-based recording.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod core;
mod events;
mod predictor;
mod stats;

pub use crate::core::Core;
pub use config::{ConsistencyModel, CpuConfig};
pub use events::{CoreObserver, NullObserver, PerformRecord};
pub use predictor::Predictor;
pub use stats::CoreStats;
