//! rr-serve: a content-addressed log-ingest and replay-on-demand
//! service for RelaxReplay runs, plus the clients that make it a
//! drop-in [`RunStore`] backend.
//!
//! The pieces:
//!
//! * [`proto`] — the RRSP/v3 length-prefixed, CRC-carrying binary
//!   protocol (no external deps; plain `std::net`).
//! * [`store`] — the on-disk content-addressed chunk store: identical
//!   chunk payloads dedupe to one blob keyed by
//!   `(crc32, rr_hash64)`, runs are catalogs of chunk refs.
//! * [`server`] — the multithreaded TCP server (listener + worker
//!   pool; a run is saved from one frame and published atomically).
//! * [`client`] — [`Client`] (raw protocol) and
//!   [`RemoteStore`] (a `RunStore` over the wire).
//!
//! Anything that takes a run location accepts either a local path or
//! an `rr://host:port/run` URL; [`open_store`] turns a parsed
//! [`StoreSpec`] into the right backend.

#![forbid(unsafe_code)]

pub mod client;
pub mod proto;
pub mod server;
pub mod store;

pub use client::{Client, RemoteStore};
pub use server::{serve, FaultSpec, ServerConfig, ServerHandle};
pub use store::ChunkStore;

use rr_sim::{RemoteFault, RunStore, StoreError, StoreSpec};

/// A typed rr-serve failure: a [`RemoteFault`] kind plus human detail.
/// This is the error currency of the protocol and server layers; it
/// converts losslessly into [`StoreError::Remote`] at the store seam.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// What went wrong, as the protocol's typed fault taxonomy.
    pub kind: RemoteFault,
    /// Human-readable context.
    pub detail: String,
}

impl ServeError {
    /// A fault of `kind` with `detail` context.
    pub fn new(kind: RemoteFault, detail: impl Into<String>) -> Self {
        ServeError {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for StoreError {
    fn from(e: ServeError) -> Self {
        StoreError::Remote {
            kind: e.kind,
            detail: e.detail,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::new(RemoteFault::Io, e.to_string())
    }
}

/// Opens the store a [`StoreSpec`] names: a [`rr_sim::LocalStore`] for
/// a path, a [`RemoteStore`] for an `rr://` URL.
#[must_use]
pub fn open_store(spec: &StoreSpec) -> Box<dyn RunStore> {
    match spec {
        StoreSpec::Local(path) => Box::new(rr_sim::LocalStore::new(path)),
        StoreSpec::Remote { addr, .. } => Box::new(RemoteStore::new(addr.clone())),
    }
}

/// Parses `spec` (a path or `rr://host:port[/run]` URL) and opens it.
///
/// # Errors
///
/// [`StoreError::BadSpec`] if the string is not a valid location.
pub fn parse_and_open(spec: &str) -> Result<(Box<dyn RunStore>, Option<String>), StoreError> {
    let parsed = StoreSpec::parse(spec)?;
    let run = parsed.run().map(str::to_string);
    Ok((open_store(&parsed), run))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_error_display_and_conversion() {
        let e = ServeError::new(RemoteFault::CorruptBlob, "blob 00ff mismatch");
        assert_eq!(e.to_string(), "corrupt-blob: blob 00ff mismatch");
        let s: StoreError = e.into();
        match s {
            StoreError::Remote { kind, detail } => {
                assert_eq!(kind, RemoteFault::CorruptBlob);
                assert!(detail.contains("00ff"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn open_store_picks_backend() {
        let local = StoreSpec::parse("/tmp/some/dir").expect("local spec");
        assert!(open_store(&local).describe().contains("/tmp/some/dir"));
        let remote = StoreSpec::parse("rr://127.0.0.1:9/r1").expect("remote spec");
        assert_eq!(open_store(&remote).describe(), "rr://127.0.0.1:9");
        let (_, run) = parse_and_open("rr://127.0.0.1:9/r1").expect("parse_and_open");
        assert_eq!(run.as_deref(), Some("r1"));
    }
}
