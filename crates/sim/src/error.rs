//! The unified error surface of the record/replay pipeline.
//!
//! Every layer below `rr-sim` has its own typed error — `WireError` for
//! the codec, `PatchError`/`ReplayError`/`VerifyError` for the replay
//! pipeline, `SimError` for the machine, `SweepError` for the sweep
//! engine, `LogDirError` for saved runs. Before this type
//! existed they crossed crate boundaries ad hoc: experiments binaries
//! stringified them, `rr-check` panicked, and `replay_and_verify` returned
//! `String`. [`enum@Error`] is the one type the binaries and the session
//! API speak: each underlying error converts with `From`, keeps its source
//! chain (`std::error::Error::source`), and can be wrapped with
//! human-readable context via [`Error::context`].

use core::fmt;

use relaxreplay::WireError;
use rr_replay::{PatchError, ReplayError, VerifyError};

use crate::logdir::LogDirError;
use crate::machine::SimError;
use crate::store::StoreError;
use crate::sweep::SweepError;

/// Any failure of the record/replay pipeline, from the wire codec up to
/// the sweep engine.
#[derive(Clone, Debug)]
pub enum Error {
    /// The simulated machine failed (deadlock, too many threads).
    Sim(SimError),
    /// An `.rrlog` stream failed to encode or decode.
    Wire(WireError),
    /// A saved-run directory was missing, malformed, or undecodable.
    LogDir(LogDirError),
    /// A run store (local directory or remote rr-serve backend) failed.
    Store(StoreError),
    /// A sweep job failed.
    Sweep(SweepError),
    /// The patching step rejected a log.
    Patch(PatchError),
    /// Deterministic replay failed.
    Replay(ReplayError),
    /// Replay verification failed — determinism was broken.
    Verify(VerifyError),
    /// A filesystem operation outside the typed layers failed.
    Io(String),
    /// A failure wrapped with human-readable context; the underlying
    /// error is preserved as the source.
    Context {
        /// What was being attempted.
        context: String,
        /// The underlying failure.
        source: Box<Error>,
    },
    /// A free-form failure (argument parsing, broken invariants).
    Msg(String),
}

impl Error {
    /// Wraps this error with context, preserving it as the source:
    /// `err.context("patch failed")` displays as `patch failed: <err>`.
    #[must_use]
    pub fn context(self, context: impl Into<String>) -> Self {
        Error::Context {
            context: context.into(),
            source: Box::new(self),
        }
    }

    /// A free-form error from a message.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> Self {
        Error::Msg(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Sim(e) => write!(f, "{e}"),
            Error::Wire(e) => write!(f, "{e}"),
            Error::LogDir(e) => write!(f, "{e}"),
            Error::Store(e) => write!(f, "{e}"),
            Error::Sweep(e) => write!(f, "{e}"),
            Error::Patch(e) => write!(f, "{e}"),
            Error::Replay(e) => write!(f, "{e}"),
            Error::Verify(e) => write!(f, "{e}"),
            Error::Io(m) => write!(f, "i/o error: {m}"),
            Error::Context { context, source } => write!(f, "{context}: {source}"),
            Error::Msg(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::LogDir(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Sweep(e) => Some(e),
            Error::Patch(e) => Some(e),
            Error::Replay(e) => Some(e),
            Error::Verify(e) => Some(e),
            Error::Context { source, .. } => Some(source),
            Error::Io(_) | Error::Msg(_) => None,
        }
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim(e)
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<LogDirError> for Error {
    fn from(e: LogDirError) -> Self {
        Error::LogDir(e)
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<SweepError> for Error {
    fn from(e: SweepError) -> Self {
        Error::Sweep(e)
    }
}

impl From<PatchError> for Error {
    fn from(e: PatchError) -> Self {
        Error::Patch(e)
    }
}

impl From<ReplayError> for Error {
    fn from(e: ReplayError) -> Self {
        Error::Replay(e)
    }
}

impl From<VerifyError> for Error {
    fn from(e: VerifyError) -> Self {
        Error::Verify(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_chains_and_displays() {
        let base: Error = WireError::BadMagic.into();
        let wrapped = base.context("loading core0.rrlog");
        assert_eq!(
            wrapped.to_string(),
            "loading core0.rrlog: not an .rrlog stream (bad magic)"
        );
        let source = std::error::Error::source(&wrapped).expect("has source");
        assert!(source.to_string().contains("bad magic"));
        // The inner WireError is reachable through the chain.
        let inner = std::error::Error::source(source).expect("wire source");
        assert!(inner.downcast_ref::<WireError>().is_some());
    }

    #[test]
    fn io_and_msg_are_terminal() {
        let e = Error::msg("bad flag");
        assert!(std::error::Error::source(&e).is_none());
        let io: Error = std::io::Error::other("disk on fire").into();
        assert!(io.to_string().contains("disk on fire"));
    }
}
