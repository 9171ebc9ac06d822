//! Unified error type for the Orion framework.
//!
//! Besides wrapping the per-layer errors (verifier, allocator,
//! simulator), [`OrionError`] supports *source-chain context*: the
//! resilient runtime wraps a failure with the kernel name and the
//! simulated cycle at which it struck ([`OrionError::with_context`]),
//! and [`std::error::Error::source`] walks back to the root cause, so
//! `anyhow`-style chain printers show e.g.
//! `kernel "srad" failed at cycle 123456: sim: watchdog: ...`.

use orion_alloc::realize::AllocError;
use orion_gpusim::exec::SimError;
use orion_kir::verify::VerifyError;
use std::fmt;

/// Any failure in the compile/tune/run pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum OrionError {
    /// The input module failed verification.
    Verify(VerifyError),
    /// Allocation/codegen failed.
    Alloc(AllocError),
    /// Simulation failed.
    Sim(SimError),
    /// No occupancy level was achievable for the kernel on the device.
    NoAchievableOccupancy,
    /// The runtime tuner was driven outside its contract (zero work
    /// normalization, measurement for an unknown version, ...).
    Tuner(String),
    /// Every candidate version — including the fail-safe — failed to
    /// launch; there is nothing left to run.
    AllCandidatesFailed { quarantined: usize },
    /// A version label that names no version of the compiled kernel
    /// (see [`crate::compiler::CompiledKernel::index_of`]).
    UnknownVersion { label: String },
    /// The worker driving this kernel's session panicked; the panic was
    /// caught at the job boundary and the kernel quarantined.
    SessionPanicked { detail: String },
    /// A failure annotated with where it struck. The inner error is
    /// reachable through [`std::error::Error::source`].
    Context(Box<ErrorContext>),
}

/// Where a wrapped [`OrionError`] struck.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorContext {
    /// Kernel (entry function) name.
    pub kernel: String,
    /// Simulated cycle of the failure, when the runtime knows it (total
    /// cycles executed before the failing launch).
    pub cycle: Option<u64>,
    /// The underlying failure.
    pub source: OrionError,
}

impl OrionError {
    /// Wrap this error with the kernel name and failure cycle. Chains
    /// compose: an already-contextualized error gains an outer frame.
    #[must_use]
    pub fn with_context(self, kernel: impl Into<String>, cycle: Option<u64>) -> Self {
        OrionError::Context(Box::new(ErrorContext { kernel: kernel.into(), cycle, source: self }))
    }

    /// The innermost error in the context chain (the root cause).
    pub fn root_cause(&self) -> &OrionError {
        match self {
            OrionError::Context(c) => c.source.root_cause(),
            other => other,
        }
    }

    /// Whether the root cause is a transient (retryable) failure.
    pub fn is_transient(&self) -> bool {
        matches!(self.root_cause(), OrionError::Sim(e) if e.is_transient())
    }
}

impl fmt::Display for OrionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrionError::Verify(e) => write!(f, "verify: {e}"),
            OrionError::Alloc(e) => write!(f, "alloc: {e}"),
            OrionError::Sim(e) => write!(f, "sim: {e}"),
            OrionError::NoAchievableOccupancy => {
                write!(f, "no occupancy level is achievable for this kernel")
            }
            OrionError::Tuner(detail) => write!(f, "tuner: {detail}"),
            OrionError::AllCandidatesFailed { quarantined } => {
                write!(f, "all candidate versions failed to launch ({quarantined} quarantined)")
            }
            OrionError::UnknownVersion { label } => {
                write!(f, "no kernel version is labeled \"{label}\"")
            }
            OrionError::SessionPanicked { detail } => {
                write!(f, "session worker panicked: {detail}")
            }
            OrionError::Context(c) => match c.cycle {
                Some(cycle) => {
                    write!(f, "kernel \"{}\" failed at cycle {cycle}: {}", c.kernel, c.source)
                }
                None => write!(f, "kernel \"{}\": {}", c.kernel, c.source),
            },
        }
    }
}

impl std::error::Error for OrionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrionError::Verify(e) => Some(e),
            OrionError::Alloc(e) => Some(e),
            OrionError::Sim(e) => Some(e),
            OrionError::Context(c) => Some(&c.source),
            _ => None,
        }
    }
}

impl From<VerifyError> for OrionError {
    fn from(e: VerifyError) -> Self {
        OrionError::Verify(e)
    }
}

impl From<AllocError> for OrionError {
    fn from(e: AllocError) -> Self {
        OrionError::Alloc(e)
    }
}

impl From<SimError> for OrionError {
    fn from(e: SimError) -> Self {
        OrionError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_variants() {
        let e = OrionError::NoAchievableOccupancy;
        assert!(e.to_string().contains("occupancy"));
        let e: OrionError = SimError::Deadlock.into();
        assert!(matches!(e, OrionError::Sim(_)));
    }

    #[test]
    fn context_chains_and_sources() {
        let root: OrionError = SimError::Watchdog { budget: 1000 }.into();
        let wrapped = root.clone().with_context("srad", Some(4242));
        let msg = wrapped.to_string();
        assert!(msg.contains("srad") && msg.contains("4242") && msg.contains("watchdog"), "{msg}");
        // source() walks to the inner OrionError, then to the SimError.
        let inner = wrapped.source().expect("context has a source");
        assert_eq!(inner.to_string(), root.to_string());
        let sim = inner.source().expect("sim error is the root's source");
        assert!(sim.to_string().contains("watchdog"));
        assert_eq!(wrapped.root_cause(), &root);
    }

    #[test]
    fn transience_is_seen_through_context() {
        let e: OrionError = SimError::TransientLaunchFailure { code: 1 }.into();
        assert!(e.clone().with_context("k", None).is_transient());
        let e: OrionError = SimError::Deadlock.into();
        assert!(!e.with_context("k", None).is_transient());
    }
}
