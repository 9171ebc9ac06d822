//! Source-chained errors for the bench harness's report and artifact
//! writing. The per-figure binaries used to `expect()` their way through
//! serialization and `std::fs::write`; a full-disk or read-only CI
//! runner then panicked without saying *which* artifact failed. Every
//! fallible path now carries the operation and the file path, with the
//! underlying error preserved through [`std::error::Error::source`].

use std::fmt;
use std::path::PathBuf;

/// An error from rendering, writing or reading a bench artifact.
#[derive(Debug)]
pub enum BenchError {
    /// A filesystem operation failed.
    Io {
        /// What was being written/read (e.g. `"bench artifact"`).
        what: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A document failed to serialize to JSON.
    Json {
        /// What was being serialized (e.g. `"service doc"`).
        what: &'static str,
        /// The underlying serializer error.
        source: serde_json::Error,
    },
}

impl BenchError {
    /// Wrap an I/O error with the operation and path it came from.
    pub fn io(what: &'static str, path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        BenchError::Io { what, path: path.into(), source }
    }

    /// Wrap a serializer error with what was being serialized.
    pub fn json(what: &'static str, source: serde_json::Error) -> Self {
        BenchError::Json { what, source }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Io { what, path, .. } => {
                write!(f, "I/O failed on {what} at {}", path.display())
            }
            BenchError::Json { what, .. } => write!(f, "JSON (de)serialization failed for {what}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
            BenchError::Json { source, .. } => Some(source),
        }
    }
}

/// Write `contents` to `path`, tagging failures with `what` + path.
///
/// # Errors
/// [`BenchError::Io`] carrying the path and the OS error.
pub fn write_file(
    what: &'static str,
    path: impl Into<PathBuf>,
    contents: &str,
) -> Result<(), BenchError> {
    let path = path.into();
    std::fs::write(&path, contents).map_err(|e| BenchError::io(what, path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn io_error_chains_source_and_names_path() {
        let e = write_file("test artifact", "/nonexistent-dir/x/y.json", "{}").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("test artifact"), "{msg}");
        assert!(msg.contains("/nonexistent-dir/x/y.json"), "{msg}");
        let src = e.source().expect("io error has a source");
        assert!(src.downcast_ref::<std::io::Error>().is_some());
    }

    #[test]
    fn json_error_display_names_document() {
        // serde_json::Error is only constructible by failing; a map with
        // a non-string key shape isn't expressible here, so parse junk.
        let parse_err = serde_json::from_str::<serde_json::Value>("not json").unwrap_err();
        let e = BenchError::json("perf doc", parse_err);
        assert!(e.to_string().contains("perf doc"));
        assert!(e.source().is_some());
    }
}
