//! # fpart-io
//!
//! Relation persistence, so workloads survive across CLI invocations and
//! experiments can be re-run on identical bytes:
//!
//! * [`binary`] — the `FPRT` native format: header (magic, version,
//!   tuple width, count), raw tuple bytes, and a trailing checksum. Fast
//!   (the tuples are read straight into the relation, checksummed word by
//!   word) and self-validating.
//! * [`csv`] — human-readable `key,payload` text for interchange and
//!   debugging;
//! * [`partitioned`] — the `FPRP` format for *partitioned* relations, so
//!   the expensive partitioning phase can be cached and the join run
//!   separately (layout, fills and flush padding preserved exactly).

#![warn(missing_docs)]

pub mod binary;
pub mod csv;
mod frame;
pub mod partitioned;

pub use binary::{read_relation, write_relation};
pub use csv::{export_csv, import_csv};
pub use partitioned::{read_partitioned, write_partitioned};

use std::fmt;

/// Errors from reading or writing relation files.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `FPRT` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The file stores a different tuple width than requested.
    WidthMismatch {
        /// Width recorded in the file.
        file: u16,
        /// Width of the requested tuple type.
        requested: u16,
    },
    /// The file fails its checksum — it is corrupt.
    ChecksumMismatch,
    /// The file's length is not the one its header implies — it is
    /// truncated, padded, or the header is corrupt or hostile. Checked
    /// before any allocation sized by the header.
    LengthMismatch {
        /// Length in bytes the header implies (`u64::MAX` if it overflows).
        header: u64,
        /// Actual length of the file in bytes.
        file: u64,
    },
    /// A partitioned file's offset table or fill counts are inconsistent.
    BadLayout(&'static str),
    /// A CSV line could not be parsed.
    BadCsvLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic => write!(f, "not an FPRT relation file"),
            Self::BadVersion(v) => write!(f, "unsupported FPRT version {v}"),
            Self::WidthMismatch { file, requested } => write!(
                f,
                "tuple width mismatch: file stores {file}B tuples, requested {requested}B"
            ),
            Self::ChecksumMismatch => write!(f, "checksum mismatch: corrupt file"),
            Self::LengthMismatch { header, file } => write!(
                f,
                "length mismatch: header implies {header} bytes, file has {file}"
            ),
            Self::BadLayout(why) => write!(f, "inconsistent partition layout: {why}"),
            Self::BadCsvLine { line, content } => {
                write!(f, "cannot parse CSV line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
