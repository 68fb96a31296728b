//! `lll-wal` — a group-committed write-ahead delta log with incremental
//! checkpoints and point-in-time crash recovery for the sharded map.
//!
//! The crate has two layers:
//!
//! * [`Wal`] — the log itself: length-framed, per-record-checksummed
//!   frames ([`record`]) in rotating segment files ([`segment`]), with
//!   monotone LSNs, group commit (one flusher amortizes `fdatasync`
//!   across concurrent committers — [`wal`]), torn-tail-tolerant
//!   recovery, and an offline [`audit`](fn@audit)/repair surface.
//! * [`DurableMap`] — log-then-apply over `ShardedMap` ([`durable`]);
//!   reads go straight to the map. Every mutation is appended (and, under
//!   [`FsyncPolicy::Always`], fsynced) before it is applied and acked;
//!   [`DurableMap::checkpoint`] writes a snapshot on the `persist`
//!   format and truncates the log behind it; reopening recovers the
//!   newest valid checkpoint plus the logged suffix.
//!
//! Everything is dependency-free: the CRC, the framing, and the snapshot
//! codec are the workspace's own (`lll_api::codec`, `lll_api::persist`).
//! See `docs/wal.md` for the format tables, the recovery algorithm, and
//! the repair runbook.

#![forbid(unsafe_code)]

pub mod audit;
pub mod durable;
pub mod record;
pub mod segment;
pub mod wal;

pub use audit::{audit, repair, AuditReport, RepairReport, SegmentAudit};
pub use durable::{CheckpointReport, DurableMap, DurableOptions, DurableRecovery};
pub use record::{ReadFrame, TornReason, WalOp, MAX_RECORD_LEN};
pub use segment::{SegmentScan, SEGMENT_MAGIC, WAL_VERSION};
pub use wal::{FsyncPolicy, Wal, WalMetrics, WalOptions};

use lll_api::persist::SnapshotError;
use std::path::PathBuf;

/// Every way the log can fail. Damage discovered *inside* frames (torn
/// tails, bad checksums) is not an error during scans — it is data the
/// recovery policy acts on (see [`TornReason`]); `WalError` is for
/// failures the caller must handle: I/O, structural corruption that a
/// crash cannot explain, format mismatches, and use-after-failure.
#[derive(Debug)]
pub enum WalError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// Input ended before a complete value (from the shared codec).
    Truncated,
    /// A file in the WAL directory matched the segment naming scheme but
    /// does not start with [`SEGMENT_MAGIC`].
    BadMagic {
        /// The offending file.
        segment: PathBuf,
    },
    /// A segment written by a future (or foreign) format version.
    UnsupportedVersion {
        /// The offending file.
        segment: PathBuf,
        /// The version its header declares.
        found: u32,
    },
    /// Structural damage a crash cannot produce — e.g. a torn frame with
    /// intact segments after it. The message says what and where; the
    /// [`audit`](fn@crate::audit)/[`repair`] pair is the way forward.
    Corrupt(String),
    /// The LSN chain is missing records: the segment chain jumps from
    /// `after` to `next` (> `after + 1`). Replaying across the hole would
    /// silently lose writes, so recovery refuses.
    Gap {
        /// The last LSN before the hole.
        after: u64,
        /// The first LSN after it.
        next: u64,
    },
    /// An append larger than [`MAX_RECORD_LEN`] was refused (before
    /// staging anything, so the log is unchanged).
    RecordTooLarge {
        /// The payload length that was offered.
        declared: u64,
    },
    /// The log previously hit an unrecoverable flusher failure (the
    /// message) and now fails every operation fast rather than ack
    /// writes it cannot make durable.
    Closed(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o error: {e}"),
            Self::Truncated => write!(f, "wal input truncated"),
            Self::BadMagic { segment } => {
                write!(f, "{} is not a WAL segment (bad magic)", segment.display())
            }
            Self::UnsupportedVersion { segment, found } => write!(
                f,
                "{} has unsupported WAL version {found} (this build reads {})",
                segment.display(),
                WAL_VERSION
            ),
            Self::Corrupt(msg) => write!(f, "wal corrupt: {msg}"),
            Self::Gap { after, next } => {
                write!(f, "wal LSN chain has a gap: records end at {after} and resume at {next}")
            }
            Self::RecordTooLarge { declared } => {
                write!(f, "wal record of {declared} bytes exceeds the {MAX_RECORD_LEN}-byte limit")
            }
            Self::Closed(msg) => write!(f, "wal closed after failure: {msg}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            Self::Truncated
        } else {
            Self::Io(e)
        }
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => Self::from(e),
            SnapshotError::Truncated => Self::Truncated,
            other => Self::Corrupt(other.to_string()),
        }
    }
}

/// What [`Wal::open`] found and did on disk. Returned rather than logged
/// so callers (the server's durable mode, the recovery example, tests)
/// can report it in their own voice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Live segments after recovery.
    pub segments: usize,
    /// Valid records across them.
    pub records: u64,
    /// The last valid LSN on disk (0 when the log is empty).
    pub last_lsn: u64,
    /// The first LSN on disk, if any records survive. A
    /// [`DurableMap`] cross-checks this against its checkpoint LSN to
    /// detect replaying from the wrong snapshot.
    pub first_lsn: Option<u64>,
    /// Torn-tail bytes truncated away from the final segment.
    pub truncated_bytes: u64,
    /// Segments deleted outright (a final segment with no whole header).
    pub removed_segments: usize,
}
