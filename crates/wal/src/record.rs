//! WAL record frames: the length-framed, CRC-checksummed envelope every
//! log record travels in, plus the typed [`WalOp`] payload the
//! [`DurableMap`](crate::DurableMap) writes.
//!
//! # Frame layout
//!
//! ```text
//! len     u32   body bytes that follow (LSN + payload)
//! crc     u32   CRC32 (IEEE) of the body
//! lsn     u64   ┐
//! payload […]   ┘ the body
//! ```
//!
//! All integers little-endian. `len` covers the body only (so an empty
//! payload encodes as `len = 8`), and is bounded by [`MAX_RECORD_LEN`]
//! before any allocation — the same distrust of declared lengths as
//! snapshots and wire frames, via the shared
//! [`lll_api::codec`] discipline.
//!
//! # Error discipline
//!
//! [`read_frame`] **never panics** on hostile bytes and never errors on
//! the damage a crash legitimately leaves behind: a frame cut short, a
//! length field of garbage, a checksum mismatch are all *data*, returned
//! as [`ReadFrame::Torn`] so the caller (segment scan, recovery, audit)
//! can stop at the damage and truncate. Only real I/O failures (and the
//! clean end of a segment, [`ReadFrame::End`]) are something else.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]

use crate::WalError;
use lll_api::codec::{Crc32, PREALLOC_CAP};
use lll_api::persist::{Codec, SnapshotError};
use std::io::{ErrorKind, Read, Write};

/// Hard ceiling on one record's body (LSN + payload). Matches the wire
/// protocol's frame cap: big enough for a 100k-entry batch, small enough
/// that a corrupt length cannot balloon recovery's memory.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// Bytes of frame header (`len` + `crc`) in front of every body.
pub const FRAME_HEADER_LEN: u64 = 8;

/// Why a segment scan stopped before the end of the file: the shape of
/// the first unusable frame. Recovery and [`repair`](crate::audit::repair)
/// truncate at the byte offset where this was found;
/// [`audit`](crate::audit::audit) reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TornReason {
    /// The file ended inside a frame — the classic torn tail of a crash
    /// mid-write.
    TruncatedFrame {
        /// Bytes of the frame actually present.
        have: u64,
        /// Bytes the frame's header promised.
        need: u64,
    },
    /// The length field is impossible: under the 8-byte LSN minimum or
    /// over [`MAX_RECORD_LEN`]. Nothing after it can be trusted.
    BadLength {
        /// The declared body length.
        declared: u64,
    },
    /// The body's CRC32 does not match the header's — bit rot or a torn
    /// interior write.
    ChecksumMismatch {
        /// The checksum the frame header carries.
        expected: u32,
        /// The checksum the body actually hashes to.
        found: u32,
    },
    /// The record decoded cleanly but carries the wrong LSN: segment LSNs
    /// are assigned contiguously, so a skip means lost or reordered
    /// writes from this point on.
    NonMonotoneLsn {
        /// The LSN the scan expected next.
        expected: u64,
        /// The LSN the record carries.
        found: u64,
    },
}

impl std::fmt::Display for TornReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornReason::TruncatedFrame { have, need } => {
                write!(f, "frame cut short ({have} of {need} bytes)")
            }
            TornReason::BadLength { declared } => {
                write!(f, "impossible frame length {declared} (valid: 8..={MAX_RECORD_LEN})")
            }
            TornReason::ChecksumMismatch { expected, found } => {
                write!(f, "checksum mismatch (header {expected:#010x}, body {found:#010x})")
            }
            TornReason::NonMonotoneLsn { expected, found } => {
                write!(f, "LSN discontinuity (expected {expected}, found {found})")
            }
        }
    }
}

/// One step of a segment scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadFrame {
    /// A whole, checksum-verified record.
    Record {
        /// The record's log sequence number.
        lsn: u64,
        /// The record's payload (everything after the LSN).
        payload: Vec<u8>,
    },
    /// Clean end of the stream, exactly at a frame boundary.
    End,
    /// An unusable frame: scanning must stop here and treat everything
    /// from this offset on as lost.
    Torn(TornReason),
}

/// Fill `buf` as far as the stream allows, retrying `Interrupted`;
/// returns the bytes read (less than `buf.len()` only at end of stream).
pub(crate) fn fill<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<usize, WalError> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WalError::Io(e)),
        }
    }
    Ok(filled)
}

/// Append one framed record to `buf` — the staging half of group commit.
/// Refuses bodies over [`MAX_RECORD_LEN`] ([`WalError::RecordTooLarge`])
/// before touching the buffer, so a failed append never leaves a partial
/// frame staged. Writes into the caller's reused buffer; allocation-free
/// once the buffer has warmed to the workload's record size.
pub fn encode_frame_into(buf: &mut Vec<u8>, lsn: u64, payload: &[u8]) -> Result<(), WalError> {
    let body_len = payload.len() as u64 + 8;
    let len = match u32::try_from(body_len) {
        Ok(l) if l <= MAX_RECORD_LEN => l,
        _ => return Err(WalError::RecordTooLarge { declared: body_len }),
    };
    let lsn_bytes = lsn.to_le_bytes();
    let mut crc = Crc32::new();
    crc.update(&lsn_bytes);
    crc.update(payload);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(&lsn_bytes);
    buf.extend_from_slice(payload);
    Ok(())
}

/// Read one frame. Damage is data ([`ReadFrame::Torn`]), the clean end of
/// the segment is [`ReadFrame::End`]; only real I/O failures are `Err`.
/// The payload reservation is capped at [`PREALLOC_CAP`] and the read is
/// bounded, so a lying length can cost at most one capped buffer before
/// the shortfall surfaces as a torn frame.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<ReadFrame, WalError> {
    let mut header = [0u8; 8];
    match fill(r, &mut header)? {
        0 => return Ok(ReadFrame::End),
        n if n < 8 => {
            return Ok(ReadFrame::Torn(TornReason::TruncatedFrame { have: n as u64, need: 8 }))
        }
        _ => {}
    }
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let expected_crc = u32::from_le_bytes([c0, c1, c2, c3]);
    if !(8..=MAX_RECORD_LEN).contains(&len) {
        return Ok(ReadFrame::Torn(TornReason::BadLength { declared: len as u64 }));
    }
    let mut lsn_bytes = [0u8; 8];
    let got = fill(r, &mut lsn_bytes)?;
    if got < 8 {
        return Ok(ReadFrame::Torn(TornReason::TruncatedFrame {
            have: got as u64,
            need: len as u64,
        }));
    }
    let payload_len = (len - 8) as u64;
    // Capped reservation + bounded read: the shared length-guard idiom.
    let reserve = usize::try_from(payload_len).map_or(PREALLOC_CAP, |n| n.min(PREALLOC_CAP));
    let mut payload = Vec::with_capacity(reserve);
    let got = r.take(payload_len).read_to_end(&mut payload)?;
    if (got as u64) < payload_len {
        return Ok(ReadFrame::Torn(TornReason::TruncatedFrame {
            have: 8 + got as u64,
            need: len as u64,
        }));
    }
    let mut crc = Crc32::new();
    crc.update(&lsn_bytes);
    crc.update(&payload);
    let found = crc.finish();
    if found != expected_crc {
        return Ok(ReadFrame::Torn(TornReason::ChecksumMismatch { expected: expected_crc, found }));
    }
    Ok(ReadFrame::Record { lsn: u64::from_le_bytes(lsn_bytes), payload })
}

/// On-disk size of a record whose payload is `payload_len` bytes.
pub fn frame_len(payload_len: usize) -> u64 {
    FRAME_HEADER_LEN + 8 + payload_len as u64
}

/// One logged mutation — the payload vocabulary
/// [`DurableMap`](crate::DurableMap) records and replays. Encoded as a tag byte
/// followed by the [`Codec`] encodings of the fields, so key/value bytes
/// in the log are byte-identical to their snapshot and wire encodings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp<K, V> {
    /// `insert(key, value)` — tag 1.
    Insert {
        /// The inserted key.
        key: K,
        /// The inserted value.
        value: V,
    },
    /// `remove(key)` — tag 2. Logged even when the key turns out absent;
    /// replaying a no-op remove is harmless.
    Remove {
        /// The removed key.
        key: K,
    },
    /// One batch insert — tag 3. A single record, so the batch replays
    /// with the same all-at-once landing it committed with.
    Batch {
        /// The batch's `(key, value)` pairs, in arrival order.
        entries: Vec<(K, V)>,
    },
}

impl<K: Codec, V: Codec> WalOp<K, V> {
    /// Append the op's encoding to `w`.
    pub fn encode_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        match self {
            WalOp::Insert { key, value } => {
                1u8.encode(w)?;
                key.encode(w)?;
                value.encode(w)
            }
            WalOp::Remove { key } => {
                2u8.encode(w)?;
                key.encode(w)
            }
            WalOp::Batch { entries } => {
                3u8.encode(w)?;
                entries.encode(w)
            }
        }
    }

    /// Decode one op. An unknown tag is [`SnapshotError::Corrupt`] — the
    /// CRC already vouched for the bytes, so this means a version skew or
    /// a logic error, not line noise.
    pub fn decode_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        match u8::decode(r)? {
            1 => Ok(WalOp::Insert { key: K::decode(r)?, value: V::decode(r)? }),
            2 => Ok(WalOp::Remove { key: K::decode(r)? }),
            3 => Ok(WalOp::Batch { entries: Vec::decode(r)? }),
            tag => Err(SnapshotError::Corrupt(format!("unknown WAL op tag {tag:#x}"))),
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, lsn, payload).unwrap();
        buf
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = frame(7, b"hello");
        encode_frame_into(&mut buf, 8, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap(),
            ReadFrame::Record { lsn: 7, payload: b"hello".to_vec() }
        );
        assert_eq!(read_frame(&mut r).unwrap(), ReadFrame::Record { lsn: 8, payload: Vec::new() });
        assert_eq!(read_frame(&mut r).unwrap(), ReadFrame::End);
        assert_eq!(buf.len() as u64, frame_len(5) + frame_len(0));
    }

    #[test]
    fn every_prefix_is_torn_never_a_panic() {
        let buf = frame(42, b"payload bytes");
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]).unwrap() {
                ReadFrame::End if cut == 0 => {}
                ReadFrame::Torn(TornReason::TruncatedFrame { have, need }) => {
                    assert!(have < need, "prefix {cut}: have {have} >= need {need}");
                }
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let buf = frame(3, b"abcdef");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                match read_frame(&mut bad.as_slice()).unwrap() {
                    ReadFrame::Torn(_) => {}
                    // A flip in the length field can also make the frame
                    // claim *fewer* bytes than present — the CRC still
                    // catches it (the body hash changes), so a clean
                    // Record must never appear.
                    other => panic!("flip byte {byte} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn oversized_and_undersized_lengths_are_torn() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_RECORD_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            read_frame(&mut buf.as_slice()).unwrap(),
            ReadFrame::Torn(TornReason::BadLength { .. })
        ));
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&7u32.to_le_bytes()); // < 8: no room for the LSN
        tiny.extend_from_slice(&[0u8; 12]);
        assert!(matches!(
            read_frame(&mut tiny.as_slice()).unwrap(),
            ReadFrame::Torn(TornReason::BadLength { declared: 7 })
        ));
    }

    #[test]
    fn record_too_large_is_refused_before_staging() {
        let huge = vec![0u8; MAX_RECORD_LEN as usize];
        let mut buf = Vec::new();
        assert!(matches!(
            encode_frame_into(&mut buf, 1, &huge),
            Err(WalError::RecordTooLarge { .. })
        ));
        assert!(buf.is_empty(), "failed append must not leave partial bytes staged");
    }

    #[test]
    fn ops_roundtrip_and_reject_unknown_tags() {
        let ops: Vec<WalOp<u64, String>> = vec![
            WalOp::Insert { key: 1, value: "one".into() },
            WalOp::Remove { key: 2 },
            WalOp::Batch { entries: vec![(3, "three".into()), (4, "four".into())] },
        ];
        for op in &ops {
            let mut buf = Vec::new();
            op.encode_to(&mut buf).unwrap();
            let mut r = buf.as_slice();
            assert_eq!(&WalOp::<u64, String>::decode_from(&mut r).unwrap(), op);
            assert!(r.is_empty());
        }
        assert!(matches!(
            WalOp::<u64, String>::decode_from(&mut [9u8].as_slice()),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
