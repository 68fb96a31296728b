//! The wire frame layer: versioned, little-endian, length-framed envelopes
//! shared by requests and responses.
//!
//! Every message on a connection is one frame:
//!
//! ```text
//! magic    [u8; 4]  = b"LLW\0"
//! version  u16      = 2
//! opcode   u8       (request or response kind; see `proto`)
//! body_len u32      (bytes that follow)
//! body     [u8; body_len]
//! ```
//!
//! The body is [`Codec`]-encoded (the same hand-rolled trait snapshots
//! use — see `lll_api::persist`), so key/value/string/sequence layouts on
//! the wire are byte-identical to their snapshot layouts.
//!
//! # Error discipline
//!
//! Decoding follows `persist`'s rules, surfaced as the typed [`WireError`]:
//! decoders **never panic** on hostile input, and declared lengths are
//! never trusted for allocation — `body_len` is checked against
//! [`MAX_FRAME_LEN`] before any reservation ([`WireError::FrameTooLarge`]),
//! and inside a body, byte-string reservations are capped at
//! [`PREALLOC_CAP`](lll_api::codec::PREALLOC_CAP) and grow only as bytes
//! actually arrive. A stream that ends mid-frame is
//! [`WireError::Truncated`], never a hang on a lying length.

// lll-check: enforce(panic-free-decode)
#![deny(clippy::unwrap_used, clippy::expect_used)]

use lll_api::codec::decode_framed_bytes;
use lll_api::persist::{Codec, SnapshotError};
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// The 4-byte magic prefix of every wire frame.
pub const WIRE_MAGIC: [u8; 4] = *b"LLW\0";

/// The wire protocol version this build speaks (and the only one its
/// decoder accepts — version negotiation is fail-fast, as in snapshots).
/// It versions every body layout too: a change to any message's fields
/// bumps it.
pub const WIRE_VERSION: u16 = 3;

/// Hard ceiling on a frame body. Large enough for a 100k-entry batch of
/// modest keys/values; small enough that a corrupt or hostile `body_len`
/// cannot balloon a connection's memory.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Everything that can go wrong on the wire. The request/response
/// decoders return these — they never panic on malformed input.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// An underlying I/O failure (other than clean end-of-stream).
    Io(std::io::Error),
    /// The stream ended in the middle of a frame.
    Truncated,
    /// The first 4 bytes are not [`WIRE_MAGIC`]: not this protocol.
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion {
        /// The version in the received header.
        found: u16,
    },
    /// The header's opcode byte names no known request/response kind.
    UnknownOpcode(u8),
    /// The header declares a body larger than [`MAX_FRAME_LEN`]. Detected
    /// before any allocation.
    FrameTooLarge {
        /// The declared body length.
        declared: u64,
    },
    /// Structurally invalid frame body: trailing bytes, invalid UTF-8,
    /// inner lengths that disagree with the frame, …
    Corrupt(String),
    /// The server processed the request and reported a failure (e.g. a
    /// snapshot path it cannot write). Only surfaced client-side.
    Remote(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::Truncated => f.write_str("stream ended mid-frame"),
            WireError::BadMagic => f.write_str("not an lll wire frame (bad magic)"),
            WireError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found} (this build speaks {WIRE_VERSION})")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            WireError::FrameTooLarge { declared } => {
                write!(f, "declared frame body of {declared} bytes exceeds the {MAX_FRAME_LEN} cap")
            }
            WireError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            WireError::Remote(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    /// Clean end-of-stream becomes [`WireError::Truncated`]; every other
    /// I/O failure is passed through.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

impl From<SnapshotError> for WireError {
    /// [`Codec`] speaks `SnapshotError`; map its variants onto the wire
    /// vocabulary so frame bodies inherit the snapshot decoders' typed
    /// discipline.
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(io) => WireError::from(io),
            SnapshotError::Truncated => WireError::Truncated,
            SnapshotError::Corrupt(why) => WireError::Corrupt(why),
            other => WireError::Corrupt(other.to_string()),
        }
    }
}

/// One decoded frame: the opcode byte and the raw body (parsed by
/// `proto`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The request/response kind tag.
    pub opcode: u8,
    /// The `Codec`-encoded payload.
    pub body: Vec<u8>,
}

/// Write one frame: header, then body. The caller flushes (responses are
/// written through a `BufWriter`; an unflushed frame is not sent). A body
/// over [`MAX_FRAME_LEN`] is refused as [`WireError::FrameTooLarge`]
/// before any header byte is written — the stream stays clean.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, opcode: u8, body: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(body.len())
        .ok()
        .filter(|l| *l <= MAX_FRAME_LEN)
        .ok_or(WireError::FrameTooLarge { declared: body.len() as u64 })?;
    w.write_all(&WIRE_MAGIC)?;
    WIRE_VERSION.encode(w)?;
    opcode.encode(w)?;
    len.encode(w)?;
    w.write_all(body)?;
    Ok(())
}

/// Fill `buf` completely, preserving progress across `Interrupted`,
/// `WouldBlock`, and `TimedOut` — so a read timeout configured for idle
/// detection can fire *mid-frame* without desynchronizing the stream
/// (bytes already read stay read; the loop resumes where it stopped).
/// Clean EOF before the buffer fills is [`WireError::Truncated`].
pub(crate) fn read_full<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        // lll-check: allow(panic-free-decode, filled < buf.len() is the loop guard one line up)
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Read one frame: validate magic, version, and the declared body length
/// (against [`MAX_FRAME_LEN`], before allocating), then read the body.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<Frame, WireError> {
    let mut magic = [0u8; 4];
    read_full(r, &mut magic)?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let mut header = [0u8; 7];
    read_full(r, &mut header)?;
    let [v0, v1, opcode, l0, l1, l2, l3] = header;
    let version = u16::from_le_bytes([v0, v1]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { declared: len as u64 });
    }
    // lll-check: allow(panic-free-decode, u32 → usize is widening on every supported target)
    let mut body = vec![0u8; len as usize];
    read_full(r, &mut body)?;
    Ok(Frame { opcode, body })
}

/// Encode a byte string: `u64` length + raw bytes. Byte-identical to
/// `Vec<u8>`'s [`Codec`] encoding, but one `write_all` instead of one
/// call per byte — keys and values are the hot path of every verb.
pub fn encode_bytes<W: Write + ?Sized>(w: &mut W, bytes: &[u8]) -> Result<(), WireError> {
    (bytes.len() as u64).encode(w)?;
    w.write_all(bytes)?;
    Ok(())
}

/// Decode a byte string written by [`encode_bytes`]. The shared
/// [`decode_framed_bytes`] caps the reservation at
/// [`PREALLOC_CAP`](lll_api::codec::PREALLOC_CAP); a lying length hits
/// end-of-body → [`WireError::Truncated`].
pub fn decode_bytes<R: Read + ?Sized>(r: &mut R) -> Result<Vec<u8>, WireError> {
    Ok(decode_framed_bytes(r)?)
}

/// Encode `Option<&[u8]>` as a presence byte + the bytes.
pub fn encode_opt_bytes<W: Write + ?Sized>(
    w: &mut W,
    bytes: Option<&[u8]>,
) -> Result<(), WireError> {
    match bytes {
        None => false.encode(w)?,
        Some(b) => {
            true.encode(w)?;
            encode_bytes(w, b)?;
        }
    }
    Ok(())
}

/// Decode an `Option` written by [`encode_opt_bytes`].
pub fn decode_opt_bytes<R: Read + ?Sized>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    Ok(if bool::decode(r)? { Some(decode_bytes(r)?) } else { None })
}
