//! Shared length-framed decoding helpers and the workspace CRC32.
//!
//! Three independent binary formats speak the same dialect — snapshots
//! ([`persist`](crate::persist)), `lll-server`'s wire frames, and
//! `lll-wal`'s log records. Each of them frames variable-length data with
//! a `u64` length and must decode that length **without trusting it**:
//! the reservation is capped at [`PREALLOC_CAP`] and the read is bounded
//! by `take`, so a corrupt `u64::MAX` runs into end-of-stream
//! ([`SnapshotError::Truncated`]) instead of a giant allocation. This
//! module is the single home of that idiom; `persist` re-exports the
//! names it always had so downstream paths (`lll_api::persist::
//! PREALLOC_CAP`, `::decode_len`) keep working.
//!
//! It also hosts the hand-rolled [`Crc32`] (IEEE 802.3, reflected,
//! polynomial `0xEDB88320`) used by the WAL to checksum every record —
//! hand-rolled because this workspace builds offline, with a
//! compile-time table so the hot path is one lookup per byte.

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

use crate::persist::{Codec, SnapshotError};
use std::io::Read;

/// Cap on speculative pre-allocation while decoding length-framed data:
/// reservations beyond this grow organically as bytes actually arrive, so
/// a corrupt length cannot force a giant allocation. Shared by snapshots,
/// wire frames, and WAL records.
pub const PREALLOC_CAP: usize = 1 << 16;

/// Decode a `u64` frame length into a checked element count. Shared by
/// every length-framed decoder in the workspace (snapshots, wire frames,
/// WAL records); pair it with [`PREALLOC_CAP`] before reserving.
pub fn decode_len<R: Read + ?Sized>(r: &mut R) -> Result<usize, SnapshotError> {
    usize::try_from(u64::decode(r)?)
        .map_err(|_| SnapshotError::Corrupt("frame length exceeds host width".into()))
}

/// Decode a `u64`-length-framed byte string with the capped-reservation
/// discipline: reserve at most [`PREALLOC_CAP`], bound the read with
/// `take`, and surface a lying length as [`SnapshotError::Truncated`] —
/// never a huge up-front allocation, never a hang. This is the one copy
/// of the idiom `persist`'s `String` codec, the server's `decode_bytes`,
/// and the WAL's record reader all sit on.
pub fn decode_framed_bytes<R: Read + ?Sized>(r: &mut R) -> Result<Vec<u8>, SnapshotError> {
    let len = decode_len(r)?;
    let mut bytes = Vec::with_capacity(len.min(PREALLOC_CAP));
    let got = r.take(len as u64).read_to_end(&mut bytes)?;
    if got < len {
        return Err(SnapshotError::Truncated);
    }
    Ok(bytes)
}

/// The byte-indexed CRC32 lookup table, computed at compile time.
#[allow(clippy::indexing_slicing, reason = "i < 256 is the loop guard; const-evaluated")]
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i: u32 = 0;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
};

/// Streaming CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// same function `cksum`-family tools and zlib compute. Feed bytes with
/// [`update`](Self::update) in any chunking; [`finish`](Self::finish)
/// yields the digest. One-shot callers use [`crc32`].
///
/// ```
/// use lll_api::codec::Crc32;
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh digest (state all-ones, per the reflected algorithm).
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Fold `bytes` into the digest. Allocation-free and panic-free: the
    /// table index is masked to 8 bits.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            #[allow(clippy::indexing_slicing, reason = "the index is masked to 8 bits, so < 256")]
            let entry = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize];
            c = (c >> 8) ^ entry;
        }
        self.state = c;
    }

    /// The digest of everything fed so far (the struct stays usable —
    /// `finish` is a read, not a consume).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
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

    #[test]
    fn crc32_matches_reference_vectors() {
        // The standard check value every CRC32 implementation quotes…
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        // …plus a few independently computed ones (zlib's crc32()).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_is_chunking_independent() {
        let data: Vec<u8> = (0u16..=1500).map(|i| (i % 251) as u8).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 1024] {
            let mut c = Crc32::new();
            for piece in data.chunks(chunk) {
                c.update(piece);
            }
            assert_eq!(c.finish(), whole, "chunk size {chunk}");
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"layered list labeling".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip byte {byte} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn framed_bytes_roundtrip_and_reject_lies() {
        let mut buf = Vec::new();
        (5u64).encode(&mut buf).unwrap();
        buf.extend_from_slice(b"hello");
        assert_eq!(decode_framed_bytes(&mut buf.as_slice()).unwrap(), b"hello");

        // A length claiming more than the stream holds is Truncated…
        let mut lying = Vec::new();
        u64::MAX.encode(&mut lying).unwrap();
        lying.extend_from_slice(b"tiny");
        assert!(matches!(
            decode_framed_bytes(&mut lying.as_slice()),
            Err(SnapshotError::Truncated)
        ));
        // …and so is every strict prefix of a valid frame.
        for cut in 0..buf.len() {
            assert!(matches!(decode_framed_bytes(&mut &buf[..cut]), Err(SnapshotError::Truncated)));
        }
    }
}
