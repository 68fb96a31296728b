//! Durable snapshots: a versioned, little-endian, length-framed binary
//! format over [`std::io::Write`] / [`std::io::Read`].
//!
//! # Why snapshots are cheap here
//!
//! Labels are **ephemeral artifacts** of the rebalancing scheme — only the
//! rank order of the elements is semantic. A snapshot therefore persists
//! the sorted run (keys, values, and — for `OrderedList` — the handle of
//! each rank) and nothing else: no slot positions, no op log. Restore
//! deserializes the run and lands it through the O(n) bulk-load sweep
//! added in PR 2 (exactly one move per element), so restore cost is O(n)
//! regardless of the backend's per-operation movement bound.
//!
//! # Format (version 1)
//!
//! All integers little-endian, fixed width; strings and sequences framed
//! by a `u64` byte/element count.
//!
//! ```text
//! magic    [u8; 8]  = b"LLLSNAP\0"
//! version  u32      = 1
//! container u8      (1 = LabelMap, 2 = OrderedList, 3 = ShardedMap)
//! backend  String   (Backend::name(), round-tripped via FromStr)
//! seed     u64
//! reserved u64      (always 64; ignored on read)
//! count    u64      (total entries)
//! payload  …        (container-specific; see docs/persistence.md)
//! ```
//!
//! The payload is a sorted run of [`Codec`]-encoded entries: `(key, value)`
//! pairs in ascending key order for `LabelMap`, `(handle, value)` pairs in
//! rank order for `OrderedList`, and a split-key directory plus per-shard
//! runs for `ShardedMap`.
//!
//! # Error discipline
//!
//! Decode paths **never panic** on bad input: truncation, corruption,
//! version or container mismatches all surface as [`SnapshotError`]
//! variants. Declared lengths are not trusted for allocation — a corrupt
//! `u64::MAX` frame length reads until the stream ends ([`SnapshotError::
//! Truncated`]) instead of attempting a huge reservation.
//!
//! The [`Codec`] trait is hand-rolled because this workspace builds
//! offline (no serde); it covers the primitive shapes the containers
//! need — ints, `bool`, `String`, `Vec<T>`, `Option<T>`, tuples — and is
//! open for application key/value types to implement.
//!
//! # Buffer your streams
//!
//! Encoding issues one small `write` per fixed-width field (and decoding
//! one small `read`) with no internal buffering, so snapshots to and from
//! files **must** go through [`std::io::BufWriter`] /
//! [`std::io::BufReader`] — a raw `File` pays a syscall per integer,
//! orders of magnitude slower. In-memory targets (`Vec<u8>`, byte slices)
//! need no wrapping.

// lll-check: enforce(panic-free-decode)
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::backend::{Backend, ListConfig};
use std::fmt;
use std::io::{Read, Write};

/// The 8-byte magic prefix of every snapshot.
pub const MAGIC: [u8; 8] = *b"LLLSNAP\0";

/// The current (and only) snapshot format version this reader decodes.
pub const FORMAT_VERSION: u32 = 1;

/// The header word after the seed. It once held a prediction-error budget
/// that any backend could carry, so readers skip it unvalidated; writers
/// keep stamping the old default so version-1 bytes do not change.
const RESERVED_WORD: u64 = 64;

// The length-guard helpers were born here and are re-exported under their
// original names; they now live in [`crate::codec`] so the server's wire
// frames and the WAL's record reader share one copy of the idiom.
pub use crate::codec::{decode_len, PREALLOC_CAP};

/// Everything that can go wrong decoding (or writing) a snapshot. Decode
/// paths return these — they never panic on malformed input.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// An underlying I/O failure (other than clean end-of-stream).
    Io(std::io::Error),
    /// The stream ended in the middle of a frame — a truncated snapshot.
    Truncated,
    /// The first 8 bytes are not [`MAGIC`]: not a snapshot at all.
    BadMagic,
    /// The snapshot was written by a format this reader does not decode.
    UnsupportedVersion {
        /// The version recorded in the header.
        found: u32,
    },
    /// The header's container tag is valid but not the one the caller
    /// asked to restore (e.g. an `OrderedList` snapshot handed to
    /// `LabelMap::read_snapshot`).
    WrongContainer {
        /// What the reading container expected.
        expected: ContainerKind,
        /// What the header recorded.
        found: ContainerKind,
    },
    /// The header's container tag byte is not a known [`ContainerKind`].
    UnknownContainer(u8),
    /// The header's backend name parses as no known [`Backend`].
    UnknownBackend(String),
    /// Structurally invalid payload: out-of-order keys, duplicate handles,
    /// counts that disagree, invalid UTF-8, …
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Truncated => f.write_str("snapshot truncated mid-frame"),
            SnapshotError::BadMagic => f.write_str("not a snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found} (reader supports {FORMAT_VERSION})")
            }
            SnapshotError::WrongContainer { expected, found } => {
                write!(f, "snapshot holds a {found:?}, not a {expected:?}")
            }
            SnapshotError::UnknownContainer(tag) => {
                write!(f, "unknown container tag {tag:#x}")
            }
            SnapshotError::UnknownBackend(name) => write!(f, "unknown backend {name:?}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    /// Clean end-of-stream becomes [`SnapshotError::Truncated`]; every
    /// other I/O failure is passed through.
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Truncated
        } else {
            SnapshotError::Io(e)
        }
    }
}

/// Which container a snapshot holds — the header's third field, so a
/// reader fails fast (and typed) on the wrong `read_snapshot` call
/// instead of misinterpreting the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerKind {
    /// A keyed sorted map ([`LabelMap`](crate::LabelMap)).
    LabelMap,
    /// An order-maintenance list with stable handles
    /// ([`OrderedList`](crate::OrderedList)).
    OrderedList,
    /// A sharded concurrent map (`lll-sharded`'s `ShardedMap`).
    ShardedMap,
}

impl ContainerKind {
    fn tag(self) -> u8 {
        match self {
            ContainerKind::LabelMap => 1,
            ContainerKind::OrderedList => 2,
            ContainerKind::ShardedMap => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, SnapshotError> {
        match tag {
            1 => Ok(ContainerKind::LabelMap),
            2 => Ok(ContainerKind::OrderedList),
            3 => Ok(ContainerKind::ShardedMap),
            other => Err(SnapshotError::UnknownContainer(other)),
        }
    }
}

/// Binary encoding for snapshot payload types: fixed-width little-endian
/// integers, `u64`-length-framed sequences. Implement it for application
/// key/value types to make them snapshot-able.
///
/// ```
/// use lll_api::persist::Codec;
///
/// let mut buf = Vec::new();
/// ("edge".to_string(), Some(7u32)).encode(&mut buf).unwrap();
/// let back = <(String, Option<u32>)>::decode(&mut buf.as_slice()).unwrap();
/// assert_eq!(back, ("edge".to_string(), Some(7)));
/// ```
pub trait Codec: Sized {
    /// Append `self`'s encoding to `w`.
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError>;

    /// Decode one value from `r`, consuming exactly its encoding.
    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError>;
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
                w.write_all(&self.to_le_bytes())?;
                Ok(())
            }

            fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
                let mut buf = [0u8; std::mem::size_of::<$t>()];
                r.read_exact(&mut buf)?;
                Ok(<$t>::from_le_bytes(buf))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Codec for usize {
    /// Encoded as `u64` so snapshots are portable across pointer widths;
    /// decode rejects values that do not fit the host's `usize`.
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        (*self as u64).encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        usize::try_from(u64::decode(r)?)
            .map_err(|_| SnapshotError::Corrupt("usize value exceeds host width".into()))
    }
}

impl Codec for bool {
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        u8::from(*self).encode(w)
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("invalid bool byte {other:#x}"))),
        }
    }
}

impl Codec for () {
    fn encode<W: Write + ?Sized>(&self, _w: &mut W) -> Result<(), SnapshotError> {
        Ok(())
    }

    fn decode<R: Read + ?Sized>(_r: &mut R) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Codec for String {
    /// `u64` byte length + UTF-8 bytes; decode validates the UTF-8.
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        (self.len() as u64).encode(w)?;
        w.write_all(self.as_bytes())?;
        Ok(())
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        let bytes = crate::codec::decode_framed_bytes(r)?;
        String::from_utf8(bytes)
            .map_err(|_| SnapshotError::Corrupt("string frame is not UTF-8".into()))
    }
}

impl<T: Codec> Codec for Vec<T> {
    /// `u64` element count + each element's encoding.
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        (self.len() as u64).encode(w)?;
        for item in self {
            item.encode(w)?;
        }
        Ok(())
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        let len = decode_len(r)?;
        let mut out = Vec::with_capacity(len.min(PREALLOC_CAP));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    /// A presence byte (0/1) followed by the value if present.
    fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        match self {
            None => false.encode(w),
            Some(v) => {
                true.encode(w)?;
                v.encode(w)
            }
        }
    }

    fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        Ok(if bool::decode(r)? { Some(T::decode(r)?) } else { None })
    }
}

macro_rules! tuple_codec {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
                $(self.$idx.encode(w)?;)+
                Ok(())
            }

            fn decode<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    )*};
}

tuple_codec! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Decode `count` strictly-ascending `(key, value)` pairs — the shared
/// sorted-run reader under [`LabelMap::read_snapshot`](crate::LabelMap::read_snapshot)
/// and `ShardedMap`'s per-shard restore. An order violation is
/// [`SnapshotError::Corrupt`], naming `what` (e.g. `"LabelMap"`,
/// `"shard 3"`); allocation is capped up front and grows only as bytes
/// actually arrive.
pub fn decode_sorted_run<K: Codec + Ord, V: Codec, R: Read + ?Sized>(
    r: &mut R,
    count: usize,
    what: &str,
) -> Result<Vec<(K, V)>, SnapshotError> {
    let mut entries: Vec<(K, V)> = Vec::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        let k = K::decode(r)?;
        let v = V::decode(r)?;
        if let Some((prev, _)) = entries.last() {
            if prev.cmp(&k).is_ge() {
                return Err(SnapshotError::Corrupt(format!(
                    "{what} keys must be strictly ascending"
                )));
            }
        }
        entries.push((k, v));
    }
    Ok(entries)
}

/// The decoded snapshot header — shared by every container's
/// `write_snapshot` / `read_snapshot` (and by `lll-sharded`'s).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Which container the payload holds.
    pub container: ContainerKind,
    /// The backend the snapshot's map ran on (restore rebuilds it).
    pub backend: Backend,
    /// The backend's random-tape seed.
    pub seed: u64,
    /// Total entries in the payload.
    pub count: u64,
}

impl Header {
    /// Assemble a header from a container kind, a backend [`ListConfig`],
    /// and an entry count.
    pub fn new(container: ContainerKind, cfg: ListConfig, count: u64) -> Self {
        Self { container, backend: cfg.backend, seed: cfg.seed, count }
    }

    /// The [`ListConfig`] this header describes (initial capacity is a
    /// non-persisted hint and comes back as the default).
    pub fn config(&self) -> ListConfig {
        ListConfig {
            backend: self.backend,
            seed: self.seed,
            initial_capacity: crate::ListBuilder::new().config().initial_capacity,
        }
    }

    /// Write magic, version, and every header field.
    pub fn write_to<W: Write + ?Sized>(&self, w: &mut W) -> Result<(), SnapshotError> {
        w.write_all(&MAGIC)?;
        FORMAT_VERSION.encode(w)?;
        self.container.tag().encode(w)?;
        self.backend.name().to_string().encode(w)?;
        self.seed.encode(w)?;
        RESERVED_WORD.encode(w)?;
        self.count.encode(w)?;
        Ok(())
    }

    /// Read and validate a header: magic, version, container tag, backend
    /// name (via [`Backend::from_str`](std::str::FromStr)). The reserved
    /// word is read and ignored, whatever it holds.
    pub fn read_from<R: Read + ?Sized>(r: &mut R) -> Result<Self, SnapshotError> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::decode(r)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let container = ContainerKind::from_tag(u8::decode(r)?)?;
        let backend: Backend =
            String::decode(r)?.parse().map_err(|e: crate::backend::ParseBackendError| {
                SnapshotError::UnknownBackend(e.unknown)
            })?;
        let seed = u64::decode(r)?;
        let _reserved = u64::decode(r)?;
        let count = u64::decode(r)?;
        Ok(Self { container, backend, seed, count })
    }

    /// [`read_from`](Self::read_from), then require the given container
    /// kind — the first line of every `read_snapshot`.
    pub fn read_expecting<R: Read + ?Sized>(
        r: &mut R,
        expected: ContainerKind,
    ) -> Result<Self, SnapshotError> {
        let header = Self::read_from(r)?;
        if header.container != expected {
            return Err(SnapshotError::WrongContainer { expected, found: header.container });
        }
        Ok(header)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert!(r.is_empty(), "decode must consume exactly the encoding");
    }

    #[test]
    fn primitive_codecs_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i128::MIN);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(());
        roundtrip(String::from("héllo, wörld"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![b"bytes".to_vec(), Vec::new()]);
        roundtrip(Some(7u16));
        roundtrip(Option::<String>::None);
        roundtrip((42u64, String::from("v")));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip((1u8, 2u16, 3u32, String::from("four")));
    }

    #[test]
    fn integers_are_little_endian_fixed_width() {
        let mut buf = Vec::new();
        0x0102_0304u32.encode(&mut buf).unwrap();
        assert_eq!(buf, [0x04, 0x03, 0x02, 0x01]);
        buf.clear();
        7usize.encode(&mut buf).unwrap();
        assert_eq!(buf.len(), 8, "usize is persisted as u64");
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let mut full = Vec::new();
        (String::from("abcdef"), 7u64).encode(&mut full).unwrap();
        for cut in 0..full.len() {
            let err = <(String, u64)>::decode(&mut &full[..cut]).unwrap_err();
            assert!(matches!(err, SnapshotError::Truncated), "prefix of {cut} bytes gave {err:?}");
        }
    }

    #[test]
    fn lying_lengths_do_not_allocate() {
        // A frame claiming u64::MAX bytes must fail on EOF, not abort on
        // an absurd reservation.
        let mut buf = Vec::new();
        u64::MAX.encode(&mut buf).unwrap();
        buf.extend_from_slice(b"tiny");
        assert!(matches!(String::decode(&mut buf.as_slice()), Err(SnapshotError::Truncated)));
        assert!(matches!(Vec::<u8>::decode(&mut buf.as_slice()), Err(SnapshotError::Truncated)));
    }

    #[test]
    fn invalid_scalars_are_corrupt() {
        assert!(matches!(bool::decode(&mut [2u8].as_slice()), Err(SnapshotError::Corrupt(_))));
        let mut buf = Vec::new();
        2u64.encode(&mut buf).unwrap();
        buf.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8
        assert!(matches!(String::decode(&mut buf.as_slice()), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn header_roundtrip_and_validation() {
        let cfg = crate::ListBuilder::new().backend(Backend::Adaptive).seed(0xFEED).config();
        let header = Header::new(ContainerKind::LabelMap, cfg, 123);
        let mut buf = Vec::new();
        header.write_to(&mut buf).unwrap();
        assert_eq!(Header::read_from(&mut buf.as_slice()).unwrap(), header);
        assert_eq!(header.config().backend, Backend::Adaptive);
        assert_eq!(header.config().seed, 0xFEED);

        // The reserved word after the seed ("adaptive" ends at 29) is
        // written as 64 and ignored on read, whatever it holds.
        assert_eq!(buf[37..45], 64u64.to_le_bytes());
        let mut reserved = buf.clone();
        reserved[37..45].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Header::read_from(&mut reserved.as_slice()).unwrap(), header);

        // Wrong container: typed error naming both sides.
        match Header::read_expecting(&mut buf.as_slice(), ContainerKind::OrderedList) {
            Err(SnapshotError::WrongContainer { expected, found }) => {
                assert_eq!(expected, ContainerKind::OrderedList);
                assert_eq!(found, ContainerKind::LabelMap);
            }
            other => panic!("expected WrongContainer, got {other:?}"),
        }

        // Bad magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Header::read_from(&mut bad.as_slice()), Err(SnapshotError::BadMagic)));

        // Future version.
        let mut future = buf.clone();
        future[8] = 99; // version field, little-endian low byte
        match Header::read_from(&mut future.as_slice()) {
            Err(SnapshotError::UnsupportedVersion { found: 99 }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }

        // Unknown container tag.
        let mut tag = buf.clone();
        tag[12] = 0xAB;
        assert!(matches!(
            Header::read_from(&mut tag.as_slice()),
            Err(SnapshotError::UnknownContainer(0xAB))
        ));

        // Unknown backend names: a letter flipped inside the framed string,
        // and the retired "corollary12" (one byte away from "corollary11").
        let mut name = buf.clone();
        name[21] = b'x';
        let cfg = crate::ListBuilder::new().backend(Backend::Corollary11).config();
        let mut retired = Vec::new();
        Header::new(ContainerKind::LabelMap, cfg, 123).write_to(&mut retired).unwrap();
        retired[21 + "corollary1".len()] = b'2';
        for (bytes, want) in [(name, "xdaptive"), (retired, "corollary12")] {
            match Header::read_from(&mut bytes.as_slice()) {
                Err(SnapshotError::UnknownBackend(s)) => assert_eq!(s, want),
                other => panic!("expected UnknownBackend({want:?}), got {other:?}"),
            }
        }

        // Every strict prefix is Truncated (or BadMagic for the sub-magic
        // prefixes), never a panic.
        for cut in 0..buf.len() {
            match Header::read_from(&mut &buf[..cut]) {
                Err(SnapshotError::Truncated) | Err(SnapshotError::BadMagic) => {}
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let io = SnapshotError::from(std::io::Error::other("disk on fire"));
        assert!(io.to_string().contains("disk on fire"));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::UnsupportedVersion { found: 9 }.to_string().contains('9'));
        let eof = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        assert!(matches!(SnapshotError::from(eof), SnapshotError::Truncated));
    }
}
