//! # bfetch-snapshot
//!
//! A zero-dependency, versioned binary snapshot codec for deterministic
//! checkpoint/restore of the simulator.
//!
//! The repository must build with no access to crates.io, so instead of
//! serde the crate provides a small hand-rolled codec:
//!
//! * [`Encoder`] / [`Decoder`] — little-endian primitive I/O over a byte
//!   buffer, with every read bounds-checked so a truncated input surfaces
//!   as a typed [`SnapshotError`], never a panic or UB.
//! * [`Snap`] — value (de)serialization, implemented for primitives and
//!   common containers, and derived for plain structs with
//!   [`impl_snap_struct!`].
//! * [`SnapState`] — in-place state (de)serialization for structs whose
//!   *geometry* (table sizes, associativity, …) is rebuilt from the
//!   configuration: `load_state` restores mutable state into a freshly
//!   constructed value and fails with a typed error when the stored
//!   geometry disagrees. Implemented from one field list with
//!   [`snap_state!`].
//! * [`FrameWriter`] / [`FrameReader`] — the on-disk container: a magic
//!   header, a schema version, length-prefixed sections and a trailing
//!   CRC-32 over the whole file. Any single-byte truncation or bit flip is
//!   caught by the framing or the checksum. The writer streams a frame
//!   into its file ([`write_frame`]) with a running [`Crc32`];
//!   [`FrameStream`] reads one back the same way, a window at a time,
//!   for a decoder written against [`Source`].
//!
//! Determinism is a design requirement: encoding is canonical (no
//! iteration-order-dependent output — a hash map or a heap must be put in
//! a canonical order by its owner before encoding), so
//! `encode(decode(bytes)) == bytes` for any valid snapshot.
//!
//! # Example
//!
//! ```
//! use bfetch_snapshot::{Decoder, Encoder, Snap};
//! let mut w = Encoder::new();
//! (7u64, vec![1u32, 2, 3]).save(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = Decoder::new(&bytes);
//! let back: (u64, Vec<u32>) = Snap::load(&mut r).unwrap();
//! assert_eq!(back, (7, vec![1, 2, 3]));
//! ```

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file ("BFSNAP" + container rev).
pub const MAGIC: [u8; 8] = *b"BFSNAP01";

/// Schema version of the *contents* (section layout and struct fields),
/// for checkpoints and result-cache entries alike; the result cache also
/// prefixes every key with it.
///
/// Bump this whenever any `Snap`/`SnapState` impl changes its byte layout
/// or the cache key's derivation changes; readers reject every version
/// other than their own — see DESIGN.md §15 for the compatibility policy.
pub const SCHEMA_VERSION: u32 = 12;

/// Typed error for every way a snapshot can fail to load.
///
/// All decode paths funnel into this type: corrupt, truncated or
/// version-skewed snapshots must never panic and never produce UB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before a read of `need` bytes at offset `at`.
    Truncated { at: usize, need: usize },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's schema version is not [`SCHEMA_VERSION`].
    BadVersion { got: u32, want: u32 },
    /// The trailing CRC-32 does not match the file contents.
    BadChecksum { got: u32, want: u32 },
    /// A decoded value is structurally invalid (bad enum discriminant,
    /// geometry mismatch, out-of-range index, …).
    Invalid { what: &'static str },
    /// A required section is absent from the frame.
    MissingSection { id: u32 },
    /// A section decoder left unread bytes behind.
    TrailingBytes { left: usize },
    /// A filesystem operation failed (message is the `io::Error` text).
    Io { op: &'static str, detail: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { at, need } => {
                write!(f, "snapshot truncated: need {need} bytes at offset {at}")
            }
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::BadVersion { got, want } => {
                write!(
                    f,
                    "unsupported snapshot schema version {got} (expected {want})"
                )
            }
            SnapshotError::BadChecksum { got, want } => {
                write!(
                    f,
                    "snapshot checksum mismatch: file says {got:#010x}, computed {want:#010x}"
                )
            }
            SnapshotError::Invalid { what } => write!(f, "invalid snapshot field: {what}"),
            SnapshotError::MissingSection { id } => write!(f, "snapshot is missing section {id}"),
            SnapshotError::TrailingBytes { left } => {
                write!(f, "snapshot section has {left} unread trailing bytes")
            }
            SnapshotError::Io { op, detail } => write!(f, "snapshot {op} failed: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    fn io(op: &'static str, e: std::io::Error) -> Self {
        SnapshotError::Io {
            op,
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8.
// ---------------------------------------------------------------------------

/// `T[0]` is the bytewise table; `T[k][i]` is the CRC of byte `i` followed
/// by `k` zero bytes, so eight table lookups advance the CRC by eight bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// A CRC-32 (IEEE) kept running over bytes fed in any number of pieces:
/// the streaming frame writer and reader checksum a file as it passes.
///
/// ```
/// use bfetch_snapshot::{crc32, Crc32};
/// let mut c = Crc32::new();
/// c.update(b"bfetch ");
/// c.update(b"snapshot");
/// assert_eq!(c.value(), crc32(b"bfetch snapshot"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The CRC of no bytes.
    pub fn new() -> Self {
        Self(!0)
    }

    /// Extends the CRC over `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut c = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// The CRC of every byte fed so far.
    pub fn value(self) -> u32 {
        !self.0
    }
}

/// CRC-32 (IEEE) of `bytes`, as used for the whole-file checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.value()
}

// ---------------------------------------------------------------------------
// Encoder / Decoder
// ---------------------------------------------------------------------------

/// Append-only little-endian byte sink.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, borrowed.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets the bytes written so far, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_bytes(bytes);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`SnapshotError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(SnapshotError::TrailingBytes { left }),
        }
    }

    /// Takes `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                at: self.pos,
                need: n,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    /// Takes a `usize` stored as `u64`, rejecting values that do not fit.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Invalid {
            what: "usize overflows platform word",
        })
    }

    /// Takes a container length stored as `u64`.
    ///
    /// Every encoded element occupies at least one byte, so a length larger
    /// than the remaining input is provably corrupt — rejecting it here
    /// keeps a flipped length byte from triggering a huge allocation.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.take_usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Invalid {
                what: "container length exceeds remaining input",
            });
        }
        Ok(n)
    }

    /// Takes a length-prefixed byte string.
    pub fn take_len_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_len()?;
        self.take_bytes(n)
    }
}

/// The least a [`Source::decode`] window holds, unless the input ends
/// first: an item up to this long decodes without naming its size.
pub const MIN_WINDOW: usize = 4096;

/// Input a decode pulls a piece at a time: a whole buffer ([`Decoder`]) or
/// the open section of a frame read from a file ([`FrameStream`]). One
/// decoder written against it reads both, and from a file it holds no more
/// than a window of the input.
pub trait Source {
    /// Bytes of input not yet consumed.
    fn left(&self) -> u64;

    /// Runs `f` on a decoder over the input's next bytes, and consumes what
    /// `f` read. The decoder holds at least `need` bytes (or
    /// [`MIN_WINDOW`], if that is more), or everything left if that is
    /// less; `need` beyond what is left is [`SnapshotError::Truncated`].
    fn decode<T>(
        &mut self,
        need: usize,
        f: impl FnOnce(&mut Decoder<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError>;

    /// Takes a count stored as `u64` of items at least `item_bytes` long:
    /// a count the rest of the input cannot hold is provably corrupt, so
    /// it is rejected before anything is allocated for it (the streaming
    /// form of [`Decoder::take_len`]).
    fn take_count(&mut self, item_bytes: u64) -> Result<usize, SnapshotError> {
        let n = self.decode(8, |r| r.take_usize())?;
        match (n as u64).checked_mul(item_bytes) {
            Some(bytes) if bytes <= self.left() => Ok(n),
            _ => Err(SnapshotError::Invalid {
                what: "container length exceeds remaining input",
            }),
        }
    }
}

/// The whole input is already in memory: `decode` hands over the decoder
/// itself.
impl Source for Decoder<'_> {
    fn left(&self) -> u64 {
        self.remaining() as u64
    }

    fn decode<T>(
        &mut self,
        need: usize,
        f: impl FnOnce(&mut Decoder<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        if need > self.remaining() {
            return Err(SnapshotError::Truncated { at: self.pos, need });
        }
        f(self)
    }
}

// ---------------------------------------------------------------------------
// Snap: value (de)serialization
// ---------------------------------------------------------------------------

/// Canonical binary (de)serialization of a value.
///
/// `load(save(x)) == x` must hold, and `save` must be canonical: equal
/// values encode to equal bytes (sort unordered containers first).
pub trait Snap: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn save(&self, w: &mut Encoder);
    /// Decodes a value, failing with a typed error on any corruption.
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError>;
}

/// In-place state (de)serialization for geometry-bearing structs.
///
/// `load_state` restores into a value freshly constructed from the same
/// configuration the snapshot stores; stored geometry that disagrees with
/// the constructed value is a typed [`SnapshotError::Invalid`], never a
/// panic.
pub trait SnapState {
    /// Appends this value's mutable state to `w`.
    fn save_state(&self, w: &mut Encoder);
    /// Restores mutable state previously written by `save_state`.
    fn load_state(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError>;
}

/// A component the configuration may leave out (an engine, a demand
/// prefetcher): a presence byte, then the component's state. Presence is
/// geometry, so a byte that disagrees with the constructed value is a
/// typed error.
impl<S: SnapState> SnapState for Option<S> {
    fn save_state(&self, w: &mut Encoder) {
        w.put_u8(self.is_some() as u8);
        if let Some(s) = self {
            s.save_state(w);
        }
    }
    fn load_state(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        match (r.take_u8()?, self) {
            (1, Some(s)) => s.load_state(r),
            (0, None) => Ok(()),
            _ => Err(SnapshotError::Invalid {
                what: "optional component presence mismatch",
            }),
        }
    }
}

impl<S: SnapState + ?Sized> SnapState for Box<S> {
    fn save_state(&self, w: &mut Encoder) {
        (**self).save_state(w);
    }
    fn load_state(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        (**self).load_state(r)
    }
}

macro_rules! snap_prim {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Snap for $ty {
            fn save(&self, w: &mut Encoder) {
                w.$put(*self);
            }
            fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                r.$take()
            }
        }
    };
}

snap_prim!(u8, put_u8, take_u8);
snap_prim!(u16, put_u16, take_u16);
snap_prim!(u32, put_u32, take_u32);
snap_prim!(u64, put_u64, take_u64);
snap_prim!(usize, put_usize, take_usize);

impl Snap for i8 {
    fn save(&self, w: &mut Encoder) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u8()? as i8)
    }
}

impl Snap for i32 {
    fn save(&self, w: &mut Encoder) {
        w.put_u32(*self as u32);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u32()? as i32)
    }
}

impl Snap for i64 {
    fn save(&self, w: &mut Encoder) {
        w.put_u64(*self as u64);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(r.take_u64()? as i64)
    }
}

impl Snap for f64 {
    /// Stored via `to_bits`, so NaN payloads and signed zeros round-trip.
    fn save(&self, w: &mut Encoder) {
        w.put_u64(self.to_bits());
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(r.take_u64()?))
    }
}

impl Snap for bool {
    fn save(&self, w: &mut Encoder) {
        w.put_u8(*self as u8);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Invalid {
                what: "bool byte not 0 or 1",
            }),
        }
    }
}

/// Nothing on the wire: the payload of a cache level that stores none.
impl Snap for () {
    fn save(&self, _: &mut Encoder) {}
    fn load(_: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Snap for String {
    fn save(&self, w: &mut Encoder) {
        w.put_len_bytes(self.as_bytes());
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let bytes = r.take_len_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Invalid {
            what: "string is not UTF-8",
        })
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut Encoder) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            _ => Err(SnapshotError::Invalid {
                what: "Option tag not 0 or 1",
            }),
        }
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut Encoder) {
        (**self).save(w);
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut Encoder) {
        w.put_usize(self.len());
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut Encoder) {
        w.put_usize(self.len());
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut Encoder) {
        for x in self {
            x.save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        Ok(out.try_into().unwrap_or_else(|_| unreachable!()))
    }
}

macro_rules! snap_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn save(&self, w: &mut Encoder) {
                $( self.$idx.save(w); )+
            }
            fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::load(r)?,)+))
            }
        }
    };
}

snap_tuple!(A: 0);
snap_tuple!(A: 0, B: 1);
snap_tuple!(A: 0, B: 1, C: 2);
snap_tuple!(A: 0, B: 1, C: 2, D: 3);

/// Loads exactly `expect` elements into an existing slice; a stored length
/// that disagrees with the live geometry is a typed error.
pub fn load_slice_exact<T: Snap>(
    dst: &mut [T],
    r: &mut Decoder<'_>,
    what: &'static str,
) -> Result<(), SnapshotError> {
    let n = r.take_len()?;
    if n != dst.len() {
        return Err(SnapshotError::Invalid { what });
    }
    for slot in dst.iter_mut() {
        *slot = T::load(r)?;
    }
    Ok(())
}

/// Saves a slice with a length prefix (counterpart of [`load_slice_exact`]).
pub fn save_slice<T: Snap>(xs: &[T], w: &mut Encoder) {
    w.put_usize(xs.len());
    for x in xs {
        x.save(w);
    }
}

/// Implements [`Snap`] for a struct by encoding the listed fields in order.
///
/// ```
/// struct P { x: u64, tag: Option<u8> }
/// bfetch_snapshot::impl_snap_struct!(P { x, tag });
/// ```
#[macro_export]
macro_rules! impl_snap_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::Encoder) {
                $( $crate::Snap::save(&self.$field, w); )+
            }
            fn load(r: &mut $crate::Decoder<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok(Self { $( $field: $crate::Snap::load(r)? ),+ })
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a `u8` tag, then each listed field
/// of the variant in list order; loading reads them back into a struct
/// literal in the same order. An unknown tag is a typed error.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// enum Op { Nop, Add { rd: u8, imm: i64 } }
/// bfetch_snapshot::impl_snap_enum!(Op { Op::Nop = 0, Op::Add { rd, imm } = 1 });
///
/// let mut w = bfetch_snapshot::Encoder::new();
/// bfetch_snapshot::Snap::save(&Op::Add { rd: 3, imm: -1 }, &mut w);
/// assert_eq!(w.into_bytes(), [1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
/// ```
#[macro_export]
macro_rules! impl_snap_enum {
    // Variants are `$($seg)::+` rather than a `path` fragment: an opaque
    // `path` cannot head a struct literal or a struct pattern.
    ($ty:ty { $($($seg:ident)::+ $({ $($field:ident),+ $(,)? })? = $tag:expr),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::Encoder) {
                match self {
                    $( $($seg)::+ $({ $($field),+ })? => {
                        w.put_u8($tag);
                        $($( $crate::Snap::save($field, w); )+)?
                    } )+
                }
            }
            fn load(r: &mut $crate::Decoder<'_>) -> Result<Self, $crate::SnapshotError> {
                match r.take_u8()? {
                    $( $tag => Ok($($seg)::+ $({ $($field: $crate::Snap::load(r)?),+ })?), )+
                    _ => Err($crate::SnapshotError::Invalid {
                        what: concat!("unknown ", stringify!($ty), " discriminant"),
                    }),
                }
            }
        }
    };
}

/// Implements [`SnapState`] for a struct from one list that gives every
/// field a class. List order is wire order; `save_state` and `load_state`
/// are both generated from it, so they cannot disagree.
///
/// | class | on the wire | on load |
/// |---|---|---|
/// | `val` | the field as a [`Snap`] value | replaced |
/// | `slice("what")` | length, then each element | in place; another length is `Invalid { what }` |
/// | `state` | a nested [`SnapState`] | in place |
/// | `each` | every element's [`SnapState`], no length | in place |
/// | `with(save, load)` | whatever `save(&self, w)` writes | `load(&mut self, r)?` |
/// | `skip` | nothing: configuration, wiring, scratch, derived | untouched |
///
/// `with` is for the encodings that are not a field list (a ring's live
/// window, a heap in canonical order): the two functions see the whole
/// struct, fields earlier in the list already loaded. An optional
/// `check |s| { … }` block runs last with `s: &mut Self` and evaluates to
/// `Result<(), SnapshotError>`: the one place for range checks across
/// fields and for rebuilding derived state.
///
/// ```
/// use bfetch_snapshot::{snap_state, Decoder, Encoder, SnapState, SnapshotError};
/// struct Table { ways: usize, tags: Vec<u64>, hits: u64, index: Vec<usize> }
/// snap_state!(Table { ways: skip, tags: slice("table tags"), hits: val, index: skip }
/// check |t| {
///     if t.tags.iter().any(|&tag| tag == u64::MAX) {
///         return Err(SnapshotError::Invalid { what: "table tag is the sentinel" });
///     }
///     t.index = (0..t.tags.len()).filter(|&i| t.tags[i] != 0).collect();
///     Ok(())
/// });
/// let a = Table { ways: 2, tags: vec![7, 0], hits: 3, index: vec![0] };
/// let mut w = Encoder::new();
/// a.save_state(&mut w);
/// let mut b = Table { ways: 2, tags: vec![0; 2], hits: 0, index: vec![] };
/// b.load_state(&mut Decoder::new(&w.into_bytes())).unwrap();
/// assert_eq!((b.tags, b.hits, b.index), (vec![7, 0], 3, vec![0]));
/// ```
///
/// A generic struct is declared once for every instantiation by opening
/// the list with its parameters, `snap_state!(impl<M: Bound> Table<M> { … })`.
///
/// The fields are matched as `Self { … }` without `..`, so a field nobody
/// classified does not compile:
///
/// ```compile_fail
/// struct Table { tags: Vec<u64>, hits: u64 }
/// bfetch_snapshot::snap_state!(Table { tags: slice("table tags") });
/// ```
#[macro_export]
macro_rules! snap_state {
    (impl<$($g:ident : $bound:path),*> $ty:ty {
        $($(#[$attr:meta])* $field:ident : $class:ident $(($($arg:tt)*))?),+ $(,)?
    } $(check |$s:ident| $check:block)?) => {
        impl<$($g: $bound),*> $crate::SnapState for $ty {
            fn save_state(&self, w: &mut $crate::Encoder) {
                let Self { $($(#[$attr])* $field: _),+ } = self;
                $($(#[$attr])* { $crate::snap_state!(@save $class $(($($arg)*))?, self, $field, w); })+
            }
            fn load_state(
                &mut self,
                r: &mut $crate::Decoder<'_>,
            ) -> Result<(), $crate::SnapshotError> {
                $($(#[$attr])* { $crate::snap_state!(@load $class $(($($arg)*))?, self, $field, r); })+
                $(
                    let $s = &mut *self;
                    let checked: Result<(), $crate::SnapshotError> = $check;
                    checked?;
                )?
                Ok(())
            }
        }
    };
    ($ty:ty { $($body:tt)* } $($check:tt)*) => {
        $crate::snap_state!(impl<> $ty { $($body)* } $($check)*);
    };
    (@save val, $this:ident, $f:ident, $w:ident) => { $crate::Snap::save(&$this.$f, $w) };
    (@load val, $this:ident, $f:ident, $r:ident) => { $this.$f = $crate::Snap::load($r)? };
    (@save slice($what:literal), $this:ident, $f:ident, $w:ident) => { $crate::save_slice(&$this.$f, $w) };
    (@load slice($what:literal), $this:ident, $f:ident, $r:ident) => {
        $crate::load_slice_exact(&mut $this.$f, $r, $what)?
    };
    (@save state, $this:ident, $f:ident, $w:ident) => { $crate::SnapState::save_state(&$this.$f, $w) };
    (@load state, $this:ident, $f:ident, $r:ident) => { $crate::SnapState::load_state(&mut $this.$f, $r)? };
    (@save each, $this:ident, $f:ident, $w:ident) => {
        for x in $this.$f.iter() {
            $crate::SnapState::save_state(x, $w);
        }
    };
    (@load each, $this:ident, $f:ident, $r:ident) => {
        for x in $this.$f.iter_mut() {
            $crate::SnapState::load_state(x, $r)?;
        }
    };
    (@save with($save:path, $load:path), $this:ident, $f:ident, $w:ident) => { $save($this, $w) };
    (@load with($save:path, $load:path), $this:ident, $f:ident, $r:ident) => { $load($this, $r)? };
    (@save skip, $this:ident, $f:ident, $w:ident) => {};
    (@load skip, $this:ident, $f:ident, $r:ident) => {};
}

// ---------------------------------------------------------------------------
// Frame: magic + version + sections + CRC
// ---------------------------------------------------------------------------

/// A whole frame's identity: its length in bytes, trailing CRC included,
/// and that CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStamp {
    /// Bytes in the frame.
    pub len: u64,
    /// The trailing CRC-32.
    pub crc: u32,
}

impl_snap_struct!(FrameStamp { len, crc });

/// Streams the on-disk frame into `out` as it is produced: magic, schema
/// version, section count, each section's `(id, len, payload)`, then the
/// CRC-32 of all of it. The CRC runs alongside, so no copy of the frame is
/// ever assembled. A section declares its length up front, and its payload
/// may then arrive in any number of pieces.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    out: W,
    crc: Crc32,
    len: u64,
    /// Declared sections not yet begun.
    sections: u32,
    /// Payload bytes the open section still expects.
    open: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Starts a frame of `sections` sections.
    pub fn new(out: W, sections: u32) -> Result<Self, SnapshotError> {
        let mut f = Self {
            out,
            crc: Crc32::new(),
            len: 0,
            sections,
            open: 0,
        };
        f.put(&MAGIC)?;
        f.put(&SCHEMA_VERSION.to_le_bytes())?;
        f.put(&sections.to_le_bytes())?;
        Ok(f)
    }

    fn put(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        self.out
            .write_all(bytes)
            .map_err(|e| SnapshotError::io("write", e))
    }

    /// Opens the next section; its `len` payload bytes follow through
    /// [`FrameWriter::write`].
    ///
    /// # Panics
    ///
    /// Panics if the open section is short or every declared section has
    /// begun.
    pub fn begin(&mut self, id: u32, len: u64) -> Result<(), SnapshotError> {
        assert!(
            self.open == 0 && self.sections > 0,
            "section {id} begun out of turn"
        );
        self.sections -= 1;
        self.open = len;
        self.put(&id.to_le_bytes())?;
        self.put(&len.to_le_bytes())
    }

    /// Writes the next payload bytes of the open section.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` runs past the section's declared length.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        assert!(
            bytes.len() as u64 <= self.open,
            "section overruns its declared length"
        );
        self.open -= bytes.len() as u64;
        self.put(bytes)
    }

    /// Writes a whole section.
    pub fn section(&mut self, id: u32, payload: &[u8]) -> Result<(), SnapshotError> {
        self.begin(id, payload.len() as u64)?;
        self.write(payload)
    }

    /// Ends the frame with its CRC and hands back the sink.
    ///
    /// # Panics
    ///
    /// Panics if a declared section is missing or short.
    pub fn finish(mut self) -> Result<(W, FrameStamp), SnapshotError> {
        assert!(
            self.open == 0 && self.sections == 0,
            "frame ended before its sections"
        );
        let crc = self.crc.value();
        self.out
            .write_all(&crc.to_le_bytes())
            .map_err(|e| SnapshotError::io("write", e))?;
        Ok((
            self.out,
            FrameStamp {
                len: self.len + 4,
                crc,
            },
        ))
    }
}

/// Writes one frame of `sections` sections to `path` atomically: `body`
/// streams them into a [`FrameWriter`] over a pid-tagged `*.tmp.{pid}`
/// sibling, which is flushed and renamed over `path` once the frame is
/// whole, so a reader never observes a half-written file. On any failure
/// the tmp file is removed.
pub fn write_frame(
    path: &Path,
    sections: u32,
    body: impl FnOnce(&mut FrameWriter<BufWriter<File>>) -> Result<(), SnapshotError>,
) -> Result<FrameStamp, SnapshotError> {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Err(SnapshotError::Io {
            op: "write",
            detail: "path has no parent/file name".into(),
        });
    };
    let mut tmp = name.to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = dir.join(tmp);
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(dir).map_err(|e| SnapshotError::io("create dir", e))?;
    }
    let written = File::create(&tmp)
        .map_err(|e| SnapshotError::io("create tmp", e))
        .and_then(|file| {
            let mut f = FrameWriter::new(BufWriter::new(file), sections)?;
            body(&mut f)?;
            let (out, stamp) = f.finish()?;
            out.into_inner()
                .map_err(|e| SnapshotError::io("write tmp", e.into_error()))?;
            Ok(stamp)
        })
        .and_then(|stamp| {
            std::fs::rename(&tmp, path).map_err(|e| SnapshotError::io("rename tmp", e))?;
            Ok(stamp)
        });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// Bytes a [`FrameStream`] reads ahead of the decoder.
const STREAM_WINDOW: usize = 64 * 1024;

/// Reads one frame front to back through a window of about 64 KiB with
/// the CRC running alongside, so a frame of any size is checked without
/// being held whole.
/// [`FrameStream::open`] checks magic and version,
/// [`FrameStream::section`] opens each section in file order, the
/// [`Source`] impl decodes the open section, and [`FrameStream::finish`]
/// checks the trailing CRC. Until `finish` succeeds nothing decoded is
/// known to be what was written.
#[derive(Debug)]
pub struct FrameStream<R: Read> {
    src: R,
    crc: Crc32,
    /// Bytes read from `src` so far.
    at: u64,
    /// Declared sections not yet opened.
    sections: u32,
    /// The open section's window: `buf[pos..]` is read but not consumed.
    buf: Vec<u8>,
    pos: usize,
    /// Bytes of the open section not yet read from `src`.
    unread: u64,
}

impl<R: Read> FrameStream<R> {
    /// Reads and checks the frame's magic and schema version.
    pub fn open(src: R) -> Result<Self, SnapshotError> {
        let mut s = Self {
            src,
            crc: Crc32::new(),
            at: 0,
            sections: 0,
            buf: Vec::new(),
            pos: 0,
            unread: 0,
        };
        let mut head = [0u8; MAGIC.len() + 8];
        s.read_crc(&mut head)?;
        if head[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let word =
            |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
        let version = word(MAGIC.len());
        if version != SCHEMA_VERSION {
            return Err(SnapshotError::BadVersion {
                got: version,
                want: SCHEMA_VERSION,
            });
        }
        s.sections = word(MAGIC.len() + 4);
        Ok(s)
    }

    fn read_raw(&mut self, out: &mut [u8]) -> Result<(), SnapshotError> {
        self.src.read_exact(out).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => SnapshotError::Truncated {
                at: self.at as usize,
                need: out.len(),
            },
            _ => SnapshotError::io("read", e),
        })?;
        self.at += out.len() as u64;
        Ok(())
    }

    fn read_crc(&mut self, out: &mut [u8]) -> Result<(), SnapshotError> {
        self.read_raw(out)?;
        self.crc.update(out);
        Ok(())
    }

    /// Fails with [`SnapshotError::TrailingBytes`] unless the open section
    /// is wholly consumed.
    fn section_done(&self) -> Result<(), SnapshotError> {
        match self.left() {
            0 => Ok(()),
            left => Err(SnapshotError::TrailingBytes {
                left: left as usize,
            }),
        }
    }

    /// Opens the next section, which must be `id`
    /// ([`SnapshotError::MissingSection`] otherwise), once the open one is
    /// wholly consumed ([`SnapshotError::TrailingBytes`] otherwise).
    pub fn section(&mut self, id: u32) -> Result<(), SnapshotError> {
        self.section_done()?;
        if self.sections == 0 {
            return Err(SnapshotError::MissingSection { id });
        }
        let mut head = [0u8; 12];
        self.read_crc(&mut head)?;
        self.sections -= 1;
        if head[..4] != id.to_le_bytes() {
            return Err(SnapshotError::MissingSection { id });
        }
        self.unread = u64::from_le_bytes(head[4..].try_into().expect("eight bytes"));
        self.buf.clear();
        self.pos = 0;
        Ok(())
    }

    /// Checks that the frame ends here — the open section wholly consumed
    /// and no section left unopened — and that the trailing CRC is the one
    /// computed over everything read. Returns the frame's [`FrameStamp`].
    pub fn finish(mut self) -> Result<FrameStamp, SnapshotError> {
        self.section_done()?;
        if self.sections > 0 {
            return Err(SnapshotError::Invalid {
                what: "frame has sections nobody read",
            });
        }
        let want = self.crc.value();
        let mut tail = [0u8; 4];
        self.read_raw(&mut tail)?;
        let got = u32::from_le_bytes(tail);
        if got != want {
            return Err(SnapshotError::BadChecksum { got, want });
        }
        Ok(FrameStamp {
            len: self.at,
            crc: got,
        })
    }
}

/// The open section, read ahead a window at a time and never past its end.
impl<R: Read> Source for FrameStream<R> {
    fn left(&self) -> u64 {
        (self.buf.len() - self.pos) as u64 + self.unread
    }

    fn decode<T>(
        &mut self,
        need: usize,
        f: impl FnOnce(&mut Decoder<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let have = self.buf.len() - self.pos;
        let want = need.max(MIN_WINDOW);
        if have < want && self.unread > 0 {
            let fill =
                (want.max(STREAM_WINDOW) - have).min(self.unread.try_into().unwrap_or(usize::MAX));
            let mut buf = std::mem::take(&mut self.buf);
            buf.drain(..self.pos);
            buf.resize(have + fill, 0);
            let read = self.read_crc(&mut buf[have..]);
            (self.buf, self.pos) = (buf, 0);
            read?;
            self.unread -= fill as u64;
        }
        if need > self.buf.len() - self.pos {
            return Err(SnapshotError::Truncated {
                at: self.at as usize,
                need,
            });
        }
        let mut d = Decoder::new(&self.buf[self.pos..]);
        let out = f(&mut d)?;
        self.pos = self.buf.len() - d.remaining();
        Ok(out)
    }
}

/// Parsed view of a snapshot frame; validates magic, version, section
/// bounds and the whole-file checksum up front.
#[derive(Debug)]
pub struct FrameReader<'a> {
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> FrameReader<'a> {
    /// Parses and fully validates `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let min = MAGIC.len() + 4 + 4 + 4; // magic + version + count + crc
        if bytes.len() < min {
            return Err(SnapshotError::Truncated {
                at: bytes.len(),
                need: min,
            });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 4];
        let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let want = crc32(body);
        if stored_crc != want {
            return Err(SnapshotError::BadChecksum {
                got: stored_crc,
                want,
            });
        }
        let mut r = Decoder::new(body);
        r.take_bytes(MAGIC.len())?;
        let version = r.take_u32()?;
        if version != SCHEMA_VERSION {
            return Err(SnapshotError::BadVersion {
                got: version,
                want: SCHEMA_VERSION,
            });
        }
        let count = r.take_u32()?;
        let mut sections = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let id = r.take_u32()?;
            let len = r.take_usize()?;
            let payload = r.take_bytes(len)?;
            sections.push((id, payload));
        }
        r.finish()?;
        Ok(Self { sections })
    }

    /// A decoder over section `id`'s payload.
    pub fn section(&self, id: u32) -> Result<Decoder<'a>, SnapshotError> {
        self.sections
            .iter()
            .find(|(sid, _)| *sid == id)
            .map(|(_, payload)| Decoder::new(payload))
            .ok_or(SnapshotError::MissingSection { id })
    }

    /// Section ids present, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.sections.iter().map(|(id, _)| *id).collect()
    }
}

/// Reads a whole snapshot file.
pub fn read_file(path: &Path) -> Result<Vec<u8>, SnapshotError> {
    std::fs::read(path).map_err(|e| SnapshotError::io("read", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Encoder::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(-7i8);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(std::f64::consts::PI);
        roundtrip(-0.0f64);
        roundtrip(String::from("mcf/libquantum"));
        roundtrip(String::new());
    }

    #[test]
    fn nan_payload_round_trips_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = Encoder::new();
        weird.save(&mut w);
        let bytes = w.into_bytes();
        let back = f64::load(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(VecDeque::from([(1u64, true), (2, false)]));
        roundtrip(Some(Box::new(9u32)));
        roundtrip(Option::<u8>::None);
        roundtrip([7u64; 32]);
        roundtrip((1u8, 2u16, 3u32, 4u64));
    }

    #[test]
    fn struct_and_enum_macros() {
        #[derive(Debug, PartialEq)]
        struct P {
            a: u64,
            b: Option<u16>,
            c: Vec<bool>,
        }
        impl_snap_struct!(P { a, b, c });

        #[derive(Debug, PartialEq)]
        enum M {
            X,
            Y,
            Z { a: u64, b: Option<u16> },
        }
        impl_snap_enum!(M { M::X = 0, M::Y = 1, M::Z { a, b } = 2 });

        roundtrip(P {
            a: 1,
            b: Some(2),
            c: vec![true, false],
        });
        roundtrip(M::Y);
        roundtrip(M::Z { a: 7, b: Some(3) });

        // unknown discriminant is a typed error
        let mut r = Decoder::new(&[9]);
        assert!(matches!(
            M::load(&mut r),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn bad_bool_and_option_tags_are_typed_errors() {
        assert!(matches!(
            bool::load(&mut Decoder::new(&[2])),
            Err(SnapshotError::Invalid { .. })
        ));
        assert!(matches!(
            Option::<u8>::load(&mut Decoder::new(&[7])),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut w = Encoder::new();
        w.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        assert!(matches!(
            Vec::<u64>::load(&mut r),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn load_slice_exact_checks_geometry() {
        let mut w = Encoder::new();
        save_slice(&[1u64, 2, 3], &mut w);
        let bytes = w.into_bytes();
        let mut dst = [0u64; 3];
        load_slice_exact(&mut dst, &mut Decoder::new(&bytes), "geom").unwrap();
        assert_eq!(dst, [1, 2, 3]);
        let mut wrong = [0u64; 4];
        assert_eq!(
            load_slice_exact(&mut wrong, &mut Decoder::new(&bytes), "geom"),
            Err(SnapshotError::Invalid { what: "geom" })
        );
    }

    /// One struct with a field of every `snap_state!` class.
    #[derive(Debug, PartialEq)]
    struct Unit {
        ways: usize,
        hits: u64,
    }
    snap_state!(Unit {
        ways: skip,
        hits: val
    });

    #[derive(Debug, PartialEq)]
    struct Chip {
        limit: u64,
        tags: Vec<u64>,
        unit: Unit,
        banks: Vec<Unit>,
        spare: Option<Unit>,
        heap: Vec<u64>,
        total: u64,
    }
    impl Chip {
        fn save_heap(&self, w: &mut Encoder) {
            let mut sorted = self.heap.clone();
            sorted.sort_unstable();
            sorted.save(w);
        }
        fn load_heap(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError> {
            self.heap = Snap::load(r)?;
            Ok(())
        }
    }
    snap_state!(Chip {
        limit: skip,
        tags: slice("chip tags"),
        unit: state,
        banks: each,
        spare: state,
        heap: with(Chip::save_heap, Chip::load_heap),
        total: skip,
    } check |c| {
        if c.unit.hits > c.limit {
            return Err(SnapshotError::Invalid { what: "chip hits over the limit" });
        }
        c.total = c.unit.hits + c.banks.iter().map(|b| b.hits).sum::<u64>();
        Ok(())
    });

    #[test]
    fn snap_state_lists_every_class_in_wire_order() {
        let unit = |hits| Unit { ways: 4, hits };
        let fresh = |limit, tags, spare| Chip {
            limit,
            tags: vec![0; tags],
            unit: unit(0),
            banks: vec![unit(0), unit(0)],
            spare,
            heap: vec![],
            total: 0,
        };
        let a = Chip {
            limit: 9,
            tags: vec![5, 6, 7],
            unit: unit(1),
            banks: vec![unit(2), unit(3)],
            spare: Some(unit(4)),
            heap: vec![30, 10, 20],
            total: 6,
        };
        let mut w = Encoder::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();

        // the wire is the list, in order, and nothing of a skipped field
        let mut want = Encoder::new();
        vec![5u64, 6, 7].save(&mut want);
        for hits in [1u64, 2, 3] {
            hits.save(&mut want);
        }
        Some(4u64).save(&mut want);
        vec![10u64, 20, 30].save(&mut want);
        assert_eq!(bytes, want.into_bytes());

        let load = |mut into: Chip| {
            let mut r = Decoder::new(&bytes);
            into.load_state(&mut r)
                .and_then(|()| r.finish())
                .map(|()| into)
        };
        // fields load in place, `with` through its function, derived state
        // is rebuilt by the check, configuration stays the target's
        let b = load(fresh(9, 3, Some(unit(0)))).unwrap();
        assert_eq!(
            b,
            Chip {
                heap: vec![10, 20, 30],
                ..a
            }
        );

        // a slice of another length is the listed typed error
        assert_eq!(
            load(fresh(9, 4, Some(unit(0)))),
            Err(SnapshotError::Invalid { what: "chip tags" })
        );
        // an optional component must be present on both sides
        assert!(matches!(
            load(fresh(9, 3, None)),
            Err(SnapshotError::Invalid { .. })
        ));
        // the check's error is load_state's error
        assert_eq!(
            load(fresh(0, 3, Some(unit(0)))),
            Err(SnapshotError::Invalid {
                what: "chip hits over the limit"
            })
        );
    }

    /// The bytewise loop `Crc32::update` replaced: the reference it must
    /// equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slice-by-8 is bit-identical to the bytewise loop at every length,
    /// every start alignment and every split into two running updates.
    #[test]
    fn slice_by_8_equals_the_bytewise_crc_over_lengths_alignments_and_splits() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let bytes: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..16 {
            for len in (0..200).chain([1000, 1031, 4096 - 16]) {
                let s = &bytes[start..start + len];
                let want = crc32_bytewise(s);
                assert_eq!(crc32(s), want, "start {start} len {len}");
                for split in [0, 1, 3, 7, 8, 9, len / 2, len] {
                    let split = split.min(len);
                    let mut c = Crc32::new();
                    c.update(&s[..split]);
                    c.update(&s[split..]);
                    assert_eq!(c.value(), want, "start {start} len {len} split {split}");
                }
            }
        }
    }

    fn sample_frame() -> Vec<u8> {
        let mut a = Encoder::new();
        (42u64, String::from("hello")).save(&mut a);
        let mut b = Encoder::new();
        vec![1u32, 2, 3].save(&mut b);
        let mut f = FrameWriter::new(Vec::new(), 2).unwrap();
        f.section(1, a.as_bytes()).unwrap();
        // a section's payload may arrive in pieces
        f.begin(2, b.len() as u64).unwrap();
        for piece in b.as_bytes().chunks(5) {
            f.write(piece).unwrap();
        }
        let (bytes, stamp) = f.finish().unwrap();
        assert_eq!(
            (stamp.len, stamp.crc),
            (bytes.len() as u64, crc32(&bytes[..bytes.len() - 4]))
        );
        bytes
    }

    /// What [`sample_frame`] holds, and its stamp.
    type Sample = ((u64, String), Vec<u32>, FrameStamp);

    /// [`sample_frame`] read back through a [`FrameStream`].
    fn stream_sample(bytes: &[u8]) -> Result<Sample, SnapshotError> {
        let mut s = FrameStream::open(bytes)?;
        s.section(1)?;
        let a = s.decode(0, <(u64, String)>::load)?;
        s.section(2)?;
        let n = s.take_count(4)?;
        let b = (0..n)
            .map(|_| s.decode(4, |r| r.take_u32()))
            .collect::<Result<_, _>>()?;
        Ok((a, b, s.finish()?))
    }

    #[test]
    fn frame_round_trips() {
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        assert_eq!(f.section_ids(), vec![1, 2]);
        let mut s1 = f.section(1).unwrap();
        assert_eq!(
            <(u64, String)>::load(&mut s1).unwrap(),
            (42, "hello".into())
        );
        s1.finish().unwrap();
        let mut s2 = f.section(2).unwrap();
        assert_eq!(Vec::<u32>::load(&mut s2).unwrap(), vec![1, 2, 3]);
        assert!(matches!(
            f.section(9),
            Err(SnapshotError::MissingSection { id: 9 })
        ));

        let (a, b, stamp) = stream_sample(&bytes).unwrap();
        assert_eq!((a, b), ((42, "hello".into()), vec![1, 2, 3]));
        assert_eq!(
            stamp,
            FrameStamp {
                len: bytes.len() as u64,
                crc: crc32(&bytes[..bytes.len() - 4])
            }
        );
    }

    #[test]
    fn a_stream_reads_sections_in_order_and_wholly() {
        let bytes = sample_frame();
        let mut s = FrameStream::open(&bytes[..]).unwrap();
        assert_eq!(s.section(2), Err(SnapshotError::MissingSection { id: 2 }));
        let mut s = FrameStream::open(&bytes[..]).unwrap();
        s.section(1).unwrap();
        s.decode(8, |r| r.take_u64()).unwrap();
        assert!(matches!(
            s.section(2),
            Err(SnapshotError::TrailingBytes { .. })
        ));
        // a need past the section's end is a truncation, whatever follows
        let mut s = FrameStream::open(&bytes[..]).unwrap();
        s.section(1).unwrap();
        assert!(matches!(
            s.decode(1 << 20, |_| Ok(())),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    /// A section several windows long streams through a window that
    /// refills, never holding the section whole.
    #[test]
    fn a_long_section_streams_through_the_window() {
        let words: Vec<u64> = (0..100_000).collect();
        let mut w = Encoder::new();
        words.save(&mut w);
        let mut f = FrameWriter::new(Vec::new(), 1).unwrap();
        f.section(3, w.as_bytes()).unwrap();
        let (bytes, _) = f.finish().unwrap();

        let mut s = FrameStream::open(&bytes[..]).unwrap();
        s.section(3).unwrap();
        let n = s.take_count(8).unwrap();
        let mut back = Vec::with_capacity(n);
        while back.len() < n {
            let k = (n - back.len()).min(1000);
            s.decode(8 * k, |r| {
                for _ in 0..k {
                    back.push(r.take_u64()?);
                }
                Ok(())
            })
            .unwrap();
            assert!(
                s.buf.len() <= STREAM_WINDOW,
                "window grew to {}",
                s.buf.len()
            );
        }
        s.finish().unwrap();
        assert_eq!(back, words);
    }

    #[test]
    fn every_single_byte_truncation_is_a_typed_error() {
        let bytes = sample_frame();
        for n in 0..bytes.len() {
            let err = FrameReader::parse(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. } | SnapshotError::BadChecksum { .. }
                ),
                "truncation to {n} bytes gave {err:?}"
            );
            assert!(
                stream_sample(&bytes[..n]).is_err(),
                "stream read a {n}-byte truncation"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let bytes = sample_frame();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    FrameReader::parse(&bad).is_err(),
                    "flip of byte {byte} bit {bit} was not detected"
                );
                assert!(
                    stream_sample(&bad).is_err(),
                    "stream missed the flip of byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn version_skew_is_reported_before_sections() {
        let mut bytes = sample_frame();
        // Patch the version field and re-checksum, so only the version is wrong.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            FrameReader::parse(&bytes).unwrap_err(),
            SnapshotError::BadVersion {
                got: 99,
                want: SCHEMA_VERSION
            }
        );
        assert_eq!(
            FrameStream::open(&bytes[..]).unwrap_err(),
            SnapshotError::BadVersion {
                got: 99,
                want: SCHEMA_VERSION
            }
        );
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample_frame();
        bytes[0] = b'X';
        assert_eq!(
            FrameReader::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        assert_eq!(
            FrameStream::open(&bytes[..]).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    fn leftover_tmps(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count()
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("bfsnap-test-{}", std::process::id()));
        let path = dir.join("x.snap");
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        let stamp = write_frame(&path, 2, |w| {
            for id in [1, 2] {
                let mut r = f.section(id)?;
                w.section(id, r.take_bytes(r.remaining())?)?;
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(read_file(&path).unwrap(), bytes);
        assert_eq!(stamp.len, bytes.len() as u64);
        assert_eq!(leftover_tmps(&dir), 0);

        // a failing body leaves the old file in place and no tmp file
        let err = write_frame(&path, 1, |_| {
            Err(SnapshotError::Invalid { what: "give up" })
        });
        assert_eq!(err, Err(SnapshotError::Invalid { what: "give up" }));
        assert_eq!(read_file(&path).unwrap(), bytes);
        assert_eq!(leftover_tmps(&dir), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_is_canonical_fixpoint() {
        // decode → re-encode reproduces the identical bytes
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        let mut w = FrameWriter::new(Vec::new(), f.section_ids().len() as u32).unwrap();
        for id in f.section_ids() {
            let mut r = f.section(id).unwrap();
            w.section(id, r.take_bytes(r.remaining()).unwrap()).unwrap();
        }
        assert_eq!(w.finish().unwrap().0, bytes);
    }
}
