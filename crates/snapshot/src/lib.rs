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
//!   caught by the framing or the checksum.
//!
//! Determinism is a design requirement: encoding is canonical (no
//! iteration-order-dependent output — a `HashMap` is framed in key order,
//! and a heap must be sorted by its owner before encoding), so
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

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::Path;

/// Magic bytes opening every snapshot file ("BFSNAP" + container rev).
pub const MAGIC: [u8; 8] = *b"BFSNAP01";

/// Schema version of the *contents* (section layout and struct fields).
///
/// Bump this whenever any `Snap`/`SnapState` impl changes its byte layout;
/// readers reject every version other than their own — see DESIGN.md §15
/// for the compatibility policy.
pub const SCHEMA_VERSION: u32 = 5;

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
                write!(f, "unsupported snapshot schema version {got} (expected {want})")
            }
            SnapshotError::BadChecksum { got, want } => {
                write!(f, "snapshot checksum mismatch: file says {got:#010x}, computed {want:#010x}")
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
        SnapshotError::Io { op, detail: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), table-driven.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`, as used for the whole-file checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
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
            return Err(SnapshotError::Truncated { at: self.pos, need: n });
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
        usize::try_from(self.take_u64()?).map_err(|_| SnapshotError::Invalid { what: "usize overflows platform word" })
    }

    /// Takes a container length stored as `u64`.
    ///
    /// Every encoded element occupies at least one byte, so a length larger
    /// than the remaining input is provably corrupt — rejecting it here
    /// keeps a flipped length byte from triggering a huge allocation.
    pub fn take_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.take_usize()?;
        if n > self.remaining() {
            return Err(SnapshotError::Invalid { what: "container length exceeds remaining input" });
        }
        Ok(n)
    }

    /// Takes a length-prefixed byte string.
    pub fn take_len_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_len()?;
        self.take_bytes(n)
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
            _ => Err(SnapshotError::Invalid { what: "optional component presence mismatch" }),
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
            _ => Err(SnapshotError::Invalid { what: "bool byte not 0 or 1" }),
        }
    }
}

impl Snap for String {
    fn save(&self, w: &mut Encoder) {
        w.put_len_bytes(self.as_bytes());
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let bytes = r.take_len_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Invalid { what: "string is not UTF-8" })
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
            _ => Err(SnapshotError::Invalid { what: "Option tag not 0 or 1" }),
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
pub fn load_slice_exact<T: Snap>(dst: &mut [T], r: &mut Decoder<'_>, what: &'static str) -> Result<(), SnapshotError> {
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

/// Key-sorted, so the encoding is a pure function of the map's contents,
/// independent of hasher state; a load enforces strictly increasing keys
/// (duplicates or disorder mean the snapshot is corrupt).
impl<K, V> Snap for HashMap<K, V>
where
    K: Snap + Ord + std::hash::Hash + Copy,
    V: Snap,
{
    fn save(&self, w: &mut Encoder) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort();
        w.put_usize(self.len());
        for k in keys {
            k.save(w);
            self[k].save(w);
        }
    }
    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let n = r.take_len()?;
        let mut m = HashMap::with_capacity(n);
        let mut prev: Option<K> = None;
        for _ in 0..n {
            let k = K::load(r)?;
            if prev.is_some_and(|p| k <= p) {
                return Err(SnapshotError::Invalid { what: "map keys not strictly increasing" });
            }
            prev = Some(k);
            m.insert(k, V::load(r)?);
        }
        Ok(m)
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

/// Implements [`Snap`] for a fieldless (C-like) enum as a `u8` tag, with a
/// typed error on unknown discriminants.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// enum Mode { A, B }
/// bfetch_snapshot::impl_snap_enum!(Mode { Mode::A = 0, Mode::B = 1 });
/// ```
#[macro_export]
macro_rules! impl_snap_enum {
    ($ty:ty { $($variant:path = $tag:expr),+ $(,)? }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::Encoder) {
                w.put_u8(match self { $( $variant => $tag, )+ });
            }
            fn load(r: &mut $crate::Decoder<'_>) -> Result<Self, $crate::SnapshotError> {
                match r.take_u8()? {
                    $( $tag => Ok($variant), )+
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
/// The fields are matched as `Self { … }` without `..`, so a field nobody
/// classified does not compile:
///
/// ```compile_fail
/// struct Table { tags: Vec<u64>, hits: u64 }
/// bfetch_snapshot::snap_state!(Table { tags: slice("table tags") });
/// ```
#[macro_export]
macro_rules! snap_state {
    ($ty:ty {
        $($(#[$attr:meta])* $field:ident : $class:ident $(($($arg:tt)*))?),+ $(,)?
    } $(check |$s:ident| $check:block)?) => {
        impl $crate::SnapState for $ty {
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

/// Builds the on-disk frame: magic, schema version, `(id, len, payload)`
/// sections in the order added, and a trailing CRC-32.
#[derive(Debug, Default)]
pub struct FrameWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl FrameWriter {
    /// An empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section; `id`s should be unique (readers take the first).
    pub fn add(&mut self, id: u32, payload: Encoder) {
        self.sections.push((id, payload.into_bytes()));
    }

    /// Serializes the complete frame, checksum included.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            MAGIC.len() + 8 + self.sections.iter().map(|(_, p)| 12 + p.len()).sum::<usize>() + 4,
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
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
            return Err(SnapshotError::Truncated { at: bytes.len(), need: min });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let body = &bytes[..bytes.len() - 4];
        let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        let want = crc32(body);
        if stored_crc != want {
            return Err(SnapshotError::BadChecksum { got: stored_crc, want });
        }
        let mut r = Decoder::new(body);
        r.take_bytes(MAGIC.len())?;
        let version = r.take_u32()?;
        if version != SCHEMA_VERSION {
            return Err(SnapshotError::BadVersion { got: version, want: SCHEMA_VERSION });
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

/// Cheap structural validation: is `bytes` a complete, checksum-valid
/// snapshot frame? (Used by cache GC to distinguish live sidecars from
/// half-written junk without decoding the contents.)
pub fn validate_frame(bytes: &[u8]) -> Result<(), SnapshotError> {
    FrameReader::parse(bytes).map(|_| ())
}

/// Writes `bytes` to `path` atomically: a pid-tagged `*.tmp.{pid}` sibling
/// is written, flushed, then renamed over the destination, so readers never
/// observe a half-written snapshot.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    let pid = std::process::id();
    let tmp = match (path.parent(), path.file_name()) {
        (Some(dir), Some(name)) => {
            let mut n = name.to_os_string();
            n.push(format!(".tmp.{pid}"));
            dir.join(n)
        }
        _ => return Err(SnapshotError::Io { op: "write", detail: "path has no parent/file name".into() }),
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| SnapshotError::io("create dir", e))?;
        }
    }
    std::fs::write(&tmp, bytes).map_err(|e| SnapshotError::io("write tmp", e))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        SnapshotError::io("rename tmp", e)
    })
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
        roundtrip(HashMap::from([(9u64, 1u8), (2, 3), (5, 0)]));
    }

    #[test]
    fn map_keys_out_of_order_are_a_typed_error() {
        let mut w = Encoder::new();
        vec![(2u64, 0u8), (1, 0)].save(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            HashMap::<u64, u8>::load(&mut Decoder::new(&bytes)),
            Err(SnapshotError::Invalid { .. })
        ));
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
            Z,
        }
        impl_snap_enum!(M { M::X = 0, M::Y = 1, M::Z = 2 });

        roundtrip(P { a: 1, b: Some(2), c: vec![true, false] });
        roundtrip(M::Y);

        // unknown discriminant is a typed error
        let mut r = Decoder::new(&[9]);
        assert!(matches!(M::load(&mut r), Err(SnapshotError::Invalid { .. })));
    }

    #[test]
    fn bad_bool_and_option_tags_are_typed_errors() {
        assert!(matches!(bool::load(&mut Decoder::new(&[2])), Err(SnapshotError::Invalid { .. })));
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
        assert!(matches!(Vec::<u64>::load(&mut r), Err(SnapshotError::Invalid { .. })));
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
    snap_state!(Unit { ways: skip, hits: val });

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
            into.load_state(&mut r).and_then(|()| r.finish()).map(|()| into)
        };
        // fields load in place, `with` through its function, derived state
        // is rebuilt by the check, configuration stays the target's
        let b = load(fresh(9, 3, Some(unit(0)))).unwrap();
        assert_eq!(b, Chip { heap: vec![10, 20, 30], ..a });

        // a slice of another length is the listed typed error
        assert_eq!(
            load(fresh(9, 4, Some(unit(0)))),
            Err(SnapshotError::Invalid { what: "chip tags" })
        );
        // an optional component must be present on both sides
        assert!(matches!(load(fresh(9, 3, None)), Err(SnapshotError::Invalid { .. })));
        // the check's error is load_state's error
        assert_eq!(
            load(fresh(0, 3, Some(unit(0)))),
            Err(SnapshotError::Invalid { what: "chip hits over the limit" })
        );
    }

    fn sample_frame() -> Vec<u8> {
        let mut a = Encoder::new();
        (42u64, String::from("hello")).save(&mut a);
        let mut b = Encoder::new();
        vec![1u32, 2, 3].save(&mut b);
        let mut f = FrameWriter::new();
        f.add(1, a);
        f.add(2, b);
        f.finish()
    }

    #[test]
    fn frame_round_trips() {
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        assert_eq!(f.section_ids(), vec![1, 2]);
        let mut s1 = f.section(1).unwrap();
        assert_eq!(<(u64, String)>::load(&mut s1).unwrap(), (42, "hello".into()));
        s1.finish().unwrap();
        let mut s2 = f.section(2).unwrap();
        assert_eq!(Vec::<u32>::load(&mut s2).unwrap(), vec![1, 2, 3]);
        assert!(matches!(f.section(9), Err(SnapshotError::MissingSection { id: 9 })));
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
            SnapshotError::BadVersion { got: 99, want: SCHEMA_VERSION }
        );
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut bytes = sample_frame();
        bytes[0] = b'X';
        assert_eq!(FrameReader::parse(&bytes).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("bfsnap-test-{}", std::process::id()));
        let path = dir.join("x.snap");
        let bytes = sample_frame();
        write_file_atomic(&path, &bytes).unwrap();
        assert_eq!(read_file(&path).unwrap(), bytes);
        validate_frame(&read_file(&path).unwrap()).unwrap();
        // no tmp file left behind
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_is_canonical_fixpoint() {
        // decode → re-encode reproduces the identical bytes
        let bytes = sample_frame();
        let f = FrameReader::parse(&bytes).unwrap();
        let mut w = FrameWriter::new();
        for id in f.section_ids() {
            let mut r = f.section(id).unwrap();
            let raw = r.take_bytes(r.remaining()).unwrap();
            let mut e = Encoder::new();
            e.put_bytes(raw);
            w.add(id, e);
        }
        assert_eq!(w.finish(), bytes);
    }
}
