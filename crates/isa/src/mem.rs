//! Sparse, word-granularity data memory, copy-on-write against a program's
//! initial image.

use bfetch_snapshot::{Decoder, Encoder, Snap, SnapState, SnapshotError};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Words per page (4 KiB pages of 8-byte words).
const PAGE_WORDS: usize = 512;
const PAGE_SHIFT: u64 = 12;
const OFFSET_MASK: u64 = (1 << PAGE_SHIFT) - 1;

type Page = [u64; PAGE_WORDS];
type PageMap<V> = HashMap<u64, V, BuildHasherDefault<PageHasher>>;

/// Hashes a page number with one multiply and a fold, where the default
/// SipHash costs more than the load or store it serves. Page numbers are
/// the only keys, snapshots write pages sorted, and nothing else iterates
/// the map, so the hash function is invisible outside this module.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page numbers hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, page: u64) {
        // Fibonacci multiply; the fold brings the well-mixed high half down
        // to the low bits the table indexes with
        let h = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `(page number, word index within the page)` of `addr`'s word.
#[inline]
fn split(addr: u64) -> (u64, usize) {
    (addr >> PAGE_SHIFT, ((addr & OFFSET_MASK) >> 3) as usize)
}

/// The pages `n` consecutive words from `base` fall on, as `(page, first
/// word, end word)`.
fn page_runs(base: u64, n: usize) -> impl Iterator<Item = (u64, usize, usize)> {
    let (mut addr, mut left) = (base & !7, n);
    std::iter::from_fn(move || {
        (left > 0).then(|| {
            let (page, lo) = split(addr);
            let hi = (lo + left).min(PAGE_WORDS);
            left -= hi - lo;
            addr = addr.wrapping_add(8 * (hi - lo) as u64);
            (page, lo, hi)
        })
    })
}

/// One resident page of a [`SparseMemory`].
#[derive(Debug, Clone)]
enum Frame {
    /// Still the program image's page, shared by every state built from it.
    Shared(Arc<Page>),
    /// Written or created since construction: this memory's own page. A
    /// `Box`, so a store to it pays no atomic reference-count check.
    Owned(Box<Page>),
}

impl Frame {
    #[inline]
    fn words(&self) -> &Page {
        match self {
            Frame::Shared(p) => p,
            Frame::Owned(p) => p,
        }
    }
}

/// A sparse 64-bit address space storing 8-byte words, allocated lazily in
/// 4 KiB pages.
///
/// Accesses are aligned down to an 8-byte boundary; uninitialized memory
/// reads as zero. This models data values only — timing is the concern of
/// the cache hierarchy in `bfetch-mem`.
///
/// A memory built for a [`Program`](crate::Program) (by
/// [`ArchState::new`](crate::ArchState::new)) starts out sharing the
/// program's image pages. The first store to one copies that page, and the
/// memory owns the copy from then on; the image and every other state
/// built from it are unaffected. A checkpoint saves only the owned pages
/// (its [`SnapState`] impl).
///
/// # Example
///
/// ```
/// use bfetch_isa::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.store(0x1000, 42);
/// assert_eq!(m.load(0x1000), 42);
/// assert_eq!(m.load(0x1004), 42); // same word, aligned down
/// assert_eq!(m.load(0xdead_beef), 0); // untouched memory is zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: PageMap<Frame>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        let (page, word) = split(addr);
        self.pages.get(&page).map_or(0, |f| f.words()[word])
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) {
        let (page, word) = split(addr);
        let frame = self
            .pages
            .entry(page)
            .or_insert_with(|| Frame::Owned(Box::new([0; PAGE_WORDS])));
        if let Frame::Shared(image) = frame {
            *frame = Frame::Owned(Box::new(**image));
        }
        let Frame::Owned(p) = frame else {
            unreachable!("a shared page was copied above")
        };
        p[word] = value;
    }

    /// Number of resident pages, shared or owned.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The pages this memory owns — every page written or created since it
    /// was built — in increasing page-number order.
    pub fn owned_pages(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, f)| matches!(f, Frame::Owned(_)))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Saved as a delta against the image the memory was built from: the
/// count of [`SparseMemory::owned_pages`], then each page number and its
/// 512 words, in increasing page order. Load it into a memory freshly
/// built from the same image; each saved page replaces the shared one.
impl SnapState for SparseMemory {
    fn save_state(&self, w: &mut Encoder) {
        let keys = self.owned_pages();
        w.put_usize(keys.len());
        for k in keys {
            w.put_u64(k);
            self.pages[&k].words().save(w);
        }
    }

    fn load_state(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        debug_assert!(
            self.pages.values().all(|f| matches!(f, Frame::Shared(_))),
            "a delta loads onto a memory fresh from its image"
        );
        let n = r.take_len()?;
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let k = r.take_u64()?;
            if prev.is_some_and(|p| p >= k) {
                return Err(SnapshotError::Invalid {
                    what: "memory pages not strictly sorted",
                });
            }
            prev = Some(k);
            self.pages.insert(k, Frame::Owned(Snap::load(r)?));
        }
        Ok(())
    }
}

/// A program's initial data: the extent of each segment, in the order they
/// were given, over one set of pages that every state built from the
/// program shares.
#[derive(Debug, Default)]
pub(crate) struct Image {
    /// `(base address, word count)` per segment.
    segments: Vec<(u64, usize)>,
    pages: PageMap<Arc<Page>>,
}

impl Image {
    /// Appends a segment: `words` land consecutively from `base` (aligned
    /// down), written straight into the pages, one page at a time.
    pub(crate) fn push(&mut self, base: u64, words: impl IntoIterator<Item = u64>) {
        let mut words = words.into_iter().peekable();
        let (mut addr, mut n) = (base & !7, 0);
        while words.peek().is_some() {
            let (page, lo) = split(addr);
            let page = self
                .pages
                .entry(page)
                .or_insert_with(|| Arc::new([0; PAGE_WORDS]));
            let page = Arc::get_mut(page).expect("an image is not shared while it is built");
            let before = n;
            for (slot, w) in page[lo..].iter_mut().zip(&mut words) {
                *slot = w;
                n += 1;
            }
            addr = addr.wrapping_add(8 * (n - before) as u64);
        }
        self.segments.push((base, n));
    }

    /// `(base address, word count)` of every segment, in the order pushed.
    pub(crate) fn segments(&self) -> &[(u64, usize)] {
        &self.segments
    }

    /// The `n` words of the segment at `base`, read back from the pages.
    pub(crate) fn words(&self, base: u64, n: usize) -> impl Iterator<Item = u64> + '_ {
        page_runs(base, n).flat_map(move |(page, lo, hi)| self.pages[&page][lo..hi].iter().copied())
    }

    /// A memory that shares every page of this image.
    pub(crate) fn state(&self) -> SparseMemory {
        SparseMemory {
            pages: self
                .pages
                .iter()
                .map(|(&k, p)| (k, Frame::Shared(Arc::clone(p))))
                .collect(),
        }
    }

    /// Why these segments cannot be one image, if they cannot: two share a
    /// word, or one runs past the top of the address space.
    pub(crate) fn conflict(&self) -> Option<String> {
        first_conflict(&self.segments).map(|(i, j)| {
            let (a, b) = (self.segments[i].0, self.segments[j].0);
            if i == j {
                format!("data segment at {a:#x} runs past the end of the address space")
            } else {
                format!("data segments at {a:#x} and {b:#x} overlap")
            }
        })
    }
}

/// The segment encoding of `Vec<(u64, Vec<u64>)>` — count, then each
/// segment's base, word count and words — written from the pages in place.
impl Snap for Image {
    fn save(&self, w: &mut Encoder) {
        w.put_usize(self.segments.len());
        for &(base, n) in &self.segments {
            w.put_u64(base);
            w.put_usize(n);
            for x in self.words(base, n) {
                w.put_u64(x);
            }
        }
    }

    fn load(r: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let mut image = Image::default();
        for _ in 0..r.take_len()? {
            let base = r.take_u64()?;
            let n = r.take_len()?;
            let bytes = r.take_bytes(n.saturating_mul(8))?;
            image.push(
                base,
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
            );
        }
        Ok(image)
    }
}

/// Indices of two segments, given as `(base, word count)`, that share a
/// word — or one index twice, for a segment that runs past the top of the
/// address space. `None` when the segments can form one image.
pub(crate) fn first_conflict(segments: &[(u64, usize)]) -> Option<(usize, usize)> {
    // word-aligned byte extents, widened so a wrapping end is visible
    let mut spans: Vec<(u128, u128, usize)> = segments
        .iter()
        .enumerate()
        .filter(|(_, &(_, n))| n > 0)
        .map(|(i, &(base, n))| {
            let lo = u128::from(base & !7);
            (lo, lo + 8 * n as u128, i)
        })
        .collect();
    if let Some(&(_, _, i)) = spans.iter().find(|&&(_, hi, _)| hi > 1 << 64) {
        return Some((i, i));
    }
    // sorted by start, any overlap shows between neighbours
    spans.sort_unstable();
    spans
        .windows(2)
        .find(|s| s[1].0 < s[0].1)
        .map(|s| (s[0].2.min(s[1].2), s[0].2.max(s[1].2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let m = SparseMemory::new();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(u64::MAX - 7), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = SparseMemory::new();
        m.store(0x8000, 0xdead_beef);
        assert_eq!(m.load(0x8000), 0xdead_beef);
    }

    #[test]
    fn unaligned_access_aligns_down() {
        let mut m = SparseMemory::new();
        m.store(0x1003, 7); // aligned to 0x1000
        assert_eq!(m.load(0x1000), 7);
        assert_eq!(m.load(0x1007), 7);
        assert_eq!(m.load(0x1008), 0);
    }

    #[test]
    fn adjacent_words_independent() {
        let mut m = SparseMemory::new();
        m.store(0x0, 1);
        m.store(0x8, 2);
        assert_eq!(m.load(0x0), 1);
        assert_eq!(m.load(0x8), 2);
    }

    #[test]
    fn page_boundary() {
        let mut m = SparseMemory::new();
        m.store(0xff8, 11);
        m.store(0x1000, 22);
        assert_eq!(m.load(0xff8), 11);
        assert_eq!(m.load(0x1000), 22);
        assert_eq!(m.resident_pages(), 2);
    }

    /// An image with a segment spanning three pages, starting mid-page.
    fn image() -> Image {
        let mut img = Image::default();
        img.push(0x1ff0, 0..600);
        img
    }

    #[test]
    fn image_segments_read_back_across_pages() {
        let img = image();
        assert_eq!(img.segments(), &[(0x1ff0, 600)]);
        assert!(img.words(0x1ff0, 600).eq(0..600));
        let m = img.state();
        assert_eq!(m.resident_pages(), 3);
        assert_eq!(
            (m.load(0x1ff0), m.load(0x2000), m.load(0x1ff0 + 599 * 8)),
            (0, 2, 599)
        );
        assert!(m.owned_pages().is_empty());
    }

    #[test]
    fn a_store_copies_one_page_and_leaves_the_image_alone() {
        let img = image();
        let (mut a, b) = (img.state(), img.state());
        a.store(0x2008, 77);
        a.store(0x9000, 5); // a page the image never had
        assert_eq!(a.owned_pages(), vec![0x2, 0x9]);
        assert_eq!(
            (a.load(0x2008), a.load(0x2010)),
            (77, 4),
            "rest of the page copied"
        );
        assert_eq!(b.load(0x2008), 3);
        assert_eq!(img.state().load(0x2008), 3);
        assert!(img.words(0x1ff0, 600).eq(0..600));
    }

    #[test]
    fn delta_round_trips_onto_a_fresh_state() {
        let img = image();
        let mut a = img.state();
        a.store(0x2ff8, 9);
        a.store(0x40_0000, 1);
        let mut w = Encoder::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            bytes.len(),
            8 + 2 * (8 + 8 * PAGE_WORDS),
            "owned pages only"
        );

        let mut b = img.state();
        let mut r = Decoder::new(&bytes);
        b.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.owned_pages(), a.owned_pages());
        for addr in (0x1000..0x4000).step_by(8).chain([0x40_0000]) {
            assert_eq!(a.load(addr), b.load(addr), "{addr:#x}");
        }
    }

    #[test]
    fn unsorted_or_duplicate_delta_pages_are_invalid() {
        for keys in [[7u64, 3], [3, 3]] {
            let mut w = Encoder::new();
            w.put_usize(2);
            for k in keys {
                w.put_u64(k);
                [0u64; PAGE_WORDS].save(&mut w);
            }
            let bytes = w.into_bytes();
            assert_eq!(
                image().state().load_state(&mut Decoder::new(&bytes)),
                Err(SnapshotError::Invalid {
                    what: "memory pages not strictly sorted"
                }),
                "{keys:?}"
            );
        }
    }

    #[test]
    fn conflicts_are_shared_words_or_a_wrapping_end() {
        // neighbours on one page, an empty segment anywhere, an unaligned
        // base that stops short of the next word: one image
        assert_eq!(
            first_conflict(&[(0x1000, 2), (0x1010, 1), (0x1008, 0), (0x1019, 1)]),
            None
        );
        // an unaligned base covers the word it aligns down to
        assert_eq!(
            first_conflict(&[(0x1000, 1), (0x9000, 4), (0x1007, 1)]),
            Some((0, 2))
        );
        assert_eq!(
            first_conflict(&[(0x2000, 1), (0x1000, 0x201)]),
            Some((0, 1))
        );
        assert_eq!(first_conflict(&[(0, 1), (u64::MAX - 7, 2)]), Some((1, 1)));
        assert_eq!(first_conflict(&[(u64::MAX - 7, 1)]), None);
    }
}
