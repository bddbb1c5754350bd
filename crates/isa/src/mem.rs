//! Sparse, word-granularity data memory over a program's initial image,
//! which it generates a page at a time where a load or store first
//! touches it.

use bfetch_snapshot::{Decoder, Encoder, Snap, SnapState, SnapshotError, Source};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::RefUnwindSafe;
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

/// Where a resident page of a [`SparseMemory`] lives.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the page's words in the memory's `frames`.
    at: u32,
    /// Stored to since the page became resident: the page differs from
    /// the image, so a checkpoint carries it.
    written: bool,
}

/// A sparse 64-bit address space storing 8-byte words, allocated lazily in
/// 4 KiB pages.
///
/// Accesses are aligned down to an 8-byte boundary; memory outside the
/// image reads as zero. This models data values only — timing is the
/// concern of the cache hierarchy in `bfetch-mem`.
///
/// A memory built for a [`Program`](crate::Program) (by
/// [`ArchState::new`](crate::ArchState::new)) holds a handle on the
/// program's image and no pages. The first [`SparseMemory::load_touch`]
/// or [`SparseMemory::store`] on a page the image covers generates that
/// page from the image; a page outside it becomes resident, zeroed, on its
/// first store. The image itself is never written, so every state built
/// from the program starts from the same words. A checkpoint saves only
/// the written pages (its [`SnapState`] impl).
///
/// Resident pages sit side by side in one growable array, which starts
/// with room for every page of the image: the room is reserved, not
/// written, so the host commits a page's memory only when it is
/// generated, and a first touch of an image page never calls the
/// allocator.
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
    pages: PageMap<Slot>,
    frames: Vec<Page>,
    image: Arc<Image>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memory over `image`, with no page resident yet and room for all
    /// of the image's.
    pub(crate) fn over(image: Arc<Image>) -> Self {
        let n = image.page_count();
        Self {
            pages: PageMap::with_capacity_and_hasher(n, Default::default()),
            frames: Vec::with_capacity(n),
            image,
        }
    }

    /// Reads the 8-byte word containing `addr`. A read-only view: a word
    /// on a page not yet resident is read from the image, and no page
    /// becomes resident.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        let (page, word) = split(addr);
        match self.pages.get(&page) {
            Some(s) => self.frames[s.at as usize][word],
            None => self.image.word(addr),
        }
    }

    /// [`SparseMemory::load`] as the executing program's loads do it: a
    /// page of the image becomes resident on its first touch, so later
    /// loads from it cost one lookup. A word outside the image reads zero
    /// and allocates nothing.
    #[inline]
    pub fn load_touch(&mut self, addr: u64) -> u64 {
        let (page, word) = split(addr);
        match self.pages.get(&page) {
            Some(s) => self.frames[s.at as usize][word],
            None => self.page_in(page).map_or(0, |at| self.frames[at][word]),
        }
    }

    /// Makes `page` resident from the image, if the image covers it;
    /// returns its index in `frames`.
    #[cold]
    #[inline(never)]
    fn page_in(&mut self, page: u64) -> Option<usize> {
        let covered = self.image.runs(page).next().is_some();
        covered.then(|| self.insert(page, false))
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) {
        let (page, word) = split(addr);
        let at = match self.pages.get_mut(&page) {
            Some(s) => {
                s.written = true;
                s.at as usize
            }
            None => self.insert(page, true),
        };
        self.frames[at][word] = value;
    }

    /// Makes `page` resident as the image holds it and returns its index
    /// in `frames`.
    fn insert(&mut self, page: u64, written: bool) -> usize {
        let at = self.frames.len();
        self.frames.push([0; PAGE_WORDS]);
        self.image.fill_page(page, &mut self.frames[at]);
        let at32 = u32::try_from(at).expect("fewer than 2^32 resident pages");
        self.pages.insert(page, Slot { at: at32, written });
        at
    }

    /// Number of resident pages, written or not.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// The pages stored to since this memory was built, in increasing
    /// page-number order: what it holds beyond its image.
    pub fn written_pages(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .pages
            .iter()
            .filter(|(_, s)| s.written)
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

/// Saved as a delta against the image the memory was built from: the
/// count of [`SparseMemory::written_pages`], then each page number and its
/// 512 words, in increasing page order. Load it into a memory freshly
/// built from the same image.
impl SnapState for SparseMemory {
    fn save_state(&self, w: &mut Encoder) {
        let keys = self.written_pages();
        w.put_usize(keys.len());
        for k in keys {
            w.put_u64(k);
            self.frames[self.pages[&k].at as usize].save(w);
        }
    }

    fn load_state(&mut self, r: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        debug_assert!(
            self.pages.values().all(|s| !s.written),
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
            let at = self.insert(k, true);
            self.frames[at] = Snap::load(r)?;
        }
        Ok(())
    }
}

/// Writes the words `first..first + out.len()` of a segment into `out`.
/// Shared by every thread that runs the program, and by the harness's
/// `catch_unwind`.
pub(crate) type Fill = dyn Fn(usize, &mut [u64]) + Send + Sync + RefUnwindSafe;

/// A [`Fill`] over words held in memory.
pub(crate) fn copying(words: Vec<u64>) -> Box<Fill> {
    let words: Box<[u64]> = words.into();
    Box::new(move |first, out: &mut [u64]| {
        out.copy_from_slice(&words[first..first + out.len()]);
    })
}

/// One data segment: `len` words from `base` (aligned down), produced on
/// demand by `fill`.
struct Segment {
    base: u64,
    len: usize,
    fill: Box<Fill>,
}

impl Segment {
    /// First and one-past-last byte, widened so a segment that ends at the
    /// top of the address space has an end.
    fn extent(&self) -> (u128, u128) {
        let lo = u128::from(self.base & !7);
        (lo, lo + 8 * self.len as u128)
    }
}

/// A program's initial data: segments in the order they were given, each
/// a word count and the fill that produces its words.
#[derive(Default)]
pub(crate) struct Image {
    segments: Vec<Segment>,
    /// Indices of the non-empty segments, in address order.
    by_addr: Vec<usize>,
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let extents: Vec<(u64, usize)> = self.segments().collect();
        f.debug_struct("Image")
            .field("segments", &extents)
            .finish_non_exhaustive()
    }
}

impl Image {
    /// Appends a segment of `len` words at `base` (aligned down), which
    /// `fill` produces.
    pub(crate) fn push(&mut self, base: u64, len: usize, fill: Box<Fill>) {
        let seg = Segment { base, len, fill };
        if len > 0 {
            let at = self
                .by_addr
                .partition_point(|&i| self.segments[i].extent() < seg.extent());
            self.by_addr.insert(at, self.segments.len());
        }
        self.segments.push(seg);
    }

    /// `(base address, word count)` of every segment, in the order pushed.
    pub(crate) fn segments(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.segments.iter().map(|s| (s.base, s.len))
    }

    /// Every segment's base and words, each produced in one fill, in the
    /// order pushed.
    pub(crate) fn data(&self) -> Vec<(u64, Vec<u64>)> {
        self.segments
            .iter()
            .map(|s| {
                let mut words = vec![0; s.len];
                (s.fill)(0, &mut words);
                (s.base, words)
            })
            .collect()
    }

    /// The runs of segment words that fall on `page`, in address order, as
    /// `(segment, its first word there, page slot of that word, count)`.
    /// Assumes no two segments overlap, which a [`Program`](crate::Program)
    /// checks before any memory is built over its image.
    fn runs(&self, page: u64) -> impl Iterator<Item = (&Segment, usize, usize, usize)> {
        let start = u128::from(page) << PAGE_SHIFT;
        let end = start + (1 << PAGE_SHIFT);
        let from = self
            .by_addr
            .partition_point(|&i| self.segments[i].extent().1 <= start);
        self.by_addr[from..]
            .iter()
            .map(|&i| &self.segments[i])
            .take_while(move |s| s.extent().0 < end)
            .map(move |s| {
                let lo = s.extent().0;
                let (first, slot) = if lo >= start {
                    (0, ((lo - start) / 8) as usize)
                } else {
                    (((start - lo) / 8) as usize, 0)
                };
                (s, first, slot, (s.len - first).min(PAGE_WORDS - slot))
            })
    }

    /// Writes the segment words on `page` into `out`, a zeroed page.
    fn fill_page(&self, page: u64, out: &mut Page) {
        for (s, first, slot, n) in self.runs(page) {
            (s.fill)(first, &mut out[slot..slot + n]);
        }
    }

    /// How many pages the segments' words fall on.
    fn page_count(&self) -> usize {
        let mut last = None; // the previous segment's last page
        let mut n = 0;
        for s in self.by_addr.iter().map(|&i| &self.segments[i]) {
            let (lo, hi) = s.extent();
            let (first, end) = (
                (lo >> PAGE_SHIFT) as u64,
                (((hi - 1) >> PAGE_SHIFT) + 1) as u64,
            );
            n += end - first - u64::from(last == Some(first));
            last = Some(end - 1);
        }
        n as usize
    }

    /// The image's word at `addr`, zero outside every segment.
    fn word(&self, addr: u64) -> u64 {
        let (page, word) = split(addr);
        let mut out = [0];
        if let Some((s, first, slot, _)) = self
            .runs(page)
            .find(|&(_, _, slot, n)| (slot..slot + n).contains(&word))
        {
            (s.fill)(first + word - slot, &mut out);
        }
        out[0]
    }

    /// Why these segments cannot be one image, if they cannot: two share a
    /// word, or one runs past the top of the address space.
    pub(crate) fn conflict(&self) -> Option<String> {
        let extents: Vec<(u64, usize)> = self.segments().collect();
        first_conflict(&extents).map(|(i, j)| {
            let (a, b) = (extents[i].0, extents[j].0);
            if i == j {
                format!("data segment at {a:#x} runs past the end of the address space")
            } else {
                format!("data segments at {a:#x} and {b:#x} overlap")
            }
        })
    }
}

/// The segment encoding of `Vec<(u64, Vec<u64>)>` — count, then each
/// segment's base, word count and words — written from the fills and read
/// back into copying fills, a page of words at a time either way.
impl Image {
    /// Appends the encoding to `w` and hands `w`'s bytes to `sink` (then
    /// clears it) after every page of words.
    pub(crate) fn save_to<E>(
        &self,
        w: &mut Encoder,
        sink: &mut impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut buf = [0; PAGE_WORDS];
        w.put_usize(self.segments.len());
        for s in &self.segments {
            w.put_u64(s.base);
            w.put_usize(s.len);
            for first in (0..s.len).step_by(PAGE_WORDS) {
                let out = &mut buf[..PAGE_WORDS.min(s.len - first)];
                (s.fill)(first, out);
                for &x in &*out {
                    w.put_u64(x);
                }
                sink(w.as_bytes())?;
                w.clear();
            }
        }
        sink(w.as_bytes())?;
        w.clear();
        Ok(())
    }

    /// Reads what [`Image::save_to`] wrote.
    pub(crate) fn read(s: &mut impl Source) -> Result<Self, SnapshotError> {
        let mut image = Image::default();
        for _ in 0..s.take_count(16)? {
            let base = s.decode(8, |r| r.take_u64())?;
            let n = s.take_count(8)?;
            let mut words = Vec::with_capacity(n);
            while words.len() < n {
                let k = (n - words.len()).min(PAGE_WORDS);
                s.decode(8 * k, |r| {
                    let bytes = r.take_bytes(8 * k)?.chunks_exact(8);
                    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("eight bytes"));
                    words.extend(bytes.map(word));
                    Ok(())
                })?;
            }
            image.push(base, n, copying(words));
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

    /// An image with a segment of words `0..600` spanning three pages,
    /// starting mid-page.
    fn image() -> Arc<Image> {
        let mut img = Image::default();
        img.push(0x1ff0, 600, copying((0..600).collect()));
        Arc::new(img)
    }

    #[test]
    fn pages_become_resident_where_loads_and_stores_touch() {
        let img = image();
        assert_eq!(img.segments().collect::<Vec<_>>(), [(0x1ff0, 600)]);
        assert_eq!(img.data(), [(0x1ff0, (0..600).collect())]);
        let mut m = SparseMemory::over(Arc::clone(&img));
        assert_eq!(
            (m.load(0x1ff0), m.load(0x2000), m.load(0x1ff0 + 599 * 8)),
            (0, 2, 599)
        );
        assert_eq!(m.resident_pages(), 0, "a read-only load pages nothing in");
        assert_eq!(m.load_touch(0x2008), 3);
        assert_eq!(m.load_touch(0x1_0000), 0, "outside the image");
        assert_eq!(m.resident_pages(), 1);
        m.store(0x9000, 5); // a page the image never had
        assert_eq!((m.resident_pages(), m.written_pages()), (2, vec![0x9]));
    }

    #[test]
    fn a_store_is_private_to_its_memory() {
        let img = image();
        let (mut a, b) = (
            SparseMemory::over(Arc::clone(&img)),
            SparseMemory::over(Arc::clone(&img)),
        );
        a.store(0x2008, 77);
        assert_eq!(a.written_pages(), vec![0x2]);
        assert_eq!(
            (a.load(0x2008), a.load(0x2010), a.load(0x1ff8)),
            (77, 4, 1),
            "rest of the page generated"
        );
        assert_eq!(b.load(0x2008), 3);
        assert_eq!(img.data(), [(0x1ff0, (0..600).collect())]);
    }

    #[test]
    fn two_segments_and_a_gap_share_one_page() {
        let mut img = Image::default();
        img.push(0x3010, 2, copying(vec![7, 8]));
        img.push(0x2ff8, 2, copying(vec![5, 6]));
        img.push(0x3100, 0, copying(vec![]));
        let mut m = SparseMemory::over(Arc::new(img));
        assert_eq!(m.load_touch(0x3018), 8);
        let page: Vec<u64> = (0x3000..0x3020).step_by(8).map(|a| m.load(a)).collect();
        assert_eq!(page, [6, 0, 7, 8]);
        assert_eq!(m.load_touch(0x2ff8), 5);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn a_memory_reserves_one_frame_per_image_page() {
        let mut img = Image::default();
        img.push(0x1ff8, 2, copying(vec![1, 2])); // pages 1 and 2
        img.push(0x2010, 1, copying(vec![3])); // page 2 again
        img.push(0x5000, 512, copying(vec![4; 512])); // page 5, exactly
        img.push(0x9000, 0, copying(vec![])); // no page
        assert_eq!(img.page_count(), 3);
        assert_eq!(Image::default().page_count(), 0);
        let mut m = SparseMemory::over(Arc::new(img));
        assert_eq!(m.frames.capacity(), 3);
        for addr in [0x1ff8, 0x2000, 0x2010, 0x5ff8] {
            m.load_touch(addr);
        }
        m.store(0x2018, 7);
        assert_eq!((m.resident_pages(), m.frames.capacity()), (3, 3));
        assert_eq!((m.load(0x2010), m.load(0x2018)), (3, 7));
        m.store(0x7000, 1); // past the room reserved: the frames grow
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn delta_round_trips_onto_a_fresh_state() {
        let img = image();
        let mut a = SparseMemory::over(Arc::clone(&img));
        a.load_touch(0x1ff0); // resident, never written: not saved
        a.store(0x2ff8, 9);
        a.store(0x40_0000, 1);
        let mut w = Encoder::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            bytes.len(),
            8 + 2 * (8 + 8 * PAGE_WORDS),
            "written pages only"
        );

        let mut b = SparseMemory::over(img);
        let mut r = Decoder::new(&bytes);
        b.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(b.written_pages(), a.written_pages());
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
                SparseMemory::over(image()).load_state(&mut Decoder::new(&bytes)),
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
