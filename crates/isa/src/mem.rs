//! Sparse, word-granularity data memory over a program's initial image,
//! which it generates a 64-byte line at a time where a load or store first
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
/// Words per line (64-byte lines), and lines per page.
const LINE_WORDS: usize = 8;
const LINE_SHIFT: u64 = 6;
const PAGE_LINES: usize = PAGE_WORDS / LINE_WORDS;
/// A page table's entry for a line that is not resident.
const ABSENT: u32 = u32::MAX;

type Page = [u64; PAGE_WORDS];
type Line = [u64; LINE_WORDS];
/// Where each line of a page sits in a memory's `lines`, or [`ABSENT`].
type Table = [u32; PAGE_LINES];
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

/// `(page number, line within the page, word within the line)` of
/// `addr`'s word.
#[inline]
fn split(addr: u64) -> (u64, usize, usize) {
    let line = (addr >> LINE_SHIFT) as usize % PAGE_LINES;
    (addr >> PAGE_SHIFT, line, (addr >> 3) as usize % LINE_WORDS)
}

/// A page of a [`SparseMemory`] with at least one resident line.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the page's [`Table`] in the memory's `tables`.
    table: u32,
    /// Stored to since its first line became resident: the page differs
    /// from the image, so a checkpoint carries it.
    written: bool,
}

/// A sparse 64-bit address space storing 8-byte words, held in the
/// 64-byte lines a run has touched.
///
/// Accesses are aligned down to an 8-byte boundary; memory outside the
/// image reads as zero. This models data values only — timing is the
/// concern of the cache hierarchy in `bfetch-mem`.
///
/// A memory built for a [`Program`](crate::Program) (by
/// [`ArchState::new`](crate::ArchState::new)) holds a handle on the
/// program's image and no lines. The first [`SparseMemory::load_touch`]
/// or [`SparseMemory::store`] on a line that holds a word of the image
/// generates that line from the image; any other line becomes resident,
/// zeroed, on its first store. The image itself is never written, so every
/// state built from the program starts from the same words. A checkpoint
/// saves only the written pages, whole (its [`SnapState`] impl).
///
/// Resident lines sit side by side in one growable array, and each page
/// with a resident line has a table of where its 64 lines sit. Both
/// arrays start with room for every line and page of the image: the room
/// is reserved, not written, so the host commits memory only for the
/// lines generated, and a first touch of an image line never calls the
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
    tables: Vec<Table>,
    lines: Vec<Line>,
    image: Arc<Image>,
    /// The words of image page `scratch_page`, generated whole so that
    /// the lines a run touches on one page cost one fill between them,
    /// not one each. Empty in a memory without an image.
    scratch: Vec<u64>,
    scratch_page: Option<u64>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// A memory over `image`, with no line resident yet and room for all
    /// of the image's lines and pages.
    pub(crate) fn over(image: Arc<Image>) -> Self {
        let pages = image.block_count(PAGE_SHIFT);
        Self {
            pages: PageMap::with_capacity_and_hasher(pages, Default::default()),
            tables: Vec::with_capacity(pages),
            lines: Vec::with_capacity(image.block_count(LINE_SHIFT)),
            scratch: vec![0; PAGE_WORDS],
            scratch_page: None,
            image,
        }
    }

    /// Index in `lines` of the line holding `addr`, if it is resident.
    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let (page, line, _) = split(addr);
        let at = self.tables[self.pages.get(&page)?.table as usize][line];
        (at != ABSENT).then_some(at as usize)
    }

    /// Reads the 8-byte word containing `addr`. A read-only view: a word
    /// on a line not yet resident is read from the image, and no line
    /// becomes resident.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        match self.find(addr) {
            Some(at) => self.lines[at][split(addr).2],
            None => self.image.word(addr),
        }
    }

    /// [`SparseMemory::load`] as the executing program's loads do it: a
    /// line of the image becomes resident on its first touch, so later
    /// loads from it cost one lookup. A line that holds no word of the
    /// image reads zero and allocates nothing.
    #[inline]
    pub fn load_touch(&mut self, addr: u64) -> u64 {
        let word = split(addr).2;
        match self.find(addr) {
            Some(at) => self.lines[at][word],
            None => self.touch(addr).map_or(0, |at| self.lines[at][word]),
        }
    }

    /// Makes `addr`'s line resident from the image, if it holds a word of
    /// the image; returns its index in `lines`.
    #[cold]
    #[inline(never)]
    fn touch(&mut self, addr: u64) -> Option<usize> {
        let words = self.generate(addr)?;
        Some(self.insert(addr, words, false))
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) {
        let (page, line, word) = split(addr);
        let at = match self.pages.get_mut(&page) {
            Some(s) if self.tables[s.table as usize][line] != ABSENT => {
                s.written = true;
                self.tables[s.table as usize][line] as usize
            }
            _ => {
                let words = self.generate(addr).unwrap_or_default();
                self.insert(addr, words, true)
            }
        };
        self.lines[at][word] = value;
    }

    /// The image's words on `addr`'s line, if the line holds any. Fills
    /// the scratch page first when it holds another page.
    fn generate(&mut self, addr: u64) -> Option<Line> {
        if !self.image.holds_line(addr >> LINE_SHIFT) {
            return None;
        }
        let (page, line, _) = split(addr);
        if self.scratch_page != Some(page) {
            self.scratch.fill(0);
            self.image.fill_page(page, &mut self.scratch);
            self.scratch_page = Some(page);
        }
        let first = line * LINE_WORDS;
        Some(
            self.scratch[first..first + LINE_WORDS]
                .try_into()
                .expect("one line"),
        )
    }

    /// Makes `addr`'s line resident holding `words`, with a table for its
    /// page if it has none; marks the page written if `written`. Returns
    /// the line's index in `lines`.
    fn insert(&mut self, addr: u64, words: Line, written: bool) -> usize {
        let (page, line, _) = split(addr);
        let next = self.tables.len();
        let slot = self.pages.entry(page).or_insert_with(|| Slot {
            table: u32::try_from(next).expect("fewer than 2^32 resident pages"),
            written: false,
        });
        slot.written |= written;
        let t = slot.table as usize;
        if t == next {
            self.tables.push([ABSENT; PAGE_LINES]);
        }
        let at = self.lines.len();
        self.lines.push(words);
        self.tables[t][line] = u32::try_from(at).expect("fewer than 2^32 resident lines");
        at
    }

    /// Number of resident lines, written or not.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of pages with a resident line.
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

    /// Writes resident `page`'s words into `out`: its resident lines, and
    /// the image's words for the rest.
    fn page_words(&self, page: u64, out: &mut Page) {
        out.fill(0);
        self.image.fill_page(page, out);
        let table = &self.tables[self.pages[&page].table as usize];
        for (words, &at) in out.chunks_exact_mut(LINE_WORDS).zip(table) {
            if at != ABSENT {
                words.copy_from_slice(&self.lines[at as usize]);
            }
        }
    }
}

/// Saved as a delta against the image the memory was built from: the
/// count of [`SparseMemory::written_pages`], then each page number and its
/// 512 words, in increasing page order. Load it into a memory freshly
/// built from the same image; every line of a loaded page is resident.
impl SnapState for SparseMemory {
    fn save_state(&self, w: &mut Encoder) {
        let keys = self.written_pages();
        w.put_usize(keys.len());
        let mut words = [0; PAGE_WORDS];
        for k in keys {
            w.put_u64(k);
            self.page_words(k, &mut words);
            words.save(w);
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
            let words: Page = Snap::load(r)?;
            for (i, line) in words.chunks_exact(LINE_WORDS).enumerate() {
                let addr = (k << PAGE_SHIFT) + (i << LINE_SHIFT) as u64;
                self.insert(addr, line.try_into().expect("one line"), true);
            }
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

    /// The segments with a word in the bytes `start..end`, in address
    /// order. Assumes no two segments overlap, which a
    /// [`Program`](crate::Program) checks before any memory is built over
    /// its image.
    fn segments_in(&self, start: u128, end: u128) -> impl Iterator<Item = &Segment> {
        let from = self
            .by_addr
            .partition_point(|&i| self.segments[i].extent().1 <= start);
        self.by_addr[from..]
            .iter()
            .map(|&i| &self.segments[i])
            .take_while(move |s| s.extent().0 < end)
    }

    /// The runs of segment words that fall on `page`, in address order, as
    /// `(segment, its first word there, page slot of that word, count)`.
    fn runs(&self, page: u64) -> impl Iterator<Item = (&Segment, usize, usize, usize)> {
        let start = u128::from(page) << PAGE_SHIFT;
        self.segments_in(start, start + (1 << PAGE_SHIFT))
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

    /// Whether a segment has a word on line number `line` (the address
    /// shifted right by `LINE_SHIFT`).
    fn holds_line(&self, line: u64) -> bool {
        let start = u128::from(line) << LINE_SHIFT;
        self.segments_in(start, start + (1 << LINE_SHIFT))
            .next()
            .is_some()
    }

    /// Writes the segment words on `page` into `out`, a zeroed page.
    fn fill_page(&self, page: u64, out: &mut [u64]) {
        for (s, first, slot, n) in self.runs(page) {
            (s.fill)(first, &mut out[slot..slot + n]);
        }
    }

    /// How many aligned blocks of `1 << shift` bytes (lines or pages) the
    /// segments' words fall on.
    fn block_count(&self, shift: u64) -> usize {
        let mut last = None; // the previous segment's last block
        let mut n = 0;
        for s in self.by_addr.iter().map(|&i| &self.segments[i]) {
            let (lo, hi) = s.extent();
            let (first, end) = ((lo >> shift) as u64, (((hi - 1) >> shift) + 1) as u64);
            n += end - first - u64::from(last == Some(first));
            last = Some(end - 1);
        }
        n as usize
    }

    /// The image's word at `addr`, zero outside every segment.
    fn word(&self, addr: u64) -> u64 {
        let (page, word) = (addr >> PAGE_SHIFT, (addr >> 3) as usize % PAGE_WORDS);
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
        assert_eq!((m.resident_pages(), m.resident_lines()), (2, 2));
    }

    /// An image with a segment of words `0..600` spanning three pages,
    /// starting mid-page.
    fn image() -> Arc<Image> {
        let mut img = Image::default();
        img.push(0x1ff0, 600, copying((0..600).collect()));
        Arc::new(img)
    }

    #[test]
    fn lines_become_resident_where_loads_and_stores_touch() {
        let img = image();
        assert_eq!(img.segments().collect::<Vec<_>>(), [(0x1ff0, 600)]);
        assert_eq!(img.data(), [(0x1ff0, (0..600).collect())]);
        let mut m = SparseMemory::over(Arc::clone(&img));
        assert_eq!(
            (m.load(0x1ff0), m.load(0x2000), m.load(0x1ff0 + 599 * 8)),
            (0, 2, 599)
        );
        assert_eq!(
            m.resident_lines(),
            0,
            "a read-only load makes nothing resident"
        );
        assert_eq!(m.load_touch(0x2008), 3);
        assert_eq!(m.load_touch(0x2038), 9, "same line");
        assert_eq!(m.load_touch(0x2040), 10);
        assert_eq!(m.load_touch(0x1_0000), 0, "outside the image");
        assert_eq!((m.resident_pages(), m.resident_lines()), (1, 2));
        m.store(0x9000, 5); // a page the image never had
        assert_eq!((m.resident_lines(), m.written_pages()), (3, vec![0x9]));
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
            "rest of the line generated, the rest of the image read through"
        );
        assert_eq!(a.resident_lines(), 1);
        assert_eq!(b.load(0x2008), 3);
        assert_eq!(img.data(), [(0x1ff0, (0..600).collect())]);
    }

    #[test]
    fn two_segments_and_a_gap_share_one_page() {
        let mut img = Image::default();
        img.push(0x3010, 2, copying(vec![7, 8]));
        img.push(0x2ff8, 2, copying(vec![5, 6]));
        img.push(0x3100, 0, copying(vec![]));
        img.push(0x3080, 1, copying(vec![9]));
        let mut m = SparseMemory::over(Arc::new(img));
        assert_eq!(m.load_touch(0x3018), 8);
        let line: Vec<u64> = (0x3000..0x3020).step_by(8).map(|a| m.load(a)).collect();
        assert_eq!(line, [6, 0, 7, 8]);
        assert_eq!(m.load_touch(0x3040), 0, "a gap line between segments");
        assert_eq!(m.load_touch(0x3080), 9);
        assert_eq!(m.load_touch(0x2ff8), 5);
        assert_eq!((m.resident_pages(), m.resident_lines()), (2, 3));
        m.store(0x3048, 4); // the gap line, zeroed
        assert_eq!((m.load(0x3040), m.load(0x3048)), (0, 4));
        assert_eq!(m.resident_lines(), 4);
    }

    #[test]
    fn a_memory_reserves_one_table_per_image_page_and_one_line_per_image_line() {
        let mut img = Image::default();
        img.push(0x1ff8, 2, copying(vec![1, 2])); // pages 1 and 2, two lines
        img.push(0x2010, 1, copying(vec![3])); // page 2 and its line again
        img.push(0x5000, 512, copying(vec![4; 512])); // page 5, 64 lines
        img.push(0x9000, 0, copying(vec![])); // nothing
        assert_eq!(img.block_count(PAGE_SHIFT), 3);
        assert_eq!(img.block_count(LINE_SHIFT), 66);
        assert_eq!(Image::default().block_count(LINE_SHIFT), 0);
        let mut m = SparseMemory::over(Arc::new(img));
        assert_eq!((m.tables.capacity(), m.lines.capacity()), (3, 66));
        for addr in (0x5000..0x6000).step_by(64).chain([0x1ff8, 0x2000, 0x2010]) {
            m.load_touch(addr);
        }
        m.store(0x2018, 7);
        assert_eq!((m.resident_pages(), m.resident_lines()), (3, 66));
        assert_eq!((m.tables.capacity(), m.lines.capacity()), (3, 66));
        assert_eq!((m.load(0x2010), m.load(0x2018)), (3, 7));
        m.store(0x7000, 1); // past the room reserved: the arrays grow
        assert_eq!((m.resident_pages(), m.resident_lines()), (4, 67));
    }

    #[test]
    fn one_page_fill_serves_every_line_touched_on_it() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let mut img = Image::default();
        img.push(
            0x4000,
            1024,
            Box::new(move |first, out: &mut [u64]| {
                counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                out.iter_mut().zip(first as u64..).for_each(|(w, i)| *w = i);
            }),
        );
        let mut m = SparseMemory::over(Arc::new(img));
        let fills = || calls.load(std::sync::atomic::Ordering::Relaxed);
        for addr in [0x4000, 0x4ff8, 0x4100] {
            m.load_touch(addr);
        }
        assert_eq!(fills(), 1);
        m.store(0x5008, 0); // the next page
        assert_eq!((m.load(0x5010), fills()), (514, 2));
        m.load_touch(0x4200); // back: the scratch page holds the other one
        assert_eq!((m.load(0x4200), fills()), (64, 3));
    }

    /// A written page, as a checkpoint carries it: written, generated-only
    /// and untouched lines all read as the memory holds them.
    #[test]
    fn delta_round_trips_onto_a_fresh_state() {
        let img = image();
        let mut a = SparseMemory::over(Arc::clone(&img));
        a.load_touch(0x1ff0); // resident, never written: not saved
        a.load_touch(0x2100); // generated only, on a written page
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
        assert_eq!(b.resident_lines(), 2 * PAGE_LINES, "whole pages resident");
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
