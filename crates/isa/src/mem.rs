//! Sparse, word-granularity data memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Words per page (4 KiB pages of 8-byte words).
const PAGE_WORDS: usize = 512;
const PAGE_SHIFT: u64 = 12;
const OFFSET_MASK: u64 = (1 << PAGE_SHIFT) - 1;

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

/// A sparse 64-bit address space storing 8-byte words, allocated lazily in
/// 4 KiB pages.
///
/// Accesses are aligned down to an 8-byte boundary; uninitialized memory
/// reads as zero. This models data values only — timing is the concern of
/// the cache hierarchy in `bfetch-mem`.
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
    pages: HashMap<u64, Box<[u64; PAGE_WORDS]>, BuildHasherDefault<PageHasher>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        let page = addr >> PAGE_SHIFT;
        let word = ((addr & OFFSET_MASK) >> 3) as usize;
        (page, word)
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        let (page, word) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[word])
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) {
        let (page, word) = Self::split(addr);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u64; PAGE_WORDS]))[word] = value;
    }

    /// Writes `words` consecutively starting at `base` (8 bytes apart).
    pub fn store_words(&mut self, base: u64, words: &[u64]) {
        for (i, w) in words.iter().enumerate() {
            self.store(base + (i as u64) * 8, *w);
        }
    }

    /// Number of resident (lazily allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

impl bfetch_snapshot::Snap for SparseMemory {
    /// Pages are written sorted by page number, so the encoding is
    /// canonical regardless of `HashMap` iteration order.
    fn save(&self, w: &mut bfetch_snapshot::Encoder) {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        w.put_usize(keys.len());
        for k in keys {
            w.put_u64(k);
            self.pages[&k].save(w);
        }
    }

    fn load(r: &mut bfetch_snapshot::Decoder<'_>) -> Result<Self, bfetch_snapshot::SnapshotError> {
        let n = r.take_len()?;
        let mut pages = HashMap::with_capacity_and_hasher(n, Default::default());
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let k = r.take_u64()?;
            if prev.is_some_and(|p| p >= k) {
                return Err(bfetch_snapshot::SnapshotError::Invalid {
                    what: "memory pages not strictly sorted",
                });
            }
            prev = Some(k);
            let page: Box<[u64; PAGE_WORDS]> = bfetch_snapshot::Snap::load(r)?;
            pages.insert(k, page);
        }
        Ok(Self { pages })
    }
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

    #[test]
    fn store_words_bulk() {
        let mut m = SparseMemory::new();
        m.store_words(0x2000, &[5, 6, 7]);
        assert_eq!(m.load(0x2000), 5);
        assert_eq!(m.load(0x2008), 6);
        assert_eq!(m.load(0x2010), 7);
    }
}
