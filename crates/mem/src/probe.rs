//! Lane-parallel lookup over the flat tag arrays.
//!
//! The set-associative cache (`cache.rs`) and the MSHR files (`mshr.rs`)
//! both resolve every probe by scanning a short contiguous array of 64-bit
//! keys for the *first* match — and that index is observable: the cache
//! feeds it into the LRU promote, so the two paths here must return exactly
//! what the scalar reference returns, not merely "a" matching lane.
//!
//! Two implementations share one contract:
//!
//! * [`find_way_scalar`] / [`find_line_scalar`] — the reference: a plain
//!   first-match scan. Kept solely as the semantic definition the property
//!   tests compare against.
//! * [`find_way`] / [`find_line`] — what the simulator runs: fixed-width
//!   8-lane chunks that accumulate a per-chunk match bitmask with no early
//!   exit inside the chunk, which the compiler auto-vectorizes;
//!   `trailing_zeros` recovers the first-match index. A scalar remainder
//!   loop covers associativities that are not a multiple of the lane
//!   width.
//!
//! Both compare `(tag == key) & (rank != INVALID)` per lane, so
//! equivalence needs no invariant about stale tags in invalidated ways —
//! the lane predicate *is* the scalar predicate.

/// The rank sentinel marking an invalid way (mirrors `cache::INVALID`,
/// re-declared here so the module has no cyclic dependency on `cache`).
pub const INVALID_RANK: u8 = u8::MAX;

/// Lanes per chunk: 64 bytes of tags (one cache line) and 8 rank bytes
/// (one register) per iteration.
const LANES: usize = 8;

/// Scalar reference: index of the first way with `ranks[i] != INVALID_RANK`
/// and `tags[i] == key`. The semantic definition of a probe; [`find_way`]
/// must agree with it exactly.
#[inline]
pub fn find_way_scalar(tags: &[u64], ranks: &[u8], key: u64) -> Option<usize> {
    debug_assert_eq!(tags.len(), ranks.len());
    (0..tags.len()).find(|&i| ranks[i] != INVALID_RANK && tags[i] == key)
}

/// The probe: a chunked compare, 8 lanes per iteration, branch-free inside
/// the chunk so the loop auto-vectorizes, with a scalar tail for odd
/// associativities (the test suite uses 3-way sets). Always first-match.
#[inline]
pub fn find_way(tags: &[u64], ranks: &[u8], key: u64) -> Option<usize> {
    debug_assert_eq!(tags.len(), ranks.len());
    let n = tags.len();
    let mut i = 0;
    while i + LANES <= n {
        let mut mask = 0u32;
        for j in 0..LANES {
            let hit = (tags[i + j] == key) & (ranks[i + j] != INVALID_RANK);
            mask |= (hit as u32) << j;
        }
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        i += LANES;
    }
    while i < n {
        if ranks[i] != INVALID_RANK && tags[i] == key {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Scalar reference for a keys-only scan (no validity array): first index
/// holding `key`. Free slots carry [`NO_LINE`], which the caller guarantees
/// can never equal a live key.
#[inline]
pub fn find_line_scalar(lines: &[u64], key: u64) -> Option<usize> {
    lines.iter().position(|&l| l == key)
}

/// The chunked keys-only scan (the MSHR lookup: slot lines with a
/// never-matching sentinel in free slots, so no validity lane is needed).
#[inline]
pub fn find_line(lines: &[u64], key: u64) -> Option<usize> {
    let n = lines.len();
    let mut i = 0;
    while i + LANES <= n {
        let mut mask = 0u32;
        for j in 0..LANES {
            mask |= ((lines[i + j] == key) as u32) << j;
        }
        if mask != 0 {
            return Some(i + mask.trailing_zeros() as usize);
        }
        i += LANES;
    }
    while i < n {
        if lines[i] == key {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// The sentinel key stored in free MSHR slots. Line addresses are 64-byte
/// aligned (low six bits zero), so no live line can ever equal it.
pub const NO_LINE: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    /// Agreement with the scalar reference on crafted layouts:
    /// duplicates, invalid ways shadowing valid ones, odd lengths.
    #[test]
    fn probe_agrees_with_scalar_on_crafted_sets() {
        let cases: &[(&[u64], &[u8], u64)] = &[
            (&[], &[], 0x40),
            (&[0x40], &[0], 0x40),
            (&[0x40], &[INVALID_RANK], 0x40),
            (&[0x80, 0x40, 0x40], &[0, 1, 2], 0x40),
            (&[0x40, 0x40], &[INVALID_RANK, 0], 0x40),
            (
                &[0x1c0, 0x80, 0x40, 0x100, 0x140, 0x180, 0x200, 0x240, 0x40],
                &[0, 1, INVALID_RANK, 2, 3, 4, 5, 6, 7],
                0x40,
            ),
            (&[7, 7, 7, 7, 7, 7, 7, 7], &[INVALID_RANK; 8], 7),
        ];
        for &(tags, ranks, key) in cases {
            let want = find_way_scalar(tags, ranks, key);
            assert_eq!(find_way(tags, ranks, key), want, "{tags:?}");
        }
    }

    #[test]
    fn line_scan_matches_scalar() {
        let lines: &[u64] = &[
            NO_LINE, 0x40, NO_LINE, 0x80, 0x40, NO_LINE, 0xc0, 0x100, 0x40,
        ];
        for key in [0x40u64, 0x80, 0xc0, 0x140, NO_LINE] {
            let want = find_line_scalar(lines, key);
            assert_eq!(find_line(lines, key), want);
        }
    }

    /// Randomized sweep over every length 0..=24.
    #[test]
    fn probe_agrees_with_scalar_randomized() {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        for n in 0..=24usize {
            for _ in 0..200 {
                let tags: Vec<u64> = (0..n).map(|_| (next() % 8) * 64).collect();
                let ranks: Vec<u8> = (0..n)
                    .map(|_| {
                        if next() % 3 == 0 {
                            INVALID_RANK
                        } else {
                            (next() % 16) as u8
                        }
                    })
                    .collect();
                let key = (next() % 8) * 64;
                let want = find_way_scalar(&tags, &ranks, key);
                assert_eq!(find_way(&tags, &ranks, key), want);
            }
        }
    }
}
