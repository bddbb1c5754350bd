//! Content-addressed on-disk result cache.
//!
//! Every grid point is identified by a canonical key string covering the
//! schema version, the [`MODEL_ID`] of the code that simulates it, the
//! workload members, the scale, the instruction budget, and the *entire*
//! `SimConfig` (via its wire bytes, which cover every leaf — any field
//! added to any config automatically changes the key). The key is hashed
//! to a 128-bit filename stem. Each entry is one checksummed snapshot frame
//! ([`bfetch_sim::write_results`]) holding the full key string and the
//! results; the key is compared on load, so a hash collision degrades to
//! a miss, never to a wrong result. A warm hit is one `open`, one read,
//! one decode, and an mtime refresh through the same descriptor.
//!
//! ## Crash safety and concurrency
//!
//! * **Atomic writes**: entries are written to a pid-tagged temp name and
//!   renamed into place, so a crashed or concurrent run can never leave a
//!   torn entry under a live name. Stranded temp files are swept by
//!   [`ResultCache::gc`].
//! * **Sidecar lockfile**: stores and GC serialize on a `.lock` file
//!   (created with `create_new`, stolen after
//!   [`LOCK_STALE_SECS`] if the holder died), so two concurrent harness
//!   invocations never interleave a rename with an eviction scan.
//! * **Quarantine**: an entry that exists but does not decode (torn,
//!   bit-flipped, truncated: the frame's CRC-32 catches all of these) is
//!   renamed to `<name>.bad` on load and reported as a miss — recomputed,
//!   never served, and kept for post-mortem until the next GC sweeps it.
//! * **Bounded growth**: [`ResultCache::gc`] removes stranded temp files,
//!   quarantined entries and stale entries (undecodable, another schema or
//!   model, or holding a key that does not hash to the entry's name), then
//!   LRU-evicts (oldest recency first) until the cache fits a byte cap. A load hit
//!   refreshes its entry's mtime, so recency tracking survives
//!   `noatime`/`relatime` mounts.

use bfetch_prng::mix64;
use bfetch_sim::{decode_results, write_results, RunResult, SnapshotError};
use std::io::{ErrorKind, Read as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime};

/// A lock older than this is assumed to belong to a dead process and is
/// stolen.
pub const LOCK_STALE_SECS: u64 = 10;

/// The model this binary simulates: 16 hex digits of an FNV-1a hash over
/// the sources of every crate whose code reaches a `RunResult`, the
/// kernels' assembly included (`build.rs`, `model_id.rs`). A change to the
/// timing model, to a prefetcher or to a kernel changes it, so an entry
/// another build wrote is a miss instead of a stale result.
pub const MODEL_ID: &str = env!("BFETCH_MODEL_ID");

/// The prefix of every key this build writes: schema version and model.
/// An entry whose stored key lacks it is stale. Built once, so a key
/// costs no extra allocation for it.
pub fn key_prefix() -> &'static str {
    static PREFIX: OnceLock<String> = OnceLock::new();
    PREFIX.get_or_init(|| format!("v{}|model={MODEL_ID}|", bfetch_sim::SCHEMA_VERSION))
}

/// The content-addressed filename stem for a canonical key: 128 bits as 32
/// hex digits. Two lanes absorb the key eight bytes per step (the last word
/// zero-padded) through the SplitMix64 finalizer, from different seeds and
/// with the second lane's word rotated, so the halves are two independent
/// 64-bit hashes of the whole key whose dependency chains overlap. The
/// length is folded into a final avalanche, so keys that differ only in
/// trailing zero bytes (`k`, `k\0`) still differ. Changing this renames
/// every entry: the old ones become misses that [`ResultCache::gc`]
/// sweeps as stale.
fn stem(key: &str) -> String {
    let bytes = key.as_bytes();
    let (mut a, mut b) = (0x9e37_79b9_7f4a_7c15_u64, 0xcbf2_9ce4_8422_2325_u64);
    let mut absorb = |w: u64| {
        a = mix64(a ^ w);
        b = mix64(b ^ w.rotate_left(32));
    };
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        absorb(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        absorb(u64::from_le_bytes(last));
    }
    let len = bytes.len() as u64;
    format!(
        "{:016x}{:016x}",
        mix64(a ^ len),
        mix64(b ^ len.rotate_left(32))
    )
}

/// The cache filename (without directory) for a canonical key.
pub fn file_name(key: &str) -> String {
    format!("{}.res", stem(key))
}

/// Removes `path`: `Ok(false)` when it was already gone — a concurrent
/// load quarantined it, or a concurrent sweep removed it.
fn remove_present(path: &Path) -> std::io::Result<bool> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Held while mutating the cache directory (stores, GC). Created with
/// `create_new` so only one process wins; removed on drop. A lock whose
/// file is older than [`LOCK_STALE_SECS`] is stolen — the holder died
/// between create and drop. A stale lock that cannot be removed (a
/// directory named `.lock`, or no write permission on the cache
/// directory) is an error naming it, not a retry loop.
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> std::io::Result<Self> {
        let path = dir.join(".lock");
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok())
                        .is_some_and(|age| age.as_secs() >= LOCK_STALE_SECS);
                    if !stale {
                        std::thread::sleep(Duration::from_millis(5));
                    } else if let Err(e) = remove_present(&path) {
                        // gone already means another process stole it: the
                        // create_new retry decides the winner
                        return Err(std::io::Error::new(
                            e.kind(),
                            format!("cannot remove stale cache lock {}: {e}", path.display()),
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What [`ResultCache::gc`] did, for the maintenance report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Stranded `*.tmp.*` files removed (crashed mid-store).
    pub removed_tmp: u64,
    /// Quarantined `*.bad` entries removed.
    pub removed_bad: u64,
    /// Undecodable or stale-schema entries removed (e.g. stranded files
    /// from before a schema bump), entries another model wrote (their
    /// key lacks [`key_prefix`]), entries whose key does not hash to
    /// their name (named by an earlier name hash), and files of retired
    /// formats: pre-frame `*.json` entries and the `*.snap`/`*.prog`
    /// checkpoint pairs harness points once left.
    pub removed_stale: u64,
    /// Valid entries LRU-evicted to fit the byte cap.
    pub evicted: u64,
    /// Valid entries remaining after the sweep.
    pub kept: u64,
    /// Bytes of valid entries before eviction.
    pub bytes_before: u64,
    /// Bytes of valid entries after eviction (≤ the cap).
    pub bytes_after: u64,
}

impl std::fmt::Display for GcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache-gc: kept {} entries ({} bytes), evicted {} (LRU), \
             removed {} tmp + {} quarantined + {} stale ({} bytes freed)",
            self.kept,
            self.bytes_after,
            self.evicted,
            self.removed_tmp,
            self.removed_bad,
            self.removed_stale,
            self.bytes_before - self.bytes_after
        )
    }
}

/// On-disk store mapping canonical keys to `Vec<RunResult>`.
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    quarantined: AtomicU64,
}

impl ResultCache {
    /// Opens (and creates if needed) a cache at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The default location: `$BFETCH_CACHE_DIR` or `results/cache/`
    /// under the current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("BFETCH_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("results").join("cache"))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Corrupt entries quarantined (renamed to `.bad` and recomputed) so
    /// far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Loads the results stored under `key`, verifying the frame (magic,
    /// schema version, CRC-32, every field) and the full key string (so
    /// hash collisions and stale schemas read as misses). Counts a hit or
    /// miss.
    ///
    /// * `Ok(None)` — a miss: absent, stale schema, collision, or a
    ///   corrupt entry (quarantined to `<name>.bad` so it is recomputed,
    ///   never served).
    /// * `Err(_)` — the entry could not be *read* (I/O error other than
    ///   not-found): a transient environment problem the caller may retry.
    ///
    /// A hit refreshes the entry's mtime so LRU eviction sees the use.
    pub fn load(&self, key: &str) -> std::io::Result<Option<Vec<RunResult>>> {
        self.entry(key).load()
    }

    /// Stores `results` under `key` atomically: the entry is streamed to a
    /// pid-tagged temp name and renamed into place under the directory
    /// lock, so concurrent invocations serialize and a crash strands at
    /// worst a temp file (swept by [`ResultCache::gc`]).
    pub fn store(&self, key: &str, results: &[RunResult]) -> std::io::Result<()> {
        self.entry(key).store(results)
    }

    /// `key`'s place in this cache, its name hashed once.
    pub(crate) fn entry<'a>(&'a self, key: &'a str) -> Entry<'a> {
        Entry {
            cache: self,
            key,
            path: self.dir.join(file_name(key)),
        }
    }

    /// Maintenance sweep under the directory lock: removes stranded
    /// `*.tmp.*` files, quarantined `*.bad` entries, and stale files — any
    /// entry that does not decode under the current
    /// [`bfetch_sim::SCHEMA_VERSION`], whose stored key does not start
    /// with this build's [`key_prefix`] (another model wrote it), or whose
    /// stored key does not hash to its file name (an entry named by an
    /// earlier name hash, or copied under another name), and every
    /// `*.json`, `*.snap` or `*.prog` file an earlier version wrote; then
    /// LRU-evicts valid entries, oldest recency first, until the cache fits
    /// `max_bytes`.
    ///
    /// Recency is the entry's mtime, which [`ResultCache::load`]
    /// refreshes on every hit — a deliberate stand-in for atime, which is
    /// unusable both ways (never updated on `noatime` mounts, and updated
    /// by *this sweep's own validation reads* on `relatime`). The entry
    /// most recently written or read is evicted last.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcReport> {
        let _lock = DirLock::acquire(&self.dir)?;
        let mut listing = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            listing.push(entry?.file_name().to_string_lossy().into_owned());
        }
        self.sweep(&listing, max_bytes)
    }

    /// [`ResultCache::gc`] over a directory listing. Loads take no lock, so
    /// a listed file may be gone by the time the sweep reaches it (a
    /// concurrent load quarantined it): such a file is skipped and counted
    /// nowhere.
    fn sweep(&self, listing: &[String], max_bytes: u64) -> std::io::Result<GcReport> {
        let mut report = GcReport::default();
        // (recency, name-tiebreak, path, size) of valid entries
        let mut live: Vec<(SystemTime, &str, PathBuf, u64)> = Vec::new();
        for name in listing {
            let path = self.dir.join(name);
            let meta = match std::fs::symlink_metadata(&path) {
                Ok(meta) => meta,
                Err(e) if e.kind() == ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if !meta.is_file() || name == ".lock" {
                continue;
            }
            if name.contains(".tmp.") {
                report.removed_tmp += u64::from(remove_present(&path)?);
            } else if name.ends_with(".bad") {
                report.removed_bad += u64::from(remove_present(&path)?);
            } else if [".res", ".json", ".snap", ".prog"]
                .iter()
                .any(|ext| name.ends_with(ext))
            {
                let valid = name.strip_suffix(".res").is_some_and(|named| {
                    std::fs::read(&path).is_ok_and(|b| {
                        decode_results(&b).is_ok_and(|(key, _)| {
                            key.starts_with(key_prefix()) && stem(&key) == named
                        })
                    })
                });
                if !valid {
                    report.removed_stale += u64::from(remove_present(&path)?);
                    continue;
                }
                let recency = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                live.push((recency, name, path, meta.len()));
            }
            // anything else (user files) is left alone
        }
        report.bytes_before = live.iter().map(|e| e.3).sum();
        report.bytes_after = report.bytes_before;
        // newest first; evict from the back (oldest recency, name breaks
        // ties deterministically)
        live.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        while report.bytes_after > max_bytes {
            let Some((_, _, path, size)) = live.pop() else {
                break;
            };
            // the bytes are gone whoever removed them
            report.evicted += u64::from(remove_present(&path)?);
            report.bytes_after -= size;
        }
        report.kept = live.len() as u64;
        Ok(report)
    }
}

/// One key's place in a [`ResultCache`]: the key, and the path of its
/// entry `<stem>.res`. The harness derives one per grid point, so a point
/// hashes its key once however often it loads and stores.
pub(crate) struct Entry<'a> {
    cache: &'a ResultCache,
    key: &'a str,
    path: PathBuf,
}

impl Entry<'_> {
    /// [`ResultCache::load`]: one `open`, one read, one decode, and on a
    /// hit the mtime refresh through the same descriptor.
    pub(crate) fn load(&self) -> std::io::Result<Option<Vec<RunResult>>> {
        let c = self.cache;
        let path = &self.path;
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => {
                c.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        match decode_results(&bytes) {
            Ok((stored, results)) if stored == self.key => {
                c.hits.fetch_add(1, Ordering::Relaxed);
                // best effort: a read-only cache directory only loses LRU
                // precision, not correctness
                let _ = file.set_modified(SystemTime::now());
                return Ok(Some(results));
            }
            // a 128-bit hash collision, or a stale schema (GC's job, not
            // quarantine's): a plain miss
            Ok(_) | Err(SnapshotError::BadVersion { .. }) => {}
            Err(_) => {
                let mut bad = path.clone().into_os_string();
                bad.push(".bad");
                let _ = std::fs::rename(path, &bad);
                c.quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
        c.misses.fetch_add(1, Ordering::Relaxed);
        Ok(None)
    }

    /// [`ResultCache::store`].
    pub(crate) fn store(&self, results: &[RunResult]) -> std::io::Result<()> {
        let _lock = DirLock::acquire(&self.cache.dir)?;
        write_results(&self.path, self.key, results).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_core::EngineStats;
    use bfetch_mem::MemStats;
    use bfetch_sim::CpiStack;
    use std::collections::HashSet;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("bfetch-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn result(workload: &str, cycles: u64) -> RunResult {
        RunResult {
            workload: workload.into(),
            prefetcher: "stride",
            cycles,
            instructions: 1000,
            mem: MemStats::default(),
            cond_branches: 10,
            mispredicts: 1,
            branch_fetch_hist: [5, 4, 3, 2, 1],
            engine: None,
            cpi: None,
        }
    }

    /// The bytes of an entry storing `results` under the key `"k"`,
    /// written by [`write_results`] into a fresh directory named by `tag`.
    fn entry_bytes(tag: &str, results: &[RunResult]) -> Vec<u8> {
        let dir = tmp_dir(tag);
        let path = dir.join("entry.res");
        write_results(&path, "k", results).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    /// `name` under this build's [`key_prefix`]: a key whose entry GC
    /// keeps.
    fn model_key(name: &str) -> String {
        format!("{}{name}", key_prefix())
    }

    /// Backdates a file's mtime by `secs`, for LRU-order tests.
    fn backdate(path: &Path, secs: u64) {
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_modified(SystemTime::now() - Duration::from_secs(secs))
            .unwrap();
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = ResultCache::new(tmp_dir("roundtrip")).unwrap();
        let rs = vec![result("mcf", 123), result("astar", 456)];
        cache.store("k1", &rs).unwrap();
        assert_eq!(cache.load("k1").unwrap().unwrap(), rs);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn absent_key_is_a_miss() {
        let cache = ResultCache::new(tmp_dir("miss")).unwrap();
        assert!(cache.load("nope").unwrap().is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn key_mismatch_in_file_reads_as_miss() {
        // simulate a filename collision: a file stored at key A's path but
        // holding key B's header must not satisfy a lookup for A
        let cache = ResultCache::new(tmp_dir("collide")).unwrap();
        cache
            .store(&model_key("real-key"), &[result("mcf", 1)])
            .unwrap();
        let colliding = cache.dir().join(file_name(&model_key("other-key")));
        std::fs::copy(
            cache.dir().join(file_name(&model_key("real-key"))),
            &colliding,
        )
        .unwrap();
        assert!(cache.load(&model_key("other-key")).unwrap().is_none());
        // a collision is not corruption: the file must not be quarantined
        assert!(colliding.exists());
        // but its key does not hash to its name, so GC sweeps it as stale
        // (as it does every entry named by an earlier name hash)
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!((report.removed_stale, report.kept), (1, 1));
        assert!(!colliding.exists());
        assert!(cache.load(&model_key("real-key")).unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_file_is_quarantined_and_recomputable() {
        let cache = ResultCache::new(tmp_dir("corrupt")).unwrap();
        cache.store("k", &[result("mcf", 1)]).unwrap();
        let path = cache.dir().join(file_name("k"));
        let frame = std::fs::read(&path).unwrap();
        std::fs::write(&path, &frame[..frame.len() / 2]).unwrap();
        assert!(cache.load("k").unwrap().is_none());
        // quarantined, never served again under the live name …
        assert!(!path.exists());
        let bad = cache.dir().join(format!("{}.bad", file_name("k")));
        assert!(bad.exists(), "torn entry must be quarantined");
        assert_eq!(cache.quarantined(), 1);
        // … and the slot is free for a clean recompute
        cache.store("k", &[result("mcf", 7)]).unwrap();
        assert_eq!(cache.load("k").unwrap().unwrap()[0].cycles, 7);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// An entry from before the last bump (a version-11 frame with a valid
    /// CRC) is a miss, never a misread; GC reclaims it as stale and the
    /// slot recomputes.
    #[test]
    fn schema_bump_invalidates() {
        assert_eq!(bfetch_sim::SCHEMA_VERSION, 12);
        let k = &model_key("k");
        let cache = ResultCache::new(tmp_dir("schema")).unwrap();
        cache.store(k, &[result("mcf", 1)]).unwrap();
        let path = cache.dir().join(file_name(k));
        // frame: 8-byte magic, u32 version, …, u32 CRC-32 of the rest
        let mut frame = std::fs::read(&path).unwrap();
        frame[8..12].copy_from_slice(&11u32.to_le_bytes());
        let body = frame.len() - 4;
        let crc = bfetch_snapshot::crc32(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, frame).unwrap();
        assert!(cache.load(k).unwrap().is_none());
        // wrong schema is a plain miss, not corruption
        assert!(path.exists());
        assert_eq!(cache.quarantined(), 0);
        assert_eq!(cache.gc(u64::MAX).unwrap().removed_stale, 1);
        assert!(!path.exists());
        cache.store(k, &[result("mcf", 7)]).unwrap();
        assert_eq!(cache.load(k).unwrap().unwrap()[0].cycles, 7);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Keys that differ only in the model id name different entries, and
    /// neither is served for the other; GC sweeps the other model's entry
    /// as stale although its key hashes to its name.
    #[test]
    fn another_models_entry_is_a_miss_and_gc_sweeps_it() {
        let cache = ResultCache::new(tmp_dir("model")).unwrap();
        let ours = model_key("members=mcf");
        let id = u64::from_str_radix(MODEL_ID, 16).expect("16 hex digits");
        let theirs = ours.replacen(MODEL_ID, &format!("{:016x}", !id), 1);
        assert_ne!(file_name(&ours), file_name(&theirs));
        cache.store(&theirs, &[result("mcf", 1)]).unwrap();
        assert!(cache.load(&ours).unwrap().is_none());
        cache.store(&ours, &[result("mcf", 2)]).unwrap();
        assert_eq!(cache.load(&ours).unwrap().unwrap()[0].cycles, 2);
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!((report.removed_stale, report.kept), (1, 1));
        assert!(cache.load(&theirs).unwrap().is_none());
        assert_eq!(cache.load(&ours).unwrap().unwrap()[0].cycles, 2);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unreadable_entry_is_an_error_not_a_miss() {
        let cache = ResultCache::new(tmp_dir("unreadable")).unwrap();
        // a directory at the entry path: the read fails with a
        // non-NotFound error, which must surface as Err (retriable class)
        std::fs::create_dir(cache.dir().join(file_name("k"))).unwrap();
        assert!(cache.load("k").is_err());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn filenames_are_stable_and_key_sensitive() {
        let a = file_name("key-a");
        assert_eq!(a, file_name("key-a"));
        assert_ne!(a, file_name("key-b"));
        assert_eq!(a.len(), 32 + 4);
        assert!(a.ends_with(".res"));
    }

    /// The name hash is part of the on-disk format: a change renames every
    /// entry. Pinned on the empty key, a partial word, one word either side
    /// of a whole word, and a real Fig 8 key (mcf under B-Fetch at the
    /// figure's budget) with its model id zeroed, since every edit to the
    /// model's sources moves that.
    #[test]
    fn stem_golden_vectors() {
        use crate::harness::GridPoint;
        use bfetch_sim::{PrefetcherKind, SimConfig};
        use bfetch_workloads::{kernel_by_name, Scale};
        let cfg = SimConfig::baseline()
            .with_prefetcher(PrefetcherKind::BFetch)
            .with_warmup(150_000);
        let mcf = kernel_by_name("mcf").unwrap();
        let fig08 = GridPoint::single("mcf/bfetch", mcf, cfg, 300_000, Scale::Full)
            .cache_key()
            .replacen(MODEL_ID, "0000000000000000", 1);
        assert_eq!(fig08.len(), 327);
        for (key, want) in [
            ("", "6e789e6aa1b965f4c3817c016ba4ff30"),
            ("k", "60d053b6b69ec25c7cf6415c110c9722"),
            ("abcdefg", "1ae34bc70b71c3ebc6df437d0eed9b19"),
            ("abcdefgh", "96c0f7c1e8a6a2db26a2849f1b28e726"),
            ("abcdefghi", "0ed9d766031fcff3ea467927b8c309ec"),
            (fig08.as_str(), "3e302a7c46eb7ceb7bf923d1e4cb9b42"),
        ] {
            assert_eq!(stem(key), want, "{} bytes", key.len());
        }
    }

    /// The length is folded in: keys that differ only in trailing zero
    /// bytes, which pad the last word the same way, get distinct stems.
    #[test]
    fn stem_tells_zero_padded_tails_apart() {
        let stems: HashSet<String> = (0..=17)
            .map(|n| stem(&format!("k{}", "\0".repeat(n))))
            .collect();
        assert_eq!(stems.len(), 18);
    }

    #[test]
    fn stranded_tmp_file_never_shadows_and_gc_sweeps_it() {
        // simulate a crash between write and rename: the tmp file exists,
        // the live name does not
        let cache = ResultCache::new(tmp_dir("torn")).unwrap();
        let tmp = cache.dir().join(format!("{}.tmp.99999", file_name("k")));
        std::fs::write(&tmp, "half-written garbag").unwrap();
        assert!(cache.load("k").unwrap().is_none(), "tmp must not be served");
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(report.removed_tmp, 1);
        assert!(!tmp.exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_sweeps_stale_schema_and_quarantined_entries() {
        let cache = ResultCache::new(tmp_dir("gc-stale")).unwrap();
        cache
            .store(&model_key("good"), &[result("mcf", 1)])
            .unwrap();
        // a leftover JSON entry from before entries were frames
        let legacy = cache.dir().join(format!("{}.json", stem("old")));
        std::fs::write(&legacy, "{\"schema\":5,\"key\":\"old\",\"results\":[]}").unwrap();
        // a quarantined entry from an earlier torn write
        let bad = cache.dir().join(format!("{}.bad", file_name("x")));
        std::fs::write(&bad, "garbage").unwrap();
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(report.removed_stale, 1);
        assert_eq!(report.removed_bad, 1);
        assert_eq!(report.kept, 1);
        assert!(!legacy.exists() && !bad.exists());
        assert!(cache.load(&model_key("good")).unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A cache directory an earlier version wrote may hold a checkpoint
    /// pair a harness point left: GC sweeps both files as stale, and they
    /// are never resumed.
    #[test]
    fn gc_sweeps_a_left_over_checkpoint_pair_as_stale() {
        let cache = ResultCache::new(tmp_dir("old-pair")).unwrap();
        cache
            .store(&model_key("done"), &[result("mcf", 1)])
            .unwrap();
        let pair = ["snap", "prog"].map(|ext| cache.dir().join(format!("{}.{ext}", stem("k"))));
        for f in &pair {
            std::fs::write(f, "a checkpoint file").unwrap();
        }
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(
            (report.removed_stale, report.removed_bad, report.kept),
            (2, 0, 1)
        );
        assert!(pair.iter().all(|f| !f.exists()));
        assert!(
            report.to_string().contains("0 quarantined + 2 stale"),
            "{report}"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_evicts_oldest_recency_first_and_spares_the_newest() {
        let cache = ResultCache::new(tmp_dir("gc-lru")).unwrap();
        let [a, b, c, fresh] = ["a", "b", "c", "fresh"].map(model_key);
        for (key, age) in [(&a, 300u64), (&b, 200), (&c, 100)] {
            cache.store(key, &[result("mcf", 1)]).unwrap();
            backdate(&cache.dir().join(file_name(key)), age);
        }
        // the just-written entry: no backdating, newest recency
        cache.store(&fresh, &[result("mcf", 2)]).unwrap();
        let entry_size = std::fs::metadata(cache.dir().join(file_name(&a)))
            .unwrap()
            .len();
        // cap to two entries: "a" and "b" (oldest) must go
        let report = cache.gc(2 * entry_size + entry_size / 2).unwrap();
        assert_eq!(report.evicted, 2);
        assert!(cache.load(&a).unwrap().is_none(), "oldest must be evicted");
        assert!(cache.load(&b).unwrap().is_none());
        assert!(cache.load(&c).unwrap().is_some());
        assert!(
            cache.load(&fresh).unwrap().is_some(),
            "the entry just written must never be evicted"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn load_hit_refreshes_recency() {
        let cache = ResultCache::new(tmp_dir("gc-touch")).unwrap();
        let [cold, hot] = ["cold", "hot"].map(model_key);
        cache.store(&cold, &[result("mcf", 1)]).unwrap();
        cache.store(&hot, &[result("mcf", 2)]).unwrap();
        backdate(&cache.dir().join(file_name(&cold)), 500);
        backdate(&cache.dir().join(file_name(&hot)), 1_000);
        // &hot starts *older* than &cold, but a hit refreshes it
        assert!(cache.load(&hot).unwrap().is_some());
        let entry_size = std::fs::metadata(cache.dir().join(file_name(&hot)))
            .unwrap()
            .len();
        let report = cache.gc(entry_size + entry_size / 2).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(cache.load(&cold).unwrap().is_none());
        assert!(cache.load(&hot).unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_double_store_serializes_under_the_lock() {
        let cache = ResultCache::new(tmp_dir("double-store")).unwrap();
        let a = vec![result("mcf", 1)];
        let b = vec![result("mcf", 2)];
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| cache.store("k", &a).unwrap());
                s.spawn(|| cache.store("k", &b).unwrap());
            }
        });
        // whichever store won, the entry is whole and parseable
        let got = cache.load("k").unwrap().expect("entry must be readable");
        assert!(got == a || got == b);
        // the lock was released (drop ran): another acquire succeeds fast
        cache.store("k2", &a).unwrap();
        assert!(!cache.dir().join(".lock").exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_lock_is_stolen() {
        let cache = ResultCache::new(tmp_dir("stale-lock")).unwrap();
        let lock = cache.dir().join(".lock");
        std::fs::write(&lock, "424242").unwrap();
        backdate(&lock, LOCK_STALE_SECS + 5);
        // must not hang: the dead process's lock is stolen
        cache.store("k", &[result("mcf", 1)]).unwrap();
        assert!(cache.load("k").unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A stale lock that cannot be removed — here a directory named `.lock`
    /// — makes `store` and `gc` fail at once with an error naming it,
    /// instead of retrying the steal forever.
    #[test]
    fn unstealable_stale_lock_is_an_error() {
        let cache = ResultCache::new(tmp_dir("stuck-lock")).unwrap();
        let lock = cache.dir().join(".lock");
        std::fs::create_dir(&lock).unwrap();
        std::fs::File::open(&lock)
            .unwrap()
            .set_modified(SystemTime::now() - Duration::from_secs(LOCK_STALE_SECS + 5))
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let dir = cache.dir().to_path_buf();
        // on a thread, so a regression fails this test instead of hanging it
        std::thread::spawn(move || {
            let cache = ResultCache::new(dir).unwrap();
            let stored = cache
                .store("k", &[result("mcf", 1)])
                .map_err(|e| e.to_string());
            let swept = cache.gc(u64::MAX).map_err(|e| e.to_string());
            let _ = tx.send((stored, swept));
        });
        let (stored, swept) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("lock steal spins");
        for err in [stored.unwrap_err(), swept.unwrap_err()] {
            assert!(err.contains(&lock.display().to_string()), "{err}");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Files listed but gone before the sweep reaches them (a concurrent
    /// load's quarantine, or a concurrent sweep) are skipped, counted
    /// nowhere, and fail nothing; the files that are there are counted
    /// exactly.
    #[test]
    fn gc_counts_nothing_for_files_gone_after_the_listing() {
        let cache = ResultCache::new(tmp_dir("gc-vanished")).unwrap();
        let live = model_key("live");
        cache.store(&live, &[result("mcf", 1)]).unwrap();
        let size = std::fs::metadata(cache.dir().join(file_name(&live)))
            .unwrap()
            .len();
        let ghost = stem("ghost");
        let listing: Vec<String> = [
            file_name(&live),
            format!("{ghost}.res.tmp.7"),
            format!("{ghost}.res.bad"),
            format!("{ghost}.snap"),
            format!("{ghost}.res"),
        ]
        .into();
        let report = cache.sweep(&listing, 0).unwrap();
        let want = GcReport {
            evicted: 1,
            bytes_before: size,
            ..GcReport::default()
        };
        assert_eq!(report, want);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Writes `bytes` over `key`'s entry and loads it: it must be a miss
    /// that quarantines the entry, never a hit.
    fn assert_quarantined_miss(cache: &ResultCache, key: &str, bytes: &[u8], what: &str) {
        let path = cache.dir().join(file_name(key));
        std::fs::write(&path, bytes).unwrap();
        let before = cache.quarantined();
        let got = cache.load(key).unwrap();
        assert!(got.is_none(), "{what} was served: {got:?}");
        assert_eq!(
            cache.quarantined(),
            before + 1,
            "{what} was not quarantined"
        );
        assert!(!path.exists(), "{what} left under the live name");
    }

    /// No damaged entry is ever served: every byte changed in its lowest
    /// bit (a `"cycles":123456` → `123457` digit edit is one such) or in
    /// all eight, and every truncation, is a quarantined miss.
    #[test]
    fn every_flipped_or_truncated_entry_is_a_quarantined_miss() {
        let cache = ResultCache::new(tmp_dir("mangle")).unwrap();
        cache.store("k", &[result("mcf", 123_456)]).unwrap();
        let entry = std::fs::read(cache.dir().join(file_name("k"))).unwrap();
        for at in 0..entry.len() {
            for mask in [0x01, 0xff] {
                let mut bad = entry.clone();
                bad[at] ^= mask;
                assert_quarantined_miss(&cache, "k", &bad, &format!("byte {at} ^ {mask:#x}"));
            }
        }
        for n in 0..entry.len() {
            assert_quarantined_miss(&cache, "k", &entry[..n], &format!("truncation to {n}"));
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A well-formed frame naming a prefetcher no `PrefetcherKind` has
    /// (the key already fixes the kind, so only a crafted entry can) is
    /// quarantined, not interned.
    #[test]
    fn unknown_prefetcher_name_is_quarantined() {
        let cache = ResultCache::new(tmp_dir("unknown-pf")).unwrap();
        let crafted = RunResult {
            prefetcher: "experimental-9",
            ..result("mcf", 1)
        };
        let entry = entry_bytes("unknown-pf-entry", &[crafted]);
        assert_eq!(
            decode_results(&entry),
            Err(SnapshotError::Invalid {
                what: "unknown prefetcher name"
            })
        );
        assert_quarantined_miss(&cache, "k", &entry, "unknown name");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// The frame codec round-trips what a lossy encoding would not: a
    /// `u64::MAX` counter, and a result with no engine or no CPI stack.
    #[test]
    fn frame_codec_round_trips_extremes_and_absent_parts() {
        let full = RunResult {
            prefetcher: "bfetch",
            engine: Some(EngineStats {
                lookaheads: 7,
                ..EngineStats::default()
            }),
            instructions: u64::MAX,
            cpi: Some(CpiStack {
                cycles: 100,
                ..CpiStack::new(4)
            }),
            ..result("mcf", 123_456)
        };
        let inputs = [
            full.clone(),
            RunResult {
                engine: None,
                ..full.clone()
            },
            RunResult { cpi: None, ..full },
        ];
        for r in inputs {
            let entry = entry_bytes("extremes", std::slice::from_ref(&r));
            let (key, back) = decode_results(&entry).unwrap();
            assert_eq!((key.as_str(), back), ("k", vec![r]));
        }
    }

    #[test]
    fn gc_report_display_mentions_every_counter() {
        let r = GcReport {
            removed_tmp: 1,
            removed_bad: 2,
            removed_stale: 3,
            evicted: 4,
            kept: 5,
            bytes_before: 1000,
            bytes_after: 600,
        };
        let s = r.to_string();
        for needle in [
            "1 tmp",
            "2 quarantined",
            "3 stale",
            "evicted 4",
            "5 entries",
            "400 bytes freed",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
