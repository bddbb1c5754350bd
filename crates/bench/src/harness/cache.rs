//! Content-addressed on-disk result cache.
//!
//! Every grid point is identified by a canonical key string covering the
//! cache schema version, the workload members, the scale, the instruction
//! budget, and the *entire* `SimConfig` (via its `Debug` rendering, which
//! recursively includes every nested config struct — any field added to
//! any config automatically changes the key). The key is hashed to a
//! 128-bit filename; the full key string is stored in the file header and
//! compared on load, so a hash collision degrades to a miss, never to a
//! wrong result.
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
//! * **Quarantine**: an entry that exists but does not parse is renamed
//!   to `<name>.bad` on load and reported as a miss — recomputed, never
//!   served, and kept for post-mortem until the next GC sweeps it.
//! * **Bounded growth**: [`ResultCache::gc`] removes stranded temp files,
//!   quarantined entries and stale-schema entries, then LRU-evicts
//!   (oldest recency first) until the cache fits a byte cap. A load hit
//!   refreshes its entry's mtime, so recency tracking survives
//!   `noatime`/`relatime` mounts.

use super::jsonio::{result_from_json, result_to_json, Json};
use bfetch_sim::RunResult;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// Bumped whenever the key derivation or the stored JSON layout changes;
/// old entries then simply miss (and are swept by [`ResultCache::gc`]).
pub const SCHEMA_VERSION: u32 = 5;

/// A lock older than this is assumed to belong to a dead process and is
/// stolen.
pub const LOCK_STALE_SECS: u64 = 10;

/// FNV-1a, the filename hash's first half.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A second, independent 64-bit hash (SplitMix64 finalizer folded over
/// the bytes) for the filename's second half.
fn alt64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &b in bytes {
        h = bfetch_prng::mix64(h ^ b as u64);
    }
    h
}

/// The content-addressed filename stem for a canonical key.
fn stem(key: &str) -> String {
    format!("{:016x}{:016x}", fnv1a64(key.as_bytes()), alt64(key.as_bytes()))
}

/// The cache filename (without directory) for a canonical key.
pub fn file_name(key: &str) -> String {
    format!("{}.json", stem(key))
}

/// The snapshot-sidecar filename for a canonical key: the same
/// content-addressed stem with a `.snap` extension. The sidecar holds
/// the checkpoint an interrupted or killed simulation of this exact grid
/// point resumes from; it lives in the cache directory and joins the
/// same tmp/quarantine/GC discipline as the result entries.
pub fn snap_name(key: &str) -> String {
    format!("{}.snap", stem(key))
}

/// Held while mutating the cache directory (stores, GC). Created with
/// `create_new` so only one process wins; removed on drop. A lock whose
/// file is older than [`LOCK_STALE_SECS`] is stolen — the holder died
/// between create and drop.
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
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| SystemTime::now().duration_since(t).ok())
                        .is_some_and(|age| age.as_secs() >= LOCK_STALE_SECS);
                    if stale {
                        // best-effort steal; the create_new retry below
                        // decides the winner if several processes race here
                        let _ = std::fs::remove_file(&path);
                    } else {
                        std::thread::sleep(Duration::from_millis(5));
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
    /// Snapshot sidecars (`*.snap`) removed — resume state no sweep came
    /// back for.
    pub removed_snap: u64,
    /// Unparseable or stale-schema entries removed (e.g. stranded
    /// schema-v1 files from before a bump).
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
             removed {} tmp + {} quarantined + {} stale + {} snapshots \
             ({} bytes freed)",
            self.kept,
            self.bytes_after,
            self.evicted,
            self.removed_tmp,
            self.removed_bad,
            self.removed_stale,
            self.removed_snap,
            self.bytes_before - self.bytes_after
        )
    }
}

enum Decoded {
    Hit(Vec<RunResult>),
    /// Readable but wrong schema or a hash-collision key: a plain miss.
    Miss,
    /// Unparseable: quarantine it.
    Corrupt,
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

    /// Loads the results stored under `key`, verifying the schema version
    /// and the full key string (so hash collisions and stale schemas read
    /// as misses). Counts a hit or miss.
    ///
    /// * `Ok(None)` — a miss: absent, stale schema, collision, or a
    ///   corrupt entry (quarantined to `<name>.bad` so it is recomputed,
    ///   never served).
    /// * `Err(_)` — the entry could not be *read* (I/O error other than
    ///   not-found): a transient environment problem the caller may retry.
    ///
    /// A hit refreshes the entry's mtime so LRU eviction sees the use.
    pub fn load(&self, key: &str) -> std::io::Result<Option<Vec<RunResult>>> {
        let path = self.dir.join(file_name(key));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        match decode(&text, key) {
            Decoded::Hit(results) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                touch(&path);
                Ok(Some(results))
            }
            Decoded::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            Decoded::Corrupt => {
                let mut bad = path.clone().into_os_string();
                bad.push(".bad");
                let _ = std::fs::rename(&path, &bad);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Absolute path of the snapshot sidecar for `key` — where an
    /// interrupted or killed simulation of this grid point left (or will
    /// leave) its resumable checkpoint.
    pub fn snap_path(&self, key: &str) -> PathBuf {
        self.dir.join(snap_name(key))
    }

    /// Quarantines a corrupt snapshot sidecar to `<name>.snap.bad` —
    /// the same discipline as torn cache entries: never resumed again,
    /// kept for post-mortem until the next GC sweep. Counted in
    /// [`ResultCache::quarantined`].
    pub fn quarantine_snap(&self, key: &str) {
        let path = self.snap_path(key);
        let mut bad = path.clone().into_os_string();
        bad.push(".bad");
        let _ = std::fs::rename(&path, &bad);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes the snapshot sidecar for `key` (best effort) — called
    /// once the point completes and the resume state is obsolete.
    pub fn remove_snap(&self, key: &str) {
        let _ = std::fs::remove_file(self.snap_path(key));
    }

    /// Stores `results` under `key` atomically: the entry is written to a
    /// pid-tagged temp name and renamed into place under the directory
    /// lock, so concurrent invocations serialize and a crash strands at
    /// worst a temp file (swept by [`ResultCache::gc`]).
    pub fn store(&self, key: &str, results: &[RunResult]) -> std::io::Result<()> {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::u64_of(SCHEMA_VERSION as u64)),
            ("key".into(), Json::Str(key.to_string())),
            (
                "results".into(),
                Json::Arr(results.iter().map(result_to_json).collect()),
            ),
        ]);
        let final_path = self.dir.join(file_name(key));
        let tmp_path = self.dir.join(format!(
            "{}.tmp.{}",
            file_name(key),
            std::process::id()
        ));
        let _lock = DirLock::acquire(&self.dir)?;
        std::fs::write(&tmp_path, doc.to_string())?;
        std::fs::rename(&tmp_path, &final_path)
    }

    /// Maintenance sweep under the directory lock: removes stranded
    /// `*.tmp.*` files, quarantined `*.bad` entries, and entries that do
    /// not parse under the current [`SCHEMA_VERSION`] (stranded schema-v1
    /// files); then LRU-evicts valid entries, oldest recency first, until
    /// the cache fits `max_bytes`.
    ///
    /// Recency is the entry's mtime, which [`ResultCache::load`]
    /// refreshes on every hit — a deliberate stand-in for atime, which is
    /// unusable both ways (never updated on `noatime` mounts, and updated
    /// by *this sweep's own validation reads* on `relatime`). The entry
    /// most recently written or read is evicted last.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcReport> {
        let _lock = DirLock::acquire(&self.dir)?;
        let mut report = GcReport::default();
        // (recency, name-tiebreak, path, size) of valid entries
        let mut live: Vec<(SystemTime, String, PathBuf, u64)> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == ".lock" {
                continue;
            }
            if name.contains(".tmp.") {
                std::fs::remove_file(&path)?;
                report.removed_tmp += 1;
            } else if name.ends_with(".bad") {
                std::fs::remove_file(&path)?;
                report.removed_bad += 1;
            } else if name.ends_with(".snap") {
                // resume state whose sweep never came back for it; GC is
                // the explicit maintenance pass, so reclaim it
                std::fs::remove_file(&path)?;
                report.removed_snap += 1;
            } else if name.ends_with(".json") {
                let meta = entry.metadata()?;
                let valid = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| {
                        let doc = Json::parse(&text)?;
                        (doc.get("schema")?.as_u64()? == SCHEMA_VERSION as u64).then_some(())
                    })
                    .is_some();
                if !valid {
                    std::fs::remove_file(&path)?;
                    report.removed_stale += 1;
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
        live.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        while report.bytes_after > max_bytes {
            let Some((_, _, path, size)) = live.pop() else {
                break;
            };
            std::fs::remove_file(&path)?;
            report.evicted += 1;
            report.bytes_after -= size;
        }
        report.kept = live.len() as u64;
        Ok(report)
    }
}

/// Refreshes `path`'s mtime to now (best effort — a read-only cache
/// directory only loses LRU precision, not correctness).
fn touch(path: &Path) {
    if let Ok(f) = std::fs::OpenOptions::new().write(true).open(path) {
        let _ = f.set_modified(SystemTime::now());
    }
}

fn decode(text: &str, key: &str) -> Decoded {
    let Some(doc) = Json::parse(text) else {
        return Decoded::Corrupt;
    };
    let (Some(schema), Some(stored_key)) = (
        doc.get("schema").and_then(Json::as_u64),
        doc.get("key").and_then(Json::as_str),
    ) else {
        return Decoded::Corrupt;
    };
    if schema != SCHEMA_VERSION as u64 {
        return Decoded::Miss; // stale schema: GC's job, not quarantine's
    }
    if stored_key != key {
        return Decoded::Miss; // 128-bit hash collision: treat as a miss
    }
    match doc.get("results") {
        Some(Json::Arr(items)) => match items.iter().map(result_from_json).collect() {
            Some(results) => Decoded::Hit(results),
            None => Decoded::Corrupt,
        },
        _ => Decoded::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_mem::MemStats;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "bfetch-cache-test-{tag}-{}",
            std::process::id()
        ));
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
            pf_metadata_bytes: 0,
            cpi: None,
        }
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
        cache.store("real-key", &[result("mcf", 1)]).unwrap();
        let colliding = cache.dir().join(file_name("other-key"));
        std::fs::copy(cache.dir().join(file_name("real-key")), &colliding).unwrap();
        assert!(cache.load("other-key").unwrap().is_none());
        // a collision is not corruption: the file must not be quarantined
        assert!(colliding.exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_file_is_quarantined_and_recomputable() {
        let cache = ResultCache::new(tmp_dir("corrupt")).unwrap();
        let path = cache.dir().join(file_name("k"));
        std::fs::write(&path, "{ not json").unwrap();
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

    /// An entry from before the last bump (schema 4, keyed by a `SimConfig`
    /// that still had a `store_forwarding` field) is a miss, never a misread;
    /// GC reclaims it as stale and the slot recomputes.
    #[test]
    fn schema_bump_invalidates() {
        assert_eq!(SCHEMA_VERSION, 5);
        let cache = ResultCache::new(tmp_dir("schema")).unwrap();
        cache.store("k", &[result("mcf", 1)]).unwrap();
        let path = cache.dir().join(file_name("k"));
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"schema\":5", "\"schema\":4");
        std::fs::write(&path, text).unwrap();
        assert!(cache.load("k").unwrap().is_none());
        // wrong schema is a plain miss, not corruption
        assert!(path.exists());
        assert_eq!(cache.gc(u64::MAX).unwrap().removed_stale, 1);
        assert!(!path.exists());
        cache.store("k", &[result("mcf", 7)]).unwrap();
        assert_eq!(cache.load("k").unwrap().unwrap()[0].cycles, 7);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn unreadable_entry_is_an_error_not_a_miss() {
        let cache = ResultCache::new(tmp_dir("unreadable")).unwrap();
        // a directory at the entry path: read_to_string fails with a
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
        assert_eq!(a.len(), 32 + 5);
        assert!(a.ends_with(".json"));
    }

    #[test]
    fn stranded_tmp_file_never_shadows_and_gc_sweeps_it() {
        // simulate a crash between write and rename: the tmp file exists,
        // the live name does not
        let cache = ResultCache::new(tmp_dir("torn")).unwrap();
        let tmp = cache
            .dir()
            .join(format!("{}.tmp.99999", file_name("k")));
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
        cache.store("good", &[result("mcf", 1)]).unwrap();
        // a stranded schema-v1 entry
        let v1 = cache.dir().join(file_name("old"));
        std::fs::write(&v1, "{\"schema\":1,\"key\":\"old\",\"results\":[]}").unwrap();
        // a quarantined entry from an earlier torn write
        let bad = cache.dir().join(format!("{}.bad", file_name("x")));
        std::fs::write(&bad, "garbage").unwrap();
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(report.removed_stale, 1);
        assert_eq!(report.removed_bad, 1);
        assert_eq!(report.kept, 1);
        assert!(!v1.exists() && !bad.exists());
        assert!(cache.load("good").unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn snap_sidecars_follow_the_quarantine_and_gc_discipline() {
        let cache = ResultCache::new(tmp_dir("snap")).unwrap();
        // the sidecar shares the entry's content-addressed stem
        assert_eq!(
            snap_name("k").strip_suffix(".snap"),
            file_name("k").strip_suffix(".json"),
        );
        let snap = cache.snap_path("k");
        std::fs::write(&snap, "torn checkpoint bytes").unwrap();
        // quarantine renames to .snap.bad and counts it
        cache.quarantine_snap("k");
        assert!(!snap.exists());
        let bad = cache.dir().join(format!("{}.bad", snap_name("k")));
        assert!(bad.exists());
        assert_eq!(cache.quarantined(), 1);
        // a fresh sidecar, a stranded atomic-write temp, and the
        // quarantined one: GC sweeps all three under distinct counters
        std::fs::write(&snap, "resumable state").unwrap();
        let tmp = cache.dir().join(format!("{}.tmp.4242", snap_name("k")));
        std::fs::write(&tmp, "half a checkpoint").unwrap();
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(report.removed_snap, 1);
        assert_eq!(report.removed_bad, 1);
        assert_eq!(report.removed_tmp, 1);
        assert!(!snap.exists() && !bad.exists() && !tmp.exists());
        // remove_snap is a no-op on an already-clean slot
        cache.remove_snap("k");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_evicts_oldest_recency_first_and_spares_the_newest() {
        let cache = ResultCache::new(tmp_dir("gc-lru")).unwrap();
        for (key, age) in [("a", 300u64), ("b", 200), ("c", 100)] {
            cache.store(key, &[result("mcf", 1)]).unwrap();
            backdate(&cache.dir().join(file_name(key)), age);
        }
        // the just-written entry: no backdating, newest recency
        cache.store("fresh", &[result("mcf", 2)]).unwrap();
        let entry_size = std::fs::metadata(cache.dir().join(file_name("a")))
            .unwrap()
            .len();
        // cap to two entries: "a" and "b" (oldest) must go
        let report = cache.gc(2 * entry_size + entry_size / 2).unwrap();
        assert_eq!(report.evicted, 2);
        assert!(cache.load("a").unwrap().is_none(), "oldest must be evicted");
        assert!(cache.load("b").unwrap().is_none());
        assert!(cache.load("c").unwrap().is_some());
        assert!(
            cache.load("fresh").unwrap().is_some(),
            "the entry just written must never be evicted"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn load_hit_refreshes_recency() {
        let cache = ResultCache::new(tmp_dir("gc-touch")).unwrap();
        cache.store("cold", &[result("mcf", 1)]).unwrap();
        cache.store("hot", &[result("mcf", 2)]).unwrap();
        backdate(&cache.dir().join(file_name("cold")), 500);
        backdate(&cache.dir().join(file_name("hot")), 1_000);
        // "hot" starts *older* than "cold", but a hit refreshes it
        assert!(cache.load("hot").unwrap().is_some());
        let entry_size = std::fs::metadata(cache.dir().join(file_name("hot")))
            .unwrap()
            .len();
        let report = cache.gc(entry_size + entry_size / 2).unwrap();
        assert_eq!(report.evicted, 1);
        assert!(cache.load("cold").unwrap().is_none());
        assert!(cache.load("hot").unwrap().is_some());
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

    #[test]
    fn gc_report_display_mentions_every_counter() {
        let r = GcReport {
            removed_tmp: 1,
            removed_bad: 2,
            removed_snap: 6,
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
            "6 snapshots",
            "evicted 4",
            "5 entries",
            "400 bytes freed",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
