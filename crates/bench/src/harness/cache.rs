//! Content-addressed on-disk result cache.
//!
//! Every grid point is identified by a canonical key string covering the
//! schema version, the workload members, the scale, the instruction
//! budget, and the *entire* `SimConfig` (via its `Debug` rendering, which
//! recursively includes every nested config struct — any field added to
//! any config automatically changes the key). The key is hashed to a
//! 128-bit filename. Each entry is one checksummed snapshot frame
//! ([`bfetch_sim::write_results`]) holding the full key string and the
//! results; the key is compared on load, so a hash collision degrades to
//! a miss, never to a wrong result.
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
//!   quarantined entries and undecodable or stale-schema entries, then LRU-evicts
//!   (oldest recency first) until the cache fits a byte cap. A load hit
//!   refreshes its entry's mtime, so recency tracking survives
//!   `noatime`/`relatime` mounts.

use bfetch_sim::{decode_results, write_results, RunResult, SnapshotError};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

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
    format!("{}.res", stem(key))
}

/// The snapshot-sidecar filename for a canonical key: the same
/// content-addressed stem with a `.snap` extension. The sidecar is the
/// state file of the checkpoint an interrupted or killed simulation of
/// this exact grid point resumes from; the checkpoint's program file sits
/// beside it as `<stem>.prog` ([`bfetch_sim::program_path`]). The pair
/// lives in the cache directory and joins the same tmp/quarantine/GC
/// discipline as the result entries.
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
    /// Snapshot sidecars (`*.snap`, each with its `*.prog`) removed —
    /// resume state no sweep came back for.
    pub removed_snap: u64,
    /// Undecodable or stale-schema entries removed (e.g. stranded files
    /// from before a schema bump, or pre-frame `*.json` entries), and
    /// program files (`*.prog`) with no `*.snap` to name them.
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
             removed {} tmp + {} quarantined + {} stale (entries, orphan .prog) \
             + {} snapshots (.snap + .prog) ({} bytes freed)",
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
        let path = self.dir.join(file_name(key));
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        match decode_results(&bytes) {
            Ok((stored, results)) if stored == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                touch(&path);
                return Ok(Some(results));
            }
            // a 128-bit hash collision, or a stale schema (GC's job, not
            // quarantine's): a plain miss
            Ok(_) | Err(SnapshotError::BadVersion { .. }) => {}
            Err(_) => {
                let mut bad = path.clone().into_os_string();
                bad.push(".bad");
                let _ = std::fs::rename(&path, &bad);
                self.quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(None)
    }

    /// Absolute path of the snapshot sidecar for `key` — the state file
    /// an interrupted or killed simulation of this grid point left (or
    /// will leave) to resume from.
    pub fn snap_path(&self, key: &str) -> PathBuf {
        self.dir.join(snap_name(key))
    }

    /// The sidecar's pair: its state file, then its program file — the
    /// order to delete them in, so a crash between the two leaves an
    /// orphan program file (GC's to sweep), never a state file naming a
    /// missing one.
    fn sidecar(&self, key: &str) -> [PathBuf; 2] {
        let snap = self.snap_path(key);
        [snap.clone(), bfetch_sim::program_path(&snap)]
    }

    /// Quarantines a corrupt snapshot sidecar to `<stem>.snap.bad`, and its
    /// program file to `<stem>.prog.bad` — the same discipline as torn
    /// cache entries: never resumed again, kept for post-mortem until the
    /// next GC sweep. Counted once in [`ResultCache::quarantined`].
    pub fn quarantine_snap(&self, key: &str) {
        for path in self.sidecar(key) {
            let mut bad = path.clone().into_os_string();
            bad.push(".bad");
            let _ = std::fs::rename(&path, &bad);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes the snapshot sidecar for `key` and its program file (best
    /// effort) — called once the point completes and the resume state is
    /// obsolete.
    pub fn remove_snap(&self, key: &str) {
        for path in self.sidecar(key) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Stores `results` under `key` atomically: the entry is streamed to a
    /// pid-tagged temp name and renamed into place under the directory
    /// lock, so concurrent invocations serialize and a crash strands at
    /// worst a temp file (swept by [`ResultCache::gc`]).
    pub fn store(&self, key: &str, results: &[RunResult]) -> std::io::Result<()> {
        let _lock = DirLock::acquire(&self.dir)?;
        write_results(&self.dir.join(file_name(key)), key, results).map_err(std::io::Error::other)
    }

    /// Maintenance sweep under the directory lock: removes stranded
    /// `*.tmp.*` files, quarantined `*.bad` entries, snapshot sidecars
    /// with their program files, and stale files — any entry that does not
    /// decode under the current [`bfetch_sim::SCHEMA_VERSION`], every
    /// pre-frame `*.json` entry, and every `*.prog` no `*.snap` names; then
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
        let mut report = GcReport::default();
        // (recency, name-tiebreak, path, size) of valid entries
        let mut live: Vec<(SystemTime, String, PathBuf, u64)> = Vec::new();
        let entries = std::fs::read_dir(&self.dir)?.collect::<Result<Vec<_>, _>>()?;
        let names: HashSet<String> =
            entries.iter().map(|e| e.file_name().to_string_lossy().into_owned()).collect();
        for entry in entries {
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
                // the explicit maintenance pass, so reclaim it with the
                // program file it names
                std::fs::remove_file(&path)?;
                let _ = std::fs::remove_file(bfetch_sim::program_path(&path));
                report.removed_snap += 1;
            } else if let Some(stem) = name.strip_suffix(".prog") {
                // a program file goes with its sidecar (above); one with no
                // sidecar is what a crash between the two renames leaves
                if !names.contains(&format!("{stem}.snap")) {
                    std::fs::remove_file(&path)?;
                    report.removed_stale += 1;
                }
            } else if name.ends_with(".res") || name.ends_with(".json") {
                let meta = entry.metadata()?;
                let valid = name.ends_with(".res")
                    && std::fs::read(&path).is_ok_and(|b| decode_results(&b).is_ok());
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

#[cfg(test)]
mod tests {
    use super::*;
    use bfetch_core::EngineStats;
    use bfetch_mem::MemStats;
    use bfetch_sim::CpiStack;

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

    /// An entry from before the last bump (a version-6 frame with a valid
    /// CRC) is a miss, never a misread; GC reclaims it as stale and the
    /// slot recomputes.
    #[test]
    fn schema_bump_invalidates() {
        assert_eq!(bfetch_sim::SCHEMA_VERSION, 7);
        let cache = ResultCache::new(tmp_dir("schema")).unwrap();
        cache.store("k", &[result("mcf", 1)]).unwrap();
        let path = cache.dir().join(file_name("k"));
        // frame: 8-byte magic, u32 version, …, u32 CRC-32 of the rest
        let mut frame = std::fs::read(&path).unwrap();
        frame[8..12].copy_from_slice(&6u32.to_le_bytes());
        let body = frame.len() - 4;
        let crc = bfetch_snapshot::crc32(&frame[..body]);
        frame[body..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, frame).unwrap();
        assert!(cache.load("k").unwrap().is_none());
        // wrong schema is a plain miss, not corruption
        assert!(path.exists());
        assert_eq!(cache.quarantined(), 0);
        assert_eq!(cache.gc(u64::MAX).unwrap().removed_stale, 1);
        assert!(!path.exists());
        cache.store("k", &[result("mcf", 7)]).unwrap();
        assert_eq!(cache.load("k").unwrap().unwrap()[0].cycles, 7);
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
        assert!(cache.load("good").unwrap().is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn snap_sidecars_follow_the_quarantine_and_gc_discipline() {
        let cache = ResultCache::new(tmp_dir("snap")).unwrap();
        // the sidecar and its program file share the entry's
        // content-addressed stem
        assert_eq!(
            snap_name("k").strip_suffix(".snap"),
            file_name("k").strip_suffix(".res"),
        );
        let snap = cache.snap_path("k");
        let prog = cache.dir().join(format!("{}.prog", stem("k")));
        assert_eq!(bfetch_sim::program_path(&snap), prog);
        std::fs::write(&snap, "torn checkpoint bytes").unwrap();
        std::fs::write(&prog, "its programs").unwrap();
        // quarantine renames the pair to .snap.bad and .prog.bad and
        // counts one quarantine
        cache.quarantine_snap("k");
        assert!(!snap.exists() && !prog.exists());
        let bad = cache.dir().join(format!("{}.bad", snap_name("k")));
        let prog_bad = cache.dir().join(format!("{}.prog.bad", stem("k")));
        assert!(bad.exists() && prog_bad.exists());
        assert_eq!(cache.quarantined(), 1);
        // a fresh pair, a stranded atomic-write temp, and the quarantined
        // pair: GC sweeps them all under distinct counters
        std::fs::write(&snap, "resumable state").unwrap();
        std::fs::write(&prog, "its programs").unwrap();
        let tmp = cache.dir().join(format!("{}.tmp.4242", snap_name("k")));
        std::fs::write(&tmp, "half a checkpoint").unwrap();
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!(report.removed_snap, 1);
        assert_eq!(report.removed_bad, 2);
        assert_eq!(report.removed_tmp, 1);
        assert_eq!(report.removed_stale, 0, "a program file its sidecar names is not stale");
        for f in [&snap, &prog, &bad, &prog_bad, &tmp] {
            assert!(!f.exists(), "{} survived GC", f.display());
        }
        // completion removes the pair; a no-op on an already-clean slot
        std::fs::write(&snap, "resumable state").unwrap();
        std::fs::write(&prog, "its programs").unwrap();
        cache.remove_snap("k");
        assert!(!snap.exists() && !prog.exists());
        cache.remove_snap("k");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A program file whose sidecar is gone (a crash between the two
    /// renames, or a sidecar deleted by hand) is stale: GC sweeps and
    /// counts it, and leaves a paired one to the sidecar's fate.
    #[test]
    fn gc_sweeps_an_orphan_program_file_as_stale() {
        let cache = ResultCache::new(tmp_dir("orphan-prog")).unwrap();
        cache.store("done", &[result("mcf", 1)]).unwrap();
        let orphan = cache.dir().join(format!("{}.prog", stem("crashed")));
        std::fs::write(&orphan, "programs nobody names").unwrap();
        let report = cache.gc(u64::MAX).unwrap();
        assert_eq!((report.removed_stale, report.removed_snap, report.kept), (1, 0, 1));
        assert!(!orphan.exists());
        assert!(report.to_string().contains("1 stale (entries, orphan .prog)"), "{report}");
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

    /// Writes `bytes` over `key`'s entry and loads it: it must be a miss
    /// that quarantines the entry, never a hit.
    fn assert_quarantined_miss(cache: &ResultCache, key: &str, bytes: &[u8], what: &str) {
        let path = cache.dir().join(file_name(key));
        std::fs::write(&path, bytes).unwrap();
        let before = cache.quarantined();
        let got = cache.load(key).unwrap();
        assert!(got.is_none(), "{what} was served: {got:?}");
        assert_eq!(cache.quarantined(), before + 1, "{what} was not quarantined");
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
            Err(SnapshotError::Invalid { what: "unknown prefetcher name" })
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
            engine: Some(EngineStats { lookaheads: 7, ..EngineStats::default() }),
            pf_metadata_bytes: u64::MAX,
            cpi: Some(CpiStack { cycles: 100, ..CpiStack::new(4) }),
            ..result("mcf", 123_456)
        };
        let inputs = [
            full.clone(),
            RunResult { engine: None, ..full.clone() },
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
            "3 stale (entries, orphan .prog)",
            "6 snapshots (.snap + .prog)",
            "evicted 4",
            "5 entries",
            "400 bytes freed",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
