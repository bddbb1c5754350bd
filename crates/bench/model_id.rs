// The model's identity: one hash over the source of every crate whose code
// reaches a `RunResult`. `build.rs` includes this file and exports the hash
// as `BFETCH_MODEL_ID`; `tests/model_id.rs` includes it to test the walk.

/// The directories hashed, relative to the workspace's `crates/`: the
/// simulator and everything it runs, the kernels' assembly included.
const MODEL_DIRS: [&str; 11] = [
    "sim/src",
    "mem/src",
    "core/src",
    "bpred/src",
    "prefetch/src",
    "isa/src",
    "workloads/src",
    "workloads/asm",
    "prng/src",
    "stats/src",
    "snapshot/src",
];

/// Every `.rs` and `.s` file under [`MODEL_DIRS`], as `/`-joined paths
/// relative to `crates`, sorted.
///
/// # Panics
///
/// Panics if a directory cannot be read: a model hashed without one of
/// its crates would be silently wrong.
fn model_files(crates: &std::path::Path) -> Vec<String> {
    fn walk(crates: &std::path::Path, rel: &str, out: &mut Vec<String>) {
        let dir = crates.join(rel);
        let entries = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("model source {}: {e}", dir.display()));
        for entry in entries {
            let entry = entry.unwrap_or_else(|e| panic!("model source {}: {e}", dir.display()));
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = format!("{rel}/{name}");
            if entry.path().is_dir() {
                walk(crates, &path, out);
            } else if name.ends_with(".rs") || name.ends_with(".s") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for dir in MODEL_DIRS {
        walk(crates, dir, &mut files);
    }
    files.sort();
    files
}

/// FNV-1a (64-bit) over each of [`model_files`] in order: its relative
/// path, a zero byte, its length as 8 little-endian bytes, then its bytes.
/// Depends on file contents and names only, not on timestamps or on where
/// the tree is checked out.
fn model_id(crates: &std::path::Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for rel in model_files(crates) {
        let bytes = std::fs::read(crates.join(&rel))
            .unwrap_or_else(|e| panic!("model source {rel}: {e}"));
        eat(rel.as_bytes());
        eat(&[0]);
        eat(&(bytes.len() as u64).to_le_bytes());
        eat(&bytes);
    }
    h
}
