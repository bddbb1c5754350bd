//! The build script's file walk (`model_id.rs`), tested through the same
//! source it runs.

include!("../model_id.rs");

use bfetch_bench::harness::cache::MODEL_ID;
use std::path::{Path, PathBuf};

/// The id the build script exported is the hash of the sources checked
/// out beside this test.
#[test]
fn the_built_id_hashes_the_checked_out_sources() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    assert_eq!(format!("{:016x}", model_id(&crates)), MODEL_ID);
    let files = model_files(&crates);
    for must in [
        "mem/src/cache.rs",
        "workloads/asm/sieve.s",
        "sim/src/core.rs",
    ] {
        assert!(files.iter().any(|f| f == must), "{must} is not hashed");
    }
    assert!(files
        .iter()
        .all(|f| f.ends_with(".rs") || f.ends_with(".s")));
}

/// A copy of a minimal tree: one source file per hashed directory, one
/// in a subdirectory, and a file the walk ignores.
fn tiny_tree(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bfetch-model-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for dir in MODEL_DIRS {
        std::fs::create_dir_all(root.join(dir)).unwrap();
        std::fs::write(root.join(dir).join("lib.rs"), format!("// {dir}\n")).unwrap();
    }
    std::fs::create_dir_all(root.join("mem/src/nested")).unwrap();
    std::fs::write(root.join("mem/src/nested/way.rs"), "pub const W: u8 = 8;\n").unwrap();
    std::fs::write(root.join("mem/src/notes.txt"), "not source\n").unwrap();
    root
}

#[test]
fn a_one_byte_source_edit_changes_the_id() {
    let root = tiny_tree("edit");
    let before = model_id(&root);
    assert_eq!(model_id(&root), before, "the id is a function of the tree");
    // an ignored file changes nothing
    std::fs::write(root.join("mem/src/notes.txt"), "still not source\n").unwrap();
    assert_eq!(model_id(&root), before);
    // one byte of a nested source file
    std::fs::write(root.join("mem/src/nested/way.rs"), "pub const W: u8 = 9;\n").unwrap();
    let edited = model_id(&root);
    assert_ne!(edited, before);
    // a renamed file with the same bytes is another model too
    std::fs::rename(
        root.join("mem/src/nested/way.rs"),
        root.join("mem/src/nested/wax.rs"),
    )
    .unwrap();
    assert_ne!(model_id(&root), edited);
    let _ = std::fs::remove_dir_all(&root);
}
