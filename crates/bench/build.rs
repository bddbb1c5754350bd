//! Exports `BFETCH_MODEL_ID`, the hash of the model's sources that keys
//! the result cache (`harness::cache::MODEL_ID`), and asks Cargo to rerun
//! whenever a hashed directory changes, so the id is never stale.

include!("model_id.rs");

fn main() {
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!("cargo:rerun-if-changed=model_id.rs");
    for dir in MODEL_DIRS {
        println!("cargo:rerun-if-changed={}", crates.join(dir).display());
    }
    println!("cargo:rustc-env=BFETCH_MODEL_ID={:016x}", model_id(&crates));
}
