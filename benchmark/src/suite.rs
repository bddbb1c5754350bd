//! `suite`: every workload timed, then every workload traced, each in a
//! fresh child process of the driver (so peak RSS and allocator state are
//! per workload), merged into `results.json` and `trace.json`.

use crate::workload::NAMES;
use bfetch_bench::harness::jsonio::Json;
use std::path::Path;
use std::process::Command;

/// Runs the whole suite into `out`. `pass` are the arguments every child
/// gets (`--seed`, `--seconds`, `--quick`, `--out`). Returns whether every
/// child succeeded.
pub fn suite(out: &Path, pass: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in NAMES {
            let status = Command::new(&exe)
                .args(["--workload", w, "--trace", trace])
                .args(pass)
                .status()
                .map_err(|e| format!("spawn {w}: {e}"))?;
            ok &= status.success();
            println!();
        }
    }
    let read = |name: String| {
        let path = out.join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).ok_or_else(|| format!("{}: not JSON", path.display()))
    };
    let mut runs = Vec::new();
    let mut events = Vec::new();
    for (i, w) in NAMES.iter().enumerate() {
        runs.push(read(format!("{w}.json"))?);
        runs.push(read(format!("{w}.traced.json"))?);
        // give each workload's two trace processes their own ids
        if let Some(Json::Arr(evs)) = read(format!("{w}.trace.json"))?.get("traceEvents") {
            for e in evs {
                let Json::Obj(fields) = e else { continue };
                events.push(Json::Obj(
                    fields
                        .iter()
                        .map(|(k, v)| match (k.as_str(), v.as_u64()) {
                            ("pid", Some(pid)) => {
                                (k.clone(), Json::u64_of(10 * (i as u64 + 1) + pid))
                            }
                            _ => (k.clone(), v.clone()),
                        })
                        .collect(),
                ));
            }
        }
    }
    let results = Json::Obj(vec![
        ("schema".to_string(), Json::u64_of(crate::doc::SCHEMA)),
        ("runs".to_string(), Json::Arr(runs)),
    ]);
    for (name, text) in [
        ("results.json", results.to_string()),
        ("trace.json", crate::spans::chrome_doc(events).to_string()),
    ] {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(ok)
}
