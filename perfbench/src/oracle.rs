//! Reference answers from the tree-walking engine, stored as digests.
//!
//! Every workload checks the VM-backed outputs it measured against a
//! reference computed with `fruntime::Engine::TreeWalk`, the reference
//! interpreter that shares no execution code with the VM under test.
//! References are pure in (workload, seed), so they are computed once
//! per built binary and cached under `.perfbench/refs/` in the working
//! directory; the cache key includes the executable's size and mtime so
//! a rebuilt program never reads a stale reference.

use std::path::PathBuf;

/// 128-bit FNV-1a digest, hex-encoded.
pub fn digest(s: &str) -> String {
    format!("{:032x}", ipp_core::source_key(s))
}

fn cache_path(name: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(exe).ok()?;
    let mtime = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let tag = digest(&format!("{}:{mtime}", meta.len()));
    Some(PathBuf::from(".perfbench/refs").join(format!("{}-{name}.txt", &tag[..16])))
}

/// The reference digests stored under `name`, computing and storing them
/// with `compute` when absent. The cache is an optimisation only: any
/// I/O failure falls back to recomputing.
pub fn cached(name: &str, compute: impl FnOnce() -> Vec<String>) -> Vec<String> {
    let path = cache_path(name);
    if let Some(text) = path.as_ref().and_then(|p| std::fs::read_to_string(p).ok()) {
        return text.lines().map(str::to_string).collect();
    }
    let refs = compute();
    if let Some(p) = path {
        let tmp = p.with_extension("tmp");
        let ok = p
            .parent()
            .map(|d| std::fs::create_dir_all(d).is_ok())
            .unwrap_or(false)
            && std::fs::write(&tmp, refs.join("\n")).is_ok();
        if ok {
            let _ = std::fs::rename(&tmp, &p);
        }
    }
    refs
}
