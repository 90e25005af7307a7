//! Building the program under test, and what each result records
//! about it.
//!
//! The benchmark builds `clockless` itself with `cargo build --release`
//! in the checkout it runs from (honouring `CARGO_TARGET_DIR`), and
//! takes the executable path from Cargo's own artifact report. It
//! refuses an artifact that is not an optimized, assertion-free release
//! build; since Cargo has just brought it up to date, the binary cannot
//! be stale. Parent and change therefore each measure their own program.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use clockless_core::json::Json;
use clockless_serve::content_hash;

/// Builds the release binary under `root` and returns its path.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--bin",
            "clockless",
            "--message-format",
            "json",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("`cargo build --release` failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        let Ok(msg) = Json::parse(line) else { continue };
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-artifact") {
            continue;
        }
        let target = msg.get("target");
        if target.and_then(|t| t.get("name")).and_then(Json::as_str) != Some("clockless") {
            continue;
        }
        let Some(exe) = msg.get("executable").and_then(Json::as_str) else {
            continue;
        };
        let profile = msg.get("profile").ok_or("artifact without a profile")?;
        let opt = profile.get("opt_level").and_then(Json::as_str);
        let asserts = profile.get("debug_assertions").and_then(Json::as_bool);
        if opt != Some("3") || asserts != Some(false) {
            return Err(format!(
                "refusing to time {exe}: not a release build (opt_level {opt:?}, debug_assertions {asserts:?})"
            ));
        }
        return Ok(PathBuf::from(exe));
    }
    Err("cargo reported no `clockless` executable".into())
}

/// FNV-1a over the program's sources (root and crate manifests, the
/// lock file and every file under `src/` and `crates/*/src/`), in path
/// order. It identifies the measured program where no git metadata is
/// available.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for c in crates.flatten() {
            files.push(c.path().join("Cargo.toml"));
            walk(&c.path().join("src"), &mut files);
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        bytes.extend(rel.to_string_lossy().bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", content_hash(&bytes))
}

/// The checkout's commit, when it is a git work tree.
pub fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string())
}
