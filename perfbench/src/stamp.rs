//! Attribution for every result: the code fingerprint (git revision and
//! dirty flag when the checkout is a git work tree, a digest of the
//! sources either way, build profile and usable cores) and the process's
//! peak resident memory.

use fp_types::mix2;
use fp_types::stablehash::stable_hash64;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct CodeFingerprint {
    pub git_rev: String,
    pub dirty: Option<bool>,
    /// Digest of every file under `crates/` and `perfbench/src/` plus the
    /// manifests, in sorted path order: identifies the code even where
    /// there is no git metadata.
    pub src_digest: u64,
    pub profile: &'static str,
    pub nproc: usize,
}

impl CodeFingerprint {
    /// Fingerprint the checkout in the current directory.
    pub fn of_checkout() -> CodeFingerprint {
        // Only ask git when this directory is a work tree's root: git
        // would otherwise walk up and report an unrelated enclosing repo.
        let is_repo = Path::new(".git").exists();
        let git = |args: &[&str]| -> Option<String> {
            let out = Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let (git_rev, dirty) = if is_repo {
            (
                git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()),
            )
        } else {
            ("none".into(), None)
        };
        let mut files = Vec::new();
        for dir in ["crates", "perfbench/src"] {
            collect_files(Path::new(dir), &mut files);
        }
        files.extend(
            ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"]
                .iter()
                .map(PathBuf::from),
        );
        files.sort();
        let mut src_digest = 0u64;
        for file in &files {
            if let Ok(bytes) = std::fs::read(file) {
                let name = stable_hash64(file.to_string_lossy().as_bytes(), 0);
                src_digest = mix2(mix2(src_digest, name), stable_hash64(&bytes, 0));
            }
        }
        CodeFingerprint {
            git_rev,
            dirty,
            src_digest,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    pub fn to_json(&self) -> String {
        let dirty = match self.dirty {
            Some(d) => d.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"git_rev\": \"{}\", \"dirty\": {dirty}, \"src_digest\": \"{:016x}\", \
             \"profile\": \"{}\", \"nproc\": {}}}",
            self.git_rev, self.src_digest, self.profile, self.nproc
        )
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB; NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
