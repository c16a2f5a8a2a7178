//! Facts about the host and the build that every result records.

use std::path::{Path, PathBuf};

/// CPUs the process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The cargo profile this binary was built with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git commit of the working directory, or `"unavailable"` outside a
/// git repository.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

/// The repository root: the nearest of the working directory and its
/// parent that holds `crates/`.
fn repo_root() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    [cwd.clone(), cwd.join("..")].into_iter().find(|d| d.join("crates").is_dir())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// FNV-1a digest of every `.rs` and `.toml` file under `crates/` and
/// `perfbench/src`, in path order: identifies the measured code where no
/// git commit is available.
pub fn source_digest() -> String {
    let Some(root) = repo_root() else {
        return "unavailable".to_string();
    };
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    collect_files(&root.join("perfbench").join("src"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in &files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(&root), std::fs::read(f)) {
            h.write(rel.to_string_lossy().as_bytes());
            h.write(&bytes);
        }
    }
    format!("{:016x}", h.0)
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
