//! Scratch directories for WAL and checkpoint files.
//!
//! Every run works under `.bench_tmp/<pid>/` in the working directory and
//! removes it when the [`ScratchRoot`] drops — on return and while
//! unwinding from a panic. Directories left by a run that was killed are
//! removed by the next run, so repeated runs start from the same state.

use std::path::{Path, PathBuf};

/// The directory all runs share, relative to the working directory.
pub const BASE: &str = ".bench_tmp";

/// This process's scratch directory; removed on drop.
#[derive(Debug)]
pub struct ScratchRoot {
    dir: PathBuf,
    next: u64,
}

fn pid_alive(pid: &str) -> bool {
    Path::new("/proc").join(pid).exists()
}

impl ScratchRoot {
    /// Removes the scratch directories of runs that are no longer alive,
    /// then creates this process's own.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn create() -> std::io::Result<Self> {
        let base = Path::new(BASE);
        if let Ok(entries) = std::fs::read_dir(base) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                if !pid_alive(&name) {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        let dir = base.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir, next: 0 })
    }

    /// A fresh, empty subdirectory named after `what`.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn fresh(&mut self, what: &str) -> std::io::Result<ScratchDir> {
        self.next += 1;
        let dir = self.dir.join(format!("{what}-{}", self.next));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leave no empty base directory behind either.
        let _ = std::fs::remove_dir(BASE);
    }
}

/// One scratch subdirectory; removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removes_stale_runs_and_cleans_up_while_unwinding() {
        // No process has this pid, so its directory is a dead run's.
        let stale = Path::new(BASE).join("4294967295");
        std::fs::create_dir_all(stale.join("wal-1")).unwrap();
        let mine = Path::new(BASE).join(std::process::id().to_string());
        let panicked = std::panic::catch_unwind(|| {
            let mut root = ScratchRoot::create().unwrap();
            assert!(!stale.exists());
            let dir = root.fresh("wal").unwrap();
            std::fs::write(dir.path().join("log"), b"x").unwrap();
            assert!(mine.join("wal-1").exists());
            panic!("a round failed");
        });
        assert!(panicked.is_err());
        assert!(!mine.exists());
        assert!(!Path::new(BASE).exists());
    }
}
