//! The injectable I/O layer every durability path goes through.
//!
//! [`Vfs`] + [`DurableFile`] abstract exactly the filesystem surface the
//! subsystem needs (append, whole-file read, truncate, atomic rename).
//! [`StdVfs`] is the production implementation over `std::fs`;
//! [`crate::sim::SimVfs`] is the fault-injection implementation that forces
//! short writes, fsync failures, and kill-at-arbitrary-byte crashes so every
//! crash path runs deterministically in CI.

use std::fmt;
use std::fs;
use std::io::Write as _;

/// Result alias for every durability operation.
pub type Result<T> = std::result::Result<T, DurabilityError>;

/// Typed durability failure. No path ever panics on I/O or corruption — it
/// surfaces one of these and the caller degrades (older snapshot generation,
/// torn-tail truncation, sync-failure counter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// An I/O operation failed (open, write, read, rename, truncate, …).
    Io {
        /// The operation that failed, e.g. `"open_append"`.
        op: &'static str,
        /// File the operation targeted.
        path: String,
        /// OS error message.
        message: String,
    },
    /// `fsync` failed — the typed error the AOF writer surfaces (and counts
    /// in [`crate::stats::DurabilityStats::aof_sync_failures`]) instead of
    /// panicking.
    SyncFailed {
        /// File whose sync failed.
        path: String,
        /// OS error message.
        message: String,
    },
    /// Stored bytes failed validation (bad magic, bad checksum, garbage
    /// length, undecodable payload).
    Corrupt {
        /// File holding the corrupt bytes.
        path: String,
        /// Byte offset where validation failed.
        offset: u64,
        /// Human-readable description of what failed.
        detail: String,
    },
    /// The simulated process kill from [`crate::sim::SimVfs`]: the configured
    /// write budget ran out mid-write. Never produced by [`StdVfs`].
    SimulatedCrash {
        /// File being written when the budget ran out.
        path: String,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { op, path, message } => {
                write!(f, "io error during {op} on {path}: {message}")
            }
            Self::SyncFailed { path, message } => write!(f, "fsync failed on {path}: {message}"),
            Self::Corrupt {
                path,
                offset,
                detail,
            } => write!(f, "corrupt data in {path} at offset {offset}: {detail}"),
            Self::SimulatedCrash { path } => write!(f, "simulated crash while writing {path}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl DurabilityError {
    /// True for the fault-injection kill marker.
    pub fn is_simulated_crash(&self) -> bool {
        matches!(self, Self::SimulatedCrash { .. })
    }
}

/// An open file handle the durability layer appends to.
///
/// Writes are sequential appends only — the subsystem never seeks — so the
/// trait stays small enough that a deterministic in-memory fault-injection
/// implementation covers it exactly.
pub trait DurableFile {
    /// Appends `buf`. On failure some prefix of `buf` may have reached the
    /// file (a short write) — exactly the torn-tail shape recovery handles.
    fn write_all(&mut self, buf: &[u8]) -> Result<()>;

    /// Flushes written bytes to stable storage (fsync).
    fn sync(&mut self) -> Result<()>;
}

/// The filesystem surface behind the durability layer.
pub trait Vfs {
    /// Handle type returned by [`Vfs::open_append`] / [`Vfs::create`].
    type File: DurableFile + fmt::Debug;

    /// Opens `path` for appending, creating it empty if missing.
    fn open_append(&self, path: &str) -> Result<Self::File>;

    /// Creates `path` empty (truncating any existing file) for writing.
    fn create(&self, path: &str) -> Result<Self::File>;

    /// Reads the whole file.
    fn read(&self, path: &str) -> Result<Vec<u8>>;

    /// Whether `path` exists.
    fn exists(&self, path: &str) -> bool;

    /// Current length of `path` in bytes.
    fn len(&self, path: &str) -> Result<u64>;

    /// Truncates `path` to `len` bytes (used to drop a torn AOF tail).
    fn truncate(&self, path: &str, len: u64) -> Result<()>;

    /// Atomically renames `from` over `to` (the temp-file commit step for
    /// snapshots and manifests).
    fn rename(&self, from: &str, to: &str) -> Result<()>;

    /// Removes `path`; missing files are not an error.
    fn remove(&self, path: &str) -> Result<()>;

    /// Creates `path` and its parents as directories.
    fn create_dir_all(&self, path: &str) -> Result<()>;
}

fn io_err(op: &'static str, path: &str, e: std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        op,
        path: path.to_string(),
        message: e.to_string(),
    }
}

/// The production [`Vfs`] over `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

/// A real file opened through [`StdVfs`].
#[derive(Debug)]
pub struct StdFile {
    file: fs::File,
    path: String,
}

impl DurableFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<()> {
        self.file
            .write_all(buf)
            .map_err(|e| io_err("write", &self.path, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| DurabilityError::SyncFailed {
                path: self.path.clone(),
                message: e.to_string(),
            })
    }
}

impl Vfs for StdVfs {
    type File = StdFile;

    fn open_append(&self, path: &str) -> Result<StdFile> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open_append", path, e))?;
        Ok(StdFile {
            file,
            path: path.to_string(),
        })
    }

    fn create(&self, path: &str) -> Result<StdFile> {
        let file = fs::File::create(path).map_err(|e| io_err("create", path, e))?;
        Ok(StdFile {
            file,
            path: path.to_string(),
        })
    }

    fn read(&self, path: &str) -> Result<Vec<u8>> {
        fs::read(path).map_err(|e| io_err("read", path, e))
    }

    fn exists(&self, path: &str) -> bool {
        fs::metadata(path).is_ok()
    }

    fn len(&self, path: &str) -> Result<u64> {
        fs::metadata(path)
            .map(|m| m.len())
            .map_err(|e| io_err("len", path, e))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("truncate", path, e))?;
        file.set_len(len).map_err(|e| io_err("truncate", path, e))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        fs::rename(from, to).map_err(|e| io_err("rename", from, e))
    }

    fn remove(&self, path: &str) -> Result<()> {
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", path, e)),
        }
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        fs::create_dir_all(path).map_err(|e| io_err("create_dir_all", path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_vfs_round_trips_in_a_temp_dir() {
        let dir = std::env::temp_dir().join(format!("durability-io-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let vfs = StdVfs;
        vfs.create_dir_all(&dir_s).unwrap();
        let path = format!("{dir_s}/a.log");
        let tmp = format!("{dir_s}/a.log.tmp");

        let mut f = vfs.create(&tmp).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&tmp, &path).unwrap();

        assert!(vfs.exists(&path));
        assert!(!vfs.exists(&tmp));
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        assert_eq!(vfs.len(&path).unwrap(), 11);

        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b"!").unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world!");

        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello");

        vfs.remove(&path).unwrap();
        vfs.remove(&path).unwrap(); // idempotent
        assert!(!vfs.exists(&path));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_are_typed_and_displayable() {
        let vfs = StdVfs;
        let err = vfs.read("/nonexistent/durability/file").unwrap_err();
        assert!(matches!(err, DurabilityError::Io { op: "read", .. }));
        assert!(err.to_string().contains("/nonexistent/durability/file"));
        assert!(!err.is_simulated_crash());
    }
}
