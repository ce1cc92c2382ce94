//! The one durable file-replace primitive of the workspace.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Replaces the file at `path` with `bytes` atomically and durably.
///
/// The bytes go to a sibling `{path}.tmp` (the suffix is appended, not
/// swapped in, so sibling shard files get distinct temp files), which is
/// fsynced and renamed over `path`; then the parent directory is fsynced
/// so the rename itself survives power loss, not only `kill -9`. A crash
/// at any point leaves either the old file or the new one at `path`,
/// never a torn mix. On error the temp file is removed, and a failure
/// before the rename leaves `path` untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_via_tmp(path, |file| file.write_all(bytes))
}

/// [`atomic_write`] with the payload written by `fill` — the seam the
/// failure tests drive.
fn replace_via_tmp(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        PathBuf::from(os)
    };
    let write = || -> io::Result<()> {
        let mut file = File::create(&tmp)?;
        fill(&mut file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write().inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })?;
    sync_parent_dir(path)
}

/// Fsyncs the directory holding `path`, making a rename into it durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing off Unix; the rename is
/// still atomic there.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mccatch-atomic-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_the_file_and_leaves_no_temp() {
        let dir = scratch("ok");
        let path = dir.join("snap.bin");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        assert!(!dir.join("snap.bin.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_keeps_the_old_file_byte_identical() {
        let dir = scratch("fail");
        let path = dir.join("snap.bin");
        atomic_write(&path, b"the committed bytes").unwrap();
        // The payload dies halfway, as on a full disk.
        let err = replace_via_tmp(&path, |f| {
            f.write_all(b"half of the new")?;
            Err(io::Error::other("disk full"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(std::fs::read(&path).unwrap(), b"the committed bytes");
        assert!(!dir.join("snap.bin.tmp").exists(), "temp file left behind");
        // The rename fails too: the target is a directory.
        let blocked = dir.join("blocked");
        std::fs::create_dir(&blocked).unwrap();
        assert!(atomic_write(&blocked, b"x").is_err());
        assert!(blocked.is_dir());
        assert!(!dir.join("blocked.tmp").exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
