//! Durable-file primitives shared by the on-disk record formats (the fleet
//! journal and the persistent solver cache).

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Replace `path` with `bytes` atomically: write a `<path>.tmp` sibling in
/// one `write_all`, `sync_all` it, rename it over `path`, then fsync the
/// parent directory so the rename itself is durable. A crash leaves either
/// the old file or the new one, never a hybrid.
///
/// The tmp file is removed on failure. The directory fsync is best-effort:
/// some filesystems refuse it, and the file's own fsync already bounds the
/// loss to the rename.
///
/// # Errors
///
/// Any failure to create, write, sync or rename the tmp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Ok(dir) = File::open(parent.unwrap_or(Path::new("."))) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// `<path>.tmp`, in the same directory so the rename stays atomic.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("wasai-record-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.txt");
        write_atomic(&path, b"one\n").unwrap();
        write_atomic(&path, b"two\n").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two\n");
        assert!(!tmp_path(&path).exists());
        // A rename onto a directory fails; the tmp file must not linger.
        let blocked = dir.join("sub");
        fs::create_dir_all(blocked.join("x")).unwrap();
        assert!(write_atomic(&blocked, b"x").is_err());
        assert!(!tmp_path(&blocked).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
