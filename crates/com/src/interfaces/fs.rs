//! File system COM interfaces (paper §3.8).
//!
//! "The OSKit file system's exported COM interfaces are similar to the
//! internal VFS interface used by many Unix file systems.  These interfaces
//! are of sufficiently fine granularity that we were able to leave
//! untouched the internals of the OSKit file system.  For example, the
//! OSKit interface accepts only single pathname components, allowing the
//! security wrapping code to do appropriate permission checking."

use crate::error::{Error, Result};
use crate::interfaces::blkio::BufIo;
use crate::interfaces::socket::{SendBufIo, Socket};
use crate::interfaces::stream::Stream;
use crate::iunknown::{IUnknown, Query};
use crate::{com_interface_decl, oskit_iid};
use std::sync::Arc;

/// File type as reported by [`FileStat`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
    /// Character or block device node.
    Device,
}

/// File attributes: the OSKit's `oskit_stat`.
///
/// The glue code converts between donor-OS `struct stat` layouts and this
/// neutral form (paper §4.7.2 "Conversions and Namespace Management").
#[derive(Clone, Copy, Debug)]
pub struct FileStat {
    /// Inode number within the file system.
    pub ino: u64,
    /// File type.
    pub kind: FileType,
    /// Permission bits (POSIX low 12 bits).
    pub mode: u32,
    /// Number of hard links.
    pub nlink: u32,
    /// Owner user id.
    pub uid: u32,
    /// Owner group id.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Blocks allocated (in 512-byte units).
    pub blocks: u64,
    /// Modification time, seconds since the epoch.
    pub mtime: u64,
}

impl Default for FileStat {
    fn default() -> Self {
        FileStat {
            ino: 0,
            kind: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 0,
            blocks: 0,
            mtime: 0,
        }
    }
}

/// Attributes that can be changed with [`File::setstat`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StatChange {
    /// New permission bits.
    pub mode: Option<u32>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// New size (truncate/extend).
    pub size: Option<u64>,
    /// New modification time.
    pub mtime: Option<u64>,
}

/// One directory entry returned by [`Dir::readdir`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dirent {
    /// Inode number.
    pub ino: u64,
    /// Component name (no slashes).
    pub name: String,
}

/// A file: the OSKit's `oskit_file`.
///
/// Positionless (`pread`/`pwrite`-style) I/O; per-open-file cursors belong
/// to the POSIX layer above, not to the file system component.
pub trait File: IUnknown {
    /// Reads up to `buf.len()` bytes at byte `offset`.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<usize>;

    /// Writes `buf` at byte `offset`, extending the file if needed.
    fn write_at(&self, buf: &[u8], offset: u64) -> Result<usize>;

    /// Returns the file's attributes.
    fn getstat(&self) -> Result<FileStat>;

    /// Applies attribute changes.
    fn setstat(&self, change: &StatChange) -> Result<()>;

    /// Flushes cached state for this file to stable storage.
    fn sync(&self) -> Result<()>;

    /// `sendfile`: transmits up to `len` bytes of this file starting at
    /// `offset` on `sock`, returning the bytes sent (short only at
    /// end-of-file or if the peer closed).
    ///
    /// Pure interface discovery decides the data path.  When the file
    /// exposes [`FileBufIo`] *and* the socket exposes [`SendBufIo`], the
    /// file's buffer-cache pages travel to the socket as refcounted
    /// [`BufIo`] extents — zero bytes copied at the file→socket boundary.
    /// Otherwise the bytes move through an ordinary bounce buffer
    /// ([`File::read_at`] + [`Stream::write`]/[`Socket::send`]), which is
    /// always available.  Callers never need to know which path ran.
    fn send_on(&self, sock: &dyn IUnknown, offset: u64, len: u64) -> Result<u64> {
        let size = self.getstat()?.size;
        if offset >= size {
            return Ok(0);
        }
        let len = len.min(size - offset);
        if let (Some(fb), Some(sb)) = (self.query::<dyn FileBufIo>(), sock.query::<dyn SendBufIo>())
        {
            // Zero-copy leg: hand pinned extents to the socket, windowed
            // so only a bounded run of cache pages is pinned at once.
            const WINDOW: u64 = 256 * 1024;
            let mut sent = 0u64;
            while sent < len {
                let want = (len - sent).min(WINDOW) as usize;
                let extents = fb.read_bufs(offset + sent, want)?;
                if extents.is_empty() {
                    break;
                }
                for ext in extents {
                    let mut done = 0;
                    while done < ext.len {
                        let n = sb.send_bufio(&ext.buf, ext.off + done, ext.len - done)?;
                        if n == 0 {
                            return Ok(sent);
                        }
                        done += n;
                        sent += n as u64;
                    }
                }
            }
            return Ok(sent);
        }
        // Copying fallback: any byte sink the socket offers.
        let stream = sock.query::<dyn Stream>();
        let socket = sock.query::<dyn Socket>();
        if stream.is_none() && socket.is_none() {
            return Err(Error::Inval);
        }
        let mut chunk = vec![0u8; 64 * 1024];
        let mut sent = 0u64;
        while sent < len {
            let want = chunk.len().min((len - sent) as usize);
            let n = self.read_at(&mut chunk[..want], offset + sent)?;
            if n == 0 {
                break;
            }
            let mut done = 0;
            while done < n {
                let w = match (&stream, &socket) {
                    (Some(s), _) => s.write(&chunk[done..n])?,
                    (None, Some(s)) => s.send(&chunk[done..n])?,
                    (None, None) => unreachable!("checked above"),
                };
                if w == 0 {
                    return Ok(sent);
                }
                done += w;
                sent += w as u64;
            }
        }
        Ok(sent)
    }
}
com_interface_decl!(File, oskit_iid(0x88), "oskit_file");

/// One piece of a file mapped onto a pinned buffer object: bytes
/// `[off, off+len)` of `buf`.
///
/// The `Arc` is the pin — a file system backed by a buffer cache hands
/// out its cache pages here, and they stay resident until the extent is
/// dropped.
#[derive(Clone)]
pub struct FileExtent {
    /// The buffer object holding the bytes (typically a cache page).
    pub buf: Arc<dyn BufIo>,
    /// Byte offset of the extent within `buf`.
    pub off: usize,
    /// Extent length in bytes.
    pub len: usize,
}

impl core::fmt::Debug for FileExtent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FileExtent")
            .field("off", &self.off)
            .field("len", &self.len)
            .finish()
    }
}

/// Buffer-grained file reading: the [`File`] extension behind zero-copy
/// `sendfile`.
///
/// Instead of copying bytes into a caller buffer, [`FileBufIo::read_bufs`]
/// returns the file's *storage* — pinned, refcounted [`BufIo`] extents
/// that can cross component boundaries (socket, NIC) without copying.
pub trait FileBufIo: File {
    /// Maps up to `len` bytes of the file at `offset` onto buffer-object
    /// extents, in file order.
    ///
    /// Returns fewer bytes than requested only at end-of-file; holes read
    /// as freshly allocated zero buffers.  Every returned extent pins its
    /// backing page until dropped.
    fn read_bufs(&self, offset: u64, len: usize) -> Result<Vec<FileExtent>>;
}
com_interface_decl!(FileBufIo, oskit_iid(0x8e), "oskit_file_bufio");

/// A directory: the OSKit's `oskit_dir`, an extension of [`File`].
///
/// All name arguments are **single pathname components**: they must not
/// contain `/`.  Multi-component traversal is the client's business —
/// that granularity is what lets security wrappers interpose per-component
/// checks (paper §3.8).
pub trait Dir: File {
    /// Looks up `name` in this directory.
    fn lookup(&self, name: &str) -> Result<Arc<dyn File>>;

    /// Creates (or opens, if `exclusive` is false and it exists) a regular
    /// file named `name`.
    fn create(&self, name: &str, exclusive: bool, mode: u32) -> Result<Arc<dyn File>>;

    /// Creates a subdirectory.
    fn mkdir(&self, name: &str, mode: u32) -> Result<Arc<dyn Dir>>;

    /// Removes the regular file `name`.
    fn unlink(&self, name: &str) -> Result<()>;

    /// Removes the empty subdirectory `name`.
    fn rmdir(&self, name: &str) -> Result<()>;

    /// Renames `old_name` in this directory to `new_name` in `new_dir`.
    ///
    /// Both directories must belong to the same file system
    /// ([`Error::XDev`] otherwise).
    fn rename(&self, old_name: &str, new_dir: &dyn Dir, new_name: &str) -> Result<()>;

    /// Creates a hard link `name` to the (non-directory) `file`.
    fn link(&self, name: &str, file: &dyn File) -> Result<()>;

    /// Reads directory entries starting at entry index `start`.
    ///
    /// Returns at most `count` entries; an empty vector signals
    /// end-of-directory.  The `.` and `..` entries are included.
    fn readdir(&self, start: usize, count: usize) -> Result<Vec<Dirent>>;
}
com_interface_decl!(Dir, oskit_iid(0x89), "oskit_dir");

/// Statistics returned by [`FileSystem::statfs`]: the OSKit's
/// `oskit_statfs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FsStat {
    /// Fundamental block size.
    pub bsize: u32,
    /// Total data blocks.
    pub blocks: u64,
    /// Free blocks.
    pub bfree: u64,
    /// Total inodes.
    pub files: u64,
    /// Free inodes.
    pub ffree: u64,
}

/// A mounted file system: the OSKit's `oskit_filesystem`.
pub trait FileSystem: IUnknown {
    /// Returns the root directory.
    fn getroot(&self) -> Result<Arc<dyn Dir>>;

    /// Returns file system statistics.
    fn statfs(&self) -> Result<FsStat>;

    /// Flushes all dirty state to the underlying device.
    fn sync(&self) -> Result<()>;

    /// Unmounts: syncs and detaches from the device.  Further operations
    /// on files of this file system fail with [`Error::Stale`].
    fn unmount(&self) -> Result<()>;
}
com_interface_decl!(FileSystem, oskit_iid(0x8a), "oskit_filesystem");

/// Validates that `name` is a legal single pathname component.
///
/// Shared by file system implementations; rejects empty names, `/`, and
/// NUL bytes, and enforces the traditional 255-byte limit.
pub fn check_component(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(Error::Inval);
    }
    if name.len() > 255 {
        return Err(Error::NameTooLong);
    }
    if name.bytes().any(|b| b == b'/' || b == 0) {
        return Err(Error::Inval);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_validation() {
        assert!(check_component("ok").is_ok());
        assert!(check_component(".").is_ok());
        assert_eq!(check_component("").unwrap_err(), Error::Inval);
        assert_eq!(check_component("a/b").unwrap_err(), Error::Inval);
        assert_eq!(check_component("a\0b").unwrap_err(), Error::Inval);
        let long = "x".repeat(256);
        assert_eq!(check_component(&long).unwrap_err(), Error::NameTooLong);
        let edge = "x".repeat(255);
        assert!(check_component(&edge).is_ok());
    }

    #[test]
    fn default_stat_is_sane() {
        let s = FileStat::default();
        assert_eq!(s.kind, FileType::Regular);
        assert_eq!(s.mode, 0o644);
        assert_eq!(s.nlink, 1);
    }
}
