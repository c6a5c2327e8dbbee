//! `oskit-netbsd-fs` — the encapsulated disk file system (paper §3.8).
//!
//! "The OSKit incorporates standard disk-based file system code, again
//! using encapsulation, this time based on NetBSD's file systems.  NetBSD
//! was chosen ... because its file system code is the most cleanly
//! separated of the available systems."
//!
//! [`ffs`] is the donor-idiom code: an FFS-shaped on-disk format,
//! block/inode allocators, `bmap` with indirect blocks, directory
//! management, and `fsck`, all reading and writing blocks through the
//! shared [`oskit_bufcache::BufCache`] (`bread`/`bdwrite`).  [`glue`] exports it
//! through the single-pathname-component COM interfaces that made the
//! paper's secure file server possible without touching these internals.

pub mod ffs {
    //! The donor-idiom file system code.
    pub mod fs;
    pub mod fsck;
    pub mod ondisk;
    /// Tests of the buffer-cache contract the FFS code is written against.
    #[cfg(test)]
    mod buf {
        mod tests;
    }
}
pub mod glue;

pub use ffs::fs::FsCore;
pub use ffs::fsck::{fsck, Finding};
pub use ffs::ondisk::{Superblock, BLOCK_SIZE, ROOT_INO};
pub use glue::{FfsFileSystem, FfsNode};
