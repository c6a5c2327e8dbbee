//! The OSKit glue: COM `oskit_filesystem`/`oskit_dir`/`oskit_file`
//! objects over the encapsulated file system (paper §3.8).
//!
//! "These interfaces are of sufficiently fine granularity that we were
//! able to leave untouched the internals of the OSKit file system" — every
//! name that reaches the core is a single pathname component, and the
//! whole component is guarded by one component lock per the blocking
//! execution model (§4.7.4).  The lock is held for the whole call,
//! including while the underlying device blocks: nothing releases it
//! around a disk sleep, so a second thread entering the file system
//! waits for the first one's I/O to finish.

use crate::ffs::fs::FsCore;
use crate::ffs::ondisk::{mode, DiskDirent, ROOT_INO};
use oskit_com::component::ComponentDesc;
use oskit_com::interfaces::blkio::BlkIo;
use oskit_com::interfaces::fs::{
    check_component, Dir, Dirent, File, FileBufIo, FileExtent, FileStat, FileSystem, FileType,
    FsStat, StatChange,
};
use oskit_com::{com_object, new_com, ComInterface, Error, Guid, IUnknown, Query, Result, SelfRef};

use oskit_machine::{boundary, EventKind, Sim};
use oskit_osenv::{OsEnv, ProcessLock};
use std::sync::Arc;

/// The NetBSD file system, as paper Figure 1 shows it.
pub const NETBSD_FS: ComponentDesc = ComponentDesc {
    name: "netbsd_fs",
    library: "liboskit_netbsd_fs",
    donor: "NetBSD 1.2",
    exports: &[FfsFileSystem::INTERFACES, FfsNode::INTERFACES],
    imports: &["oskit_blkio", "osenv_mem", "osenv_sleep"],
};

/// Shared mount state.
struct Mount {
    core: Arc<FsCore>,
    /// The component lock; `None` for host-thread (non-sim) use, where a
    /// single caller is assumed.
    lock: Option<(Arc<Sim>, ProcessLock)>,
    env: Option<Arc<OsEnv>>,
}

impl Mount {
    fn enter(&self) -> LockGuard<'_> {
        if let Some(env) = &self.env {
            env.machine
                .book(boundary!("netbsd-fs", "vfs_enter"), EventKind::Crossing);
        }
        if let Some((sim, lock)) = &self.lock {
            lock.enter(sim);
            LockGuard {
                lock: Some((sim, lock)),
            }
        } else {
            LockGuard { lock: None }
        }
    }
}

struct LockGuard<'a> {
    lock: Option<(&'a Arc<Sim>, &'a ProcessLock)>,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        if let Some((sim, lock)) = self.lock {
            lock.exit(sim);
        }
    }
}

/// The mounted file system COM object.
pub struct FfsFileSystem {
    me: SelfRef<FfsFileSystem>,
    mount: Arc<Mount>,
}

impl FfsFileSystem {
    /// Formats a device (`newfs`).
    pub fn mkfs(dev: &Arc<dyn BlkIo>) -> Result<()> {
        FsCore::mkfs(dev)
    }

    /// Mounts within a simulated kernel: operations are serialized by a
    /// component lock and crossings are charged.
    pub fn mount_on(env: &Arc<OsEnv>, dev: &Arc<dyn BlkIo>) -> Result<Arc<FfsFileSystem>> {
        let core = FsCore::mount(dev, Some(Arc::clone(&env.machine)))?;
        Ok(new_com(
            FfsFileSystem {
                me: SelfRef::new(),
                mount: Arc::new(Mount {
                    core,
                    lock: Some((Arc::clone(env.sim()), ProcessLock::new("netbsd_fs"))),
                    env: Some(Arc::clone(env)),
                }),
            },
            |o| &o.me,
        ))
    }

    /// Mounts for host-thread use (tests, tools): no locking, no charges.
    pub fn mount_ram(dev: &Arc<dyn BlkIo>) -> Result<Arc<FfsFileSystem>> {
        let core = FsCore::mount(dev, None)?;
        Ok(new_com(
            FfsFileSystem {
                me: SelfRef::new(),
                mount: Arc::new(Mount {
                    core,
                    lock: None,
                    env: None,
                }),
            },
            |o| &o.me,
        ))
    }

    /// Runs the consistency checker.
    pub fn fsck(&self) -> Result<Vec<crate::ffs::fsck::Finding>> {
        crate::ffs::fsck::fsck(&self.mount.core)
    }

    /// The mount's buffer cache (diagnostics: residency and pins).
    pub fn buffer_cache(&self) -> &oskit_bufcache::BufCache {
        self.mount.core.cache()
    }
}

impl FileSystem for FfsFileSystem {
    fn getroot(&self) -> Result<Arc<dyn Dir>> {
        Ok(FfsNode::make(&self.mount, ROOT_INO) as Arc<dyn Dir>)
    }

    fn statfs(&self) -> Result<FsStat> {
        let _g = self.mount.enter();
        let sb = self.mount.core.superblock();
        Ok(FsStat {
            bsize: crate::ffs::ondisk::BLOCK_SIZE as u32,
            blocks: u64::from(sb.nblocks - sb.data_start),
            bfree: u64::from(sb.free_blocks),
            files: u64::from(sb.ninodes),
            ffree: u64::from(sb.free_inodes),
        })
    }

    fn sync(&self) -> Result<()> {
        let _g = self.mount.enter();
        self.mount.core.sync()
    }

    fn unmount(&self) -> Result<()> {
        let _g = self.mount.enter();
        self.mount.core.unmount()
    }
}

com_object!(FfsFileSystem, me, [FileSystem]);

/// A file or directory vnode exported over COM.
pub struct FfsNode {
    me: SelfRef<FfsNode>,
    mount: Arc<Mount>,
    ino: u32,
}

impl FfsNode {
    fn make(mount: &Arc<Mount>, ino: u32) -> Arc<FfsNode> {
        new_com(
            FfsNode {
                me: SelfRef::new(),
                mount: Arc::clone(mount),
                ino,
            },
            |o| &o.me,
        )
    }

    /// The inode number (diagnostics).
    pub fn ino(&self) -> u32 {
        self.ino
    }

    fn core(&self) -> &FsCore {
        &self.mount.core
    }
}

impl File for FfsNode {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        let _g = self.mount.enter();
        let n = self.core().file_read(self.ino, buf, offset)?;
        // The cache-page → caller-buffer copy-out; the lent-page path
        // (`read_bufs`) hands the pages themselves out instead.
        if let Some(env) = &self.mount.env {
            env.machine.book(
                boundary!("netbsd-fs", "fs_read"),
                EventKind::Copy { bytes: n },
            );
        }
        Ok(n)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> Result<usize> {
        let _g = self.mount.enter();
        let d = self.core().read_inode(self.ino)?;
        if d.is_dir() {
            return Err(Error::IsDir);
        }
        self.core().file_write(self.ino, buf, offset)
    }

    fn getstat(&self) -> Result<FileStat> {
        let _g = self.mount.enter();
        let d = self.core().read_inode(self.ino)?;
        Ok(FileStat {
            ino: u64::from(self.ino),
            kind: if d.is_dir() {
                FileType::Directory
            } else {
                FileType::Regular
            },
            mode: u32::from(d.mode & 0o7777),
            nlink: u32::from(d.nlink),
            uid: d.uid,
            gid: d.gid,
            size: d.size,
            blocks: d.size.div_ceil(512),
            mtime: d.mtime,
        })
    }

    fn setstat(&self, change: &StatChange) -> Result<()> {
        let _g = self.mount.enter();
        let mut d = self.core().read_inode(self.ino)?;
        if let Some(m) = change.mode {
            d.mode = (d.mode & mode::IFMT) | (m as u16 & 0o7777);
        }
        if let Some(uid) = change.uid {
            d.uid = uid;
        }
        if let Some(gid) = change.gid {
            d.gid = gid;
        }
        if let Some(mtime) = change.mtime {
            d.mtime = mtime;
        }
        self.core().write_inode(self.ino, &d)?;
        if let Some(size) = change.size {
            self.core().itrunc(self.ino, size)?;
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let _g = self.mount.enter();
        self.core().sync()
    }
}

impl Dir for FfsNode {
    fn lookup(&self, name: &str) -> Result<Arc<dyn File>> {
        check_component(name)?;
        let _g = self.mount.enter();
        let ino = self
            .core()
            .dir_lookup(self.ino, name)?
            .ok_or(Error::NoEnt)?;
        Ok(FfsNode::make(&self.mount, ino) as Arc<dyn File>)
    }

    fn create(&self, name: &str, exclusive: bool, fmode: u32) -> Result<Arc<dyn File>> {
        check_component(name)?;
        let _g = self.mount.enter();
        if let Some(existing) = self.core().dir_lookup(self.ino, name)? {
            if exclusive {
                return Err(Error::Exist);
            }
            return Ok(FfsNode::make(&self.mount, existing) as Arc<dyn File>);
        }
        let ino = self.core().ialloc(mode::IFREG | (fmode as u16 & 0o7777))?;
        let mut d = self.core().read_inode(ino)?;
        d.nlink = 1;
        self.core().write_inode(ino, &d)?;
        self.core().dir_enter(self.ino, name, ino)?;
        Ok(FfsNode::make(&self.mount, ino) as Arc<dyn File>)
    }

    fn mkdir(&self, name: &str, fmode: u32) -> Result<Arc<dyn Dir>> {
        check_component(name)?;
        let _g = self.mount.enter();
        if self.core().dir_lookup(self.ino, name)?.is_some() {
            return Err(Error::Exist);
        }
        let ino = self.core().ialloc(mode::IFDIR | (fmode as u16 & 0o7777))?;
        let mut d = self.core().read_inode(ino)?;
        d.nlink = 2; // "." and the parent entry.
        self.core().write_inode(ino, &d)?;
        self.core().dir_enter(ino, ".", ino)?;
        self.core().dir_enter(ino, "..", self.ino)?;
        self.core().dir_enter(self.ino, name, ino)?;
        // The new ".." is a link to us.
        let mut parent = self.core().read_inode(self.ino)?;
        parent.nlink += 1;
        self.core().write_inode(self.ino, &parent)?;
        Ok(FfsNode::make(&self.mount, ino) as Arc<dyn Dir>)
    }

    fn unlink(&self, name: &str) -> Result<()> {
        check_component(name)?;
        let _g = self.mount.enter();
        let ino = self
            .core()
            .dir_lookup(self.ino, name)?
            .ok_or(Error::NoEnt)?;
        let mut d = self.core().read_inode(ino)?;
        if d.is_dir() {
            return Err(Error::IsDir);
        }
        self.core().dir_remove(self.ino, name)?;
        d.nlink = d.nlink.saturating_sub(1);
        if d.nlink == 0 {
            self.core().inode_release(ino)?;
        } else {
            self.core().write_inode(ino, &d)?;
        }
        Ok(())
    }

    fn rmdir(&self, name: &str) -> Result<()> {
        check_component(name)?;
        if name == "." || name == ".." {
            return Err(Error::Inval);
        }
        let _g = self.mount.enter();
        let ino = self
            .core()
            .dir_lookup(self.ino, name)?
            .ok_or(Error::NoEnt)?;
        let d = self.core().read_inode(ino)?;
        if !d.is_dir() {
            return Err(Error::NotDir);
        }
        if !self.core().dir_is_empty(ino)? {
            return Err(Error::NotEmpty);
        }
        self.core().dir_remove(self.ino, name)?;
        self.core().inode_release(ino)?;
        // Drop the ".." link to us.
        let mut parent = self.core().read_inode(self.ino)?;
        parent.nlink = parent.nlink.saturating_sub(1);
        self.core().write_inode(self.ino, &parent)?;
        Ok(())
    }

    fn rename(&self, old_name: &str, new_dir: &dyn Dir, new_name: &str) -> Result<()> {
        check_component(old_name)?;
        check_component(new_name)?;
        // Same-file-system requirement (§3.8 interfaces are per-fs).
        let target_node = new_dir_ino(new_dir).ok_or(Error::XDev)?;
        let _g = self.mount.enter();
        let ino = self
            .core()
            .dir_lookup(self.ino, old_name)?
            .ok_or(Error::NoEnt)?;
        // Displace any existing target.
        if let Some(existing) = self.core().dir_lookup(target_node, new_name)? {
            let mut e = self.core().read_inode(existing)?;
            if e.is_dir() {
                return Err(Error::Exist);
            }
            self.core().dir_remove(target_node, new_name)?;
            e.nlink = e.nlink.saturating_sub(1);
            if e.nlink == 0 {
                self.core().inode_release(existing)?;
            } else {
                self.core().write_inode(existing, &e)?;
            }
        }
        self.core().dir_remove(self.ino, old_name)?;
        self.core().dir_enter(target_node, new_name, ino)?;
        // Directory moves update ".." and parent link counts.
        let d = self.core().read_inode(ino)?;
        if d.is_dir() && target_node != self.ino {
            self.core().dir_remove(ino, "..")?;
            self.core().dir_enter(ino, "..", target_node)?;
            let mut oldp = self.core().read_inode(self.ino)?;
            oldp.nlink = oldp.nlink.saturating_sub(1);
            self.core().write_inode(self.ino, &oldp)?;
            let mut newp = self.core().read_inode(target_node)?;
            newp.nlink += 1;
            self.core().write_inode(target_node, &newp)?;
        }
        Ok(())
    }

    fn link(&self, name: &str, file: &dyn File) -> Result<()> {
        check_component(name)?;
        let ino = file_ino(file).ok_or(Error::XDev)?;
        let _g = self.mount.enter();
        let mut d = self.core().read_inode(ino)?;
        if d.is_dir() {
            return Err(Error::Perm);
        }
        if self.core().dir_lookup(self.ino, name)?.is_some() {
            return Err(Error::Exist);
        }
        self.core().dir_enter(self.ino, name, ino)?;
        d.nlink += 1;
        self.core().write_inode(ino, &d)
    }

    fn readdir(&self, start: usize, count: usize) -> Result<Vec<Dirent>> {
        let _g = self.mount.enter();
        let all: Vec<DiskDirent> = self.core().dir_list(self.ino)?;
        Ok(all
            .into_iter()
            .skip(start)
            .take(count)
            .map(|e| Dirent {
                ino: u64::from(e.ino),
                name: e.name,
            })
            .collect())
    }
}

impl FileBufIo for FfsNode {
    fn read_bufs(&self, offset: u64, len: usize) -> Result<Vec<FileExtent>> {
        let _g = self.mount.enter();
        self.core().file_extents(self.ino, offset, len)
    }
}

impl FfsNode {
    /// Every interface a node can answer besides `IUnknown`; which of them
    /// a given node answers depends on its inode type (see `query_any`).
    pub const INTERFACES: &'static [(&'static str, Guid)] =
        oskit_com::interface_list!(File, Dir, FileBufIo, FfsIdent);
}

// `query_any` is hand-written: a node answers the `Dir` interface only
// when its inode really is a directory, and the buffer-grained read
// extension (`FileBufIo`) only for regular files — interface presence
// *is* the type probe here (paper §4.4.2 "safe downcasting").
impl IUnknown for FfsNode {
    fn query_any(&self, iid: &Guid) -> Option<oskit_com::AnyRef> {
        let me: Arc<Self> = self.me.get();
        if *iid == oskit_com::IUNKNOWN_IID {
            return Some(oskit_com::AnyRef::new::<dyn IUnknown>(me));
        }
        if *iid == <dyn File as ComInterface>::IID {
            return Some(oskit_com::AnyRef::new::<dyn File>(me as Arc<dyn File>));
        }
        if *iid == <dyn FfsIdent as ComInterface>::IID {
            return Some(oskit_com::AnyRef::new::<dyn FfsIdent>(
                me as Arc<dyn FfsIdent>,
            ));
        }
        let is_dir = self
            .core()
            .read_inode(self.ino)
            .map(|d| d.is_dir())
            .unwrap_or(false);
        if *iid == <dyn Dir as ComInterface>::IID && is_dir {
            return Some(oskit_com::AnyRef::new::<dyn Dir>(me as Arc<dyn Dir>));
        }
        if *iid == <dyn FileBufIo as ComInterface>::IID && !is_dir {
            return Some(oskit_com::AnyRef::new::<dyn FileBufIo>(
                me as Arc<dyn FileBufIo>,
            ));
        }
        None
    }

    fn interfaces(&self) -> &'static [(&'static str, Guid)] {
        Self::INTERFACES
    }
}

/// The private cross-object identity probe: recover a sibling node's inode
/// through its COM interface (the C glue compares vtable pointers; we
/// expose a tiny private interface for the same purpose).
pub trait FfsIdent: IUnknown {
    /// The inode number.
    fn ffs_ino(&self) -> u32;
}
oskit_com::com_interface_decl!(FfsIdent, oskit_com::oskit_iid(0xB0), "netbsd_fs_ident");

impl FfsIdent for FfsNode {
    fn ffs_ino(&self) -> u32 {
        self.ino
    }
}

fn new_dir_ino(d: &dyn Dir) -> Option<u32> {
    d.query::<dyn FfsIdent>().map(|i| i.ffs_ino())
}

fn file_ino(f: &dyn File) -> Option<u32> {
    f.query::<dyn FfsIdent>().map(|i| i.ffs_ino())
}
