//! `oskit-fsread` — minimal read-only file system access (paper Table 3's
//! `fsread` library).
//!
//! Boot loaders need just enough file system code to find and read a
//! kernel image; `fsread` is that: a small, dependency-free, read-only
//! interpreter of the on-disk format, independent of the full `netbsd-fs`
//! component's caches and write paths (it shares only the on-disk layout
//! definitions, as the C `fsread` shared NetBSD's headers).

use oskit_com::interfaces::blkio::{BlkIo, BufIo};
use oskit_com::{Error, Query, Result};
use oskit_netbsd_fs::ffs::ondisk::{
    Dinode, DiskDirent, Superblock, BLOCK_SIZE, DIRENT_SIZE, INODES_PER_BLOCK, INODE_SIZE, NDADDR,
    NINDIR, ROOT_INO,
};
use std::sync::Arc;

/// A read-only view of an OFFS volume.
pub struct FsRead {
    dev: Arc<dyn BlkIo>,
    /// The same device through its `oskit_bufio` face, when the interface
    /// lattice offers one — lets block reads borrow the device's storage
    /// in place instead of copying through `BlkIo::read`.
    map: Option<Arc<dyn BufIo>>,
    sb: Superblock,
}

impl FsRead {
    /// Opens a volume read-only.
    pub fn open(dev: &Arc<dyn BlkIo>) -> Result<FsRead> {
        let mut blk0 = vec![0u8; BLOCK_SIZE];
        let n = dev.read(&mut blk0, 0)?;
        if n != BLOCK_SIZE {
            return Err(Error::Io);
        }
        let sb = Superblock::decode(&blk0).ok_or(Error::Inval)?;
        Ok(FsRead {
            dev: Arc::clone(dev),
            map: dev.query::<dyn BufIo>(),
            sb,
        })
    }

    /// Runs `f` over block `blk`, mapping the device's own storage when
    /// it exports `oskit_bufio` and falling back to a bounce-buffer read
    /// when it does not (or declines the map).
    fn with_block<R>(&self, blk: u32, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let off = u64::from(blk) * BLOCK_SIZE as u64;
        let mut f = Some(f);
        if let Some(map) = &self.map {
            let mut out = None;
            match map.with_map(off as usize, BLOCK_SIZE, &mut |d| {
                out = f.take().map(|g| g(d));
            }) {
                Ok(()) => return out.ok_or(Error::Io),
                Err(Error::NotImpl) => {} // Mapping declined; bounce below.
                Err(e) => return Err(e),
            }
        }
        let f = f.ok_or(Error::Io)?;
        let mut buf = vec![0u8; BLOCK_SIZE];
        if self.dev.read(&mut buf, off)? != BLOCK_SIZE {
            return Err(Error::Io);
        }
        Ok(f(&buf))
    }

    fn read_inode(&self, ino: u32) -> Result<Dinode> {
        if ino == 0 || ino >= self.sb.ninodes {
            return Err(Error::Inval);
        }
        let blk = self.sb.itable_start + ino / INODES_PER_BLOCK as u32;
        let off = (ino as usize % INODES_PER_BLOCK) * INODE_SIZE;
        self.with_block(blk, |data| Dinode::decode(&data[off..off + INODE_SIZE]))
    }

    fn bmap(&self, d: &Dinode, lbn: usize) -> Result<u32> {
        if lbn < NDADDR {
            return Ok(d.direct[lbn]);
        }
        let lbn = lbn - NDADDR;
        let entry = |iblk: u32, i: usize| -> Result<u32> {
            if iblk == 0 {
                return Ok(0);
            }
            self.with_block(iblk, |data| {
                u32::from_le_bytes([
                    data[i * 4],
                    data[i * 4 + 1],
                    data[i * 4 + 2],
                    data[i * 4 + 3],
                ])
            })
        };
        if lbn < NINDIR {
            return entry(d.indirect, lbn);
        }
        let lbn = lbn - NINDIR;
        if lbn < NINDIR * NINDIR {
            let l1 = entry(d.double_indirect, lbn / NINDIR)?;
            return entry(l1, lbn % NINDIR);
        }
        Err(Error::FBig)
    }

    /// Resolves a `/`-separated path from the root; returns the inode.
    pub fn lookup_path(&self, path: &str) -> Result<u32> {
        let mut ino = ROOT_INO;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let d = self.read_inode(ino)?;
            if !d.is_dir() {
                return Err(Error::NotDir);
            }
            ino = self.dir_find(&d, ino, comp)?.ok_or(Error::NoEnt)?;
        }
        Ok(ino)
    }

    fn dir_find(&self, d: &Dinode, _ino: u32, name: &str) -> Result<Option<u32>> {
        let nslots = (d.size / DIRENT_SIZE as u64) as usize;
        let mut slot = vec![0u8; DIRENT_SIZE];
        for idx in 0..nslots {
            let off = idx as u64 * DIRENT_SIZE as u64;
            if self.read_at_inode(d, &mut slot, off)? < DIRENT_SIZE {
                break;
            }
            if let Some(e) = DiskDirent::decode(&slot) {
                if e.name == name {
                    return Ok(Some(e.ino));
                }
            }
        }
        Ok(None)
    }

    fn read_at_inode(&self, d: &Dinode, buf: &mut [u8], offset: u64) -> Result<usize> {
        if offset >= d.size {
            return Ok(0);
        }
        let want = buf.len().min((d.size - offset) as usize);
        let mut done = 0;
        while done < want {
            let pos = offset + done as u64;
            let lbn = (pos / BLOCK_SIZE as u64) as usize;
            let skew = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - skew).min(want - done);
            let blk = self.bmap(d, lbn)?;
            if blk == 0 {
                buf[done..done + n].fill(0);
            } else {
                self.with_block(blk, |data| {
                    buf[done..done + n].copy_from_slice(&data[skew..skew + n]);
                })?;
            }
            done += n;
        }
        Ok(done)
    }

    /// Reads from a file by path (the boot loader's one-call interface).
    pub fn read_file(&self, path: &str, buf: &mut [u8], offset: u64) -> Result<usize> {
        let ino = self.lookup_path(path)?;
        let d = self.read_inode(ino)?;
        if d.is_dir() {
            return Err(Error::IsDir);
        }
        self.read_at_inode(&d, buf, offset)
    }

    /// The size of a file by path.
    pub fn file_size(&self, path: &str) -> Result<u64> {
        let ino = self.lookup_path(path)?;
        Ok(self.read_inode(ino)?.size)
    }

    /// Reads a whole file (boot images are small).
    pub fn read_whole(&self, path: &str) -> Result<Vec<u8>> {
        let size = self.file_size(path)? as usize;
        let mut buf = vec![0u8; size];
        let n = self.read_file(path, &mut buf, 0)?;
        buf.truncate(n);
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;
    use oskit_com::interfaces::fs::FileSystem;
    use oskit_netbsd_fs::FfsFileSystem;

    /// Builds a volume with the full fs component, then reads it back with
    /// fsread — proving the two agree on the format.
    fn volume() -> Arc<dyn BlkIo> {
        let dev = VecBufIo::with_len(512 * BLOCK_SIZE) as Arc<dyn BlkIo>;
        FfsFileSystem::mkfs(&dev).unwrap();
        let fs = FfsFileSystem::mount_ram(&dev).unwrap();
        let root = fs.getroot().unwrap();
        let boot = root.mkdir("boot", 0o755).unwrap();
        let kernel = boot.create("kernel", true, 0o644).unwrap();
        let image: Vec<u8> = (0..200_000).map(|i| (i % 249) as u8).collect();
        kernel.write_at(&image, 0).unwrap();
        let cfg = root.create("boot.cfg", true, 0o644).unwrap();
        cfg.write_at(b"default=kernel\n", 0).unwrap();
        FileSystem::sync(&*fs).unwrap();
        fs.unmount().unwrap();
        dev
    }

    #[test]
    fn reads_files_written_by_the_full_component() {
        let dev = volume();
        let fsr = FsRead::open(&dev).unwrap();
        assert_eq!(fsr.file_size("/boot/kernel").unwrap(), 200_000);
        let image = fsr.read_whole("/boot/kernel").unwrap();
        assert_eq!(image.len(), 200_000);
        assert!(image.iter().enumerate().all(|(i, &b)| b == (i % 249) as u8));
        assert_eq!(fsr.read_whole("boot.cfg").unwrap(), b"default=kernel\n");
    }

    #[test]
    fn partial_reads_at_offsets() {
        let dev = volume();
        let fsr = FsRead::open(&dev).unwrap();
        let mut buf = [0u8; 100];
        let n = fsr.read_file("/boot/kernel", &mut buf, 150_000).unwrap();
        assert_eq!(n, 100);
        assert!(buf
            .iter()
            .enumerate()
            .all(|(i, &b)| b == ((150_000 + i) % 249) as u8));
    }

    #[test]
    fn missing_paths_and_type_errors() {
        let dev = volume();
        let fsr = FsRead::open(&dev).unwrap();
        assert!(matches!(fsr.lookup_path("/nope"), Err(Error::NoEnt)));
        assert!(matches!(
            fsr.lookup_path("/boot.cfg/inside"),
            Err(Error::NotDir)
        ));
        let mut b = [0u8; 4];
        assert!(matches!(
            fsr.read_file("/boot", &mut b, 0),
            Err(Error::IsDir)
        ));
    }

    #[test]
    fn open_rejects_garbage() {
        let dev = VecBufIo::with_len(64 * BLOCK_SIZE) as Arc<dyn BlkIo>;
        assert!(FsRead::open(&dev).is_err());
    }
}
