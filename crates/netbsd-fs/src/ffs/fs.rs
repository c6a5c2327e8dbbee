//! The file system core — NetBSD's `ffs_alloc.c`/`ufs_bmap.c`/
//! `ufs_lookup.c` reshaped onto the OFFS layout.

use super::buf::BufCache;
use super::ondisk::{
    layout, mode, Dinode, DiskDirent, Superblock, BLOCK_SIZE, DIRENT_SIZE, INODES_PER_BLOCK,
    INODE_SIZE, MAX_NAME, NDADDR, NINDIR, ROOT_INO,
};
use oskit_bufcache::{CachedBlock, MAXPHYS};
use oskit_com::interfaces::blkio::{BlkIo, BufIo, VecBufIo};
use oskit_com::interfaces::fs::FileExtent;
use oskit_com::{Error, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The mounted file system core.  All vnode operations funnel through
/// here; the COM glue serializes entry with the component lock, so the
/// internal mutexes are held only for short, non-blocking sections.
pub struct FsCore {
    cache: BufCache,
    sb: Mutex<Superblock>,
    /// The superblock changed since it was last written (FFS's
    /// `fs_fmod`): set by every allocation and free, cleared by `sync`.
    fmod: AtomicBool,
    /// Set once unmounted; all operations then fail with `Stale`.
    dead: Mutex<bool>,
}

impl FsCore {
    /// `newfs`: writes a fresh, empty file system onto `dev`.
    pub fn mkfs(dev: &Arc<dyn BlkIo>) -> Result<()> {
        let bytes = dev.get_size()?;
        let nblocks = (bytes / BLOCK_SIZE as u64) as u32;
        if nblocks < 16 {
            return Err(Error::NoSpace);
        }
        let sb = layout(nblocks);
        let cache = BufCache::new(Arc::clone(dev), 64);
        // Zero the metadata region.
        for blk in 0..sb.data_start {
            cache.bwrite_full(blk, &vec![0u8; BLOCK_SIZE])?;
        }
        // Reserve inode 0 (invalid) and 1 (root) in the inode bitmap.
        cache.bmodify(sb.ibmap_start, |b| b[0] |= 0b11)?;
        // Root directory: an empty directory with "." and "..".
        let root = Dinode {
            mode: mode::IFDIR | 0o755,
            nlink: 2,
            size: 0,
            ..Dinode::default()
        };
        write_inode_raw(&cache, &sb, ROOT_INO, &root)?;
        cache.bwrite_full(0, &sb.encode())?;
        cache.sync()?;
        // Populate "." and ".." through a mounted core.
        let core = FsCore::mount(dev)?;
        core.dir_enter(ROOT_INO, ".", ROOT_INO)?;
        core.dir_enter(ROOT_INO, "..", ROOT_INO)?;
        core.sync()?;
        Ok(())
    }

    /// Mounts an existing file system.
    pub fn mount(dev: &Arc<dyn BlkIo>) -> Result<Arc<FsCore>> {
        let cache = BufCache::new(Arc::clone(dev), 256);
        let sb = cache.bread(0, Superblock::decode)?.ok_or(Error::Inval)?;
        Ok(Arc::new(FsCore {
            cache,
            sb: Mutex::new(sb),
            fmod: AtomicBool::new(false),
            dead: Mutex::new(false),
        }))
    }

    /// Marks the file system dead (unmount) after a final sync.
    pub fn unmount(&self) -> Result<()> {
        self.sync()?;
        *self.dead.lock() = true;
        Ok(())
    }

    fn check_alive(&self) -> Result<()> {
        if *self.dead.lock() {
            Err(Error::Stale)
        } else {
            Ok(())
        }
    }

    /// Flushes the superblock, if it was modified, and all dirty buffers.
    pub fn sync(&self) -> Result<()> {
        if self.fmod.swap(false, Ordering::Relaxed) {
            let sb = *self.sb.lock();
            self.cache.bwrite_full(0, &sb.encode())?;
        }
        self.cache.sync()
    }

    /// Applies `f` to the in-core superblock and marks it modified.
    fn sb_modify(&self, f: impl FnOnce(&mut Superblock)) {
        f(&mut self.sb.lock());
        self.fmod.store(true, Ordering::Relaxed);
    }

    /// A copy of the current superblock.
    pub fn superblock(&self) -> Superblock {
        *self.sb.lock()
    }

    /// The buffer cache (fsck and diagnostics).
    pub fn cache(&self) -> &BufCache {
        &self.cache
    }

    // --- Bitmap allocators ---

    fn bitmap_alloc(&self, bmap_start: u32, limit: u32) -> Result<Option<u32>> {
        for rel_blk in 0..limit.div_ceil((BLOCK_SIZE * 8) as u32) {
            let found = self.cache.bmodify(bmap_start + rel_blk, |b| {
                for (byte_i, byte) in b.iter_mut().enumerate() {
                    if *byte != 0xFF {
                        let bit = byte.trailing_ones();
                        let index = rel_blk * (BLOCK_SIZE * 8) as u32 + byte_i as u32 * 8 + bit;
                        if index >= limit {
                            return None;
                        }
                        *byte |= 1 << bit;
                        return Some(index);
                    }
                }
                None
            })?;
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    fn bitmap_free(&self, bmap_start: u32, index: u32) -> Result<()> {
        let blk = bmap_start + index / (BLOCK_SIZE * 8) as u32;
        let within = index % (BLOCK_SIZE * 8) as u32;
        self.cache.bmodify(blk, |b| {
            let byte = &mut b[(within / 8) as usize];
            assert!(*byte & (1 << (within % 8)) != 0, "double free in bitmap");
            *byte &= !(1 << (within % 8));
        })
    }

    /// Allocates a data block, zeroed.
    pub fn balloc(&self) -> Result<u32> {
        let sb = *self.sb.lock();
        let rel = self
            .bitmap_alloc(sb.bbmap_start, sb.nblocks - sb.data_start)?
            .ok_or(Error::NoSpace)?;
        let blk = sb.data_start + rel;
        self.cache.bwrite_full(blk, &vec![0u8; BLOCK_SIZE])?;
        self.sb_modify(|sb| sb.free_blocks -= 1);
        Ok(blk)
    }

    /// Frees a data block.
    pub fn bfree(&self, blk: u32) -> Result<()> {
        let sb = *self.sb.lock();
        assert!(
            blk >= sb.data_start && blk < sb.nblocks,
            "bfree of metadata"
        );
        self.bitmap_free(sb.bbmap_start, blk - sb.data_start)?;
        self.sb_modify(|sb| sb.free_blocks += 1);
        Ok(())
    }

    /// Allocates an inode with the given mode.
    pub fn ialloc(&self, imode: u16) -> Result<u32> {
        let sb = *self.sb.lock();
        let ino = self
            .bitmap_alloc(sb.ibmap_start, sb.ninodes)?
            .ok_or(Error::NoSpace)?;
        self.sb_modify(|sb| sb.free_inodes -= 1);
        let d = Dinode {
            mode: imode,
            nlink: 0,
            ..Dinode::default()
        };
        self.write_inode(ino, &d)?;
        Ok(ino)
    }

    /// Frees an inode (its blocks must already be released).
    pub fn ifree(&self, ino: u32) -> Result<()> {
        let sb = *self.sb.lock();
        self.write_inode(ino, &Dinode::default())?;
        self.bitmap_free(sb.ibmap_start, ino)?;
        self.sb_modify(|sb| sb.free_inodes += 1);
        Ok(())
    }

    // --- Inode I/O ---

    /// Reads inode `ino`.
    pub fn read_inode(&self, ino: u32) -> Result<Dinode> {
        self.check_alive()?;
        let sb = *self.sb.lock();
        if ino == 0 || ino >= sb.ninodes {
            return Err(Error::Inval);
        }
        let blk = sb.itable_start + ino / INODES_PER_BLOCK as u32;
        let off = (ino as usize % INODES_PER_BLOCK) * INODE_SIZE;
        self.cache
            .bread(blk, |b| Dinode::decode(&b[off..off + INODE_SIZE]))
    }

    /// Writes inode `ino`.
    pub fn write_inode(&self, ino: u32, d: &Dinode) -> Result<()> {
        let sb = *self.sb.lock();
        write_inode_with(&self.cache, &sb, ino, d)
    }

    // --- Block mapping (ufs_bmap) ---

    /// Maps logical file block `lbn` to a disk block, optionally
    /// allocating missing blocks (and indirect blocks) along the way.
    ///
    /// Returns `(blk, run)`, `ufs_bmaparray` style: `blk` is 0 for a hole
    /// when not allocating, and `run` counts the logical blocks from `lbn`
    /// on that sit on consecutive disk blocks (at least 1; a hole is a run
    /// of 1).  A run stays inside one block-pointer array (the inode's
    /// direct blocks or one indirect block), ends at the file's last
    /// block, and never spans more than [`MAXPHYS`] bytes.
    pub fn bmap(&self, d: &mut Dinode, lbn: u32, alloc: bool) -> Result<(u32, usize)> {
        let file_blocks = d.size.div_ceil(BLOCK_SIZE as u64);
        let maxrun = file_blocks
            .saturating_sub(u64::from(lbn))
            .clamp(1, (MAXPHYS / BLOCK_SIZE) as u64) as usize;
        let lbn = lbn as usize;
        if lbn < NDADDR {
            if d.direct[lbn] == 0 && alloc {
                d.direct[lbn] = self.balloc()?;
            }
            return Ok((
                d.direct[lbn],
                run_of(d.direct[lbn..].iter().copied(), maxrun),
            ));
        }
        let lbn = lbn - NDADDR;
        if lbn < NINDIR {
            if d.indirect == 0 {
                if !alloc {
                    return Ok((0, 1));
                }
                d.indirect = self.balloc()?;
            }
            return self.indir_entry(d.indirect, lbn, alloc, maxrun);
        }
        let lbn = lbn - NINDIR;
        if lbn < NINDIR * NINDIR {
            if d.double_indirect == 0 {
                if !alloc {
                    return Ok((0, 1));
                }
                d.double_indirect = self.balloc()?;
            }
            let (l1, _) = self.indir_entry(d.double_indirect, lbn / NINDIR, alloc, 1)?;
            if l1 == 0 {
                return Ok((0, 1));
            }
            return self.indir_entry(l1, lbn % NINDIR, alloc, maxrun);
        }
        Err(Error::FBig)
    }

    /// Entry `index` of indirect block `iblk`, and its run within the
    /// block (see [`FsCore::bmap`]).
    fn indir_entry(
        &self,
        iblk: u32,
        index: usize,
        alloc: bool,
        maxrun: usize,
    ) -> Result<(u32, usize)> {
        let (existing, run) = self.cache.bread(iblk, |b| {
            let ptr =
                |i: usize| u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]);
            (ptr(index), run_of((index..NINDIR).map(ptr), maxrun))
        })?;
        if existing != 0 || !alloc {
            return Ok((existing, run));
        }
        let fresh = self.balloc()?;
        self.cache.bmodify(iblk, |b| {
            b[index * 4..index * 4 + 4].copy_from_slice(&fresh.to_le_bytes());
        })?;
        Ok((fresh, 1))
    }

    /// Reads logical block `lbn` of a file through the cache
    /// (`cluster_read`): a miss fills the block and the rest of its
    /// [`FsCore::bmap`] run with one disk request.  `None` is a hole.
    ///
    /// A run that ends at the last direct block also takes the single
    /// indirect block when that is the next disk block (where `balloc`
    /// puts it for a file written in order): mapping the next logical
    /// block needs it anyway, and here it costs no extra request.
    fn read_lbn(&self, d: &mut Dinode, lbn: u32) -> Result<Option<Arc<CachedBlock>>> {
        let (blk, mut run) = self.bmap(d, lbn, false)?;
        if blk == 0 {
            return Ok(None);
        }
        if lbn as usize + run == NDADDR
            && d.indirect == d.direct[NDADDR - 1] + 1
            && run < MAXPHYS / BLOCK_SIZE
        {
            run += 1;
        }
        self.cache.cluster_read(blk, run).map(Some)
    }

    // --- File read/write ---

    /// Reads up to `buf.len()` bytes of inode `ino` at `offset`.
    pub fn file_read(&self, ino: u32, buf: &mut [u8], offset: u64) -> Result<usize> {
        self.check_alive()?;
        let mut d = self.read_inode(ino)?;
        if offset >= d.size {
            return Ok(0);
        }
        let want = buf.len().min((d.size - offset) as usize);
        let mut done = 0;
        while done < want {
            let pos = offset + done as u64;
            let lbn = (pos / BLOCK_SIZE as u64) as u32;
            let skew = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - skew).min(want - done);
            match self.read_lbn(&mut d, lbn)? {
                // A hole reads as zeros.
                None => buf[done..done + n].fill(0),
                Some(b) => {
                    b.read(&mut buf[done..done + n], skew as u64)?;
                }
            }
            done += n;
        }
        Ok(done)
    }

    /// Maps up to `len` bytes of inode `ino` at `offset` onto *pinned
    /// cache pages* — the zero-copy counterpart of [`FsCore::file_read`].
    ///
    /// Each returned extent's `Arc` keeps its cache block resident, so
    /// the bytes can be lent across component boundaries (socket, NIC)
    /// without a private copy.  Holes come back as fresh zero buffers.
    pub fn file_extents(&self, ino: u32, offset: u64, len: usize) -> Result<Vec<FileExtent>> {
        self.check_alive()?;
        let mut d = self.read_inode(ino)?;
        if offset >= d.size {
            return Ok(Vec::new());
        }
        let want = len.min((d.size - offset) as usize);
        let mut out = Vec::new();
        let mut done = 0;
        while done < want {
            let pos = offset + done as u64;
            let lbn = (pos / BLOCK_SIZE as u64) as u32;
            let skew = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - skew).min(want - done);
            out.push(match self.read_lbn(&mut d, lbn)? {
                None => FileExtent {
                    buf: VecBufIo::with_len(n) as Arc<dyn BufIo>,
                    off: 0,
                    len: n,
                },
                Some(b) => FileExtent {
                    buf: b as Arc<dyn BufIo>,
                    off: skew,
                    len: n,
                },
            });
            done += n;
        }
        Ok(out)
    }

    /// Writes `buf` into inode `ino` at `offset`, growing the file.
    ///
    /// A block whose old bytes the write does not need is filled without
    /// reading the disk (`getblk`): a whole block, or one written from its
    /// start up to the current end of file or beyond, whose remaining
    /// bytes lie past EOF and so are zero (see [`FsCore::itrunc`]).
    pub fn file_write(&self, ino: u32, buf: &[u8], offset: u64) -> Result<usize> {
        self.check_alive()?;
        let mut d = self.read_inode(ino)?;
        let mut done = 0;
        while done < buf.len() {
            let pos = offset + done as u64;
            let lbn = (pos / BLOCK_SIZE as u64) as u32;
            let skew = (pos % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - skew).min(buf.len() - done);
            let (blk, _) = self.bmap(&mut d, lbn, true)?;
            if skew == 0 && (n == BLOCK_SIZE || pos + n as u64 >= d.size) {
                let mut block = [0u8; BLOCK_SIZE];
                block[..n].copy_from_slice(&buf[done..done + n]);
                self.cache.bwrite_full(blk, &block)?;
            } else {
                self.cache.bmodify(blk, |b| {
                    b[skew..skew + n].copy_from_slice(&buf[done..done + n])
                })?;
            }
            done += n;
        }
        d.size = d.size.max(offset + done as u64);
        self.write_inode(ino, &d)?;
        Ok(done)
    }

    /// Truncates inode `ino` to `new_size` (shrink frees blocks; grow
    /// leaves holes).
    ///
    /// A shrink zeroes the kept last block past the new end of file, as
    /// the donor's `ffs_truncate` does, and frees every block past it: a
    /// byte past EOF always reads as zero, so a later grow (or a write
    /// past EOF) never brings old data back.
    pub fn itrunc(&self, ino: u32, new_size: u64) -> Result<()> {
        self.check_alive()?;
        let mut d = self.read_inode(ino)?;
        if new_size >= d.size {
            d.size = new_size;
            return self.write_inode(ino, &d);
        }
        let tail = (new_size % BLOCK_SIZE as u64) as usize;
        if tail != 0 {
            let (blk, _) = self.bmap(&mut d, (new_size / BLOCK_SIZE as u64) as u32, false)?;
            if blk != 0 {
                self.cache.bmodify(blk, |b| b[tail..].fill(0))?;
            }
        }
        let keep_blocks = new_size.div_ceil(BLOCK_SIZE as u64) as usize;
        // Free direct blocks past the cut.
        for lbn in keep_blocks..NDADDR {
            if d.direct[lbn] != 0 {
                self.bfree(d.direct[lbn])?;
                d.direct[lbn] = 0;
            }
        }
        // Indirect tree: free whole trees past the cut, and trim the one
        // the cut falls in block by block.
        if keep_blocks <= NDADDR {
            if d.indirect != 0 {
                self.free_indir(d.indirect, 0)?;
                d.indirect = 0;
            }
            if d.double_indirect != 0 {
                self.free_indir(d.double_indirect, 1)?;
                d.double_indirect = 0;
            }
        } else if keep_blocks <= NDADDR + NINDIR {
            let keep_ind = keep_blocks - NDADDR;
            if d.indirect != 0 {
                self.free_indir_partial(d.indirect, keep_ind, 0)?;
            }
            if d.double_indirect != 0 {
                self.free_indir(d.double_indirect, 1)?;
                d.double_indirect = 0;
            }
        } else if d.double_indirect != 0 {
            let keep_dbl = keep_blocks - NDADDR - NINDIR;
            self.free_indir_partial(d.double_indirect, keep_dbl, 1)?;
        }
        d.size = new_size;
        self.write_inode(ino, &d)
    }

    fn free_indir(&self, iblk: u32, depth: u32) -> Result<()> {
        let entries: Vec<u32> = self.cache.bread(iblk, |b| {
            (0..NINDIR)
                .map(|i| u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]))
                .filter(|&e| e != 0)
                .collect()
        })?;
        for e in entries {
            if depth > 0 {
                self.free_indir(e, depth - 1)?;
            } else {
                self.bfree(e)?;
            }
        }
        self.bfree(iblk)
    }

    /// Frees everything indirect block `iblk` maps past its first `keep`
    /// data blocks (`keep` > 0); `depth` counts the indirect levels below
    /// `iblk`, as in [`FsCore::free_indir`].
    fn free_indir_partial(&self, iblk: u32, keep: usize, depth: u32) -> Result<()> {
        let span = NINDIR.pow(depth);
        let entries: Vec<(usize, u32)> = self.cache.bread(iblk, |b| {
            (keep / span..NINDIR)
                .map(|i| {
                    (
                        i,
                        u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]),
                    )
                })
                .filter(|&(_, e)| e != 0)
                .collect()
        })?;
        for (i, e) in entries {
            let kept = keep - (i * span).min(keep);
            if kept > 0 {
                // The entry the cut falls in (only below a double indirect).
                self.free_indir_partial(e, kept, depth - 1)?;
                continue;
            }
            if depth > 0 {
                self.free_indir(e, depth - 1)?;
            } else {
                self.bfree(e)?;
            }
            self.cache
                .bmodify(iblk, |b| b[i * 4..i * 4 + 4].copy_from_slice(&[0; 4]))?;
        }
        Ok(())
    }

    /// Releases every block of an inode and the inode itself (final
    /// unlink).
    pub fn inode_release(&self, ino: u32) -> Result<()> {
        self.itrunc(ino, 0)?;
        self.ifree(ino)
    }

    // --- Directories ---

    /// Looks `name` up in directory `dino`.
    pub fn dir_lookup(&self, dino: u32, name: &str) -> Result<Option<u32>> {
        self.check_alive()?;
        let mut found = None;
        self.dir_scan(dino, |_, e| {
            if e.name == name {
                found = Some(e.ino);
                false
            } else {
                true
            }
        })?;
        Ok(found)
    }

    /// Adds `name → ino` to directory `dino` (no duplicate check).
    pub fn dir_enter(&self, dino: u32, name: &str, ino: u32) -> Result<()> {
        self.check_alive()?;
        if name.len() > MAX_NAME {
            return Err(Error::NameTooLong);
        }
        let d = self.read_inode(dino)?;
        // Find a free slot.
        let mut free_slot = None;
        self.dir_scan_raw(dino, |idx, slot_ino| {
            if slot_ino == 0 && free_slot.is_none() {
                free_slot = Some(idx);
                return false;
            }
            true
        })?;
        let slot = match free_slot {
            Some(s) => s,
            None => (d.size / DIRENT_SIZE as u64) as usize,
        };
        let entry = DiskDirent {
            ino,
            name: name.to_string(),
        };
        self.file_write(dino, &entry.encode(), slot as u64 * DIRENT_SIZE as u64)?;
        Ok(())
    }

    /// Removes `name` from directory `dino`; returns the inode it named.
    pub fn dir_remove(&self, dino: u32, name: &str) -> Result<u32> {
        self.check_alive()?;
        let mut at = None;
        let mut ino = 0;
        self.dir_scan(dino, |idx, e| {
            if e.name == name {
                at = Some(idx);
                ino = e.ino;
                false
            } else {
                true
            }
        })?;
        let Some(idx) = at else {
            return Err(Error::NoEnt);
        };
        self.file_write(dino, &[0u8; DIRENT_SIZE], idx as u64 * DIRENT_SIZE as u64)?;
        Ok(ino)
    }

    /// Lists the live entries of directory `dino`.
    pub fn dir_list(&self, dino: u32) -> Result<Vec<DiskDirent>> {
        let mut out = Vec::new();
        self.dir_scan(dino, |_, e| {
            out.push(e);
            true
        })?;
        Ok(out)
    }

    /// Whether directory `dino` contains anything besides `.` and `..`.
    pub fn dir_is_empty(&self, dino: u32) -> Result<bool> {
        let mut empty = true;
        self.dir_scan(dino, |_, e| {
            if e.name != "." && e.name != ".." {
                empty = false;
                false
            } else {
                true
            }
        })?;
        Ok(empty)
    }

    /// Scans live entries; `f` returns false to stop.
    fn dir_scan(&self, dino: u32, mut f: impl FnMut(usize, DiskDirent) -> bool) -> Result<()> {
        self.dir_scan_bytes(dino, |idx, slot| match DiskDirent::decode(slot) {
            Some(e) => f(idx, e),
            None => true,
        })
    }

    /// Scans all slots (including free ones) by inode field only.
    fn dir_scan_raw(&self, dino: u32, mut f: impl FnMut(usize, u32) -> bool) -> Result<()> {
        self.dir_scan_bytes(dino, |idx, slot| {
            let ino = u32::from_le_bytes([slot[0], slot[1], slot[2], slot[3]]);
            f(idx, ino)
        })
    }

    /// Walks the directory's slots one block at a time, as `ufs_lookup`
    /// does: one cache lookup per directory block, not one per slot.
    fn dir_scan_bytes(&self, dino: u32, mut f: impl FnMut(usize, &[u8]) -> bool) -> Result<()> {
        let mut d = self.read_inode(dino)?;
        if !d.is_dir() {
            return Err(Error::NotDir);
        }
        let mut block = [0u8; BLOCK_SIZE];
        let mut idx = 0;
        for (lbn, start) in (0..d.size).step_by(BLOCK_SIZE).enumerate() {
            let len = (d.size - start).min(BLOCK_SIZE as u64) as usize;
            match self.read_lbn(&mut d, lbn as u32)? {
                None => block.fill(0),
                Some(b) => {
                    b.read(&mut block[..len], 0)?;
                }
            }
            for slot in block[..len].chunks_exact(DIRENT_SIZE) {
                if !f(idx, slot) {
                    return Ok(());
                }
                idx += 1;
            }
        }
        Ok(())
    }
}

/// How many of `ptrs` (the block pointers of consecutive logical blocks),
/// from the first on, name consecutive disk blocks: at least 1, at most
/// `maxrun`.  A hole (pointer 0) is a run of 1.
fn run_of(ptrs: impl Iterator<Item = u32>, maxrun: usize) -> usize {
    let mut ptrs = ptrs.take(maxrun);
    let Some(first) = ptrs.next().filter(|&p| p != 0) else {
        return 1;
    };
    1 + ptrs
        .zip(1..)
        .take_while(|&(p, k)| first.checked_add(k) == Some(p))
        .count()
}

fn write_inode_with(cache: &BufCache, sb: &Superblock, ino: u32, d: &Dinode) -> Result<()> {
    if ino == 0 || ino >= sb.ninodes {
        return Err(Error::Inval);
    }
    let blk = sb.itable_start + ino / INODES_PER_BLOCK as u32;
    let off = (ino as usize % INODES_PER_BLOCK) * INODE_SIZE;
    cache.bmodify(blk, |b| {
        b[off..off + INODE_SIZE].copy_from_slice(&d.encode())
    })
}

fn write_inode_raw(cache: &BufCache, sb: &Superblock, ino: u32, d: &Dinode) -> Result<()> {
    write_inode_with(cache, sb, ino, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;

    fn fresh_fs(blocks: usize) -> Arc<FsCore> {
        let dev = VecBufIo::with_len(blocks * BLOCK_SIZE) as Arc<dyn BlkIo>;
        FsCore::mkfs(&dev).unwrap();
        FsCore::mount(&dev).unwrap()
    }

    #[test]
    fn mkfs_creates_mountable_volume_with_root() {
        let fs = fresh_fs(256);
        let root = fs.read_inode(ROOT_INO).unwrap();
        assert!(root.is_dir());
        let entries = fs.dir_list(ROOT_INO).unwrap();
        let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, [".", ".."]);
    }

    #[test]
    fn small_file_write_read() {
        let fs = fresh_fs(256);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.file_write(ino, b"hello ffs", 0).unwrap();
        let mut buf = [0u8; 16];
        let n = fs.file_read(ino, &mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"hello ffs");
        assert_eq!(fs.read_inode(ino).unwrap().size, 9);
    }

    #[test]
    fn large_file_spans_indirect_blocks() {
        // > 12 direct blocks (48 KB) and > 12+1024 blocks would need
        // double-indirect; write 300 KB to exercise the single indirect.
        let fs = fresh_fs(1024);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let data: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8).collect();
        fs.file_write(ino, &data, 0).unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(fs.file_read(ino, &mut back, 0).unwrap(), data.len());
        assert_eq!(back, data);
        let d = fs.read_inode(ino).unwrap();
        assert_ne!(d.indirect, 0, "indirect block expected");
    }

    #[test]
    fn double_indirect_files_work() {
        // Need more than 12 + 1024 blocks = ~4.1 MB; use sparse writes to
        // avoid filling the volume: write one block far out.
        let fs = fresh_fs(4096);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let far = (NDADDR + NINDIR + 5) as u64 * BLOCK_SIZE as u64;
        fs.file_write(ino, b"far out", far).unwrap();
        let d = fs.read_inode(ino).unwrap();
        assert_ne!(d.double_indirect, 0);
        let mut buf = [0u8; 7];
        fs.file_read(ino, &mut buf, far).unwrap();
        assert_eq!(&buf, b"far out");
        // The hole before it reads as zeros.
        let mut hole = [0xFFu8; 32];
        fs.file_read(ino, &mut hole, 1000).unwrap();
        assert!(hole.iter().all(|&b| b == 0));
    }

    #[test]
    fn truncate_frees_blocks() {
        let fs = fresh_fs(1024);
        let free0 = fs.superblock().free_blocks;
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let data = vec![7u8; 200_000];
        fs.file_write(ino, &data, 0).unwrap();
        assert!(fs.superblock().free_blocks < free0);
        fs.itrunc(ino, 0).unwrap();
        assert_eq!(fs.superblock().free_blocks, free0);
        assert_eq!(fs.read_inode(ino).unwrap().size, 0);
    }

    #[test]
    fn partial_truncate_keeps_prefix() {
        let fs = fresh_fs(1024);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        fs.file_write(ino, &data, 0).unwrap();
        fs.itrunc(ino, 10_000).unwrap();
        let mut back = vec![0u8; 20_000];
        let n = fs.file_read(ino, &mut back, 0).unwrap();
        assert_eq!(n, 10_000);
        assert_eq!(&back[..10_000], &data[..10_000]);
    }

    #[test]
    fn shrink_then_grow_reads_zeros_past_the_cut() {
        let fs = fresh_fs(256);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.file_write(ino, &[0xAB; 20_000], 0).unwrap();
        fs.itrunc(ino, 10_000).unwrap();
        fs.itrunc(ino, 12_000).unwrap();
        let mut back = vec![0u8; 12_000];
        assert_eq!(fs.file_read(ino, &mut back, 0).unwrap(), 12_000);
        assert!(back[..10_000].iter().all(|&b| b == 0xAB));
        assert!(back[10_000..].iter().all(|&b| b == 0), "stale bytes");
    }

    #[test]
    fn shrink_then_write_past_eof_reads_zeros_in_the_gap() {
        let fs = fresh_fs(256);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.file_write(ino, &[0xAB; 8_000], 0).unwrap();
        fs.itrunc(ino, 5_000).unwrap();
        fs.file_write(ino, &[0xCD; 100], 7_000).unwrap();
        let mut back = vec![0u8; 7_100];
        assert_eq!(fs.file_read(ino, &mut back, 0).unwrap(), 7_100);
        assert!(back[..5_000].iter().all(|&b| b == 0xAB));
        assert!(back[5_000..7_000].iter().all(|&b| b == 0), "stale bytes");
        assert!(back[7_000..].iter().all(|&b| b == 0xCD));
    }

    #[test]
    fn write_up_to_eof_zeroes_the_rest_of_the_block() {
        // A block written from its start to EOF is not read first; what
        // it does not cover lies past EOF and must read back as zero.
        let fs = fresh_fs(256);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.file_write(ino, &[0xAB; 6_000], 0).unwrap();
        fs.file_write(ino, &[0xCD; 1_904], 4_096).unwrap();
        fs.itrunc(ino, 8_192).unwrap();
        let mut back = vec![0u8; 8_192];
        assert_eq!(fs.file_read(ino, &mut back, 0).unwrap(), 8_192);
        assert!(back[..4_096].iter().all(|&b| b == 0xAB));
        assert!(back[4_096..6_000].iter().all(|&b| b == 0xCD));
        assert!(back[6_000..].iter().all(|&b| b == 0));
    }

    #[test]
    fn double_indirect_truncate_frees_block_by_block() {
        let fs = fresh_fs(4096);
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let free0 = fs.superblock().free_blocks;
        // 20 blocks under the first second-level block, 2 under the next.
        let first = (NDADDR + NINDIR) as u64 * BLOCK_SIZE as u64;
        fs.file_write(ino, &vec![0xAB; 20 * BLOCK_SIZE], first)
            .unwrap();
        let second = first + (NINDIR + 3) as u64 * BLOCK_SIZE as u64;
        fs.file_write(ino, &vec![0xCD; 2 * BLOCK_SIZE], second)
            .unwrap();
        assert_eq!(fs.superblock().free_blocks, free0 - (1 + 1 + 20 + 1 + 2));
        // Cut inside block 5: the double indirect block, the first
        // second-level block and 5 data blocks stay.
        let cut = first + 4 * BLOCK_SIZE as u64 + 100;
        fs.itrunc(ino, cut).unwrap();
        assert_eq!(fs.superblock().free_blocks, free0 - (1 + 1 + 5));
        // Growing back reads zeros past the cut.
        fs.itrunc(ino, second + 10).unwrap();
        let mut back = vec![0xFFu8; 2 * BLOCK_SIZE];
        fs.file_read(ino, &mut back, cut - 100).unwrap();
        assert!(back[..100].iter().all(|&b| b == 0xAB));
        assert!(back[100..].iter().all(|&b| b == 0), "stale bytes");
        let mut far = [0xFFu8; 10];
        fs.file_read(ino, &mut far, second).unwrap();
        assert_eq!(far, [0; 10]);
        fs.itrunc(ino, 0).unwrap();
        assert_eq!(fs.superblock().free_blocks, free0);
    }

    #[test]
    fn dir_enter_lookup_remove() {
        let fs = fresh_fs(256);
        let f1 = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let f2 = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.dir_enter(ROOT_INO, "alpha", f1).unwrap();
        fs.dir_enter(ROOT_INO, "beta", f2).unwrap();
        assert_eq!(fs.dir_lookup(ROOT_INO, "alpha").unwrap(), Some(f1));
        assert_eq!(fs.dir_lookup(ROOT_INO, "beta").unwrap(), Some(f2));
        assert_eq!(fs.dir_lookup(ROOT_INO, "gamma").unwrap(), None);
        assert_eq!(fs.dir_remove(ROOT_INO, "alpha").unwrap(), f1);
        assert_eq!(fs.dir_lookup(ROOT_INO, "alpha").unwrap(), None);
        // The freed slot is reused.
        let f3 = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.dir_enter(ROOT_INO, "delta", f3).unwrap();
        let names: Vec<_> = fs
            .dir_list(ROOT_INO)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, [".", "..", "delta", "beta"]);
    }

    #[test]
    fn dir_lookup_reads_a_directory_block_by_block() {
        let fs = fresh_fs(1024);
        for i in 0..100 {
            let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
            fs.dir_enter(ROOT_INO, &format!("f{i:03}"), ino).unwrap();
        }
        let dir_blocks = fs
            .read_inode(ROOT_INO)
            .unwrap()
            .size
            .div_ceil(BLOCK_SIZE as u64);
        assert!(dir_blocks >= 2);
        let (hits0, misses0) = fs.cache().stats();
        assert!(fs.dir_lookup(ROOT_INO, "f099").unwrap().is_some());
        let (hits1, misses1) = fs.cache().stats();
        let lookups = (hits1 - hits0) + (misses1 - misses0);
        // One lookup per directory block, plus the directory's inode.
        assert!(
            lookups <= dir_blocks + 1,
            "{lookups} cache lookups for {dir_blocks} directory blocks"
        );
    }

    #[test]
    fn allocation_exhaustion_is_enospc() {
        let fs = fresh_fs(32); // Tiny volume.
        let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let big = vec![0u8; 64 * BLOCK_SIZE];
        assert!(matches!(fs.file_write(ino, &big, 0), Err(Error::NoSpace)));
    }

    #[test]
    fn persistence_across_remount() {
        let dev = VecBufIo::with_len(256 * BLOCK_SIZE) as Arc<dyn BlkIo>;
        FsCore::mkfs(&dev).unwrap();
        {
            let fs = FsCore::mount(&dev).unwrap();
            let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
            fs.file_write(ino, b"survive remount", 0).unwrap();
            fs.dir_enter(ROOT_INO, "persist.txt", ino).unwrap();
            fs.unmount().unwrap();
        }
        let fs = FsCore::mount(&dev).unwrap();
        let ino = fs.dir_lookup(ROOT_INO, "persist.txt").unwrap().unwrap();
        let mut buf = [0u8; 32];
        let n = fs.file_read(ino, &mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"survive remount");
    }

    #[test]
    fn operations_after_unmount_are_stale() {
        let fs = fresh_fs(256);
        fs.unmount().unwrap();
        assert!(matches!(fs.read_inode(ROOT_INO), Err(Error::Stale)));
        let mut b = [0u8; 4];
        assert!(matches!(
            fs.file_read(ROOT_INO, &mut b, 0),
            Err(Error::Stale)
        ));
    }
}
