//! Clustered block I/O, counted at the device: every cold file read
//! moves each `bmap` run with one disk request of up to `MAXPHYS`, and
//! `sync` writes each run of consecutive dirty blocks with one request.
//! Metadata costs no request it does not need: a clean superblock is not
//! written, a block written up to EOF is not read first, and the first
//! indirect block comes with the direct run it follows on disk.

use oskit_bufcache::MAXPHYS;
use oskit_com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit_com::{AnyRef, Guid, IUnknown, Result};
use oskit_netbsd_fs::ffs::ondisk::{mode, INODES_PER_BLOCK, NDADDR, NINDIR};
use oskit_netbsd_fs::{FsCore, BLOCK_SIZE};
use parking_lot::Mutex;
use std::sync::Arc;

/// Blocks per cluster.
const RUN: usize = MAXPHYS / BLOCK_SIZE;

/// One device request: `(is_write, first block, blocks)`.
type Req = (bool, u32, usize);

/// A RAM volume that logs every request.
struct Counting {
    inner: Arc<dyn BlkIo>,
    log: Mutex<Vec<Req>>,
}

impl IUnknown for Counting {
    fn query_any(&self, _iid: &Guid) -> Option<AnyRef> {
        None
    }
}

impl BlkIo for Counting {
    fn get_block_size(&self) -> usize {
        self.inner.get_block_size()
    }
    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        self.note(false, buf.len(), offset);
        self.inner.read(buf, offset)
    }
    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        self.note(true, buf.len(), offset);
        self.inner.write(buf, offset)
    }
    fn get_size(&self) -> Result<u64> {
        self.inner.get_size()
    }
}

impl Counting {
    fn note(&self, write: bool, len: usize, offset: u64) {
        let blk = (offset / BLOCK_SIZE as u64) as u32;
        self.log.lock().push((write, blk, len / BLOCK_SIZE));
    }

    fn take(&self) -> Vec<Req> {
        std::mem::take(&mut *self.log.lock())
    }
}

/// A freshly formatted `blocks`-block volume behind a request log.
fn volume(blocks: usize) -> (Arc<Counting>, Arc<dyn BlkIo>) {
    let log = Arc::new(Counting {
        inner: VecBufIo::with_len(blocks * BLOCK_SIZE) as Arc<dyn BlkIo>,
        log: Mutex::new(Vec::new()),
    });
    let dev = Arc::clone(&log) as Arc<dyn BlkIo>;
    FsCore::mkfs(&dev).unwrap();
    (log, dev)
}

fn pattern(lbn: usize) -> Vec<u8> {
    (0..BLOCK_SIZE)
        .map(|i| ((lbn * 7 + i) % 253) as u8)
        .collect()
}

/// Writes whole blocks `lbns` of `ino`, each with its [`pattern`].
fn write_blocks(fs: &FsCore, ino: u32, lbns: std::ops::Range<usize>) {
    for lbn in lbns {
        let off = (lbn * BLOCK_SIZE) as u64;
        assert_eq!(fs.file_write(ino, &pattern(lbn), off).unwrap(), BLOCK_SIZE);
    }
}

/// The disk block of each logical block of `ino` (0 for a hole).
fn block_map(fs: &FsCore, ino: u32, blocks: usize) -> Vec<u32> {
    let mut d = fs.read_inode(ino).unwrap();
    (0..blocks as u32)
        .map(|lbn| fs.bmap(&mut d, lbn, false).unwrap().0)
        .collect()
}

fn itable_block(fs: &FsCore, ino: u32) -> u32 {
    fs.superblock().itable_start + ino / INODES_PER_BLOCK as u32
}

/// A 76-block file: 12 direct blocks, its indirect block, then 64 blocks
/// mapped by the indirect block, all allocated in that order.
fn direct_then_64(fs: &FsCore) -> (u32, Vec<u32>) {
    let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
    write_blocks(fs, ino, 0..NDADDR + 64);
    let map = block_map(fs, ino, NDADDR + 64);
    // The layout the counts below rely on: contiguous direct blocks,
    // the indirect block, contiguous indirect-mapped blocks.
    let d = fs.read_inode(ino).unwrap();
    assert_eq!(d.indirect, map[NDADDR - 1] + 1);
    for lbn in 1..map.len() {
        if lbn != NDADDR {
            assert_eq!(map[lbn], map[lbn - 1] + 1, "lbn {lbn} not contiguous");
        }
    }
    (ino, map)
}

#[test]
fn cold_sequential_read_issues_one_request_per_maxphys() {
    let (log, dev) = volume(1024);
    let fs = FsCore::mount(&dev).unwrap();
    let (ino, map) = direct_then_64(&fs);
    let indirect = fs.read_inode(ino).unwrap().indirect;
    fs.unmount().unwrap();

    let fs = FsCore::mount(&dev).unwrap();
    log.take();
    // A 1-byte read still fills the whole run: the caller's request size
    // never caps a cluster.
    let mut byte = [0u8; 1];
    fs.file_read(ino, &mut byte, 0).unwrap();
    assert_eq!(byte[0], pattern(0)[0]);
    // The direct run ends at the last direct block, and the indirect
    // block follows it on disk: one request takes both.
    assert_eq!(indirect, map[NDADDR - 1] + 1);
    assert_eq!(
        log.take(),
        [
            (false, itable_block(&fs, ino), 1),
            (false, map[0], NDADDR + 1)
        ]
    );
    // The rest of the file, 4 KiB at a time: the 64 indirect-mapped
    // blocks come in 4 data reads of MAXPHYS, and mapping them reads
    // nothing more.
    let mut buf = vec![0u8; BLOCK_SIZE];
    for lbn in 0..map.len() {
        fs.file_read(ino, &mut buf, (lbn * BLOCK_SIZE) as u64)
            .unwrap();
        assert_eq!(buf, pattern(lbn), "lbn {lbn}");
    }
    let want: Vec<Req> = (0..4)
        .map(|k| (false, map[NDADDR + k * RUN], RUN))
        .collect();
    assert_eq!(log.take(), want);
    let (hits, misses) = fs.cache().stats();
    assert_eq!(
        misses,
        1 + 1 + 1 + 4,
        "superblock, inode, direct run with the indirect, 4 runs"
    );
    assert!(hits >= map.len() as u64);
}

#[test]
fn sync_of_64_contiguous_dirty_blocks_issues_4_data_writes() {
    let (log, dev) = volume(1024);
    let fs = FsCore::mount(&dev).unwrap();
    let (ino, map) = direct_then_64(&fs);
    fs.sync().unwrap();
    // Overwrite the 64 indirect-mapped blocks in place (full blocks, so
    // nothing is read) and sync.
    write_blocks(&fs, ino, NDADDR..NDADDR + 64);
    log.take();
    fs.sync().unwrap();
    // Nothing was allocated, so the superblock is clean and not written.
    let mut want = vec![(true, itable_block(&fs, ino), 1)];
    want.extend((0..4).map(|k| (true, map[NDADDR + k * RUN], RUN)));
    assert_eq!(log.take(), want, "inode, then 4 data clusters");
}

#[test]
fn same_size_overwrite_and_sync_reads_nothing() {
    // A 41-block file whose last block is partial: an overwrite of the
    // same size, cold except for what reading its first byte brought in.
    let (log, dev) = volume(1024);
    let fs = FsCore::mount(&dev).unwrap();
    let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
    let size = 40 * BLOCK_SIZE + 1000;
    let old: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.file_write(ino, &old, 0).unwrap(), size);
    let map = block_map(&fs, ino, 41);
    fs.unmount().unwrap();

    let fs = FsCore::mount(&dev).unwrap();
    log.take();
    let mut byte = [0u8; 1];
    fs.file_read(ino, &mut byte, 0).unwrap();
    assert_eq!(log.take().len(), 2, "inode, direct run with the indirect");
    let new: Vec<u8> = (0..size).map(|i| (i % 249) as u8).collect();
    assert_eq!(fs.file_write(ino, &new, 0).unwrap(), size);
    fs.sync().unwrap();
    assert_eq!(
        log.take(),
        [
            (true, itable_block(&fs, ino), 1),
            (true, map[0], NDADDR),
            (true, map[NDADDR], RUN),
            (true, map[NDADDR + RUN], 41 - NDADDR - RUN),
        ],
        "no read, no superblock: the inode and the data runs"
    );
    fs.unmount().unwrap();
    let fs = FsCore::mount(&dev).unwrap();
    let mut back = vec![0u8; size + 1];
    assert_eq!(fs.file_read(ino, &mut back, 0).unwrap(), size);
    assert_eq!(&back[..size], &new[..]);
}

#[test]
fn the_superblock_is_written_once_per_modification() {
    let (log, dev) = volume(256);
    let fs = FsCore::mount(&dev).unwrap();
    let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
    write_blocks(&fs, ino, 0..1);
    log.take();
    fs.sync().unwrap();
    let writes = log.take();
    assert!(writes.iter().all(|&(write, _, _)| write), "{writes:?}");
    let covers_0 = writes.iter().filter(|&&(_, blk, n)| blk == 0 && n > 0);
    assert_eq!(covers_0.count(), 1, "block 0 written once: {writes:?}");
    fs.sync().unwrap();
    assert_eq!(log.take(), [], "a second sync has nothing to write");
}

#[test]
fn a_partial_write_short_of_eof_reads_the_block_first() {
    let (log, dev) = volume(256);
    let fs = FsCore::mount(&dev).unwrap();
    let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
    write_blocks(&fs, ino, 0..3);
    let map = block_map(&fs, ino, 3);
    fs.unmount().unwrap();

    let fs = FsCore::mount(&dev).unwrap();
    log.take();
    // From the block's start, but short of EOF.
    fs.file_write(ino, &[0xEE; 100], 0).unwrap();
    assert_eq!(
        log.take(),
        [(false, itable_block(&fs, ino), 1), (false, map[0], 1)]
    );
    // Up to EOF, but not from the block's start.
    let last = 2 * BLOCK_SIZE as u64;
    fs.file_write(ino, &[0xEE; BLOCK_SIZE - 10], last + 10)
        .unwrap();
    assert_eq!(log.take(), [(false, map[2], 1)]);
    let mut back = vec![0u8; 3 * BLOCK_SIZE];
    fs.file_read(ino, &mut back, 0).unwrap();
    let mut want: Vec<u8> = (0..3).flat_map(pattern).collect();
    want[..100].fill(0xEE);
    want[2 * BLOCK_SIZE + 10..].fill(0xEE);
    assert_eq!(back, want);
}

#[test]
fn a_run_takes_no_indirect_block_that_is_not_next_on_disk() {
    let (log, dev) = volume(256);
    let fs = FsCore::mount(&dev).unwrap();
    let f = fs.ialloc(mode::IFREG | 0o644).unwrap();
    let g = fs.ialloc(mode::IFREG | 0o644).unwrap();
    write_blocks(&fs, f, 0..NDADDR);
    write_blocks(&fs, g, 0..1); // Takes the block after f's lbn 11.
    write_blocks(&fs, f, NDADDR..NDADDR + 2);
    let map = block_map(&fs, f, NDADDR + 2);
    let indirect = fs.read_inode(f).unwrap().indirect;
    assert_eq!(indirect, map[NDADDR - 1] + 2);
    assert_eq!(map[NDADDR], indirect + 1);
    fs.unmount().unwrap();

    let fs = FsCore::mount(&dev).unwrap();
    log.take();
    let mut back = vec![0u8; (NDADDR + 2) * BLOCK_SIZE];
    fs.file_read(f, &mut back, 0).unwrap();
    assert_eq!(back, (0..NDADDR + 2).flat_map(pattern).collect::<Vec<_>>());
    assert_eq!(
        log.take(),
        [
            (false, itable_block(&fs, f), 1),
            (false, map[0], NDADDR),
            (false, indirect, 1),
            (false, map[NDADDR], 2),
        ]
    );
}

#[test]
fn a_hole_or_a_discontiguous_block_ends_a_run() {
    let (log, dev) = volume(256);
    let fs = FsCore::mount(&dev).unwrap();
    let f = fs.ialloc(mode::IFREG | 0o644).unwrap();
    let g = fs.ialloc(mode::IFREG | 0o644).unwrap();
    write_blocks(&fs, f, 0..3);
    write_blocks(&fs, g, 0..1); // Takes the block after f's lbn 2.
    write_blocks(&fs, f, 3..6);
    write_blocks(&fs, f, 7..9); // lbn 6 stays a hole.
    let map = block_map(&fs, f, 9);
    assert_eq!(map[3], map[2] + 2, "g's block sits between lbn 2 and 3");
    assert_eq!(map[7], map[5] + 1, "lbn 7 follows lbn 5 on disk");

    let mut d = fs.read_inode(f).unwrap();
    let run = |d: &mut _, lbn| fs.bmap(d, lbn, false).unwrap();
    assert_eq!(
        run(&mut d, 0),
        (map[0], 3),
        "discontiguous block ends the run"
    );
    assert_eq!(run(&mut d, 1), (map[1], 2));
    assert_eq!(run(&mut d, 3), (map[3], 3), "hole ends the run");
    assert_eq!(run(&mut d, 6), (0, 1), "a hole is a run of 1");
    assert_eq!(
        run(&mut d, 7),
        (map[7], 2),
        "the file's last block ends the run"
    );
    fs.unmount().unwrap();

    // Cold, the same runs are the disk requests; the hole reads nothing.
    let fs = FsCore::mount(&dev).unwrap();
    log.take();
    let mut back = vec![0xFFu8; 9 * BLOCK_SIZE];
    assert_eq!(fs.file_read(f, &mut back, 0).unwrap(), back.len());
    for (lbn, blk) in back.chunks(BLOCK_SIZE).enumerate() {
        if lbn == 6 {
            assert!(blk.iter().all(|&v| v == 0), "hole not zero");
        } else {
            assert_eq!(blk, pattern(lbn), "lbn {lbn}");
        }
    }
    assert_eq!(
        log.take(),
        [
            (false, itable_block(&fs, f), 1),
            (false, map[0], 3),
            (false, map[3], 3),
            (false, map[7], 2),
        ]
    );
}

#[test]
fn a_run_never_passes_the_end_of_the_file() {
    // Even when the blocks past it are allocated and contiguous (an
    // inode whose size alone was cut), the run stops at the file's last
    // block.
    let (_log, dev) = volume(4096);
    let fs = FsCore::mount(&dev).unwrap();
    let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
    let first = NDADDR + NINDIR;
    write_blocks(&fs, ino, first..first + 20);
    let mut d = fs.read_inode(ino).unwrap();
    assert_eq!(fs.bmap(&mut d, first as u32, false).unwrap().1, RUN);
    d.size = ((first + 5) * BLOCK_SIZE) as u64;
    let (blk, run) = fs.bmap(&mut d, first as u32, false).unwrap();
    assert_ne!(blk, 0);
    assert_eq!(run, 5);
    assert_eq!(fs.bmap(&mut d, first as u32 + 4, false).unwrap().1, 1);
}
