//! The mount's buffer cache resists scans: a small file read again after
//! it aged out of the cache stays resident while a file twice the cache
//! size streams through, so serving one large, unpopular file does not
//! evict the popular ones.

use oskit_com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit_machine::{Machine, Sim};
use oskit_netbsd_fs::ffs::ondisk::mode;
use oskit_netbsd_fs::{FsCore, BLOCK_SIZE};
use std::sync::Arc;

/// The mount-time cache size, in blocks.
const CACHE_BLOCKS: usize = 256;

/// Creates a file of `blocks` whole blocks and returns its inode.
fn create(fs: &FsCore, blocks: usize) -> u32 {
    let ino = fs.ialloc(mode::IFREG | 0o644).unwrap();
    let data: Vec<u8> = (0..blocks * BLOCK_SIZE).map(|i| (i % 253) as u8).collect();
    assert_eq!(fs.file_write(ino, &data, 0).unwrap(), data.len());
    ino
}

/// Reads all of `ino` (`blocks` blocks) in 4 KiB requests, as a file
/// server does, and returns the cache misses that took.
fn read_all(fs: &FsCore, machine: &Machine, ino: u32, blocks: usize) -> u64 {
    let before = machine.work().cache_misses;
    let mut buf = vec![0u8; BLOCK_SIZE];
    for lbn in 0..blocks {
        let off = (lbn * BLOCK_SIZE) as u64;
        assert_eq!(fs.file_read(ino, &mut buf, off).unwrap(), BLOCK_SIZE);
    }
    machine.work().cache_misses - before
}

#[test]
fn a_hot_file_survives_a_stream_twice_the_cache() {
    let dev = VecBufIo::with_len(2048 * BLOCK_SIZE) as Arc<dyn BlkIo>;
    FsCore::mkfs(&dev).unwrap();
    let fs = FsCore::mount(&dev, None).unwrap();
    let (hot, aging, stream) = (4, CACHE_BLOCKS + 32, 2 * CACHE_BLOCKS);
    let files = [create(&fs, hot), create(&fs, aging), create(&fs, stream)];
    fs.unmount().unwrap();

    let machine = Machine::new(&Sim::new(), "fs", 4096);
    let fs = FsCore::mount(&dev, Some(Arc::clone(&machine))).unwrap();
    // Make the small file hot: read it, age it out of the cache, and
    // read it again.
    assert!(read_all(&fs, &machine, files[0], hot) > 0);
    read_all(&fs, &machine, files[1], aging);
    assert!(
        read_all(&fs, &machine, files[0], hot) > 0,
        "the aging file did not push the hot file out"
    );
    let evictions = machine.work().cache_evictions;
    assert!(read_all(&fs, &machine, files[2], stream) > 0);
    assert!(
        machine.work().cache_evictions - evictions >= stream as u64 - CACHE_BLOCKS as u64,
        "the stream did not cycle the cache"
    );
    assert_eq!(
        read_all(&fs, &machine, files[0], hot),
        0,
        "the stream evicted the hot file"
    );
}
