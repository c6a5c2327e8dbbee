//! The donor's `bread`/`bdwrite`/`getblk` semantics FFS relies on.

use crate::ffs::ondisk::BLOCK_SIZE;
use oskit_bufcache::BufCache;
use oskit_com::interfaces::blkio::{BlkIo, BufIo, VecBufIo};
use oskit_machine::Machine;
use std::sync::Arc;

fn ram_dev(blocks: usize) -> Arc<dyn BlkIo> {
    VecBufIo::with_len(blocks * BLOCK_SIZE) as Arc<dyn BlkIo>
}

fn metered(dev: &Arc<dyn BlkIo>, max_bufs: usize) -> (BufCache, Arc<Machine>) {
    let m = Machine::new(&oskit_machine::Sim::new(), "fs", 4096);
    (
        BufCache::new(dev, BLOCK_SIZE, max_bufs, Some(Arc::clone(&m))),
        m,
    )
}

#[test]
fn read_back_what_was_written() {
    let (cache, _) = metered(&ram_dev(16), 8);
    cache
        .bmodify(3, |b| b[0..4].copy_from_slice(b"OFS!"))
        .unwrap();
    let tag = cache.bread_with(3, |b| b[0..4].to_vec()).unwrap();
    assert_eq!(tag, b"OFS!");
}

#[test]
fn dirty_blocks_reach_device_only_on_sync() {
    let dev = ram_dev(16);
    let (cache, _) = metered(&dev, 8);
    cache.bmodify(2, |b| b[0] = 0xEE).unwrap();
    let mut probe = [0u8; 1];
    dev.read(&mut probe, 2 * BLOCK_SIZE as u64).unwrap();
    assert_eq!(probe[0], 0, "write must be delayed");
    cache.sync().unwrap();
    dev.read(&mut probe, 2 * BLOCK_SIZE as u64).unwrap();
    assert_eq!(probe[0], 0xEE);
}

#[test]
fn eviction_writes_back_dirty_buffers() {
    let dev = ram_dev(64);
    let (cache, _) = metered(&dev, 4);
    cache.bmodify(0, |b| b[0] = 1).unwrap();
    // Touch enough other blocks to evict block 0.
    for blk in 1..10 {
        cache.bread_with(blk, |_| ()).unwrap();
    }
    assert!(!cache.cached(0));
    let mut probe = [0u8; 1];
    dev.read(&mut probe, 0).unwrap();
    assert_eq!(probe[0], 1, "eviction must write back");
    // And reading it again still yields the data.
    assert_eq!(cache.bread_with(0, |b| b[0]).unwrap(), 1);
}

#[test]
fn cache_hits_avoid_device_reads() {
    let (cache, m) = metered(&ram_dev(16), 8);
    cache.bread_with(5, |_| ()).unwrap();
    cache.bread_with(5, |_| ()).unwrap();
    cache.bread_with(5, |_| ()).unwrap();
    let w = m.work();
    assert_eq!(w.cache_misses, 1);
    assert_eq!(w.cache_hits, 2);
}

#[test]
fn bwrite_full_replaces_without_read() {
    let (cache, m) = metered(&ram_dev(16), 8);
    cache.bwrite_full(7, &vec![0xAB; BLOCK_SIZE]).unwrap();
    assert_eq!(cache.bread_with(7, |b| b[100]).unwrap(), 0xAB);
    assert_eq!(
        m.work().cache_misses,
        0,
        "full write must not read the device"
    );
}

#[test]
fn out_of_range_read_errors() {
    let (cache, _) = metered(&ram_dev(4), 8);
    assert!(cache.bread_with(100, |_| ()).is_err());
}

#[test]
fn bread_block_lends_the_cache_page_as_bufio() {
    let (cache, _) = metered(&ram_dev(16), 8);
    cache
        .bmodify(4, |b| b[10..14].copy_from_slice(b"page"))
        .unwrap();
    let page = cache.cluster_read(4, 1).unwrap();
    page.with_map(10, 4, &mut |s| assert_eq!(s, b"page"))
        .unwrap();
    // Holding the handle pins the block against thrashing.
    for blk in 5..16 {
        cache.bread_with(blk, |_| ()).unwrap();
    }
    assert!(cache.cached(4));
}
