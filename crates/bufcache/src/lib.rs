//! `oskit-bufcache` — a shared buffer cache over `oskit_blkio`.
//!
//! The BSD `getblk`/`bread`/`brelse` idiom, packaged as an OSKit
//! component: the cache sits on top of *any* [`BlkIo`] (an encapsulated
//! disk driver, a RAM disk, a partition view) and hands out cached
//! blocks that are themselves first-class COM buffer objects.  Each
//! [`CachedBlock`] implements the full buffer-I/O interface lattice —
//! [`BlkIo`] ⊃ [`BufIo`] ⊃ [`SgBufIo`] — so a block borrowed from the
//! cache can flow *across* component boundaries without copying: the
//! file system hands it to the socket layer as external mbuf storage,
//! the socket layer hands it to a scatter-gather NIC driver, and the
//! bytes the disk driver DMA'd into the cache page are the bytes the
//! NIC gathers onto the wire.  That is the zero-copy `sendfile` path;
//! see `EXPERIMENTS.md` (table3).
//!
//! Pinning is refcount-based, matching Rust idiom rather than C's
//! explicit `brelse`: a block is pinned while any handle to it is held
//! (`Arc::strong_count > 1`) or while a driver has it wired for DMA
//! ([`BufIo::wire`]).  Dropping the handle *is* `brelse`.  Eviction is
//! LRU over the unpinned blocks only, with dirty victims written back
//! first; a write-back failure re-inserts the block rather than losing
//! data.

#![warn(missing_docs)]

use oskit_com::interfaces::blkio::{BlkIo, BufIo, SgBufIo};
use oskit_com::{com_object, new_com, Error, Result, SelfRef};
use oskit_machine::{boundary, Machine};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounded retries for a transient device error during a cache fill or
/// a dirty write-back (`Err` from the backing `blkio`; a short read is
/// deterministic end-of-device and is never retried).
pub const FILL_RETRIES: usize = 3;

/// One cached, refcounted, pinnable block — a first-class COM buffer
/// object implementing [`BlkIo`], [`BufIo`] and [`SgBufIo`].
///
/// The block *is* the cache page: mapping it ([`BufIo::with_map`]) hands
/// out the cache's own storage zero-copy, and holding the `Arc` pins the
/// page against eviction for exactly that long.
pub struct CachedBlock {
    me: SelfRef<CachedBlock>,
    blkno: u32,
    data: Mutex<Vec<u8>>,
    dirty: AtomicBool,
    wired: AtomicUsize,
}

impl std::fmt::Debug for CachedBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedBlock")
            .field("blkno", &self.blkno)
            .field("dirty", &self.is_dirty())
            .field("wired", &self.wire_count())
            .finish()
    }
}

impl CachedBlock {
    fn new(blkno: u32, data: Vec<u8>) -> Arc<CachedBlock> {
        new_com(
            CachedBlock {
                me: SelfRef::new(),
                blkno,
                data: Mutex::new(data),
                dirty: AtomicBool::new(false),
                wired: AtomicUsize::new(0),
            },
            |o| &o.me,
        )
    }

    /// The device block number this page caches.
    pub fn blkno(&self) -> u32 {
        self.blkno
    }

    /// Whether the block holds modifications not yet written back.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Number of outstanding [`BufIo::wire`] pins.
    pub fn wire_count(&self) -> usize {
        self.wired.load(Ordering::Relaxed)
    }

    fn block_size(&self) -> usize {
        self.data.lock().len()
    }
}

impl BlkIo for CachedBlock {
    fn get_block_size(&self) -> usize {
        self.block_size()
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        let data = self.data.lock();
        let off = offset as usize;
        if off >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        Ok(n)
    }

    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        let mut data = self.data.lock();
        let off = offset as usize;
        if off >= data.len() {
            return Err(Error::Inval);
        }
        let n = buf.len().min(data.len() - off);
        data[off..off + n].copy_from_slice(&buf[..n]);
        self.dirty.store(true, Ordering::Relaxed);
        Ok(n)
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.block_size() as u64)
    }
}

impl BufIo for CachedBlock {
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        let data = self.data.lock();
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > data.len() {
            return Err(Error::Inval);
        }
        f(&data[offset..end]);
        Ok(())
    }

    fn with_map_mut(
        &self,
        offset: usize,
        len: usize,
        f: &mut dyn FnMut(&mut [u8]),
    ) -> Result<()> {
        let mut data = self.data.lock();
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > data.len() {
            return Err(Error::Inval);
        }
        f(&mut data[offset..end]);
        self.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn wire(&self) -> Result<u64> {
        self.wired.fetch_add(1, Ordering::Relaxed);
        // A stable simulated physical address: cache pages live in an
        // imaginary region above the 1 MB hole, one slot per block.
        Ok(0x10_0000 + u64::from(self.blkno) * self.block_size() as u64)
    }

    fn unwire(&self) {
        let prev = self.wired.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "unwire without wire");
    }
}

impl SgBufIo for CachedBlock {}

com_object!(CachedBlock, me, [BlkIo, BufIo, SgBufIo]);

/// A point-in-time copy of a cache's accounting counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied from memory.
    pub hits: u64,
    /// Lookups that filled from the backing device.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

struct Entry {
    block: Arc<CachedBlock>,
    used: u64,
}

struct CacheState {
    map: HashMap<u32, Entry>,
    tick: u64,
}

/// The shared buffer cache: BSD `getblk`/`bread` over any [`BlkIo`].
///
/// All blocks are `block_size` bytes; at most `max_blocks` stay resident
/// (pinned blocks are never evicted, so the cache may transiently exceed
/// the budget while handles are outstanding).  `brelse` is implicit:
/// dropping the returned [`CachedBlock`] handle releases the pin.
pub struct BufCache {
    dev: Arc<dyn BlkIo>,
    block_size: usize,
    max_blocks: usize,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    machine: Mutex<Option<Arc<Machine>>>,
}

impl BufCache {
    /// Creates a cache of `max_blocks` blocks of `block_size` bytes over
    /// `dev` (minimum 4 blocks, like the donor cache).
    pub fn new(dev: &Arc<dyn BlkIo>, block_size: usize, max_blocks: usize) -> BufCache {
        BufCache {
            dev: Arc::clone(dev),
            block_size,
            max_blocks: max_blocks.max(4),
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            machine: Mutex::new(None),
        }
    }

    /// Attaches the machine whose ledger the hit/miss/eviction events are
    /// booked in, at the `bufcache::getblk` boundary.  Without a machine the cache still counts locally
    /// ([`BufCache::stats`]).
    pub fn attach_machine(&self, machine: &Arc<Machine>) {
        *self.machine.lock() = Some(Arc::clone(machine));
    }

    /// The backing device.
    pub fn device(&self) -> &Arc<dyn BlkIo> {
        &self.dev
    }

    /// The cache's uniform block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Local accounting counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Whether `blkno` is currently resident (test/diagnostic hook; does
    /// not count as an access and does not disturb LRU order).
    pub fn cached(&self, blkno: u32) -> bool {
        self.state.lock().map.contains_key(&blkno)
    }

    /// Number of resident blocks.
    pub fn resident(&self) -> usize {
        self.state.lock().map.len()
    }

    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &*self.machine.lock() {
            m.note_cache_hit_at(boundary!("bufcache", "getblk"));
        }
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &*self.machine.lock() {
            m.note_cache_miss_at(boundary!("bufcache", "getblk"));
        }
    }

    fn note_evict(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &*self.machine.lock() {
            m.note_cache_evict_at(boundary!("bufcache", "getblk"));
        }
    }

    /// `bread`: returns the cached block for `blkno`, filling it from the
    /// backing device on a miss.  The returned handle pins the block
    /// until dropped (`brelse`).
    pub fn bread(&self, blkno: u32) -> Result<Arc<CachedBlock>> {
        if let Some(b) = self.lookup(blkno) {
            self.note_hit();
            return Ok(b);
        }
        self.note_miss();
        let data = self.fill(blkno)?;
        Ok(self.install(blkno, data))
    }

    /// `getblk`: returns the block for `blkno` *without* reading the
    /// device — the caller promises to overwrite it fully (`bwrite_full`
    /// is the convenience wrapper).  Neither a hit nor a miss is
    /// counted: this is an allocation primitive, not a lookup.
    pub fn getblk(&self, blkno: u32) -> Arc<CachedBlock> {
        if let Some(b) = self.lookup(blkno) {
            return b;
        }
        self.install(blkno, vec![0; self.block_size])
    }

    /// `brelse`: explicit release for readers who want the BSD name.
    /// Dropping the handle does exactly the same thing.
    pub fn brelse(block: Arc<CachedBlock>) {
        drop(block);
    }

    fn lookup(&self, blkno: u32) -> Option<Arc<CachedBlock>> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        let e = st.map.get_mut(&blkno)?;
        e.used = tick;
        Some(Arc::clone(&e.block))
    }

    /// Reads one block from the device, retrying transient errors.
    /// Never called with the state lock held.
    fn fill(&self, blkno: u32) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; self.block_size];
        let off = u64::from(blkno) * self.block_size as u64;
        let mut last = Error::Io;
        for _ in 0..FILL_RETRIES {
            match self.dev.read(&mut buf, off) {
                Ok(n) if n == self.block_size => return Ok(buf),
                // A short read is a deterministic end-of-device, not a
                // transient fault: fail immediately, like the donor.
                Ok(_) => return Err(Error::Io),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Inserts a freshly filled block, evicting as needed.  Re-checks
    /// for a concurrent insert (the fill ran without the lock).
    fn install(&self, blkno: u32, data: Vec<u8>) -> Arc<CachedBlock> {
        let (block, victims) = {
            let mut st = self.state.lock();
            st.tick += 1;
            let tick = st.tick;
            if let Some(e) = st.map.get_mut(&blkno) {
                // Someone filled it while we read: theirs wins (it may
                // already carry modifications).
                e.used = tick;
                return Arc::clone(&e.block);
            }
            let block = CachedBlock::new(blkno, data);
            st.map.insert(
                blkno,
                Entry {
                    block: Arc::clone(&block),
                    used: tick,
                },
            );
            let mut victims = Vec::new();
            while st.map.len() > self.max_blocks {
                let victim = st
                    .map
                    .iter()
                    .filter(|(_, e)| {
                        e.block.wire_count() == 0 && Arc::strong_count(&e.block) == 1
                    })
                    .min_by_key(|(_, e)| e.used)
                    .map(|(k, _)| *k);
                match victim {
                    Some(k) => {
                        let e = st.map.remove(&k).expect("victim present");
                        victims.push(e.block);
                    }
                    // Everything is pinned: run over budget rather than
                    // evicting a block somebody holds.
                    None => break,
                }
            }
            (block, victims)
        };
        for v in victims {
            self.note_evict();
            if v.is_dirty() && self.write_back(&v).is_err() {
                // Never lose data to a failing device: put the dirty
                // block back (still dirty) and stay over budget.
                let mut st = self.state.lock();
                st.tick += 1;
                let tick = st.tick;
                st.map.entry(v.blkno()).or_insert(Entry { block: v, used: tick });
            }
        }
        block
    }

    /// Writes one block back to the device, retrying transient errors.
    /// Clears the dirty bit *before* copying the data out, so a racing
    /// modification re-dirties the block for the next sync instead of
    /// being lost.
    fn write_back(&self, block: &Arc<CachedBlock>) -> Result<()> {
        block.dirty.store(false, Ordering::Relaxed);
        let data = block.data.lock().clone();
        let off = u64::from(block.blkno()) * self.block_size as u64;
        let mut last = Error::Io;
        for _ in 0..FILL_RETRIES {
            match self.dev.write(&data, off) {
                Ok(n) if n == data.len() => return Ok(()),
                Ok(_) => {
                    last = Error::Io;
                    break;
                }
                Err(e) => last = e,
            }
        }
        block.dirty.store(true, Ordering::Relaxed);
        Err(last)
    }

    /// Reads block `blkno` and calls `f` on its bytes (convenience over
    /// [`BufCache::bread`] + [`BufIo::with_map`]).
    pub fn bread_with<R>(&self, blkno: u32, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let b = self.bread(blkno)?;
        let data = b.data.lock();
        Ok(f(&data))
    }

    /// Reads block `blkno`, lets `f` modify it in place, and marks it
    /// dirty (delayed write).
    pub fn bmodify<R>(&self, blkno: u32, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let b = self.bread(blkno)?;
        let mut data = b.data.lock();
        let r = f(&mut data);
        b.dirty.store(true, Ordering::Relaxed);
        Ok(r)
    }

    /// Replaces block `blkno` entirely with `data` (delayed write) —
    /// `getblk` semantics, no device read even on a cold block.
    ///
    /// # Panics
    /// If `data.len()` is not exactly the cache block size.
    pub fn bwrite_full(&self, blkno: u32, data: &[u8]) -> Result<()> {
        assert_eq!(data.len(), self.block_size, "bwrite_full needs a full block");
        let b = self.getblk(blkno);
        b.data.lock().copy_from_slice(data);
        b.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Writes every dirty resident block back to the device.
    pub fn sync(&self) -> Result<()> {
        let dirty: Vec<Arc<CachedBlock>> = {
            let st = self.state.lock();
            st.map
                .values()
                .filter(|e| e.block.is_dirty())
                .map(|e| Arc::clone(&e.block))
                .collect()
        };
        let mut blocks: Vec<_> = dirty;
        blocks.sort_by_key(|b| b.blkno());
        for b in blocks {
            self.write_back(&b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;
    use oskit_com::{IUnknown, Query};
    use proptest::prelude::*;

    const BS: usize = 512;

    fn ram_dev(blocks: usize) -> Arc<dyn BlkIo> {
        let data: Vec<u8> = (0..blocks * BS).map(|i| (i % 251) as u8) .collect();
        VecBufIo::from_vec(data) as Arc<dyn BlkIo>
    }

    #[test]
    fn bread_fills_and_hits() {
        let dev = ram_dev(16);
        let c = BufCache::new(&dev, BS, 8);
        let b = c.bread(3).unwrap();
        b.with_map(0, BS, &mut |s| {
            assert!(s.iter().enumerate().all(|(i, &v)| v == ((3 * BS + i) % 251) as u8));
        })
        .unwrap();
        drop(b);
        let _ = c.bread(3).unwrap();
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn short_read_is_io_error() {
        let dev = ram_dev(4);
        let c = BufCache::new(&dev, BS, 8);
        assert_eq!(c.bread(4).unwrap_err(), Error::Io);
        assert_eq!(c.bread(100).unwrap_err(), Error::Io);
    }

    #[test]
    fn dirty_blocks_write_back_on_sync_and_evict() {
        let dev = ram_dev(32);
        let c = BufCache::new(&dev, BS, 4);
        c.bmodify(1, |d| d.fill(0xAA)).unwrap();
        // Evict block 1 by touching 4 others.
        for blk in [2, 3, 4, 5] {
            let _ = c.bread(blk).unwrap();
        }
        assert!(!c.cached(1), "block 1 should have been evicted");
        let mut buf = vec![0u8; BS];
        assert_eq!(dev.read(&mut buf, BS as u64).unwrap(), BS);
        assert!(buf.iter().all(|&v| v == 0xAA), "eviction must write back");
        // And sync writes back a still-resident dirty block.
        c.bmodify(2, |d| d.fill(0xBB)).unwrap();
        c.sync().unwrap();
        assert_eq!(dev.read(&mut buf, 2 * BS as u64).unwrap(), BS);
        assert!(buf.iter().all(|&v| v == 0xBB));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn bwrite_full_never_reads_the_device() {
        struct WriteOnly(Mutex<Vec<u8>>);
        impl oskit_com::IUnknown for WriteOnly {
            fn query_any(&self, _iid: &oskit_com::Guid) -> Option<oskit_com::AnyRef> {
                None
            }
        }
        impl BlkIo for WriteOnly {
            fn get_block_size(&self) -> usize {
                BS
            }
            fn read(&self, _buf: &mut [u8], _offset: u64) -> Result<usize> {
                panic!("bwrite_full must not read");
            }
            fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
                let mut d = self.0.lock();
                let off = offset as usize;
                d[off..off + buf.len()].copy_from_slice(buf);
                Ok(buf.len())
            }
            fn get_size(&self) -> Result<u64> {
                Ok(self.0.lock().len() as u64)
            }
        }
        let backing = Arc::new(WriteOnly(Mutex::new(vec![0; 8 * BS])));
        let dev = Arc::clone(&backing) as Arc<dyn BlkIo>;
        let c = BufCache::new(&dev, BS, 4);
        c.bwrite_full(2, &vec![7u8; BS]).unwrap();
        c.sync().unwrap();
        let d = backing.0.lock();
        assert!(d[2 * BS..3 * BS].iter().all(|&v| v == 7));
        assert!(d[..2 * BS].iter().all(|&v| v == 0));
    }

    #[test]
    fn held_handle_is_never_evicted() {
        let dev = ram_dev(64);
        let c = BufCache::new(&dev, BS, 4);
        let held = c.bread(0).unwrap();
        for blk in 1..20 {
            let _ = c.bread(blk).unwrap();
        }
        assert!(c.cached(0), "held block evicted");
        drop(held);
        for blk in 20..30 {
            let _ = c.bread(blk).unwrap();
        }
        assert!(!c.cached(0), "released block should eventually evict");
    }

    #[test]
    fn wired_block_is_never_evicted() {
        let dev = ram_dev(64);
        let c = BufCache::new(&dev, BS, 4);
        let b = c.bread(7).unwrap();
        b.wire().unwrap();
        drop(b);
        for blk in 8..30 {
            let _ = c.bread(blk).unwrap();
        }
        assert!(c.cached(7), "wired block evicted");
        let b = c.bread(7).unwrap();
        b.unwire();
        drop(b);
        for blk in 30..40 {
            let _ = c.bread(blk).unwrap();
        }
        assert!(!c.cached(7));
    }

    #[test]
    fn cached_block_implements_the_full_bufio_lattice() {
        let dev = ram_dev(8);
        let c = BufCache::new(&dev, BS, 4);
        let b = c.bread(1).unwrap();
        // Upcast chain: SgBufIo → BufIo → BlkIo, per the interface
        // lattice (COMPONENTS.md).
        let sg = b.query::<dyn SgBufIo>().expect("sg");
        let buf: Arc<dyn BufIo> = sg.query::<dyn BufIo>().expect("bufio upcast");
        let blk: Arc<dyn BlkIo> = buf.query::<dyn BlkIo>().expect("blkio upcast");
        assert_eq!(blk.get_block_size(), BS);
        let mut frags = 0;
        sg.with_map_fragments(0, BS, &mut |fs| frags = fs.len()).unwrap();
        assert_eq!(frags, 1);
    }

    /// A device whose reads fail with a transient error the first
    /// `fail_reads` times, then succeed — the deterministic analogue of
    /// a disk transient during cache fill.
    struct Flaky {
        inner: Arc<dyn BlkIo>,
        fail_reads: AtomicUsize,
    }
    impl IUnknown for Flaky {
        fn query_any(&self, _iid: &oskit_com::Guid) -> Option<oskit_com::AnyRef> {
            None
        }
    }
    impl BlkIo for Flaky {
        fn get_block_size(&self) -> usize {
            self.inner.get_block_size()
        }
        fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
            let left = self.fail_reads.load(Ordering::Relaxed);
            if left > 0 {
                self.fail_reads.store(left - 1, Ordering::Relaxed);
                return Err(Error::Io);
            }
            self.inner.read(buf, offset)
        }
        fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
            self.inner.write(buf, offset)
        }
        fn get_size(&self) -> Result<u64> {
            self.inner.get_size()
        }
    }

    #[test]
    fn transient_fill_errors_retry_without_corruption() {
        let flaky = Arc::new(Flaky {
            inner: ram_dev(16),
            fail_reads: AtomicUsize::new(2),
        });
        let dev = Arc::clone(&flaky) as Arc<dyn BlkIo>;
        let c = BufCache::new(&dev, BS, 8);
        let b = c.bread(5).unwrap();
        b.with_map(0, BS, &mut |s| {
            assert!(s.iter().enumerate().all(|(i, &v)| v == ((5 * BS + i) % 251) as u8));
        })
        .unwrap();
        // A persistent failure surfaces after FILL_RETRIES attempts.
        flaky.fail_reads.store(FILL_RETRIES, Ordering::Relaxed);
        assert_eq!(c.bread(6).unwrap_err(), Error::Io);
        assert!(!c.cached(6), "failed fill must not install garbage");
        // The device recovered: the block reads fine now.
        let _ = c.bread(6).unwrap();
    }

    // --- Property tests: refcount/pin/evict invariants ---

    /// One scripted cache operation.
    #[derive(Clone, Debug)]
    enum Op {
        Read(u32),
        Hold(u32),
        Release(usize),
        Wire(u32),
        Unwire(usize),
        Modify(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..24).prop_map(Op::Read),
            (0u32..24).prop_map(Op::Hold),
            (0usize..8).prop_map(Op::Release),
            (0u32..24).prop_map(Op::Wire),
            (0usize..4).prop_map(Op::Unwire),
            (0u32..24).prop_map(Op::Modify),
        ]
    }

    /// Drives one op sequence, tracking held and wired handles, and
    /// checks the pin invariant after every step.  Returns the final
    /// resident set plus stats, for cross-run determinism checks.
    fn drive(c: &BufCache, ops: &[Op]) -> (Vec<u32>, CacheStats) {
        let mut held: Vec<Arc<CachedBlock>> = Vec::new();
        let mut wired: Vec<Arc<CachedBlock>> = Vec::new();
        for op in ops {
            match op {
                Op::Read(b) => {
                    let _ = c.bread(*b).unwrap();
                }
                Op::Hold(b) => held.push(c.bread(*b).unwrap()),
                Op::Release(i) => {
                    if !held.is_empty() {
                        let i = i % held.len();
                        held.swap_remove(i);
                    }
                }
                Op::Wire(b) => {
                    let blk = c.bread(*b).unwrap();
                    blk.wire().unwrap();
                    wired.push(blk);
                }
                Op::Unwire(i) => {
                    if !wired.is_empty() {
                        let i = i % wired.len();
                        let blk = wired.swap_remove(i);
                        blk.unwire();
                    }
                }
                Op::Modify(b) => {
                    c.bmodify(*b, |d| d[0] = d[0].wrapping_add(1)).unwrap();
                }
            }
            // Invariant: every held or wired block stays resident.
            for h in held.iter().chain(wired.iter()) {
                assert!(c.cached(h.blkno()), "pinned block {} evicted", h.blkno());
            }
        }
        // Release everything (unwire before drop keeps counts sane).
        for w in wired {
            w.unwire();
        }
        let mut resident: Vec<u32> = {
            let st = c.state.lock();
            st.map.keys().copied().collect()
        };
        resident.sort_unstable();
        (resident, c.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Never evict a pinned (held or wired) block, under arbitrary
        /// operation interleavings on a tiny cache.
        #[test]
        fn pinned_blocks_survive(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let dev = ram_dev(24);
            let c = BufCache::new(&dev, BS, 4);
            drive(&c, &ops);
        }

        /// LRU order is deterministic: the same op sequence on two caches
        /// leaves the same resident set and the same counters.
        #[test]
        fn lru_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let dev_a = ram_dev(24);
            let dev_b = ram_dev(24);
            let a = BufCache::new(&dev_a, BS, 4);
            let b = BufCache::new(&dev_b, BS, 4);
            prop_assert_eq!(drive(&a, &ops), drive(&b, &ops));
        }

        /// Read-after-evict refills from the device byte-exact, including
        /// through dirty write-backs.
        #[test]
        fn read_after_evict_is_byte_exact(
            blks in proptest::collection::vec(0u32..16, 1..40),
            stamp in 0u8..255,
        ) {
            let dev = ram_dev(16);
            let c = BufCache::new(&dev, BS, 4);
            // Stamp one block, then thrash the cache over the rest.
            c.bmodify(blks[0], |d| d.fill(stamp)).unwrap();
            for b in &blks[1..] {
                let _ = c.bread(*b).unwrap();
            }
            // Wherever block blks[0] is now (cached or evicted), its
            // contents must read back as stamped.
            c.bread_with(blks[0], |d| {
                prop_assert!(d.iter().all(|&v| v == stamp));
                Ok(())
            }).unwrap()?;
            // And an untouched block always matches the device pattern.
            let probe = 15u32;
            if !blks.contains(&probe) {
                c.bread_with(probe, |d| {
                    prop_assert!(d.iter().enumerate().all(
                        |(i, &v)| v == ((probe as usize * BS + i) % 251) as u8
                    ));
                    Ok(())
                }).unwrap()?;
            }
        }
    }
}
