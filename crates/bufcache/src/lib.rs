//! `oskit-bufcache` — a shared buffer cache over `oskit_blkio`.
//!
//! The BSD `getblk`/`bread` idiom, packaged as an OSKit
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
//! explicit release call: a block is pinned while any handle to it is
//! held (`Arc::strong_count > 1`) or while a driver has it wired for DMA
//! ([`BufIo::wire`]).  Dropping the handle releases it.
//!
//! Eviction is 2Q (Johnson & Shasha, VLDB 1994) over the unpinned blocks
//! only, on 4.4BSD's two buffer queues.  A block's first reference (a
//! miss, a read-ahead block, a `getblk` allocation) appends it to the
//! FIFO `AGE` queue, where hits do not move it, so one sequential scan
//! counts once.  A block that ages out leaves its number on a ghost list
//! of ½ the cache; a miss on a listed number installs the block on the
//! `LRU` queue, where hits move it to the MRU end.  Victims come from the
//! `AGE` head while `AGE` holds more than ¼ of the cache, else from the
//! `LRU` head.  Each queue is linked through the block map, so choosing
//! a victim walks past the pinned blocks at a queue head and nothing
//! else.  Dirty victims are written back first; a write-back failure
//! re-inserts the block rather than losing data.
//!
//! Transfers are clustered in donor idiom (McVoy & Kleiman's FFS
//! clustering): a miss in [`BufCache::cluster_read`] fills the requested
//! block *and* the following non-resident blocks of the caller's
//! contiguous run with one device request, and [`BufCache::sync`] writes
//! each run of consecutive dirty blocks with one request.  Neither moves
//! more than [`MAXPHYS`] bytes at a time.
//!
//! Hits, misses and evictions are counted in one place: the ledger of
//! the [`Machine`] the cache was built with, at the `bufcache::getblk`
//! boundary.

#![warn(missing_docs)]

mod queue;

use oskit_com::interfaces::blkio::{BlkIo, BufIo, SgBufIo};
use oskit_com::{com_object, new_com, Error, Result, SelfRef};
use oskit_machine::{boundary, EventKind, Machine};
use parking_lot::Mutex;
use queue::{Link, Linked, Queue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Bounded retries for a transient device error during a cache fill or
/// a dirty write-back (`Err` from the backing `blkio`; a short read is
/// deterministic end-of-device and is never retried).
pub const FILL_RETRIES: usize = 3;

/// The largest single device transfer the cache issues, in bytes: the
/// cap on a clustered fill and on a coalesced write-back (the donor's
/// `MAXPHYS`; 16 blocks of 4 KiB).
pub const MAXPHYS: usize = 64 * 1024;

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

    fn with_map_mut(&self, offset: usize, len: usize, f: &mut dyn FnMut(&mut [u8])) -> Result<()> {
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

/// The two queues of 2Q (Johnson & Shasha, VLDB 1994), named after
/// 4.4BSD's buffer queues; each indexes `CacheState::queues`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Q {
    /// First references, in FIFO order: a hit does not move a block.
    Age,
    /// Blocks referenced again after aging out, in LRU order.
    Lru,
}

struct Entry {
    block: Arc<CachedBlock>,
    q: Q,
    link: Link,
}

impl Linked for Entry {
    fn link(&mut self) -> &mut Link {
        &mut self.link
    }
}

fn is_pinned(b: &Arc<CachedBlock>) -> bool {
    b.wire_count() > 0 || Arc::strong_count(b) > 1
}

#[derive(Default)]
struct CacheState {
    map: HashMap<u32, Entry>,
    /// The `Age` and `Lru` queues, indexed by `Q as usize`.
    queues: [Queue; 2],
    /// Numbers of the blocks that aged out of `Age` most recently,
    /// oldest first: 2Q's ghost list (`A1out`).
    ghosts: HashMap<u32, Link>,
    ghost: Queue,
    /// Entries examined while choosing victims.
    #[cfg(test)]
    walked: usize,
}

impl CacheState {
    /// A lookup of `blkno`: on a hit, moves an `Lru` block to the MRU
    /// end (an `Age` block stays where it is) and returns it.
    fn hit(&mut self, blkno: u32) -> Option<Arc<CachedBlock>> {
        let e = self.map.get(&blkno)?;
        let block = Arc::clone(&e.block);
        if e.q == Q::Lru {
            let lru = &mut self.queues[Q::Lru as usize];
            lru.remove(&mut self.map, blkno);
            lru.push_back(&mut self.map, blkno);
        }
        Some(block)
    }

    /// Makes `block` resident at the tail of queue `q`.
    fn enqueue(&mut self, block: Arc<CachedBlock>, q: Q) {
        let k = block.blkno();
        let link = Link::default();
        self.map.insert(k, Entry { block, q, link });
        self.queues[q as usize].push_back(&mut self.map, k);
    }

    /// Installs a block that is not resident: on `Lru` if its number is
    /// on the ghost list (a reference since it aged out), else on `Age`.
    fn insert(&mut self, block: Arc<CachedBlock>) {
        let k = block.blkno();
        let q = if self.forget(k) { Q::Lru } else { Q::Age };
        self.enqueue(block, q);
    }

    /// Removes and returns the next victim and the queue it left: the
    /// first unpinned block from the `Age` head while `Age` holds more
    /// than `age_max` blocks, else from the `Lru` head, falling back to
    /// the other queue.  The walk passes only pinned blocks.
    fn evict(&mut self, age_max: usize) -> Option<(Arc<CachedBlock>, Q)> {
        let order = if self.queues[Q::Age as usize].len() > age_max {
            [Q::Age, Q::Lru]
        } else {
            [Q::Lru, Q::Age]
        };
        for q in order {
            let mut at = self.queues[q as usize].head();
            while let Some(k) = at {
                #[cfg(test)]
                {
                    self.walked += 1;
                }
                let e = &self.map[&k];
                if !is_pinned(&e.block) {
                    self.queues[q as usize].remove(&mut self.map, k);
                    let e = self.map.remove(&k).expect("victim present");
                    return Some((e.block, q));
                }
                at = e.link.next();
            }
        }
        None
    }

    /// Puts the number of a block that aged out of `Age` at the tail of
    /// the ghost list, which keeps the newest `max` numbers.  A block
    /// read in again while its write-back ran is resident, not a ghost.
    fn remember(&mut self, k: u32, max: usize) {
        if self.map.contains_key(&k) {
            return;
        }
        self.forget(k);
        self.ghosts.insert(k, Link::default());
        self.ghost.push_back(&mut self.ghosts, k);
        while self.ghost.len() > max {
            let old = self.ghost.head().expect("a long ghost list has a head");
            self.forget(old);
        }
    }

    /// Takes `k` off the ghost list; whether it was on it.
    fn forget(&mut self, k: u32) -> bool {
        let listed = self.ghosts.contains_key(&k);
        if listed {
            self.ghost.remove(&mut self.ghosts, k);
            self.ghosts.remove(&k);
        }
        listed
    }
}

/// The shared buffer cache: BSD `getblk`/`bread` over any [`BlkIo`].
///
/// All blocks are `block_size` bytes; at most `max_blocks` stay resident
/// (pinned blocks are never evicted, so the cache may transiently exceed
/// the budget while handles are outstanding).  Release is implicit:
/// dropping the returned [`CachedBlock`] handle releases the pin.
pub struct BufCache {
    dev: Arc<dyn BlkIo>,
    block_size: usize,
    max_blocks: usize,
    state: Mutex<CacheState>,
    /// The machine whose ledger books each hit, miss and eviction.
    machine: Option<Arc<Machine>>,
}

impl BufCache {
    /// Creates a cache of `max_blocks` blocks of `block_size` bytes over
    /// `dev` (minimum 4 blocks, like the donor cache).  Hits, misses and
    /// evictions are booked in `machine`'s ledger at the
    /// `bufcache::getblk` boundary; a cache without a machine (`newfs`,
    /// host-side tools) counts nothing.
    pub fn new(
        dev: &Arc<dyn BlkIo>,
        block_size: usize,
        max_blocks: usize,
        machine: Option<Arc<Machine>>,
    ) -> BufCache {
        BufCache {
            dev: Arc::clone(dev),
            block_size,
            max_blocks: max_blocks.max(4),
            state: Mutex::new(CacheState::default()),
            machine,
        }
    }

    /// The cache's uniform block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Whether `blkno` is currently resident (test/diagnostic hook; does
    /// not count as an access and does not disturb the 2Q queues).
    pub fn cached(&self, blkno: u32) -> bool {
        self.state.lock().map.contains_key(&blkno)
    }

    /// Number of resident blocks.
    pub fn resident(&self) -> usize {
        self.state.lock().map.len()
    }

    /// The resident blocks that are pinned — wired for DMA or with a
    /// handle outstanding — in block order (diagnostic hook: at
    /// quiescence it is empty).
    pub fn pinned(&self) -> Vec<u32> {
        let st = self.state.lock();
        let mut pinned: Vec<u32> = st
            .map
            .values()
            .filter(|e| is_pinned(&e.block))
            .map(|e| e.block.blkno())
            .collect();
        pinned.sort_unstable();
        pinned
    }

    /// Books a hit, miss or eviction in the machine's ledger, if any.
    fn note(&self, kind: EventKind) {
        if let Some(m) = &self.machine {
            m.book(boundary!("bufcache", "getblk"), kind);
        }
    }

    /// `bread`: returns the cached block for `blkno`, filling it from the
    /// backing device on a miss.  The returned handle pins the block
    /// until dropped.  A cluster read of a one-block run.
    pub fn bread(&self, blkno: u32) -> Result<Arc<CachedBlock>> {
        self.cluster_read(blkno, 1)
    }

    /// `cluster_read`: [`BufCache::bread`] of the first block of a run of
    /// `run` consecutive device blocks the caller wants (e.g. a `bmap`
    /// run of one file).  A hit reads nothing.  A miss fills `blkno` and
    /// the non-resident blocks that directly follow it in the run, up to
    /// [`MAXPHYS`], with one device request; a resident block ends the
    /// fill, so a cached (possibly dirty) copy is never overwritten.
    ///
    /// Only `blkno` counts as a lookup (a hit or a miss): the blocks read
    /// ahead are installed unpinned and count as hits when they are
    /// looked up.
    pub fn cluster_read(&self, blkno: u32, run: usize) -> Result<Arc<CachedBlock>> {
        if let Some(b) = self.lookup(blkno) {
            self.note(EventKind::CacheHit);
            return Ok(b);
        }
        self.note(EventKind::CacheMiss);
        let n = self.nonresident_run(blkno, run.clamp(1, self.max_run()));
        let data = self.fill(blkno, n)?;
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

    fn lookup(&self, blkno: u32) -> Option<Arc<CachedBlock>> {
        self.state.lock().hit(blkno)
    }

    /// Blocks per device request at most.
    fn max_run(&self) -> usize {
        (MAXPHYS / self.block_size).max(1)
    }

    /// How many of the `run` blocks from `blkno` on are not resident,
    /// counting from `blkno` up to the first resident one (at least 1).
    fn nonresident_run(&self, blkno: u32, run: usize) -> usize {
        let st = self.state.lock();
        1 + (1..run as u32)
            .map_while(|k| blkno.checked_add(k))
            .take_while(|b| !st.map.contains_key(b))
            .count()
    }

    /// Reads `n` blocks from `blkno` on with one device request, retrying
    /// transient errors.  A read cut short by the end of the device keeps
    /// the whole blocks it got, if any.  Never called with the state lock
    /// held.
    fn fill(&self, blkno: u32, n: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; n * self.block_size];
        let off = u64::from(blkno) * self.block_size as u64;
        let mut last = Error::Io;
        for _ in 0..FILL_RETRIES {
            match self.dev.read(&mut buf, off) {
                Ok(got) if got >= self.block_size => {
                    buf.truncate(got - got % self.block_size);
                    return Ok(buf);
                }
                // A short read is a deterministic end-of-device, not a
                // transient fault: fail immediately, like the donor.
                Ok(_) => return Err(Error::Io),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Inserts freshly filled blocks (`data` holds whole blocks from
    /// `blkno` on), evicting as needed, and returns the first.  Re-checks
    /// each for a concurrent insert (the fill ran without the lock).
    fn install(&self, blkno: u32, data: Vec<u8>) -> Arc<CachedBlock> {
        let (block, victims) = {
            let mut st = self.state.lock();
            let mut first = None;
            for (i, bytes) in data.chunks_exact(self.block_size).enumerate() {
                let b = blkno + i as u32;
                // Someone filled it while we read: theirs wins (it may
                // already carry modifications), as a hit.
                let block = st.hit(b).unwrap_or_else(|| {
                    let block = CachedBlock::new(b, bytes.to_vec());
                    st.insert(Arc::clone(&block));
                    block
                });
                first.get_or_insert(block);
            }
            let block = first.expect("install of no whole block");
            let mut victims = Vec::new();
            while st.map.len() > self.max_blocks {
                match st.evict(self.max_blocks / 4) {
                    Some(v) => victims.push(v),
                    // Everything is pinned: run over budget rather than
                    // evicting a block somebody holds.
                    None => break,
                }
            }
            (block, victims)
        };
        for (v, q) in victims {
            if v.is_dirty() && self.write_run(std::slice::from_ref(&v)).is_err() {
                // Never lose data to a failing device: put the dirty
                // block back (still dirty, not evicted) and stay over
                // budget.
                let mut st = self.state.lock();
                if !st.map.contains_key(&v.blkno()) {
                    st.enqueue(v, q);
                }
                continue;
            }
            self.note(EventKind::CacheEvict);
            if q == Q::Age {
                self.state.lock().remember(v.blkno(), self.max_blocks / 2);
            }
        }
        block
    }

    /// Writes `run` (resident blocks with consecutive block numbers, in
    /// order) back with one device request, retrying transient errors.
    /// Clears the dirty bits *before* copying the data out, so a racing
    /// modification re-dirties its block for the next sync instead of
    /// being lost; a failed write re-dirties the whole run.
    fn write_run(&self, run: &[Arc<CachedBlock>]) -> Result<()> {
        let mut data = Vec::with_capacity(run.len() * self.block_size);
        for b in run {
            b.dirty.store(false, Ordering::Relaxed);
            data.extend_from_slice(&b.data.lock());
        }
        let off = u64::from(run[0].blkno()) * self.block_size as u64;
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
        for b in run {
            b.dirty.store(true, Ordering::Relaxed);
        }
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
        assert_eq!(
            data.len(),
            self.block_size,
            "bwrite_full needs a full block"
        );
        let b = self.getblk(blkno);
        b.data.lock().copy_from_slice(data);
        b.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Writes every dirty resident block back to the device: each run of
    /// consecutive block numbers, up to [`MAXPHYS`], is one request
    /// (`cluster_write`).
    pub fn sync(&self) -> Result<()> {
        let mut dirty: Vec<Arc<CachedBlock>> = {
            let st = self.state.lock();
            st.map
                .values()
                .filter(|e| e.block.is_dirty())
                .map(|e| Arc::clone(&e.block))
                .collect()
        };
        dirty.sort_by_key(|b| b.blkno());
        for run in dirty.chunk_by(|a, b| a.blkno().checked_add(1) == Some(b.blkno())) {
            for part in run.chunks(self.max_run()) {
                self.write_run(part)?;
            }
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
        let data: Vec<u8> = (0..blocks * BS).map(|i| (i % 251) as u8).collect();
        VecBufIo::from_vec(data) as Arc<dyn BlkIo>
    }

    /// A cache that books its lookups on a machine of its own.
    fn metered(dev: &Arc<dyn BlkIo>, max_blocks: usize) -> (BufCache, Arc<Machine>) {
        let m = Machine::new(&oskit_machine::Sim::new(), "cache", 4096);
        (BufCache::new(dev, BS, max_blocks, Some(Arc::clone(&m))), m)
    }

    /// The machine's `(hits, misses, evictions)`.
    fn counts(m: &Machine) -> (u64, u64, u64) {
        let w = m.work();
        (w.cache_hits, w.cache_misses, w.cache_evictions)
    }

    #[test]
    fn bread_fills_and_hits() {
        let dev = ram_dev(16);
        let (c, m) = metered(&dev, 8);
        let b = c.bread(3).unwrap();
        b.with_map(0, BS, &mut |s| {
            assert!(s
                .iter()
                .enumerate()
                .all(|(i, &v)| v == ((3 * BS + i) % 251) as u8));
        })
        .unwrap();
        drop(b);
        let _ = c.bread(3).unwrap();
        assert_eq!(counts(&m), (1, 1, 0));
    }

    #[test]
    fn short_read_is_io_error() {
        let dev = ram_dev(4);
        let c = BufCache::new(&dev, BS, 8, None);
        assert_eq!(c.bread(4).unwrap_err(), Error::Io);
        assert_eq!(c.bread(100).unwrap_err(), Error::Io);
    }

    #[test]
    fn dirty_blocks_write_back_on_sync_and_evict() {
        let dev = ram_dev(32);
        let (c, m) = metered(&dev, 4);
        c.bmodify(1, |d| d.fill(0xAA)).unwrap();
        // Evict block 1 by touching 4 others.
        for blk in [2, 3, 4, 5] {
            let _ = c.bread(blk).unwrap();
        }
        assert!(!c.cached(1), "block 1 should have been evicted");
        let mut buf = vec![0u8; BS];
        assert_eq!(dev.read(&mut buf, BS as u64).unwrap(), BS);
        assert!(buf.iter().all(|&v| v == 0xAA), "eviction must write back");
        // A still-resident dirty block reaches the device only on sync.
        c.bmodify(2, |d| d.fill(0xBB)).unwrap();
        assert_eq!(dev.read(&mut buf, 2 * BS as u64).unwrap(), BS);
        assert!(
            buf.iter()
                .enumerate()
                .all(|(i, &v)| v == ((2 * BS + i) % 251) as u8),
            "write must be delayed"
        );
        c.sync().unwrap();
        assert_eq!(dev.read(&mut buf, 2 * BS as u64).unwrap(), BS);
        assert!(buf.iter().all(|&v| v == 0xBB));
        assert_eq!(counts(&m).2, 1);
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
        let c = BufCache::new(&dev, BS, 4, None);
        c.bwrite_full(2, &vec![7u8; BS]).unwrap();
        c.sync().unwrap();
        let d = backing.0.lock();
        assert!(d[2 * BS..3 * BS].iter().all(|&v| v == 7));
        assert!(d[..2 * BS].iter().all(|&v| v == 0));
    }

    #[test]
    fn held_handle_is_never_evicted() {
        let dev = ram_dev(64);
        let c = BufCache::new(&dev, BS, 4, None);
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
        let c = BufCache::new(&dev, BS, 4, None);
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
        let c = BufCache::new(&dev, BS, 4, None);
        let b = c.bread(1).unwrap();
        // Upcast chain: SgBufIo → BufIo → BlkIo, per the interface
        // lattice (COMPONENTS.md).
        let sg = b.query::<dyn SgBufIo>().expect("sg");
        let buf: Arc<dyn BufIo> = sg.query::<dyn BufIo>().expect("bufio upcast");
        let blk: Arc<dyn BlkIo> = buf.query::<dyn BlkIo>().expect("blkio upcast");
        assert_eq!(blk.get_block_size(), BS);
        let mut frags = 0;
        sg.with_map_fragments(0, BS, &mut |fs| frags = fs.len())
            .unwrap();
        assert_eq!(frags, 1);
    }

    /// A device whose reads (writes) fail with a transient error the
    /// first `fail_reads` (`fail_writes`) times, then succeed — the
    /// deterministic analogue of a disk transient during cache fill or
    /// write-back.
    struct Flaky {
        inner: Arc<dyn BlkIo>,
        fail_reads: AtomicUsize,
        fail_writes: AtomicUsize,
    }

    /// Consumes one scripted failure from `left`, if any remain.
    fn take_failure(left: &AtomicUsize) -> bool {
        let n = left.load(Ordering::Relaxed);
        if n > 0 {
            left.store(n - 1, Ordering::Relaxed);
        }
        n > 0
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
            if take_failure(&self.fail_reads) {
                return Err(Error::Io);
            }
            self.inner.read(buf, offset)
        }
        fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
            if take_failure(&self.fail_writes) {
                return Err(Error::Io);
            }
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
            fail_writes: AtomicUsize::new(0),
        });
        let dev = Arc::clone(&flaky) as Arc<dyn BlkIo>;
        let c = BufCache::new(&dev, BS, 8, None);
        let b = c.bread(5).unwrap();
        b.with_map(0, BS, &mut |s| {
            assert!(s
                .iter()
                .enumerate()
                .all(|(i, &v)| v == ((5 * BS + i) % 251) as u8));
        })
        .unwrap();
        // A persistent failure surfaces after FILL_RETRIES attempts.
        flaky.fail_reads.store(FILL_RETRIES, Ordering::Relaxed);
        assert_eq!(c.bread(6).unwrap_err(), Error::Io);
        assert!(!c.cached(6), "failed fill must not install garbage");
        // The device recovered: the block reads fine now.
        let _ = c.bread(6).unwrap();
    }

    /// A device that logs every request as `(is_write, first block,
    /// blocks)` before passing it through.
    struct Counting {
        inner: Arc<dyn BlkIo>,
        bs: usize,
        log: Mutex<Vec<(bool, u64, usize)>>,
    }
    impl IUnknown for Counting {
        fn query_any(&self, _iid: &oskit_com::Guid) -> Option<oskit_com::AnyRef> {
            None
        }
    }
    impl BlkIo for Counting {
        fn get_block_size(&self) -> usize {
            self.inner.get_block_size()
        }
        fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
            let bs = self.bs as u64;
            self.log
                .lock()
                .push((false, offset / bs, buf.len() / self.bs));
            self.inner.read(buf, offset)
        }
        fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
            let bs = self.bs as u64;
            self.log
                .lock()
                .push((true, offset / bs, buf.len() / self.bs));
            self.inner.write(buf, offset)
        }
        fn get_size(&self) -> Result<u64> {
            self.inner.get_size()
        }
    }

    fn counting(inner: Arc<dyn BlkIo>, bs: usize) -> (Arc<Counting>, Arc<dyn BlkIo>) {
        let c = Arc::new(Counting {
            inner,
            bs,
            log: Mutex::new(Vec::new()),
        });
        let dev = Arc::clone(&c) as Arc<dyn BlkIo>;
        (c, dev)
    }

    #[test]
    fn cluster_read_fills_the_run_with_one_request() {
        let (log, dev) = counting(ram_dev(32), BS);
        let (c, m) = metered(&dev, 16);
        let b = c.cluster_read(2, 8).unwrap();
        assert_eq!(b.blkno(), 2);
        assert_eq!(*log.log.lock(), [(false, 2, 8)]);
        for blk in 2..10 {
            assert!(c.cached(blk), "block {blk} not read ahead");
        }
        assert!(!c.cached(10), "read past the run");
        // The read-ahead blocks are hits, byte-exact, with no device I/O.
        for blk in 3..10 {
            c.bread_with(blk, |d| {
                assert!(d
                    .iter()
                    .enumerate()
                    .all(|(i, &v)| v == ((blk as usize * BS + i) % 251) as u8));
            })
            .unwrap();
        }
        assert_eq!(log.log.lock().len(), 1);
        assert_eq!(counts(&m), (7, 1, 0));
        assert_eq!(c.pinned(), [2], "only the returned handle pins");
    }

    #[test]
    fn cluster_read_stops_at_a_resident_block() {
        let (log, dev) = counting(ram_dev(32), BS);
        let c = BufCache::new(&dev, BS, 16, None);
        c.bmodify(5, |d| d.fill(0xEE)).unwrap();
        log.log.lock().clear();
        let _ = c.cluster_read(2, 8).unwrap();
        // Blocks 2..5 only: the dirty resident block 5 is not refetched
        // over, and nothing past it is read.
        assert_eq!(*log.log.lock(), [(false, 2, 3)]);
        c.bread_with(5, |d| assert!(d.iter().all(|&v| v == 0xEE)))
            .unwrap();
        assert!(!c.cached(6));
        // A hit reads nothing whatever the run.
        let _ = c.cluster_read(3, 8).unwrap();
        assert_eq!(log.log.lock().len(), 1);
    }

    #[test]
    fn cluster_read_is_capped_at_maxphys_and_the_device_end() {
        let big = MAXPHYS / 4;
        let dev = VecBufIo::with_len(8 * big) as Arc<dyn BlkIo>;
        let (log, dev) = counting(dev, big);
        let c = BufCache::new(&dev, big, 16, None);
        let _ = c.cluster_read(0, 100).unwrap();
        assert_eq!(*log.log.lock(), [(false, 0, 4)], "run past MAXPHYS");
        // A run past the end of the device keeps the whole blocks read.
        let _ = c.cluster_read(6, 4).unwrap();
        assert!(c.cached(6) && c.cached(7));
        assert_eq!(c.resident(), 6);
    }

    #[test]
    fn sync_writes_each_dirty_run_with_one_request() {
        let big = MAXPHYS / 4;
        let dev = VecBufIo::with_len(32 * big) as Arc<dyn BlkIo>;
        let (log, dev) = counting(dev, big);
        let c = BufCache::new(&dev, big, 32, None);
        for blk in [0, 1, 2, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16] {
            c.bwrite_full(blk, &vec![blk as u8; big]).unwrap();
        }
        c.sync().unwrap();
        // Runs 0-2, 5, 7-16; the last splits at MAXPHYS (4 blocks).
        assert_eq!(
            *log.log.lock(),
            [
                (true, 0, 3),
                (true, 5, 1),
                (true, 7, 4),
                (true, 11, 4),
                (true, 15, 2)
            ]
        );
        let mut back = vec![0u8; big];
        for blk in [0u32, 9, 16] {
            dev.read(&mut back, u64::from(blk) * big as u64).unwrap();
            assert!(back.iter().all(|&v| v == blk as u8));
        }
        // Nothing is dirty any more: a second sync writes nothing.
        c.sync().unwrap();
        assert_eq!(log.log.lock().iter().filter(|r| r.0).count(), 5);
    }

    #[test]
    fn failed_cluster_write_stays_dirty_and_retries_whole() {
        let dev: Arc<dyn BlkIo> = Arc::new(Flaky {
            inner: ram_dev(16),
            fail_reads: AtomicUsize::new(0),
            fail_writes: AtomicUsize::new(FILL_RETRIES),
        });
        let c = BufCache::new(&dev, BS, 8, None);
        for blk in 3..7 {
            c.bmodify(blk, |d| d.fill(0x5A)).unwrap();
        }
        assert_eq!(c.sync().unwrap_err(), Error::Io);
        for blk in 3..7 {
            let b = c.bread(blk).unwrap();
            assert!(b.is_dirty(), "block {blk} lost its dirty bit");
        }
        c.sync().unwrap();
        let mut back = vec![0u8; 4 * BS];
        dev.read(&mut back, 3 * BS as u64).unwrap();
        assert!(back.iter().all(|&v| v == 0x5A));
        assert!(c.pinned().is_empty());
    }

    #[test]
    fn failed_eviction_write_back_keeps_the_block_and_books_no_eviction() {
        let flaky = Arc::new(Flaky {
            inner: ram_dev(16),
            fail_reads: AtomicUsize::new(0),
            fail_writes: AtomicUsize::new(0),
        });
        let dev = Arc::clone(&flaky) as Arc<dyn BlkIo>;
        let (c, m) = metered(&dev, 4);
        c.bmodify(1, |d| d.fill(0xC3)).unwrap();
        flaky.fail_writes.store(FILL_RETRIES, Ordering::Relaxed);
        // Block 1 heads AGE: the fifth block evicts it, and every try of
        // its write-back fails.
        for blk in [2, 3, 4, 5] {
            let _ = c.bread(blk).unwrap();
        }
        assert!(c.cached(1), "a block that failed its write-back left");
        assert!(c.state.lock().map[&1].block.is_dirty());
        assert!(!c.state.lock().ghosts.contains_key(&1));
        assert_eq!(counts(&m).2, 0, "a block that stayed counts as evicted");
        c.sync().unwrap();
        let mut back = vec![0u8; BS];
        dev.read(&mut back, BS as u64).unwrap();
        assert!(back.iter().all(|&v| v == 0xC3), "sync did not write it");
    }

    /// The queue resident block `b` is on.
    fn queue_of(c: &BufCache, b: u32) -> Option<Q> {
        c.state.lock().map.get(&b).map(|e| e.q)
    }

    #[test]
    fn a_hot_set_on_lru_survives_a_cold_scan_twice_the_cache() {
        let dev = ram_dev(128);
        let (c, m) = metered(&dev, 16);
        let hot = 0..4;
        // First references, then 16 cold blocks age the hot set out of
        // AGE onto the ghost list; the second references put it on LRU.
        for blk in hot.clone().chain(100..116).chain(hot.clone()) {
            let _ = c.bread(blk).unwrap();
        }
        assert!(hot.clone().all(|b| queue_of(&c, b) == Some(Q::Lru)));
        for blk in 32..64 {
            let _ = c.bread(blk).unwrap();
        }
        let misses = counts(&m).1;
        for blk in hot {
            let _ = c.bread(blk).unwrap();
        }
        assert_eq!(counts(&m).1, misses, "the cold scan evicted the hot set");
    }

    #[test]
    fn a_ghost_hit_installs_on_lru_and_an_age_hit_does_not_move() {
        let dev = ram_dev(64);
        let c = BufCache::new(&dev, BS, 8, None);
        for blk in 0..8 {
            let _ = c.bread(blk).unwrap();
        }
        // A hit on AGE leaves block 0 at the head: block 8 evicts it
        // although block 1 was used less recently.
        let _ = c.bread(0).unwrap();
        let _ = c.bread(8).unwrap();
        assert!(!c.cached(0) && c.cached(1));
        assert!(c.state.lock().ghosts.contains_key(&0));
        // The miss on the ghost installs block 0 on LRU, off the list.
        let _ = c.bread(0).unwrap();
        assert_eq!(queue_of(&c, 0), Some(Q::Lru));
        assert_eq!(queue_of(&c, 8), Some(Q::Age));
        assert!(!c.state.lock().ghosts.contains_key(&0));
        // Block 0's install aged block 1 out; its miss puts it on LRU
        // behind block 0, and a hit on block 0 moves 0 to the MRU end.
        let _ = c.bread(1).unwrap();
        let _ = c.bread(0).unwrap();
        let st = c.state.lock();
        assert_eq!(st.queues[Q::Lru as usize].head(), Some(1));
        assert_eq!(st.map[&1].link.next(), Some(0));
    }

    #[test]
    fn victim_choice_walks_only_the_pinned_blocks_at_a_queue_head() {
        for size in [8, 64] {
            let dev = ram_dev(size + 64);
            let c = BufCache::new(&dev, BS, size, None);
            let pins = [c.bread(0).unwrap(), c.bread(1).unwrap()];
            for blk in 2..size as u32 {
                let _ = c.bread(blk).unwrap();
            }
            assert_eq!(c.state.lock().walked, 0, "a cache under budget walks");
            for blk in size as u32..size as u32 + 32 {
                let _ = c.bread(blk).unwrap();
            }
            // Each of the 32 victims costs the two pinned blocks at the
            // AGE head plus itself, whatever the cache size.
            assert_eq!(c.state.lock().walked, 32 * (pins.len() + 1), "size {size}");
        }
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
    /// resident set, for cross-run determinism checks.
    fn drive(c: &BufCache, ops: &[Op]) -> Vec<u32> {
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
        resident
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Never evict a pinned (held or wired) block, under arbitrary
        /// operation interleavings on a tiny cache.
        #[test]
        fn pinned_blocks_survive(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let dev = ram_dev(24);
            let c = BufCache::new(&dev, BS, 4, None);
            drive(&c, &ops);
        }

        /// Eviction is deterministic: the same op sequence on two caches
        /// leaves the same resident set and the same `bufcache::getblk`
        /// ledger row.
        #[test]
        fn eviction_is_deterministic(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let dev_a = ram_dev(24);
            let dev_b = ram_dev(24);
            let (a, ma) = metered(&dev_a, 4);
            let (b, mb) = metered(&dev_b, 4);
            prop_assert_eq!(drive(&a, &ops), drive(&b, &ops));
            let row = |m: &Machine| m.tracer().metrics().get("bufcache", "getblk").cloned();
            prop_assert_eq!(row(&ma), row(&mb));
        }

        /// Read-after-evict refills from the device byte-exact, including
        /// through dirty write-backs.
        #[test]
        fn read_after_evict_is_byte_exact(
            blks in proptest::collection::vec(0u32..16, 1..40),
            stamp in 0u8..255,
        ) {
            let dev = ram_dev(16);
            let c = BufCache::new(&dev, BS, 4, None);
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

    // --- Property test: clustered I/O against a shadow device image ---

    const SHADOW_BLOCKS: u32 = 32;

    /// One scripted clustered-I/O operation.
    #[derive(Clone, Debug)]
    enum IoOp {
        Read(u32),
        Cluster(u32, usize),
        Modify(u32, u8),
        Full(u32, u8),
        Sync,
        /// Reads a sweep of blocks through a 6-block cache, evicting
        /// (and writing back) everything unpinned.
        Evict(u32),
    }

    fn io_op_strategy() -> impl Strategy<Value = IoOp> {
        prop_oneof![
            (0..SHADOW_BLOCKS).prop_map(IoOp::Read),
            (0..SHADOW_BLOCKS, 1usize..24).prop_map(|(b, r)| IoOp::Cluster(b, r)),
            (0..SHADOW_BLOCKS, 0u8..255).prop_map(|(b, v)| IoOp::Modify(b, v)),
            (0..SHADOW_BLOCKS, 0u8..255).prop_map(|(b, v)| IoOp::Full(b, v)),
            (0u8..1).prop_map(|_| IoOp::Sync),
            (0..SHADOW_BLOCKS).prop_map(IoOp::Evict),
        ]
    }

    /// Every block reads back as the shadow says: from the cache if
    /// resident, else from the device.
    fn assert_matches_shadow(c: &BufCache, dev: &Arc<dyn BlkIo>, shadow: &[u8]) {
        let mut disk = vec![0u8; BS];
        for blk in 0..SHADOW_BLOCKS {
            let want = &shadow[blk as usize * BS..(blk as usize + 1) * BS];
            let resident = c.state.lock().map.get(&blk).map(|e| Arc::clone(&e.block));
            match resident {
                Some(b) => assert_eq!(&*b.data.lock(), want, "cached block {blk}"),
                None => {
                    dev.read(&mut disk, u64::from(blk) * BS as u64).unwrap();
                    assert_eq!(disk, want, "device block {blk}");
                }
            }
        }
    }

    /// Maximal runs of consecutive dirty resident blocks.
    fn dirty_runs(c: &BufCache) -> usize {
        let st = c.state.lock();
        let mut dirty: Vec<u32> = st
            .map
            .values()
            .filter(|e| e.block.is_dirty())
            .map(|e| e.block.blkno())
            .collect();
        dirty.sort_unstable();
        dirty.chunk_by(|a, b| a + 1 == *b).count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random bread/cluster/modify/sync/evict sequences keep every
        /// block equal to a plain shadow image, each fill is one device
        /// read, each sync writes one request per dirty run, and after a
        /// final sync the device image *is* the shadow.
        #[test]
        fn clustered_io_matches_a_shadow_image(
            ops in proptest::collection::vec(io_op_strategy(), 1..60),
        ) {
            let (log, dev) = counting(ram_dev(SHADOW_BLOCKS as usize), BS);
            let mut shadow = vec![0u8; SHADOW_BLOCKS as usize * BS];
            dev.read(&mut shadow, 0).unwrap();
            let c = BufCache::new(&dev, BS, 6, None);
            let block = |b: u32| b as usize * BS..(b as usize + 1) * BS;
            for op in &ops {
                let before = log.log.lock().len();
                let reads = |log: &Counting| {
                    log.log.lock()[before..].iter().filter(|r| !r.0).count()
                };
                match *op {
                    IoOp::Read(b) => {
                        let h = c.bread(b).unwrap();
                        prop_assert_eq!(&*h.data.lock(), &shadow[block(b)]);
                        prop_assert!(reads(&log) <= 1);
                    }
                    IoOp::Cluster(b, run) => {
                        let h = c.cluster_read(b, run).unwrap();
                        prop_assert_eq!(&*h.data.lock(), &shadow[block(b)]);
                        prop_assert!(reads(&log) <= 1);
                    }
                    IoOp::Modify(b, v) => {
                        c.bmodify(b, |d| d[(v as usize) % BS] = v).unwrap();
                        shadow[block(b)][(v as usize) % BS] = v;
                    }
                    IoOp::Full(b, v) => {
                        c.bwrite_full(b, &vec![v; BS]).unwrap();
                        shadow[block(b)].fill(v);
                    }
                    IoOp::Sync => {
                        let runs = dirty_runs(&c);
                        c.sync().unwrap();
                        prop_assert_eq!(log.log.lock().len() - before, runs);
                    }
                    IoOp::Evict(from) => {
                        for b in from..from + 6 {
                            let _ = c.bread(b % SHADOW_BLOCKS).unwrap();
                        }
                    }
                }
                assert_matches_shadow(&c, &dev, &shadow);
                prop_assert!(c.pinned().is_empty());
            }
            c.sync().unwrap();
            let mut image = vec![0u8; shadow.len()];
            dev.read(&mut image, 0).unwrap();
            prop_assert!(image == shadow, "device image diverged from the shadow");
        }
    }
}
