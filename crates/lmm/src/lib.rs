//! `oskit-lmm` — the List Memory Manager (paper §3.3).
//!
//! "The list-based memory manager, or LMM, provides powerful and efficient
//! primitives for managing allocation of either physical or virtual
//! memory, in kernel or user-level code, and includes support for managing
//! multiple 'types' of memory in a pool, and for allocations with various
//! type, size, and alignment constraints."
//!
//! The manager deals in abstract addresses (`u64`): it never touches the
//! memory it manages, so the same code manages physical RAM, virtual
//! ranges, or any other numbered resource.  A pool contains *regions*,
//! each with client-defined type `flags` (e.g. "DMA-reachable") and a
//! search `priority`; allocations specify required flags and constraints
//! and are satisfied from the highest-priority qualifying region.
//!
//! In the spirit of the paper's Open Implementation discussion (§4.6), the
//! free list itself is inspectable ([`Lmm::find_free`]) and particular
//! ranges can be reserved out of it ([`Lmm::remove_free`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The architectural page size used by [`Lmm::alloc_page`].
pub const PAGE_SIZE: u64 = 4096;

/// One region of the managed address space.
#[derive(Debug)]
struct Region {
    /// Inclusive lower bound.
    min: u64,
    /// Exclusive upper bound.
    max: u64,
    /// Client-defined memory-type flags.
    flags: u32,
    /// Search priority; higher is preferred.
    priority: i32,
    /// Free blocks: start → length, disjoint and coalesced.
    free: BTreeMap<u64, u64>,
    /// Total free bytes (cached).
    free_bytes: u64,
}

impl Region {
    /// Inserts `[addr, addr+size)` into the free list, coalescing.
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing free block (double free).
    fn insert_free(&mut self, addr: u64, size: u64) {
        debug_assert!(addr >= self.min && addr + size <= self.max);
        if let Some((&pstart, &plen)) = self.free.range(..=addr).next_back() {
            assert!(
                pstart + plen <= addr,
                "lmm: freeing {addr:#x}+{size:#x} overlaps free block {pstart:#x}+{plen:#x}"
            );
        }
        if let Some((&nstart, _)) = self.free.range(addr..).next() {
            assert!(
                addr + size <= nstart,
                "lmm: freeing {addr:#x}+{size:#x} overlaps free block at {nstart:#x}"
            );
        }
        let mut start = addr;
        let mut len = size;
        // Coalesce with the predecessor.
        if let Some((&pstart, &plen)) = self.free.range(..addr).next_back() {
            if pstart + plen == addr {
                self.free.remove(&pstart);
                start = pstart;
                len += plen;
            }
        }
        // Coalesce with the successor.
        if let Some(&nlen) = self.free.get(&(addr + size)) {
            self.free.remove(&(addr + size));
            len += nlen;
        }
        self.free.insert(start, len);
        self.free_bytes += size;
    }

    /// Removes `[addr, addr+size)`, which must be entirely free.
    fn take(&mut self, addr: u64, size: u64) {
        let (&bstart, &blen) = self
            .free
            .range(..=addr)
            .next_back()
            .expect("lmm: take from empty range");
        assert!(bstart + blen >= addr + size, "lmm: take beyond block");
        self.free.remove(&bstart);
        if bstart < addr {
            self.free.insert(bstart, addr - bstart);
        }
        if addr + size < bstart + blen {
            self.free.insert(addr + size, bstart + blen - (addr + size));
        }
        self.free_bytes -= size;
    }
}

/// A memory pool: the OSKit's `lmm_t`.
#[derive(Debug, Default)]
pub struct Lmm {
    /// Regions sorted by descending priority, then ascending address.
    regions: Vec<Region>,
}

impl Lmm {
    /// Creates an empty pool (`lmm_init`).
    pub fn new() -> Lmm {
        Lmm::default()
    }

    /// Registers the region `[min, min+size)` with the given type flags
    /// and priority (`lmm_add_region`).
    ///
    /// The region starts with no free memory; populate it with
    /// [`Lmm::add_free`].
    ///
    /// # Panics
    ///
    /// Panics on a zero-size region or one overlapping an existing region.
    pub fn add_region(&mut self, min: u64, size: u64, flags: u32, priority: i32) {
        let max = min.checked_add(size).expect("lmm: region wraps");
        assert!(size > 0, "lmm: empty region");
        for r in &self.regions {
            assert!(
                max <= r.min || min >= r.max,
                "lmm: region {min:#x}..{max:#x} overlaps {:#x}..{:#x}",
                r.min,
                r.max
            );
        }
        let region = Region {
            min,
            max,
            flags,
            priority,
            free: BTreeMap::new(),
            free_bytes: 0,
        };
        let pos = self.regions.partition_point(|r| {
            (r.priority, std::cmp::Reverse(r.min)) > (priority, std::cmp::Reverse(min))
        });
        self.regions.insert(pos, region);
    }

    /// Donates `[addr, addr+size)` to the pool (`lmm_add_free`): the range
    /// is split across whatever registered regions contain it; parts not
    /// covered by any region are ignored, exactly like the C original.
    pub fn add_free(&mut self, addr: u64, size: u64) {
        let end = addr.checked_add(size).expect("lmm: free range wraps");
        for r in &mut self.regions {
            let lo = addr.max(r.min);
            let hi = end.min(r.max);
            if lo < hi {
                r.insert_free(lo, hi - lo);
            }
        }
    }

    /// Allocates `size` bytes from any region whose flags contain all of
    /// `flags` (`lmm_alloc`).
    pub fn alloc(&mut self, size: u64, flags: u32) -> Option<u64> {
        self.alloc_gen(size, flags, 0, 0, 0, u64::MAX)
    }

    /// Allocates with alignment: the result satisfies
    /// `(addr + align_ofs) % (1 << align_bits) == 0` (`lmm_alloc_aligned`).
    ///
    /// The offset form allows allocating a block whose *interior* point
    /// must be aligned — used by the BSD malloc glue for size-headers.
    pub fn alloc_aligned(
        &mut self,
        size: u64,
        flags: u32,
        align_bits: u32,
        align_ofs: u64,
    ) -> Option<u64> {
        self.alloc_gen(size, flags, align_bits, align_ofs, 0, u64::MAX)
    }

    /// Allocates one page, page-aligned (`lmm_alloc_page`).
    pub fn alloc_page(&mut self, flags: u32) -> Option<u64> {
        self.alloc_gen(PAGE_SIZE, flags, 12, 0, 0, u64::MAX)
    }

    /// The fully general allocator (`lmm_alloc_gen`): size, type flags,
    /// alignment, and an address window `[in_min, in_max)` the block must
    /// fall within.
    pub fn alloc_gen(
        &mut self,
        size: u64,
        flags: u32,
        align_bits: u32,
        align_ofs: u64,
        in_min: u64,
        in_max: u64,
    ) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let align = 1u64.checked_shl(align_bits)?;
        for ri in 0..self.regions.len() {
            let r = &self.regions[ri];
            if r.flags & flags != flags {
                continue;
            }
            let mut found = None;
            for (&bstart, &blen) in &r.free {
                let lo = bstart.max(in_min);
                let hi = (bstart + blen).min(in_max);
                if lo >= hi {
                    continue;
                }
                // First address >= lo with (addr + align_ofs) ≡ 0 (mod align).
                let rem = (lo + align_ofs) % align;
                let candidate = if rem == 0 { lo } else { lo + (align - rem) };
                if candidate.checked_add(size).is_some_and(|cend| cend <= hi) {
                    found = Some(candidate);
                    break;
                }
            }
            if let Some(addr) = found {
                self.regions[ri].take(addr, size);
                return Some(addr);
            }
        }
        None
    }

    /// Returns `size` bytes at `addr` to the pool (`lmm_free`).
    ///
    /// # Panics
    ///
    /// Panics if the range is not inside a registered region or any part
    /// of it is already free (double free).
    pub fn free(&mut self, addr: u64, size: u64) {
        let end = addr.checked_add(size).expect("lmm: free wraps");
        let r = self
            .regions
            .iter_mut()
            .find(|r| addr >= r.min && end <= r.max)
            .unwrap_or_else(|| panic!("lmm: free {addr:#x}+{size:#x} outside any region"));
        r.insert_free(addr, size);
    }

    /// Total free bytes in regions matching all of `flags` (`lmm_avail`).
    pub fn avail(&self, flags: u32) -> u64 {
        self.regions
            .iter()
            .filter(|r| r.flags & flags == flags)
            .map(|r| r.free_bytes)
            .sum()
    }

    /// Finds the first free block at or after `addr` in *address* order,
    /// returning `(start, size, region_flags)` (`lmm_find_free`).
    ///
    /// Exposes the implementation per the Open Implementation philosophy:
    /// "the ability to ... walk through and examine the free list" (§4.6).
    pub fn find_free(&self, addr: u64) -> Option<(u64, u64, u32)> {
        let mut best: Option<(u64, u64, u32)> = None;
        for r in &self.regions {
            // A block containing `addr` counts from `addr` onward.
            if let Some((&bstart, &blen)) = r.free.range(..=addr).next_back() {
                if bstart + blen > addr {
                    let cand = (addr, bstart + blen - addr, r.flags);
                    if best.is_none_or(|b| cand.0 < b.0) {
                        best = Some(cand);
                    }
                }
            }
            if let Some((&bstart, &blen)) = r.free.range(addr.saturating_add(1)..).next() {
                let cand = (bstart, blen, r.flags);
                if best.is_none_or(|b| cand.0 < b.0) {
                    best = Some(cand);
                }
            }
        }
        best
    }

    /// Removes any free parts of `[addr, addr+size)` from the pool
    /// (`lmm_remove_free`) — used to reserve specific ranges such as boot
    /// modules or memory-mapped hardware.
    pub fn remove_free(&mut self, addr: u64, size: u64) {
        let end = addr.saturating_add(size);
        for r in &mut self.regions {
            loop {
                // Find a free block intersecting the range.
                let hit = r
                    .free
                    .range(..end)
                    .rev()
                    .map(|(&s, &l)| (s, l))
                    .find(|&(s, l)| s + l > addr && s < end);
                let Some((bstart, blen)) = hit else { break };
                let lo = bstart.max(addr);
                let hi = (bstart + blen).min(end);
                r.take(lo, hi - lo);
            }
        }
    }

    /// Renders the pool state for humans (`lmm_dump`).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in &self.regions {
            let _ = writeln!(
                out,
                "region {:#010x}-{:#010x} flags={:#x} pri={} free={:#x}",
                r.min, r.max, r.flags, r.priority, r.free_bytes
            );
            for (&s, &l) in &r.free {
                let _ = writeln!(out, "  free {:#010x}+{:#x}", s, l);
            }
        }
        out
    }

    /// Number of registered regions.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Example type flags, as a client OS would define them.
    const F_DMA: u32 = 1; // Below 16 MB.
    const F_LOW: u32 = 2; // Below 1 MB.

    /// A PC-like pool: scarce low memory at low priority, DMA-reachable
    /// memory in the middle, plentiful high memory preferred.
    fn pc_pool() -> Lmm {
        let mut lmm = Lmm::new();
        lmm.add_region(0x1000, 0x9F000 - 0x1000, F_DMA | F_LOW, -2);
        lmm.add_region(0x100000, 0xF00000, F_DMA, -1);
        lmm.add_region(0x1000000, 0x1000000, 0, 0);
        lmm.add_free(0x1000, 0x9F000 - 0x1000);
        lmm.add_free(0x100000, 0xF00000);
        lmm.add_free(0x1000000, 0x1000000);
        lmm
    }

    #[test]
    fn plain_alloc_prefers_high_priority_region() {
        let mut lmm = pc_pool();
        // Unconstrained allocations must come from high memory (priority
        // 0), preserving scarce DMA-capable memory.
        let a = lmm.alloc(4096, 0).unwrap();
        assert!(a >= 0x1000000);
    }

    #[test]
    fn dma_alloc_lands_below_16m() {
        let mut lmm = pc_pool();
        let a = lmm.alloc(4096, F_DMA).unwrap();
        assert!(a + 4096 <= 0x1000000);
    }

    #[test]
    fn low_alloc_lands_below_1m() {
        let mut lmm = pc_pool();
        let a = lmm.alloc(512, F_DMA | F_LOW).unwrap();
        assert!(a + 512 <= 0x9F000);
    }

    #[test]
    fn aligned_alloc_honors_bits_and_offset() {
        let mut lmm = pc_pool();
        // A block whose address+16 is 4K-aligned (the header trick).
        let a = lmm.alloc_aligned(100, 0, 12, 16).unwrap();
        assert_eq!((a + 16) % 4096, 0);
    }

    #[test]
    fn alloc_page_is_page_aligned() {
        let mut lmm = pc_pool();
        let a = lmm.alloc_page(0).unwrap();
        assert_eq!(a % PAGE_SIZE, 0);
    }

    #[test]
    fn alloc_gen_respects_address_window() {
        let mut lmm = pc_pool();
        let a = lmm.alloc_gen(4096, 0, 0, 0, 0x1400000, 0x1500000).unwrap();
        assert!(a >= 0x1400000 && a + 4096 <= 0x1500000);
        // An impossible window fails cleanly.
        assert_eq!(lmm.alloc_gen(4096, 0, 0, 0, 0x100, 0x200), None);
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut lmm = pc_pool();
        let a = lmm.alloc(4096, 0).unwrap();
        let b = lmm.alloc(4096, 0).unwrap();
        let c = lmm.alloc(4096, 0).unwrap();
        assert_eq!(b, a + 4096);
        assert_eq!(c, b + 4096);
        lmm.free(a, 4096);
        lmm.free(c, 4096);
        lmm.free(b, 4096); // Middle free must merge all three.
                           // The whole span is allocatable again as one block.
        let big = lmm.alloc_gen(3 * 4096, 0, 0, 0, a, a + 3 * 4096).unwrap();
        assert_eq!(big, a);
    }

    #[test]
    fn avail_tracks_allocations_by_flags() {
        let mut lmm = pc_pool();
        let total = lmm.avail(0);
        let dma = lmm.avail(F_DMA);
        assert!(dma < total);
        let a = lmm.alloc(8192, F_DMA).unwrap();
        assert_eq!(lmm.avail(F_DMA), dma - 8192);
        lmm.free(a, 8192);
        assert_eq!(lmm.avail(F_DMA), dma);
    }

    #[test]
    #[should_panic(expected = "overlaps free block")]
    fn double_free_panics() {
        let mut lmm = pc_pool();
        let a = lmm.alloc(4096, 0).unwrap();
        lmm.free(a, 4096);
        lmm.free(a, 4096);
    }

    #[test]
    #[should_panic(expected = "outside any region")]
    fn free_outside_regions_panics() {
        let mut lmm = pc_pool();
        lmm.free(0xdead_0000_0000, 64);
    }

    #[test]
    fn find_free_walks_in_address_order() {
        let lmm = pc_pool();
        let mut at = 0;
        let mut blocks = Vec::new();
        while let Some((s, l, _)) = lmm.find_free(at) {
            blocks.push((s, l));
            at = s + l;
        }
        assert_eq!(
            blocks,
            vec![
                (0x1000, 0x9F000 - 0x1000),
                (0x100000, 0xF00000),
                (0x1000000, 0x1000000)
            ]
        );
    }

    #[test]
    fn find_free_from_interior_point() {
        let lmm = pc_pool();
        let (s, l, _) = lmm.find_free(0x2000).unwrap();
        assert_eq!(s, 0x2000);
        assert_eq!(s + l, 0x9F000);
    }

    #[test]
    fn remove_free_reserves_exact_range() {
        let mut lmm = pc_pool();
        // Reserve a boot module's address range.
        lmm.remove_free(0x1100000, 0x2000);
        // Allocations never land inside it.
        for _ in 0..100 {
            let a = lmm
                .alloc_gen(0x1000, 0, 0, 0, 0x1000000, 0x1200000)
                .unwrap();
            assert!(
                a + 0x1000 <= 0x1100000 || a >= 0x1102000,
                "landed at {a:#x}"
            );
        }
    }

    #[test]
    fn remove_free_spanning_blocks_is_ok() {
        let mut lmm = Lmm::new();
        lmm.add_region(0, 0x10000, 0, 0);
        lmm.add_free(0, 0x4000);
        lmm.add_free(0x8000, 0x4000);
        // The range covers part of one block, a hole, and part of another.
        lmm.remove_free(0x2000, 0x8000);
        assert_eq!(lmm.avail(0), 0x2000 + 0x2000);
    }

    #[test]
    fn add_free_clips_to_regions() {
        let mut lmm = Lmm::new();
        lmm.add_region(0x1000, 0x1000, 0, 0);
        // Donated range extends beyond the region on both sides; the
        // uncovered parts are ignored.
        lmm.add_free(0, 0x10000);
        assert_eq!(lmm.avail(0), 0x1000);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut lmm = Lmm::new();
        lmm.add_region(0, 0x1000, 0, 0);
        lmm.add_free(0, 0x1000);
        assert!(lmm.alloc(0x1001, 0).is_none());
        assert_eq!(lmm.alloc(0x1000, 0), Some(0));
        assert!(lmm.alloc(1, 0).is_none());
    }

    #[test]
    fn zero_size_alloc_fails() {
        let mut lmm = pc_pool();
        assert_eq!(lmm.alloc(0, 0), None);
    }

    #[test]
    fn unknown_flags_cannot_be_satisfied() {
        let mut lmm = pc_pool();
        assert_eq!(lmm.alloc(64, 0x8000_0000), None);
    }

    #[test]
    fn dump_mentions_regions() {
        let lmm = pc_pool();
        let d = lmm.dump();
        assert!(d.contains("0x00001000"));
        assert!(d.contains("pri=0"));
        assert_eq!(lmm.num_regions(), 3);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            Alloc {
                size: u64,
                flags: u32,
                align_bits: u32,
            },
            FreeNth(usize),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (1u64..5000, 0u32..4, 0u32..13).prop_map(|(size, flags, align_bits)| {
                    Op::Alloc {
                        size,
                        flags,
                        align_bits,
                    }
                }),
                (0usize..64).prop_map(Op::FreeNth),
            ]
        }

        proptest! {
            /// Random alloc/free sequences preserve the core invariants:
            /// no overlap, correct alignment/flags, exact accounting.
            #[test]
            fn alloc_free_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
                let mut lmm = pc_pool();
                let initial = lmm.avail(0);
                let mut live: Vec<(u64, u64)> = Vec::new();
                for op in ops {
                    match op {
                        Op::Alloc { size, flags, align_bits } => {
                            if let Some(a) = lmm.alloc_aligned(size, flags, align_bits, 0) {
                                // Alignment honored.
                                prop_assert_eq!(a % (1 << align_bits), 0);
                                // No overlap with any live allocation.
                                for &(s, l) in &live {
                                    prop_assert!(a + size <= s || a >= s + l,
                                        "overlap: {:#x}+{:#x} vs {:#x}+{:#x}", a, size, s, l);
                                }
                                // Flag constraints honored (region typing).
                                if flags & F_LOW != 0 {
                                    prop_assert!(a + size <= 0x9F000);
                                }
                                if flags & F_DMA != 0 {
                                    prop_assert!(a + size <= 0x1000000);
                                }
                                live.push((a, size));
                            }
                        }
                        Op::FreeNth(n) => {
                            if !live.is_empty() {
                                let (a, s) = live.swap_remove(n % live.len());
                                lmm.free(a, s);
                            }
                        }
                    }
                    // Accounting: free + live == initial, always.
                    let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
                    prop_assert_eq!(lmm.avail(0) + live_bytes, initial);
                }
                // Free everything; the pool must return to its initial state.
                for (a, s) in live.drain(..) {
                    lmm.free(a, s);
                }
                prop_assert_eq!(lmm.avail(0), initial);
            }

            /// The free list is always coalesced: walking it never yields
            /// two adjacent blocks within one region.
            #[test]
            fn free_list_is_coalesced(ops in proptest::collection::vec(op_strategy(), 1..80)) {
                let mut lmm = pc_pool();
                let mut live: Vec<(u64, u64)> = Vec::new();
                for op in ops {
                    match op {
                        Op::Alloc { size, flags, align_bits } => {
                            if let Some(a) = lmm.alloc_aligned(size, flags, align_bits, 0) {
                                live.push((a, size));
                            }
                        }
                        Op::FreeNth(n) => {
                            if !live.is_empty() {
                                let (a, s) = live.swap_remove(n % live.len());
                                lmm.free(a, s);
                            }
                        }
                    }
                }
                let mut at = 0;
                let mut prev_end: Option<u64> = None;
                while let Some((s, l, _)) = lmm.find_free(at) {
                    if let Some(pe) = prev_end {
                        // Adjacent blocks within one region would mean a
                        // missed coalesce; region boundaries may touch.
                        let same_region_gap =
                            s == pe && ![0x9F000u64, 0x1000000].contains(&pe);
                        prop_assert!(!same_region_gap, "uncoalesced at {pe:#x}");
                    }
                    prev_end = Some(s + l);
                    at = s + l;
                }
            }
        }
    }
}
