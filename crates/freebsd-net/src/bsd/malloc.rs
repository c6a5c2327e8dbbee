//! The BSD kernel `malloc` and its emulation-table glue (paper §4.7.7).
//!
//! "BSD's in-kernel malloc package tries to be particularly clever in a
//! number of respects: (1) all allocated blocks are naturally aligned
//! according to their size ...; (2) blocks with a size of exactly a power
//! of two can be allocated efficiently without wasting space; and (3) the
//! allocator automatically keeps track of the sizes of allocated blocks.
//! Any two of these properties can be implemented easily, but it takes
//! special tricks to provide all three at once."
//!
//! The trick (as in BSD): dedicate whole pages to one bucket size and
//! record the bucket in a *side table* indexed by page number
//! (`kmemusage`), so no per-block header is needed.  The OSKit twist —
//! reproduced here — is that the component has no control over where the
//! client's memory lives, so the glue "watches the memory blocks returned
//! by the client OS and dynamically re-allocates and grows the allocation
//! table as necessary to ensure that it always covers all of the addresses
//! that the allocator has ever 'seen'."

use parking_lot::Mutex;

/// Page size used by the bucket allocator.
pub const PAGE: u64 = 4096;

/// Smallest bucket (2^4).
const MIN_SHIFT: u32 = 4;
/// Largest page-subdividing bucket (2^12 = one page).
const MAX_SHIFT: u32 = 12;

/// The client-memory hook: hands out page-aligned page runs (the OSKit
/// client OS's memory allocation facility).
pub trait PageSource: Send {
    /// Allocates `pages` contiguous pages; returns a page-aligned address.
    fn alloc_pages(&mut self, pages: usize) -> Option<u64>;

    /// Returns pages to the client.
    fn free_pages(&mut self, addr: u64, pages: usize);
}

struct Inner {
    /// Free chunks per bucket (index = shift - MIN_SHIFT).
    free: Vec<Vec<u64>>,
    /// The kmemusage table: bucket shift per covered page (0 = unknown,
    /// 0xFF = multi-page run head marker + following count).
    table: Vec<u8>,
    /// First page covered by the table.
    table_base: u64,
    /// Times the table had to be re-allocated and grown (the §4.7.7
    /// mechanism; observable for tests).
    pub table_growths: u64,
    /// Sizes of multi-page allocations (pages), by address.
    big: std::collections::HashMap<u64, usize>,
}

/// The allocator.
pub struct BsdMalloc {
    source: Mutex<Box<dyn PageSource>>,
    inner: Mutex<Inner>,
}

impl BsdMalloc {
    /// Creates an allocator drawing pages from `source`.
    pub fn new(source: Box<dyn PageSource>) -> BsdMalloc {
        BsdMalloc {
            source: Mutex::new(source),
            inner: Mutex::new(Inner {
                free: vec![Vec::new(); (MAX_SHIFT - MIN_SHIFT + 1) as usize],
                table: Vec::new(),
                table_base: 0,
                table_growths: 0,
                big: std::collections::HashMap::new(),
            }),
        }
    }

    fn bucket_shift(size: usize) -> u32 {
        let size = size.max(1);
        let shift = usize::BITS - (size - 1).leading_zeros();
        shift.clamp(MIN_SHIFT, MAX_SHIFT)
    }

    /// Ensures the kmemusage table covers `page` (growing per §4.7.7).
    fn cover(inner: &mut Inner, page: u64) {
        if inner.table.is_empty() {
            inner.table = vec![0];
            inner.table_base = page;
            inner.table_growths += 1;
            return;
        }
        let end = inner.table_base + inner.table.len() as u64;
        if page >= inner.table_base && page < end {
            return;
        }
        // Re-allocate covering the union; "most memory blocks returned by
        // the client OS will be fairly densely packed", so this stays
        // small in practice.
        let new_base = inner.table_base.min(page);
        let new_end = end.max(page + 1);
        let mut new_table = vec![0u8; (new_end - new_base) as usize];
        let off = (inner.table_base - new_base) as usize;
        new_table[off..off + inner.table.len()].copy_from_slice(&inner.table);
        inner.table = new_table;
        inner.table_base = new_base;
        inner.table_growths += 1;
    }

    fn table_set(inner: &mut Inner, addr: u64, pages: usize, shift: u8) {
        for i in 0..pages as u64 {
            let page = addr / PAGE + i;
            Self::cover(inner, page);
            let idx = (page - inner.table_base) as usize;
            inner.table[idx] = shift;
        }
    }

    fn table_get(inner: &Inner, addr: u64) -> u8 {
        let page = addr / PAGE;
        if inner.table.is_empty() || page < inner.table_base {
            return 0;
        }
        let idx = (page - inner.table_base) as usize;
        inner.table.get(idx).copied().unwrap_or(0)
    }

    /// `malloc(size)`.
    pub fn malloc(&self, size: usize) -> Option<u64> {
        if size == 0 {
            return None;
        }
        if size > 1 << MAX_SHIFT {
            // Multi-page allocation.
            let pages = size.div_ceil(PAGE as usize);
            let addr = self.source.lock().alloc_pages(pages)?;
            let mut inner = self.inner.lock();
            Self::table_set(&mut inner, addr, pages, 0xFE);
            inner.big.insert(addr, pages);
            return Some(addr);
        }
        let shift = Self::bucket_shift(size);
        let bi = (shift - MIN_SHIFT) as usize;
        {
            let mut inner = self.inner.lock();
            if let Some(a) = inner.free[bi].pop() {
                return Some(a);
            }
        }
        // Carve a fresh page into chunks of this bucket.
        let page_addr = self.source.lock().alloc_pages(1)?;
        debug_assert_eq!(page_addr % PAGE, 0);
        let mut inner = self.inner.lock();
        Self::table_set(&mut inner, page_addr, 1, shift as u8);
        let chunk = 1u64 << shift;
        // Hand back the first chunk; free-list the rest (reverse order so
        // allocation proceeds front to back).
        let mut a = page_addr + PAGE - chunk;
        while a > page_addr {
            inner.free[bi].push(a);
            a -= chunk;
        }
        Some(page_addr)
    }

    /// `free(addr)` — no size argument: property (3).
    ///
    /// # Panics
    ///
    /// Panics on addresses the allocator never issued pages for.
    pub fn free(&self, addr: u64) {
        let mut inner = self.inner.lock();
        let tag = Self::table_get(&inner, addr);
        match tag {
            0 => panic!("bsd_malloc: free of unknown address {addr:#x}"),
            0xFE => {
                let pages = inner
                    .big
                    .remove(&addr)
                    .expect("bsd_malloc: free of interior of multi-page block");
                Self::table_set(&mut inner, addr, pages, 0);
                drop(inner);
                self.source.lock().free_pages(addr, pages);
            }
            shift => {
                let bi = (u32::from(shift) - MIN_SHIFT) as usize;
                inner.free[bi].push(addr);
            }
        }
    }

    /// Property (3): the usable size of an allocated block, recovered from
    /// the side table alone.
    pub fn usable_size(&self, addr: u64) -> usize {
        let inner = self.inner.lock();
        match Self::table_get(&inner, addr) {
            0 => panic!("bsd_malloc: size of unknown address"),
            0xFE => inner.big[&addr] * PAGE as usize,
            shift => 1 << shift,
        }
    }

    /// Times the kmemusage table was re-allocated (§4.7.7 observability).
    pub fn table_growths(&self) -> u64 {
        self.inner.lock().table_growths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page source returning pages from disjoint, widely separated
    /// ranges — the hostile case §4.7.7 worries about.
    struct ScatteredSource {
        next: Vec<u64>,
    }

    impl PageSource for ScatteredSource {
        fn alloc_pages(&mut self, pages: usize) -> Option<u64> {
            let a = self.next.pop()?;
            let _ = pages;
            Some(a)
        }
        fn free_pages(&mut self, _addr: u64, _pages: usize) {}
    }

    struct BumpSource {
        next: u64,
    }

    impl PageSource for BumpSource {
        fn alloc_pages(&mut self, pages: usize) -> Option<u64> {
            let a = self.next;
            self.next += pages as u64 * PAGE;
            Some(a)
        }
        fn free_pages(&mut self, _addr: u64, _pages: usize) {}
    }

    fn dense() -> BsdMalloc {
        BsdMalloc::new(Box::new(BumpSource { next: 0x10_0000 }))
    }

    #[test]
    fn property_1_natural_alignment() {
        let m = dense();
        for size in [1usize, 16, 17, 100, 128, 500, 1024, 2048, 4096] {
            let a = m.malloc(size).unwrap();
            let rounded = size.next_power_of_two().max(16) as u64;
            assert_eq!(a % rounded, 0, "size {size} at {a:#x}");
        }
    }

    #[test]
    fn property_2_power_of_two_no_waste() {
        // A page yields exactly PAGE/size chunks for power-of-two sizes:
        // no header space is lost.
        let m = dense();
        let first = m.malloc(2048).unwrap();
        let second = m.malloc(2048).unwrap();
        // Both land in the same page: zero waste.
        assert_eq!(first / PAGE, second / PAGE);
        assert_eq!((first % PAGE).min(second % PAGE), 0);
        assert_eq!((first % PAGE).max(second % PAGE), 2048);
    }

    #[test]
    fn property_3_size_recovered_without_header() {
        let m = dense();
        let a = m.malloc(100).unwrap();
        assert_eq!(m.usable_size(a), 128);
        let b = m.malloc(3000).unwrap();
        assert_eq!(m.usable_size(b), 4096);
        m.free(a);
        m.free(b);
    }

    #[test]
    fn free_and_reuse() {
        let m = dense();
        let a = m.malloc(64).unwrap();
        m.free(a);
        let b = m.malloc(64).unwrap();
        assert_eq!(a, b, "freelist should hand the chunk back");
    }

    #[test]
    fn mclbytes_clusters_pack_perfectly() {
        // The property the mbuf cluster pool depends on.
        let m = dense();
        let a = m.malloc(MCL).unwrap();
        let b = m.malloc(MCL).unwrap();
        assert_eq!(a % MCL as u64, 0);
        assert_eq!(b % MCL as u64, 0);
        const MCL: usize = 2048;
    }

    #[test]
    fn multi_page_allocations() {
        let m = dense();
        let a = m.malloc(10_000).unwrap();
        assert_eq!(a % PAGE, 0);
        assert_eq!(m.usable_size(a), 12_288);
        m.free(a);
    }

    #[test]
    fn table_grows_to_cover_scattered_client_memory() {
        // §4.7.7: "our glue code watches the memory blocks returned by the
        // client OS and dynamically re-allocates and grows the allocation
        // table."
        let m = BsdMalloc::new(Box::new(ScatteredSource {
            next: vec![0x4000_0000, 0x1000, 0x100_0000],
        }));
        let a = m.malloc(64).unwrap(); // Page at 0x100_0000.
                                       // Exhaust the 64-byte chunks of that page to force a second page.
        for _ in 0..63 {
            m.malloc(64).unwrap();
        }
        let b = m.malloc(64).unwrap(); // Page at 0x1000.
        for _ in 0..63 {
            m.malloc(64).unwrap();
        }
        let c = m.malloc(64).unwrap(); // Page at 0x4000_0000.
        assert!(m.table_growths() >= 3);
        // Size recovery still works across the grown table.
        assert_eq!(m.usable_size(a), 64);
        assert_eq!(m.usable_size(b), 64);
        assert_eq!(m.usable_size(c), 64);
        m.free(a);
        m.free(b);
        m.free(c);
    }

    #[test]
    #[should_panic(expected = "free of unknown address")]
    fn wild_free_panics() {
        let m = dense();
        m.free(0xDEAD_0000);
    }

    #[test]
    fn exhaustion_is_clean() {
        struct Empty;
        impl PageSource for Empty {
            fn alloc_pages(&mut self, _: usize) -> Option<u64> {
                None
            }
            fn free_pages(&mut self, _: u64, _: usize) {}
        }
        let m = BsdMalloc::new(Box::new(Empty));
        assert!(m.malloc(64).is_none());
        assert!(m.malloc(100_000).is_none());
    }
}
