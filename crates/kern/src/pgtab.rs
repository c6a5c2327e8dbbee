//! x86 32-bit two-level page tables (paper §3.2).
//!
//! "On the x86, the kernel support library includes functions to create
//! and manipulate x86 page tables and segment registers."  The layout here
//! is the real architectural one — 1024-entry page directory of 4-byte
//! PDEs, each pointing at a 1024-entry page table of PTEs, with the
//! standard bit assignments — operating on the simulated machine's
//! physical memory.  Nothing is hidden: clients get both the high-level
//! map/unmap/translate calls and the raw entry accessors (Open
//! Implementation, §4.6).

use oskit_machine::{PhysAddr, PhysMem};

/// Page size.
pub const PAGE_SIZE: u32 = 4096;

/// Architectural PDE/PTE bits.
pub mod bits {
    /// Present.
    pub const P: u32 = 1 << 0;
    /// Writable.
    pub const RW: u32 = 1 << 1;
    /// User-accessible.
    pub const US: u32 = 1 << 2;
    /// Write-through.
    pub const PWT: u32 = 1 << 3;
    /// Cache-disable.
    pub const PCD: u32 = 1 << 4;
    /// Accessed.
    pub const A: u32 = 1 << 5;
    /// Dirty (PTE only).
    pub const D: u32 = 1 << 6;
    /// 4 MB page (PDE only, requires PSE).
    pub const PS: u32 = 1 << 7;
    /// Global (requires PGE).
    pub const G: u32 = 1 << 8;
    /// Mask of the physical frame address.
    pub const ADDR_MASK: u32 = 0xFFFF_F000;
}

/// Mapping permissions, the subset of bits callers usually set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapFlags {
    /// Writable mapping.
    pub write: bool,
    /// User-mode accessible.
    pub user: bool,
}

impl MapFlags {
    /// Kernel read-only.
    pub const KERNEL_RO: MapFlags = MapFlags {
        write: false,
        user: false,
    };
    /// Kernel read-write.
    pub const KERNEL_RW: MapFlags = MapFlags {
        write: true,
        user: false,
    };
    /// User read-write.
    pub const USER_RW: MapFlags = MapFlags {
        write: true,
        user: true,
    };

    fn to_bits(self) -> u32 {
        let mut b = bits::P;
        if self.write {
            b |= bits::RW;
        }
        if self.user {
            b |= bits::US;
        }
        b
    }
}

/// Why a translation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XlateError {
    /// The page-directory entry is not present.
    PdeNotPresent,
    /// The page-table entry is not present.
    PteNotPresent,
}

/// A simple frame allocator the page-table code pulls page-table pages
/// from; typically backed by the LMM.
pub trait FrameAlloc {
    /// Returns a page-aligned physical frame, or `None` when exhausted.
    fn alloc_frame(&mut self) -> Option<PhysAddr>;

    /// Returns a frame to the pool.
    fn free_frame(&mut self, frame: PhysAddr);
}

/// A trivial bump frame allocator over a physical range (no free).
pub struct BumpFrames {
    next: PhysAddr,
    end: PhysAddr,
}

impl BumpFrames {
    /// Allocates frames from `[start, end)`, both page-aligned.
    pub fn new(start: PhysAddr, end: PhysAddr) -> BumpFrames {
        assert_eq!(start % PAGE_SIZE, 0);
        BumpFrames { next: start, end }
    }
}

impl FrameAlloc for BumpFrames {
    fn alloc_frame(&mut self) -> Option<PhysAddr> {
        if self.next + PAGE_SIZE > self.end {
            return None;
        }
        let f = self.next;
        self.next += PAGE_SIZE;
        Some(f)
    }

    fn free_frame(&mut self, _frame: PhysAddr) {}
}

/// A page directory rooted at a physical frame.
pub struct PageDir {
    /// Physical address of the 4 KB page-directory frame (what would be
    /// loaded into `%cr3`).
    pub pdir: PhysAddr,
}

impl PageDir {
    /// Creates an empty page directory, allocating its frame.
    pub fn new(phys: &PhysMem, frames: &mut dyn FrameAlloc) -> Option<PageDir> {
        let pdir = frames.alloc_frame()?;
        phys.fill(pdir, PAGE_SIZE as usize, 0);
        Some(PageDir { pdir })
    }

    /// Reads the raw PDE for virtual address `va`.
    pub fn pde(&self, phys: &PhysMem, va: u32) -> u32 {
        phys.read_u32(self.pdir + (va >> 22) * 4)
    }

    /// Writes the raw PDE for `va` (Open Implementation escape hatch).
    pub fn set_pde(&self, phys: &PhysMem, va: u32, pde: u32) {
        phys.write_u32(self.pdir + (va >> 22) * 4, pde);
    }

    /// Reads the raw PTE for `va`, if its page table is present.
    pub fn pte(&self, phys: &PhysMem, va: u32) -> Option<u32> {
        let pde = self.pde(phys, va);
        if pde & bits::P == 0 {
            return None;
        }
        let pt = pde & bits::ADDR_MASK;
        Some(phys.read_u32(pt + ((va >> 12) & 0x3FF) * 4))
    }

    /// Maps the page at virtual `va` to physical `pa` with `flags`,
    /// allocating a page table if needed.
    ///
    /// Returns `false` if a page-table frame could not be allocated.
    ///
    /// # Panics
    ///
    /// Panics if `va` or `pa` is not page-aligned, or the PDE holds a 4 MB
    /// page.
    pub fn map(
        &self,
        phys: &PhysMem,
        frames: &mut dyn FrameAlloc,
        va: u32,
        pa: u32,
        flags: MapFlags,
    ) -> bool {
        assert_eq!(va % PAGE_SIZE, 0, "unaligned va {va:#x}");
        assert_eq!(pa % PAGE_SIZE, 0, "unaligned pa {pa:#x}");
        let mut pde = self.pde(phys, va);
        if pde & bits::P == 0 {
            let Some(pt) = frames.alloc_frame() else {
                return false;
            };
            phys.fill(pt, PAGE_SIZE as usize, 0);
            // Page-table pages are mapped writable/user at the PDE level;
            // per-page protection comes from the PTE (the usual kernel
            // convention).
            pde = pt | bits::P | bits::RW | bits::US;
            self.set_pde(phys, va, pde);
        }
        assert_eq!(pde & bits::PS, 0, "PDE at {va:#x} is a 4MB page");
        let pt = pde & bits::ADDR_MASK;
        phys.write_u32(pt + ((va >> 12) & 0x3FF) * 4, pa | flags.to_bits());
        true
    }

    /// Unmaps the page at `va`.  Returns whether a mapping existed.
    pub fn unmap(&self, phys: &PhysMem, va: u32) -> bool {
        assert_eq!(va % PAGE_SIZE, 0);
        let pde = self.pde(phys, va);
        if pde & bits::P == 0 {
            return false;
        }
        let pt = pde & bits::ADDR_MASK;
        let pte_addr = pt + ((va >> 12) & 0x3FF) * 4;
        let pte = phys.read_u32(pte_addr);
        if pte & bits::P == 0 {
            return false;
        }
        phys.write_u32(pte_addr, 0);
        true
    }

    /// Translates virtual `va` to physical, honoring 4 KB and 4 MB pages.
    pub fn translate(&self, phys: &PhysMem, va: u32) -> Result<PhysAddr, XlateError> {
        let pde = self.pde(phys, va);
        if pde & bits::P == 0 {
            return Err(XlateError::PdeNotPresent);
        }
        if pde & bits::PS != 0 {
            // 4 MB page: bits 31..22 from the PDE, 21..0 from va.
            return Ok((pde & 0xFFC0_0000) | (va & 0x003F_FFFF));
        }
        let pt = pde & bits::ADDR_MASK;
        let pte = phys.read_u32(pt + ((va >> 12) & 0x3FF) * 4);
        if pte & bits::P == 0 {
            return Err(XlateError::PteNotPresent);
        }
        Ok((pte & bits::ADDR_MASK) | (va & 0xFFF))
    }

    /// Maps `[va, va+len)` to `[pa, pa+len)` page by page.
    pub fn map_range(
        &self,
        phys: &PhysMem,
        frames: &mut dyn FrameAlloc,
        va: u32,
        pa: u32,
        len: u32,
        flags: MapFlags,
    ) -> bool {
        let mut off = 0;
        while off < len {
            if !self.map(phys, frames, va + off, pa + off, flags) {
                return false;
            }
            off += PAGE_SIZE;
        }
        true
    }

    /// Installs a direct (identity) mapping of `[0, len)` using 4 MB
    /// superpages — the layout many Linux drivers assumed (paper §4.7.8).
    pub fn identity_map_4m(&self, phys: &PhysMem, len: u32, flags: MapFlags) {
        let mut va = 0u32;
        while va < len {
            self.set_pde(phys, va, va | flags.to_bits() | bits::PS);
            va = va.wrapping_add(1 << 22);
            if va == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMem, BumpFrames) {
        (
            PhysMem::new(8 * 1024 * 1024),
            BumpFrames::new(0x100000, 0x200000),
        )
    }

    #[test]
    fn map_then_translate() {
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        assert!(pd.map(
            &phys,
            &mut fr,
            0xC000_0000_u32 & 0xFFFFF000,
            0x0030_0000,
            MapFlags::KERNEL_RW
        ));
        assert_eq!(
            pd.translate(&phys, 0xC000_0ABC).unwrap() & !0xFFF,
            0x0030_0000
        );
        // Offset within page preserved.
        assert_eq!(pd.translate(&phys, 0xC000_0ABC).unwrap(), 0x0030_0ABC);
    }

    #[test]
    fn unmapped_addresses_fault() {
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        assert_eq!(
            pd.translate(&phys, 0x1234_5678),
            Err(XlateError::PdeNotPresent)
        );
        pd.map(
            &phys,
            &mut fr,
            0x1234_4000,
            0x0040_0000,
            MapFlags::KERNEL_RO,
        );
        // Same page table, different page: PTE not present.
        assert_eq!(
            pd.translate(&phys, 0x1234_9000),
            Err(XlateError::PteNotPresent)
        );
    }

    #[test]
    fn pte_bits_reflect_flags() {
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        pd.map(&phys, &mut fr, 0x4000_0000, 0x0050_0000, MapFlags::USER_RW);
        let pte = pd.pte(&phys, 0x4000_0000).unwrap();
        assert_ne!(pte & bits::P, 0);
        assert_ne!(pte & bits::RW, 0);
        assert_ne!(pte & bits::US, 0);
        pd.map(
            &phys,
            &mut fr,
            0x4000_1000,
            0x0050_1000,
            MapFlags::KERNEL_RO,
        );
        let pte = pd.pte(&phys, 0x4000_1000).unwrap();
        assert_eq!(pte & bits::RW, 0);
        assert_eq!(pte & bits::US, 0);
    }

    #[test]
    fn unmap_removes_mapping() {
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        pd.map(
            &phys,
            &mut fr,
            0x7000_0000,
            0x0060_0000,
            MapFlags::KERNEL_RW,
        );
        assert!(pd.unmap(&phys, 0x7000_0000));
        assert_eq!(
            pd.translate(&phys, 0x7000_0000),
            Err(XlateError::PteNotPresent)
        );
        assert!(!pd.unmap(&phys, 0x7000_0000));
    }

    #[test]
    fn map_range_covers_every_page() {
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        assert!(pd.map_range(
            &phys,
            &mut fr,
            0x0800_0000,
            0x0040_0000,
            0x10000,
            MapFlags::KERNEL_RW
        ));
        for off in (0..0x10000).step_by(PAGE_SIZE as usize) {
            assert_eq!(
                pd.translate(&phys, 0x0800_0000 + off).unwrap(),
                0x0040_0000 + off
            );
        }
    }

    #[test]
    fn identity_map_4m_translates_low_memory() {
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        pd.identity_map_4m(&phys, 16 * 1024 * 1024, MapFlags::KERNEL_RW);
        assert_eq!(pd.translate(&phys, 0x0012_3456).unwrap(), 0x0012_3456);
        assert_eq!(pd.translate(&phys, 0x00FF_FFFF).unwrap(), 0x00FF_FFFF);
        // Beyond the mapped window faults.
        assert_eq!(
            pd.translate(&phys, 0x0100_0000),
            Err(XlateError::PdeNotPresent)
        );
    }

    #[test]
    fn frame_exhaustion_is_reported() {
        let phys = PhysMem::new(8 * 1024 * 1024);
        // Room for the directory and exactly one page table.
        let mut fr = BumpFrames::new(0x100000, 0x100000 + 2 * PAGE_SIZE);
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        assert!(pd.map(&phys, &mut fr, 0, 0, MapFlags::KERNEL_RW));
        // A va in a different 4 MB region needs a new page table: fails.
        assert!(!pd.map(&phys, &mut fr, 0x0040_0000, 0, MapFlags::KERNEL_RW));
    }

    #[test]
    fn two_level_structure_is_real() {
        // White-box: the PDE for va 0 points at a frame whose PTE array
        // contains the mapping — i.e. the layout is genuinely two-level.
        let (phys, mut fr) = setup();
        let pd = PageDir::new(&phys, &mut fr).unwrap();
        pd.map(
            &phys,
            &mut fr,
            0x0000_3000,
            0x0070_0000,
            MapFlags::KERNEL_RW,
        );
        let pde = pd.pde(&phys, 0x0000_3000);
        let pt = pde & bits::ADDR_MASK;
        let raw_pte = phys.read_u32(pt + 3 * 4);
        assert_eq!(raw_pte & bits::ADDR_MASK, 0x0070_0000);
    }
}
