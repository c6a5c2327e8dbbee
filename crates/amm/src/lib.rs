//! `oskit-amm` — the Address Map Manager (paper §3.3).
//!
//! "The address map manager, or AMM, is designed to manage address spaces
//! that don't necessarily map directly to physical or virtual memory; it
//! provides similar support for other aspects of OS implementation such as
//! the management of processes' address spaces, paging partitions, free
//! block maps, or IPC namespaces."
//!
//! An [`Amm`] tiles a numeric range `[base, limit)` with *entries*, each
//! carrying client-defined attribute flags.  Entries split and join
//! automatically as attributes change, so the map is always minimal: no
//! two adjacent entries have equal flags.

use std::collections::BTreeMap;

/// Conventional attribute flags (clients may define their own space;
/// these match the C AMM's predefined values in spirit).
pub mod flags {
    /// The range is unused and allocatable.
    pub const FREE: u32 = 0;
    /// The range is allocated.
    pub const ALLOCATED: u32 = 1;
    /// The range is reserved and must never be handed out.
    pub const RESERVED: u32 = 2;
}

/// One attribute range, as yielded by [`Amm::iter`] and lookups.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AmmEntry {
    /// Inclusive start.
    pub start: u64,
    /// Exclusive end.
    pub end: u64,
    /// Attribute flags.
    pub flags: u32,
}

/// An attribute map over `[base, limit)`: the OSKit's `amm_t`.
#[derive(Debug, Clone)]
pub struct Amm {
    base: u64,
    limit: u64,
    /// start → (end, flags); entries tile `[base, limit)` exactly and
    /// adjacent entries always have different flags.
    entries: BTreeMap<u64, (u64, u32)>,
}

impl Amm {
    /// Creates a map covering `[base, limit)` with every address holding
    /// `initial_flags` (`amm_init`).
    ///
    /// # Panics
    ///
    /// Panics if `base >= limit`.
    pub fn new(base: u64, limit: u64, initial_flags: u32) -> Amm {
        assert!(base < limit, "amm: empty range");
        let mut entries = BTreeMap::new();
        entries.insert(base, (limit, initial_flags));
        Amm {
            base,
            limit,
            entries,
        }
    }

    /// The covered range.
    pub fn range(&self) -> (u64, u64) {
        (self.base, self.limit)
    }

    /// Returns the entry containing `addr` (`amm_find_addr`).
    pub fn entry_at(&self, addr: u64) -> Option<AmmEntry> {
        if addr < self.base || addr >= self.limit {
            return None;
        }
        let (&start, &(end, flags)) = self.entries.range(..=addr).next_back()?;
        debug_assert!(addr < end);
        Some(AmmEntry { start, end, flags })
    }

    /// Sets the flags of `[addr, addr+size)` (`amm_modify`), splitting and
    /// joining entries as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the map.
    pub fn modify(&mut self, addr: u64, size: u64, flags: u32) {
        if size == 0 {
            return;
        }
        let end = addr.checked_add(size).expect("amm: range wraps");
        assert!(
            addr >= self.base && end <= self.limit,
            "amm: modify {addr:#x}+{size:#x} outside [{:#x},{:#x})",
            self.base,
            self.limit
        );
        // Split the entry containing `addr` at `addr`.
        self.split_at(addr);
        // Split the entry containing `end` at `end`.
        self.split_at(end);
        // Replace every entry inside [addr, end).
        let inside: Vec<u64> = self
            .entries
            .range(addr..end)
            .map(|(&s, _)| s)
            .collect();
        for s in inside {
            self.entries.remove(&s);
        }
        self.entries.insert(addr, (end, flags));
        // Re-join with neighbours of equal flags.
        self.join_around(addr);
        self.join_around(end);
    }

    /// Finds the lowest address `a >= lo` such that `[a, a+size)` fits in
    /// `[lo, hi)`, every byte has `flags_mask`-masked flags equal to
    /// `flags_value`, and `(a + align_ofs)` is `2^align_bits`-aligned
    /// (`amm_find_gen`).
    #[allow(clippy::too_many_arguments)]
    pub fn find_gen(
        &self,
        size: u64,
        flags_mask: u32,
        flags_value: u32,
        align_bits: u32,
        align_ofs: u64,
        lo: u64,
        hi: u64,
    ) -> Option<u64> {
        if size == 0 {
            return None;
        }
        let align = 1u64.checked_shl(align_bits)?;
        let lo = lo.max(self.base);
        let hi = hi.min(self.limit);
        let mut at = lo;
        while at < hi {
            let e = self.entry_at(at)?;
            if e.flags & flags_mask != flags_value {
                at = e.end;
                continue;
            }
            // Candidate inside this matching run; the run may span several
            // entries with different non-masked bits, so extend it.
            let run_start = at;
            let mut run_end = e.end;
            while run_end < hi {
                match self.entry_at(run_end) {
                    Some(n) if n.flags & flags_mask == flags_value => run_end = n.end,
                    _ => break,
                }
            }
            let run_end = run_end.min(hi);
            let rem = (run_start + align_ofs) % align;
            let cand = if rem == 0 {
                run_start
            } else {
                run_start + (align - rem)
            };
            if cand.checked_add(size).is_some_and(|ce| ce <= run_end) {
                return Some(cand);
            }
            at = run_end;
        }
        None
    }

    /// Convenience allocator: finds a `size`-byte run whose flags equal
    /// `from_flags` exactly and re-tags it `to_flags`
    /// (`amm_allocate`).
    pub fn allocate(&mut self, size: u64, from_flags: u32, to_flags: u32) -> Option<u64> {
        let a = self.find_gen(size, u32::MAX, from_flags, 0, 0, self.base, self.limit)?;
        self.modify(a, size, to_flags);
        Some(a)
    }

    /// Convenience deallocator: re-tags `[addr, addr+size)` as
    /// `free_flags` (`amm_deallocate`).
    pub fn deallocate(&mut self, addr: u64, size: u64, free_flags: u32) {
        self.modify(addr, size, free_flags);
    }

    /// Iterates the entries in address order (`amm_iterate`).
    pub fn iter(&self) -> impl Iterator<Item = AmmEntry> + '_ {
        self.entries.iter().map(|(&start, &(end, flags))| AmmEntry {
            start,
            end,
            flags,
        })
    }

    /// Total bytes whose `mask`-masked flags equal `value`.
    pub fn bytes_matching(&self, mask: u32, value: u32) -> u64 {
        self.iter()
            .filter(|e| e.flags & mask == value)
            .map(|e| e.end - e.start)
            .sum()
    }

    /// Splits the entry containing `at` so that an entry boundary falls at
    /// `at` (no-op at existing boundaries or the map edges).
    fn split_at(&mut self, at: u64) {
        if at <= self.base || at >= self.limit || self.entries.contains_key(&at) {
            return;
        }
        let (&start, &(end, flags)) = self
            .entries
            .range(..at)
            .next_back()
            .expect("amm: tiling hole");
        debug_assert!(at < end);
        self.entries.insert(start, (at, flags));
        self.entries.insert(at, (end, flags));
    }

    /// Joins the entries meeting at boundary `at` if their flags match.
    fn join_around(&mut self, at: u64) {
        if at <= self.base || at >= self.limit {
            return;
        }
        let Some(&(r_end, r_flags)) = self.entries.get(&at) else {
            return;
        };
        let (&l_start, &(l_end, l_flags)) =
            self.entries.range(..at).next_back().expect("amm: no left");
        if l_end == at && l_flags == r_flags {
            self.entries.remove(&at);
            self.entries.insert(l_start, (r_end, l_flags));
        }
    }

    /// Checks the structural invariants (used by tests): exact tiling and
    /// maximal joining.
    pub fn check_invariants(&self) {
        let mut expect = self.base;
        let mut prev_flags: Option<u32> = None;
        for e in self.iter() {
            assert_eq!(e.start, expect, "amm: tiling hole at {expect:#x}");
            assert!(e.end > e.start, "amm: empty entry at {:#x}", e.start);
            if let Some(pf) = prev_flags {
                assert_ne!(pf, e.flags, "amm: unjoined entries at {:#x}", e.start);
            }
            prev_flags = Some(e.flags);
            expect = e.end;
        }
        assert_eq!(expect, self.limit, "amm: map ends early at {expect:#x}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flags::{ALLOCATED, FREE, RESERVED};

    #[test]
    fn new_map_is_one_entry() {
        let amm = Amm::new(0, 0x1000, FREE);
        let all: Vec<_> = amm.iter().collect();
        assert_eq!(
            all,
            vec![AmmEntry {
                start: 0,
                end: 0x1000,
                flags: FREE
            }]
        );
        amm.check_invariants();
    }

    #[test]
    fn modify_splits_in_the_middle() {
        let mut amm = Amm::new(0, 0x1000, FREE);
        amm.modify(0x400, 0x200, ALLOCATED);
        let all: Vec<_> = amm.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all[1].start, 0x400);
        assert_eq!(all[1].end, 0x600);
        assert_eq!(all[1].flags, ALLOCATED);
        amm.check_invariants();
    }

    #[test]
    fn modify_back_rejoins() {
        let mut amm = Amm::new(0, 0x1000, FREE);
        amm.modify(0x400, 0x200, ALLOCATED);
        amm.modify(0x400, 0x200, FREE);
        assert_eq!(amm.iter().count(), 1);
        amm.check_invariants();
    }

    #[test]
    fn modify_spanning_entries_replaces_them() {
        let mut amm = Amm::new(0, 0x1000, FREE);
        amm.modify(0x100, 0x100, ALLOCATED);
        amm.modify(0x300, 0x100, RESERVED);
        // One modify spanning both earlier entries and their gaps.
        amm.modify(0x80, 0x400, ALLOCATED);
        let e = amm.entry_at(0x200).unwrap();
        assert_eq!((e.start, e.end, e.flags), (0x80, 0x480, ALLOCATED));
        amm.check_invariants();
    }

    #[test]
    fn allocate_and_deallocate() {
        let mut amm = Amm::new(0x1000, 0x10000, FREE);
        let a = amm.allocate(0x800, FREE, ALLOCATED).unwrap();
        assert_eq!(a, 0x1000);
        let b = amm.allocate(0x800, FREE, ALLOCATED).unwrap();
        assert_eq!(b, 0x1800);
        amm.deallocate(a, 0x800, FREE);
        // First-fit reuses the hole.
        let c = amm.allocate(0x400, FREE, ALLOCATED).unwrap();
        assert_eq!(c, 0x1000);
        amm.check_invariants();
    }

    #[test]
    fn find_gen_alignment_and_bounds() {
        let mut amm = Amm::new(0, 0x100000, FREE);
        amm.modify(0, 0x1234, RESERVED);
        let a = amm
            .find_gen(0x1000, u32::MAX, FREE, 12, 0, 0, u64::MAX)
            .unwrap();
        assert_eq!(a % 0x1000, 0);
        assert!(a >= 0x1234);
        // Bounded search that cannot fit fails.
        assert_eq!(
            amm.find_gen(0x1000, u32::MAX, FREE, 0, 0, 0x500, 0x1000),
            None
        );
    }

    #[test]
    fn find_gen_matches_masked_flags_across_entries() {
        // Two adjacent entries share a mask bit but differ elsewhere: a
        // masked search must treat them as one run.
        let mut amm = Amm::new(0, 0x1000, 0b01);
        amm.modify(0x800, 0x800, 0b11);
        let a = amm.find_gen(0xC00, 0b01, 0b01, 0, 0, 0, u64::MAX);
        assert_eq!(a, Some(0));
    }

    #[test]
    fn entry_at_boundaries() {
        let mut amm = Amm::new(0x100, 0x200, FREE);
        amm.modify(0x180, 0x40, ALLOCATED);
        assert_eq!(amm.entry_at(0xFF), None);
        assert_eq!(amm.entry_at(0x200), None);
        assert_eq!(amm.entry_at(0x100).unwrap().flags, FREE);
        assert_eq!(amm.entry_at(0x180).unwrap().flags, ALLOCATED);
        assert_eq!(amm.entry_at(0x1BF).unwrap().flags, ALLOCATED);
        assert_eq!(amm.entry_at(0x1C0).unwrap().flags, FREE);
    }

    #[test]
    fn bytes_matching_accounts() {
        let mut amm = Amm::new(0, 0x1000, FREE);
        amm.modify(0x100, 0x100, ALLOCATED);
        amm.modify(0x800, 0x200, ALLOCATED);
        assert_eq!(amm.bytes_matching(u32::MAX, ALLOCATED), 0x300);
        assert_eq!(amm.bytes_matching(u32::MAX, FREE), 0x1000 - 0x300);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn modify_outside_panics() {
        let mut amm = Amm::new(0x100, 0x200, FREE);
        amm.modify(0, 0x50, ALLOCATED);
    }

    #[test]
    fn process_address_space_scenario() {
        // The paper's motivating use: a process address space with text,
        // data, stack and a guard page.
        const PROT_R: u32 = 4;
        const PROT_W: u32 = 8;
        const PROT_X: u32 = 16;
        let mut asp = Amm::new(0x0000_1000, 0xC000_0000, flags::FREE);
        asp.modify(0x0804_8000, 0x10000, flags::ALLOCATED | PROT_R | PROT_X); // text
        asp.modify(0x0805_8000, 0x8000, flags::ALLOCATED | PROT_R | PROT_W); // data
        asp.modify(0xBFFF_0000, 0xF000, flags::ALLOCATED | PROT_R | PROT_W); // stack
        asp.modify(0xBFFE_F000, 0x1000, flags::RESERVED); // guard
        asp.check_invariants();
        // mmap-like: find a free region for a 64 KB mapping above the data
        // segment.
        let a = asp
            .find_gen(0x10000, u32::MAX, flags::FREE, 12, 0, 0x0806_0000, u64::MAX)
            .unwrap();
        assert_eq!(a, 0x0806_0000);
        // Fault check: is the guard page writable?
        let g = asp.entry_at(0xBFFE_F800).unwrap();
        assert_eq!(g.flags & PROT_W, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random modifies keep the map tiled and maximally joined,
            /// and flags always read back what was last written.
            #[test]
            fn random_modifies_keep_invariants(
                ops in proptest::collection::vec(
                    (0u64..0x10000, 1u64..0x4000, 0u32..4), 1..60)
            ) {
                let mut amm = Amm::new(0, 0x20000, 0);
                let mut shadow = vec![0u32; 0x20000 / 0x100];
                for (addr, size, f) in ops {
                    let addr = addr & !0xFF; // Work in 256-byte quanta so
                    let size = (size & !0xFF).max(0x100); // the shadow is small.
                    let size = size.min(0x20000 - addr);
                    if size == 0 { continue; }
                    amm.modify(addr, size, f);
                    for i in (addr / 0x100)..((addr + size) / 0x100) {
                        shadow[i as usize] = f;
                    }
                    amm.check_invariants();
                }
                for (i, &f) in shadow.iter().enumerate() {
                    let addr = i as u64 * 0x100;
                    prop_assert_eq!(amm.entry_at(addr).unwrap().flags, f);
                }
            }

            /// allocate never hands out overlapping or mis-tagged ranges.
            #[test]
            fn allocate_is_exclusive(sizes in proptest::collection::vec(1u64..0x1000, 1..40)) {
                let mut amm = Amm::new(0, 0x20000, flags::FREE);
                let mut got: Vec<(u64, u64)> = Vec::new();
                for size in sizes {
                    if let Some(a) = amm.allocate(size, flags::FREE, flags::ALLOCATED) {
                        for &(s, l) in &got {
                            prop_assert!(a + size <= s || a >= s + l);
                        }
                        got.push((a, size));
                    }
                }
                let allocated: u64 = got.iter().map(|&(_, l)| l).sum();
                prop_assert_eq!(amm.bytes_matching(u32::MAX, flags::ALLOCATED), allocated);
            }
        }
    }
}
