//! The MultiBoot standard's binary structures (paper §3.1).
//!
//! "The OSKit directly supports the MultiBoot standard which was
//! cooperatively designed by members of several OS projects to provide a
//! simple but general interface between boot loaders and OS kernels,
//! allowing any compliant boot loader to load any compliant OS."
//!
//! Layouts follow the MultiBoot 0.6 specification: the OS image embeds a
//! [`MultibootHeader`] in its first 8192 bytes; the boot loader hands the
//! kernel a [`MultibootInfo`] structure in physical memory describing
//! memory, the command line, boot modules and the memory map.

use oskit_machine::{PhysAddr, PhysMem};

/// Magic value identifying a MultiBoot header in an OS image.
pub const HEADER_MAGIC: u32 = 0x1BAD_B002;

/// Magic value in `%eax` when a MultiBoot loader enters the OS.
pub const BOOT_MAGIC: u32 = 0x2BAD_B002;

/// The header must appear within this many bytes of the image start.
pub const HEADER_SEARCH: usize = 8192;

/// Header flag: align modules on page boundaries.
pub const HF_PAGE_ALIGN: u32 = 1 << 0;
/// Header flag: the kernel wants memory information.
pub const HF_MEMORY_INFO: u32 = 1 << 1;
/// Header flag: the address fields (a.out kludge) are valid.
pub const HF_ADDRS_VALID: u32 = 1 << 16;

/// Info flag: `mem_lower`/`mem_upper` are valid.
pub const IF_MEMORY: u32 = 1 << 0;
/// Info flag: `boot_device` is valid.
pub const IF_BOOTDEV: u32 = 1 << 1;
/// Info flag: `cmdline` is valid.
pub const IF_CMDLINE: u32 = 1 << 2;
/// Info flag: the module list is valid.
pub const IF_MODS: u32 = 1 << 3;
/// Info flag: the memory map is valid.
pub const IF_MMAP: u32 = 1 << 6;

/// The MultiBoot OS image header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultibootHeader {
    /// Feature request flags (`HF_*`).
    pub flags: u32,
    /// Physical address the header itself is loaded at.
    pub header_addr: u32,
    /// Physical address to load the image's text+data at.
    pub load_addr: u32,
    /// End of the loadable portion (0 = whole file).
    pub load_end_addr: u32,
    /// End of BSS to zero (0 = none).
    pub bss_end_addr: u32,
    /// Physical entry point.
    pub entry_addr: u32,
}

impl MultibootHeader {
    /// Size of the encoded header in bytes.
    pub const SIZE: usize = 32;

    /// Encodes the header, computing the checksum field so that
    /// `magic + flags + checksum == 0 (mod 2^32)`.
    pub fn encode(&self) -> [u8; Self::SIZE] {
        let checksum = 0u32.wrapping_sub(HEADER_MAGIC).wrapping_sub(self.flags);
        let mut out = [0u8; Self::SIZE];
        let words = [
            HEADER_MAGIC,
            self.flags,
            checksum,
            self.header_addr,
            self.load_addr,
            self.load_end_addr,
            self.bss_end_addr,
            self.entry_addr,
        ];
        for (i, w) in words.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Scans the first [`HEADER_SEARCH`] bytes of `image` for a valid
    /// header (magic found at a 4-byte boundary with correct checksum).
    pub fn find(image: &[u8]) -> Option<(usize, MultibootHeader)> {
        let end = image.len().min(HEADER_SEARCH);
        let w = |off: usize| -> u32 {
            u32::from_le_bytes([image[off], image[off + 1], image[off + 2], image[off + 3]])
        };
        let mut off = 0;
        while off + Self::SIZE <= end {
            if w(off) == HEADER_MAGIC {
                let flags = w(off + 4);
                let checksum = w(off + 8);
                if HEADER_MAGIC.wrapping_add(flags).wrapping_add(checksum) == 0 {
                    return Some((
                        off,
                        MultibootHeader {
                            flags,
                            header_addr: w(off + 12),
                            load_addr: w(off + 16),
                            load_end_addr: w(off + 20),
                            bss_end_addr: w(off + 24),
                            entry_addr: w(off + 28),
                        },
                    ));
                }
            }
            off += 4;
        }
        None
    }
}

/// One boot module as seen by the kernel (paper §3.1: "a boot module is
/// simply an arbitrary 'flat' file ... along with an arbitrary
/// user-defined string associated with each boot module").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleInfo {
    /// Physical start of the module data.
    pub start: PhysAddr,
    /// Physical end (exclusive).
    pub end: PhysAddr,
    /// The user-defined string.
    pub string: String,
}

/// One memory-map entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmapEntry {
    /// Base physical address.
    pub base: u64,
    /// Length in bytes.
    pub length: u64,
    /// Region type: 1 = available RAM, other = reserved.
    pub kind: u32,
}

impl MmapEntry {
    /// Available RAM.
    pub const AVAILABLE: u32 = 1;
}

/// The decoded MultiBoot information structure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultibootInfo {
    /// Which fields are valid (`IF_*`).
    pub flags: u32,
    /// KB of conventional memory below 1 MB.
    pub mem_lower: u32,
    /// KB of memory above 1 MB.
    pub mem_upper: u32,
    /// BIOS boot device.
    pub boot_device: u32,
    /// Kernel command line.
    pub cmdline: String,
    /// Loaded boot modules.
    pub modules: Vec<ModuleInfo>,
    /// BIOS memory map.
    pub mmap: Vec<MmapEntry>,
}

impl MultibootInfo {
    /// Serializes the structure (plus its strings, module list and memory
    /// map) into physical memory starting at `addr`, using the exact
    /// MultiBoot binary layout.  Returns the first free byte after all of
    /// it.
    pub fn write_to(&self, phys: &PhysMem, addr: PhysAddr) -> PhysAddr {
        // Fixed part is 52 bytes (through mmap_addr); allocate trailing
        // variable parts after it.
        let mut cursor = addr + 52;
        let put_str = |phys: &PhysMem, s: &str, cursor: &mut PhysAddr| -> PhysAddr {
            let at = *cursor;
            phys.write(at, s.as_bytes());
            phys.write_u8(at + s.len() as u32, 0);
            *cursor += s.len() as u32 + 1;
            // Keep things word aligned for neatness.
            *cursor = (*cursor + 3) & !3;
            at
        };
        let cmdline_addr = if self.flags & IF_CMDLINE != 0 {
            put_str(phys, &self.cmdline, &mut cursor)
        } else {
            0
        };
        // Module descriptors: 16 bytes each.
        let mods_addr = cursor;
        cursor += self.modules.len() as u32 * 16;
        for (i, m) in self.modules.iter().enumerate() {
            let at = mods_addr + i as u32 * 16;
            let s = put_str(phys, &m.string, &mut cursor);
            phys.write_u32(at, m.start);
            phys.write_u32(at + 4, m.end);
            phys.write_u32(at + 8, s);
            phys.write_u32(at + 12, 0);
        }
        // Memory map: each entry is a 4-byte size (of the rest) + 20 bytes.
        let mmap_addr = cursor;
        for e in &self.mmap {
            phys.write_u32(cursor, 20);
            phys.write(cursor + 4, &e.base.to_le_bytes());
            phys.write(cursor + 12, &e.length.to_le_bytes());
            phys.write_u32(cursor + 20, e.kind);
            cursor += 24;
        }
        let mmap_length = cursor - mmap_addr;
        // Now the fixed part.
        phys.write_u32(addr, self.flags);
        phys.write_u32(addr + 4, self.mem_lower);
        phys.write_u32(addr + 8, self.mem_upper);
        phys.write_u32(addr + 12, self.boot_device);
        phys.write_u32(addr + 16, cmdline_addr);
        phys.write_u32(addr + 20, self.modules.len() as u32);
        phys.write_u32(addr + 24, mods_addr);
        // +28..+44: syms (unused).
        phys.write_u32(addr + 44, mmap_length);
        phys.write_u32(addr + 48, mmap_addr);
        cursor
    }

    /// Decodes a structure previously written with
    /// [`MultibootInfo::write_to`] (or by any compliant loader).
    pub fn read_from(phys: &PhysMem, addr: PhysAddr) -> MultibootInfo {
        let flags = phys.read_u32(addr);
        let read_str = |at: PhysAddr| -> String {
            let mut s = Vec::new();
            let mut p = at;
            loop {
                let b = phys.read_u8(p);
                if b == 0 {
                    break;
                }
                s.push(b);
                p += 1;
            }
            String::from_utf8_lossy(&s).into_owned()
        };
        let mut info = MultibootInfo {
            flags,
            ..MultibootInfo::default()
        };
        if flags & IF_MEMORY != 0 {
            info.mem_lower = phys.read_u32(addr + 4);
            info.mem_upper = phys.read_u32(addr + 8);
        }
        if flags & IF_BOOTDEV != 0 {
            info.boot_device = phys.read_u32(addr + 12);
        }
        if flags & IF_CMDLINE != 0 {
            info.cmdline = read_str(phys.read_u32(addr + 16));
        }
        if flags & IF_MODS != 0 {
            let count = phys.read_u32(addr + 20);
            let mods_addr = phys.read_u32(addr + 24);
            for i in 0..count {
                let at = mods_addr + i * 16;
                info.modules.push(ModuleInfo {
                    start: phys.read_u32(at),
                    end: phys.read_u32(at + 4),
                    string: read_str(phys.read_u32(at + 8)),
                });
            }
        }
        if flags & IF_MMAP != 0 {
            let len = phys.read_u32(addr + 44);
            let base = phys.read_u32(addr + 48);
            let mut at = base;
            while at < base + len {
                let size = phys.read_u32(at);
                let mut b = [0u8; 8];
                phys.read(at + 4, &mut b);
                let e_base = u64::from_le_bytes(b);
                phys.read(at + 12, &mut b);
                let e_len = u64::from_le_bytes(b);
                let kind = phys.read_u32(at + 20);
                info.mmap.push(MmapEntry {
                    base: e_base,
                    length: e_len,
                    kind,
                });
                at += size + 4;
            }
        }
        info
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_checksum_is_self_cancelling() {
        let h = MultibootHeader {
            flags: HF_MEMORY_INFO | HF_ADDRS_VALID,
            header_addr: 0x100000,
            load_addr: 0x100000,
            load_end_addr: 0,
            bss_end_addr: 0,
            entry_addr: 0x100020,
        };
        let bytes = h.encode();
        let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let flags = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let chk = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        assert_eq!(magic.wrapping_add(flags).wrapping_add(chk), 0);
    }

    #[test]
    fn find_locates_header_at_offset() {
        let h = MultibootHeader {
            flags: HF_ADDRS_VALID,
            header_addr: 0x200000,
            load_addr: 0x200000,
            load_end_addr: 0,
            bss_end_addr: 0,
            entry_addr: 0x200040,
        };
        let mut image = vec![0u8; 4096];
        image[128..128 + MultibootHeader::SIZE].copy_from_slice(&h.encode());
        let (off, found) = MultibootHeader::find(&image).unwrap();
        assert_eq!(off, 128);
        assert_eq!(found, h);
    }

    #[test]
    fn find_rejects_bad_checksum_and_unaligned() {
        let h = MultibootHeader {
            flags: 0,
            header_addr: 0,
            load_addr: 0,
            load_end_addr: 0,
            bss_end_addr: 0,
            entry_addr: 0,
        };
        let mut image = vec![0u8; 4096];
        let mut enc = h.encode();
        enc[8] ^= 1; // Corrupt checksum.
        image[0..MultibootHeader::SIZE].copy_from_slice(&enc);
        assert!(MultibootHeader::find(&image).is_none());
        // Valid header but at an unaligned offset is not found.
        let mut image2 = vec![0u8; 4096];
        image2[130..130 + MultibootHeader::SIZE].copy_from_slice(&h.encode());
        assert!(MultibootHeader::find(&image2).is_none());
    }

    #[test]
    fn find_ignores_header_beyond_8k() {
        let h = MultibootHeader {
            flags: 0,
            header_addr: 0,
            load_addr: 0,
            load_end_addr: 0,
            bss_end_addr: 0,
            entry_addr: 0,
        };
        let mut image = vec![0u8; 16384];
        image[9000..9000 + MultibootHeader::SIZE].copy_from_slice(&h.encode());
        assert!(MultibootHeader::find(&image).is_none());
    }

    #[test]
    fn info_round_trips_through_physical_memory() {
        let phys = PhysMem::new(1 << 20);
        let info = MultibootInfo {
            flags: IF_MEMORY | IF_CMDLINE | IF_MODS | IF_MMAP,
            mem_lower: 640,
            mem_upper: 31744,
            boot_device: 0,
            cmdline: "kernel --test".to_string(),
            modules: vec![
                ModuleInfo {
                    start: 0x40000,
                    end: 0x42000,
                    string: "initrd".to_string(),
                },
                ModuleInfo {
                    start: 0x42000,
                    end: 0x50000,
                    string: "heap.img arg=1".to_string(),
                },
            ],
            mmap: vec![
                MmapEntry {
                    base: 0,
                    length: 640 * 1024,
                    kind: MmapEntry::AVAILABLE,
                },
                MmapEntry {
                    base: 0x100000,
                    length: 31 * 1024 * 1024,
                    kind: MmapEntry::AVAILABLE,
                },
            ],
        };
        let end = info.write_to(&phys, 0x9000);
        assert!(end > 0x9000);
        let back = MultibootInfo::read_from(&phys, 0x9000);
        assert_eq!(back, info);
    }

    #[test]
    fn info_without_optional_parts() {
        let phys = PhysMem::new(1 << 16);
        let info = MultibootInfo {
            flags: IF_MEMORY,
            mem_lower: 640,
            mem_upper: 1024,
            ..MultibootInfo::default()
        };
        info.write_to(&phys, 0x100);
        let back = MultibootInfo::read_from(&phys, 0x100);
        assert_eq!(back.mem_lower, 640);
        assert!(back.modules.is_empty());
        assert!(back.cmdline.is_empty());
    }
}
