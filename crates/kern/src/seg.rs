//! x86 segment descriptors (paper §3.2).
//!
//! Encoding and decoding of the 8-byte GDT/LDT descriptor format, plus the
//! standard flat-model table the kernel support library installs: null,
//! kernel code, kernel data, user code, user data — the layout behind the
//! `cs=0x08`/`ds=0x10` selectors visible in trap frames.

/// Descriptor type/access flags (the architectural bit positions within
/// the access byte and granularity nibble).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegDesc {
    /// 32-bit linear base address.
    pub base: u32,
    /// 20-bit limit (interpreted in bytes or 4 KB pages per `granular`).
    pub limit: u32,
    /// Code segment (else data).
    pub code: bool,
    /// Writable (data) / readable (code).
    pub rw: bool,
    /// Descriptor privilege level (0..=3).
    pub dpl: u8,
    /// Present.
    pub present: bool,
    /// Limit counts 4 KB pages.
    pub granular: bool,
    /// 32-bit default operand size.
    pub is32: bool,
}

impl SegDesc {
    /// The flat 4 GB kernel code segment.
    pub fn kernel_code() -> SegDesc {
        SegDesc {
            base: 0,
            limit: 0xFFFFF,
            code: true,
            rw: true,
            dpl: 0,
            present: true,
            granular: true,
            is32: true,
        }
    }

    /// The flat 4 GB kernel data segment.
    pub fn kernel_data() -> SegDesc {
        SegDesc {
            code: false,
            ..SegDesc::kernel_code()
        }
    }

    /// The flat user code segment (DPL 3).
    pub fn user_code() -> SegDesc {
        SegDesc {
            dpl: 3,
            ..SegDesc::kernel_code()
        }
    }

    /// The flat user data segment (DPL 3).
    pub fn user_data() -> SegDesc {
        SegDesc {
            dpl: 3,
            ..SegDesc::kernel_data()
        }
    }

    /// Encodes to the architectural 8-byte descriptor.
    pub fn encode(&self) -> u64 {
        assert!(self.limit <= 0xFFFFF, "limit exceeds 20 bits");
        assert!(self.dpl <= 3);
        let base = u64::from(self.base);
        let limit = u64::from(self.limit);
        let mut d: u64 = 0;
        d |= limit & 0xFFFF; // Limit 15..0.
        d |= (base & 0xFFFFFF) << 16; // Base 23..0.
                                      // Access byte (bits 40..47).
        let mut access: u64 = 1 << 4; // S=1: code/data descriptor.
        if self.present {
            access |= 1 << 7;
        }
        access |= u64::from(self.dpl) << 5;
        if self.code {
            access |= 1 << 3;
        }
        if self.rw {
            access |= 1 << 1;
        }
        d |= access << 40;
        d |= ((limit >> 16) & 0xF) << 48; // Limit 19..16.
        let mut gran: u64 = 0;
        if self.is32 {
            gran |= 1 << 2; // D/B.
        }
        if self.granular {
            gran |= 1 << 3; // G.
        }
        d |= gran << 52;
        d |= ((base >> 24) & 0xFF) << 56; // Base 31..24.
        d
    }

    /// Decodes an 8-byte descriptor.  Returns `None` for non-code/data
    /// (system) descriptors.
    pub fn decode(d: u64) -> Option<SegDesc> {
        let access = (d >> 40) & 0xFF;
        if access & (1 << 4) == 0 {
            return None; // System descriptor (TSS, gate, ...).
        }
        let base = ((d >> 16) & 0xFFFFFF) as u32 | ((((d >> 56) & 0xFF) as u32) << 24);
        let limit = (d & 0xFFFF) as u32 | ((((d >> 48) & 0xF) as u32) << 16);
        let gran = (d >> 52) & 0xF;
        Some(SegDesc {
            base,
            limit,
            code: access & (1 << 3) != 0,
            rw: access & (1 << 1) != 0,
            dpl: ((access >> 5) & 3) as u8,
            present: access & (1 << 7) != 0,
            granular: gran & (1 << 3) != 0,
            is32: gran & (1 << 2) != 0,
        })
    }

    /// The highest address covered by this segment.
    pub fn max_offset(&self) -> u64 {
        if self.granular {
            (u64::from(self.limit) << 12) | 0xFFF
        } else {
            u64::from(self.limit)
        }
    }
}

/// The standard flat-model GDT the base environment installs: selectors
/// 0x08 (kernel code), 0x10 (kernel data), 0x1B (user code), 0x23 (user
/// data).
pub fn standard_gdt() -> Vec<u64> {
    vec![
        0, // Null descriptor.
        SegDesc::kernel_code().encode(),
        SegDesc::kernel_data().encode(),
        SegDesc::user_code().encode(),
        SegDesc::user_data().encode(),
    ]
}

/// Splits a selector into (index, table-indicator, RPL).
pub fn selector_parts(sel: u16) -> (usize, bool, u8) {
    ((sel >> 3) as usize, sel & 4 != 0, (sel & 3) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_kernel_code_matches_known_encoding() {
        // The canonical flat 32-bit code descriptor is 0x00CF9A000000FFFF.
        assert_eq!(SegDesc::kernel_code().encode(), 0x00CF_9A00_0000_FFFF);
    }

    #[test]
    fn flat_kernel_data_matches_known_encoding() {
        // And the data one is 0x00CF92000000FFFF.
        assert_eq!(SegDesc::kernel_data().encode(), 0x00CF_9200_0000_FFFF);
    }

    #[test]
    fn encode_decode_round_trip() {
        for d in [
            SegDesc::kernel_code(),
            SegDesc::kernel_data(),
            SegDesc::user_code(),
            SegDesc::user_data(),
            SegDesc {
                base: 0x1234_5678,
                limit: 0xABCDE,
                code: false,
                rw: true,
                dpl: 2,
                present: true,
                granular: false,
                is32: false,
            },
        ] {
            assert_eq!(SegDesc::decode(d.encode()), Some(d));
        }
    }

    #[test]
    fn decode_rejects_system_descriptors() {
        // A 386 TSS descriptor has S=0.
        let tss: u64 = 0x0000_8900_0000_0067;
        assert_eq!(SegDesc::decode(tss), None);
    }

    #[test]
    fn max_offset_granularity() {
        assert_eq!(SegDesc::kernel_code().max_offset(), 0xFFFF_FFFF);
        let byte_gran = SegDesc {
            granular: false,
            limit: 0xFFFF,
            ..SegDesc::kernel_data()
        };
        assert_eq!(byte_gran.max_offset(), 0xFFFF);
    }

    #[test]
    fn standard_gdt_selectors() {
        let gdt = standard_gdt();
        assert_eq!(gdt.len(), 5);
        assert_eq!(gdt[0], 0);
        // Selector 0x08 → index 1 (kernel code).
        let (idx, ldt, rpl) = selector_parts(0x08);
        assert_eq!((idx, ldt, rpl), (1, false, 0));
        assert!(SegDesc::decode(gdt[idx]).unwrap().code);
        // Selector 0x23 → index 4, RPL 3 (user data).
        let (idx, _, rpl) = selector_parts(0x23);
        assert_eq!((idx, rpl), (4, 3));
        let ud = SegDesc::decode(gdt[idx]).unwrap();
        assert!(!ud.code);
        assert_eq!(ud.dpl, 3);
    }
}
