//! Trap frames and trap vectors of the simulated x86 CPU.
//!
//! The paper (§6.2.10) stresses that the *layout* of trap frames is part of
//! the OSKit's documented interface: "we modified the OSKit's hardware
//! interrupt handler to use the same well-documented stack frame used for
//! synchronous traps."  Both synchronous traps and hardware interrupts in
//! this reproduction therefore present the single [`TrapFrame`] layout.

/// x86 trap vector numbers (the architecturally defined ones the kit
/// cares about).
pub mod vectors {
    /// Divide error (`#DE`).
    pub const DIVIDE: u8 = 0;
    /// Debug exception (`#DB`), used for single-step.
    pub const DEBUG: u8 = 1;
    /// Breakpoint (`#BP`, the `int3` instruction).
    pub const BREAKPOINT: u8 = 3;
    /// Invalid opcode (`#UD`).
    pub const INVALID_OPCODE: u8 = 6;
    /// Double fault (`#DF`).
    pub const DOUBLE_FAULT: u8 = 8;
    /// General protection fault (`#GP`).
    pub const GP_FAULT: u8 = 13;
    /// Page fault (`#PF`).
    pub const PAGE_FAULT: u8 = 14;
    /// Base vector where hardware IRQs are mapped (IRQ0 = 32).
    pub const IRQ_BASE: u8 = 32;
}

/// The saved processor state pushed on a trap: the OSKit's
/// `trap_state`, with the familiar 32-bit x86 register file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrapFrame {
    /// General registers, in `pusha` order.
    pub eax: u32,
    /// See [`TrapFrame::eax`].
    pub ecx: u32,
    /// See [`TrapFrame::eax`].
    pub edx: u32,
    /// See [`TrapFrame::eax`].
    pub ebx: u32,
    /// Stack pointer at trap time.
    pub esp: u32,
    /// Frame pointer.
    pub ebp: u32,
    /// See [`TrapFrame::eax`].
    pub esi: u32,
    /// See [`TrapFrame::eax`].
    pub edi: u32,
    /// Instruction pointer at trap time.
    pub eip: u32,
    /// Flags register.
    pub eflags: u32,
    /// Trap vector number.
    pub trapno: u8,
    /// Hardware error code (page faults, GP faults).
    pub err: u32,
    /// Faulting linear address (`%cr2`, page faults only).
    pub cr2: u32,
}

impl TrapFrame {
    /// Builds a frame for trap `trapno` at instruction `eip`.
    pub fn at(trapno: u8, eip: u32) -> TrapFrame {
        TrapFrame {
            trapno,
            eip,
            eflags: 0x202, // IF set, reserved bit 1 always set.
            ..TrapFrame::default()
        }
    }

    /// Reads a register by its GDB protocol number (the i386 register
    /// order used by the remote protocol: eax, ecx, edx, ebx, esp, ebp,
    /// esi, edi, eip, eflags, cs, ss, ds, es, fs, gs).
    pub fn gdb_reg(&self, n: usize) -> u32 {
        match n {
            0 => self.eax,
            1 => self.ecx,
            2 => self.edx,
            3 => self.ebx,
            4 => self.esp,
            5 => self.ebp,
            6 => self.esi,
            7 => self.edi,
            8 => self.eip,
            9 => self.eflags,
            10 => 0x08,      // cs: the kit's flat kernel code segment.
            11..=15 => 0x10, // ss/ds/es/fs/gs: flat kernel data segment.
            _ => 0,
        }
    }

    /// Writes a register by GDB protocol number; segment registers are
    /// read-only in the flat model and are silently ignored.
    pub fn set_gdb_reg(&mut self, n: usize, v: u32) {
        match n {
            0 => self.eax = v,
            1 => self.ecx = v,
            2 => self.edx = v,
            3 => self.ebx = v,
            4 => self.esp = v,
            5 => self.ebp = v,
            6 => self.esi = v,
            7 => self.edi = v,
            8 => self.eip = v,
            9 => self.eflags = v,
            _ => {}
        }
    }

    /// Number of registers in the GDB i386 register file.
    pub const GDB_NUM_REGS: usize = 16;
}

/// Outcome of a trap handler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrapDisposition {
    /// The trap was handled; resume with the (possibly modified) frame.
    Handled,
    /// Pass to the next (default) handler.
    Chain,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gdb_register_round_trip() {
        let mut f = TrapFrame::at(vectors::BREAKPOINT, 0x1000);
        for n in 0..10 {
            f.set_gdb_reg(n, 0x100 + n as u32);
        }
        for n in 0..10 {
            assert_eq!(f.gdb_reg(n), 0x100 + n as u32);
        }
    }

    #[test]
    fn segments_are_flat_model_constants() {
        let f = TrapFrame::default();
        assert_eq!(f.gdb_reg(10), 0x08);
        assert_eq!(f.gdb_reg(12), 0x10);
        let mut g = f;
        g.set_gdb_reg(10, 0xdead);
        assert_eq!(g.gdb_reg(10), 0x08);
    }

    #[test]
    fn frame_at_sets_interrupt_flag() {
        let f = TrapFrame::at(vectors::PAGE_FAULT, 0x42);
        assert_eq!(f.trapno, vectors::PAGE_FAULT);
        assert_eq!(f.eip, 0x42);
        assert_ne!(f.eflags & 0x200, 0);
    }
}
