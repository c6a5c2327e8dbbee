//! Simulated physical memory.
//!
//! A flat byte array standing in for the PC's RAM, with the layout quirks
//! OSKit components care about: the sub-1 MB "lower" region with its BIOS
//! and legacy holes, and the ISA DMA reachability limit at 16 MB (paper
//! §3.3: "only the first 16MB of physical memory on PCs is accessible to
//! the built-in DMA controller").

use parking_lot::Mutex;

/// Physical addresses are 32-bit on the simulated PC.
pub type PhysAddr = u32;

/// End of the legacy "lower memory" region (640 KB).
pub const LOWER_MEM_END: PhysAddr = 0xA_0000;

/// Start of "upper memory" above the ISA hole (1 MB).
pub const UPPER_MEM_START: PhysAddr = 0x10_0000;

/// ISA DMA controllers can only reach below this address (16 MB).
pub const DMA_LIMIT: PhysAddr = 0x100_0000;

/// Simulated RAM.
pub struct PhysMem {
    bytes: Mutex<Vec<u8>>,
}

impl PhysMem {
    /// Allocates `size` bytes of zeroed RAM.
    pub fn new(size: usize) -> PhysMem {
        PhysMem {
            bytes: Mutex::new(vec![0; size]),
        }
    }

    /// Total RAM size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.lock().len()
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access — the simulated analogue of a bus
    /// error, which is always a kernel bug.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mem = self.bytes.lock();
        let a = addr as usize;
        let end = a.checked_add(buf.len()).expect("phys read overflow");
        assert!(
            end <= mem.len(),
            "phys read beyond RAM: {addr:#x}+{}",
            buf.len()
        );
        buf.copy_from_slice(&mem[a..end]);
    }

    /// Writes `buf` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range access.
    pub fn write(&self, addr: PhysAddr, buf: &[u8]) {
        let mut mem = self.bytes.lock();
        let a = addr as usize;
        let end = a.checked_add(buf.len()).expect("phys write overflow");
        assert!(
            end <= mem.len(),
            "phys write beyond RAM: {addr:#x}+{}",
            buf.len()
        );
        mem[a..end].copy_from_slice(buf);
    }

    /// Reads a little-endian `u32` (the x86 is little-endian).
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&self, addr: PhysAddr, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: PhysAddr) -> u16 {
        let mut b = [0u8; 2];
        self.read(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        let mut b = [0u8; 1];
        self.read(addr, &mut b);
        b[0]
    }

    /// Writes one byte.
    pub fn write_u8(&self, addr: PhysAddr, value: u8) {
        self.write(addr, &[value]);
    }

    /// Fills `[addr, addr+len)` with `value`.
    pub fn fill(&self, addr: PhysAddr, len: usize, value: u8) {
        let mut mem = self.bytes.lock();
        let a = addr as usize;
        let end = a.checked_add(len).expect("phys fill overflow");
        assert!(end <= mem.len(), "phys fill beyond RAM");
        mem[a..end].fill(value);
    }

    /// Runs `f` over a read-only view of `[addr, addr+len)` without an
    /// intermediate copy.
    pub fn with_slice<R>(&self, addr: PhysAddr, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let mem = self.bytes.lock();
        let a = addr as usize;
        let end = a.checked_add(len).expect("phys slice overflow");
        assert!(end <= mem.len(), "phys slice beyond RAM");
        f(&mem[a..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let m = PhysMem::new(1024);
        m.write(100, &[1, 2, 3, 4]);
        let mut b = [0u8; 4];
        m.read(100, &mut b);
        assert_eq!(b, [1, 2, 3, 4]);
    }

    #[test]
    fn typed_accessors_are_little_endian() {
        let m = PhysMem::new(64);
        m.write_u32(0, 0x1234_5678);
        assert_eq!(m.read_u8(0), 0x78);
        assert_eq!(m.read_u8(3), 0x12);
        assert_eq!(m.read_u16(0), 0x5678);
        assert_eq!(m.read_u32(0), 0x1234_5678);
    }

    #[test]
    #[should_panic(expected = "beyond RAM")]
    fn out_of_range_is_a_bus_error() {
        let m = PhysMem::new(16);
        m.read_u32(14);
    }

    #[test]
    fn fill_and_slice() {
        let m = PhysMem::new(32);
        m.fill(8, 8, 0xAB);
        m.with_slice(8, 8, |s| assert!(s.iter().all(|&b| b == 0xAB)));
        assert_eq!(m.read_u8(7), 0);
        assert_eq!(m.read_u8(16), 0);
    }

    #[test]
    fn layout_constants() {
        assert_eq!(LOWER_MEM_END, 640 * 1024);
        assert_eq!(UPPER_MEM_START, 1024 * 1024);
        assert_eq!(DMA_LIMIT, 16 * 1024 * 1024);
    }
}
