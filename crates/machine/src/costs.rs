//! The virtual-time cost model behind Tables 1 and 2.
//!
//! Nothing here is charged per *configuration*: the Linux, FreeBSD and
//! OSKit kernels of the paper's §5 experiments differ only in which code
//! runs, and therefore in which copies, protocol work and glue crossings
//! are actually performed.  Components report those mechanical facts
//! ("I copied N bytes", "I crossed a component boundary") and this model
//! converts them to virtual nanoseconds at 1997-era rates, so the *shape*
//! of the results — who wins and by what factor — is emergent.

/// Rates used to convert mechanical work into virtual time.
///
/// Defaults approximate the paper's testbed: Pentium Pro 200 MHz PCs on
/// 100 Mbps Ethernet.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Memory-copy bandwidth in bytes/second.  Calibrated so the paper's
    /// testbed behavior reproduces: packet-sized cache-cold copies on a
    /// Pentium Pro-class memory system (~25 MB/s effective).
    pub copy_bytes_per_sec: u64,
    /// Checksum bandwidth in bytes/second (single-pass load+add, roughly
    /// twice the copy rate).
    pub checksum_bytes_per_sec: u64,
    /// Fixed cost of one component-boundary crossing (COM dispatch plus
    /// glue prologue/epilogue), in nanoseconds (~100 cycles at 200 MHz).
    pub crossing_ns: u64,
    /// Fixed per-packet protocol processing cost per layer, in nanoseconds.
    pub per_layer_ns: u64,
    /// Fixed cost of taking one hardware interrupt, in nanoseconds.
    pub irq_ns: u64,
    /// Fixed cost of one softirq-style poll dispatch (scheduling and
    /// entering a NAPI `poll` callback), in nanoseconds.  Much cheaper
    /// than `irq_ns`: no context save/restore, no controller EOI — the
    /// whole economics of interrupt mitigation is paying this per
    /// *batch* instead of `irq_ns` per *frame*.
    pub poll_ns: u64,
    /// Cost of programming one scatter-gather descriptor (one fragment
    /// handed to gathering DMA hardware), in nanoseconds.  The CPU writes
    /// a (address, length) pair instead of copying the fragment — this is
    /// the whole economics of an SG-capable driver.
    pub sg_frag_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            copy_bytes_per_sec: 25_000_000,
            checksum_bytes_per_sec: 50_000_000,
            crossing_ns: 500,
            per_layer_ns: 2_000,
            irq_ns: 5_000,
            poll_ns: 1_500,
            sg_frag_ns: 300,
        }
    }
}

impl CostModel {
    /// Nanoseconds to copy `bytes` bytes.
    pub fn copy_ns(&self, bytes: usize) -> u64 {
        mul_div(bytes as u64, 1_000_000_000, self.copy_bytes_per_sec)
    }

    /// Nanoseconds to checksum `bytes` bytes.
    pub fn checksum_ns(&self, bytes: usize) -> u64 {
        mul_div(bytes as u64, 1_000_000_000, self.checksum_bytes_per_sec)
    }
}

fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    ((a as u128 * b as u128) / c.max(1) as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_linearly() {
        let m = CostModel::default();
        assert_eq!(m.copy_ns(0), 0);
        assert_eq!(m.copy_ns(25_000_000), 1_000_000_000);
        assert_eq!(m.copy_ns(25_000), 1_000_000);
    }

    #[test]
    fn checksum_is_faster_than_copy() {
        let m = CostModel::default();
        assert!(m.checksum_ns(1500) < m.copy_ns(1500));
    }

    #[test]
    fn mul_div_does_not_overflow() {
        // 4 GB at 1 byte/sec must not overflow u64 math internally.
        let m = CostModel {
            copy_bytes_per_sec: 1,
            ..CostModel::default()
        };
        assert_eq!(m.copy_ns(4), 4_000_000_000);
    }
}
