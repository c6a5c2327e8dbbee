//! The virtual-time cost model behind Tables 1 and 2.
//!
//! Nothing here is charged per *configuration*: the Linux, FreeBSD and
//! OSKit kernels of the paper's §5 experiments differ only in which code
//! runs, and therefore in which copies, protocol work and glue crossings
//! are actually performed.  Components report those mechanical facts
//! ("I copied N bytes", "I crossed a component boundary") by booking an
//! [`EventKind`] with [`Machine::book`](crate::Machine::book), and
//! [`price`] converts each one to virtual nanoseconds at 1997-era rates,
//! so the *shape* of the results — who wins and by what factor — is
//! emergent.
//!
//! The rates approximate the paper's testbed: Pentium Pro 200 MHz PCs on
//! 100 Mbps Ethernet.

use crate::sched::Ns;
use oskit_trace::EventKind;

/// Memory-copy bandwidth in bytes/second: packet-sized cache-cold copies
/// on a Pentium Pro-class memory system (~25 MB/s effective).
const COPY_BYTES_PER_SEC: u64 = 25_000_000;
/// Checksum bandwidth in bytes/second (single-pass load+add, roughly
/// twice the copy rate).
const CHECKSUM_BYTES_PER_SEC: u64 = 50_000_000;
/// One component-boundary crossing (COM dispatch plus glue
/// prologue/epilogue), ~100 cycles at 200 MHz: the per-call price of
/// separability that dominates Table 2's latency overhead.
const CROSSING_NS: Ns = 500;
/// One layer of per-packet protocol processing.
const LAYER_NS: Ns = 2_000;
/// Taking one hardware interrupt.
const IRQ_NS: Ns = 5_000;
/// One softirq-style poll dispatch (scheduling and entering a NAPI
/// `poll` callback).  Much cheaper than [`IRQ_NS`]: no context
/// save/restore, no controller EOI — the whole economics of interrupt
/// mitigation is paying this per *batch* instead of an interrupt per
/// *frame*.  The per-frame protocol and glue work is still booked by
/// whoever consumes the frames.
const POLL_NS: Ns = 1_500;
/// Programming one scatter-gather descriptor (one fragment handed to
/// gathering DMA hardware).  The CPU writes an (address, length) pair
/// instead of copying the fragment — the whole economics of an
/// SG-capable driver.
const SG_FRAG_NS: Ns = 300;

/// The virtual time one occurrence of `kind` costs the CPU that books it.
///
/// Observations with no work of their own — allocations, sleeps and
/// wakeups reported by the osenv, buffer-cache hits, misses and
/// evictions (a miss's fill and an eviction's write-back are booked by
/// the backing `blkio` itself), and frames queued by the NIC — cost 0.
pub fn price(kind: EventKind) -> Ns {
    match kind {
        EventKind::Copy { bytes } => per_second(bytes, COPY_BYTES_PER_SEC),
        EventKind::Checksum { bytes } => per_second(bytes, CHECKSUM_BYTES_PER_SEC),
        EventKind::Gather { fragments, .. } => SG_FRAG_NS * fragments as u64,
        EventKind::Crossing => CROSSING_NS,
        EventKind::Layer => LAYER_NS,
        EventKind::Irq | EventKind::RxIrq => IRQ_NS,
        EventKind::Poll { .. } => POLL_NS,
        EventKind::Alloc { .. }
        | EventKind::AllocFailed { .. }
        | EventKind::Sleep
        | EventKind::Wakeup
        | EventKind::CacheHit
        | EventKind::CacheMiss
        | EventKind::CacheEvict
        | EventKind::PacketReceived => 0,
    }
}

/// Nanoseconds to move `bytes` bytes at `rate` bytes/second.
fn per_second(bytes: usize, rate: u64) -> Ns {
    (bytes as u128 * 1_000_000_000 / rate as u128) as Ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy_ns(bytes: usize) -> Ns {
        price(EventKind::Copy { bytes })
    }

    #[test]
    fn copy_cost_scales_linearly() {
        assert_eq!(copy_ns(0), 0);
        assert_eq!(copy_ns(25_000_000), 1_000_000_000);
        assert_eq!(copy_ns(25_000), 1_000_000);
    }

    #[test]
    fn checksum_is_faster_than_copy() {
        assert!(price(EventKind::Checksum { bytes: 1500 }) < copy_ns(1500));
    }

    #[test]
    fn mul_div_does_not_overflow() {
        // 40 GB: bytes × 10⁹ is past u64::MAX, the 1600 s result is not.
        assert_eq!(copy_ns(40_000_000_000), 1_600_000_000_000);
    }
}
