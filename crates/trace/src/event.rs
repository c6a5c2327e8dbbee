//! What a booking records at a boundary.

/// What happened at a boundary: each kind bumps one or two of the
/// boundary's [`BoundaryMetrics`](crate::BoundaryMetrics) counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Control transferred across the boundary (a glue-code call).
    Crossing,
    /// Payload bytes were physically copied at the boundary.
    Copy {
        /// Number of bytes copied.
        bytes: usize,
    },
    /// Memory was allocated through the osenv at this boundary.
    Alloc {
        /// Number of bytes allocated.
        bytes: usize,
    },
    /// A thread blocked (osenv sleep) at this boundary.
    Sleep,
    /// A sleeping thread was woken at this boundary.
    Wakeup,
    /// An interrupt was delivered at this boundary.
    Irq,
    /// A NIC receive interrupt was delivered at this boundary (counted
    /// as an `Irq` too).
    RxIrq,
    /// A budgeted poll (NAPI-style batch drain) ran at this boundary.
    Poll {
        /// Number of frames the poll delivered.
        frames: usize,
    },
    /// Payload bytes were handed to scatter-gather hardware as a fragment
    /// list — descriptors were programmed, but no byte was copied.
    Gather {
        /// Number of bytes gathered.
        bytes: usize,
        /// Number of fragments (one DMA descriptor each).
        fragments: usize,
    },
    /// An osenv allocation failed at this boundary (pool exhaustion or an
    /// injected fault); the component must degrade gracefully.
    AllocFailed {
        /// Number of bytes requested.
        bytes: usize,
    },
    /// A buffer-cache lookup was satisfied from memory at this boundary —
    /// no device I/O, no copy.
    CacheHit,
    /// A buffer-cache lookup missed and had to fill from the backing
    /// device at this boundary.
    CacheMiss,
    /// A cached block was evicted (written back first if dirty) at this
    /// boundary to make room.
    CacheEvict,
    /// One layer of per-packet protocol processing ran at this boundary.
    Layer,
    /// A checksum pass ran at this boundary.
    Checksum {
        /// Number of bytes checksummed.
        bytes: usize,
    },
    /// The NIC this boundary's driver services queued a frame on its
    /// receive ring.
    PacketReceived,
}
