//! Structured trace events.
//!
//! Every event carries the [`BoundaryId`](crate::BoundaryId) of the glue
//! seam it was observed at, the virtual timestamp of the machine's cost
//! model at that moment, and a kind describing *what* crossed the seam.

use crate::boundary::BoundaryId;
use std::fmt;

/// What happened at a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Control transferred across the boundary (a glue-code call).
    Crossing,
    /// Payload bytes were physically copied at the boundary.
    Copy {
        /// Number of bytes copied.
        bytes: u64,
    },
    /// Memory was allocated through the osenv at this boundary.
    Alloc {
        /// Number of bytes allocated.
        bytes: u64,
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
        frames: u64,
    },
    /// Payload bytes were handed to scatter-gather hardware as a fragment
    /// list — descriptors were programmed, but no byte was copied.
    Gather {
        /// Number of bytes gathered.
        bytes: u64,
    },
    /// An osenv allocation failed at this boundary (pool exhaustion or an
    /// injected fault); the component must degrade gracefully.
    AllocFailed {
        /// Number of bytes requested.
        bytes: u64,
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
        bytes: u64,
    },
    /// A frame was handed to the NIC this boundary's driver services, to
    /// transmit.
    PacketSent,
    /// The NIC this boundary's driver services queued a frame on its
    /// receive ring.
    PacketReceived,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Crossing => write!(f, "crossing"),
            EventKind::Copy { bytes } => write!(f, "copy({bytes}B)"),
            EventKind::Alloc { bytes } => write!(f, "alloc({bytes}B)"),
            EventKind::Sleep => write!(f, "sleep"),
            EventKind::Wakeup => write!(f, "wakeup"),
            EventKind::Irq => write!(f, "irq"),
            EventKind::RxIrq => write!(f, "rx_irq"),
            EventKind::Poll { frames } => write!(f, "poll({frames} frames)"),
            EventKind::Gather { bytes } => write!(f, "gather({bytes}B)"),
            EventKind::AllocFailed { bytes } => write!(f, "alloc_failed({bytes}B)"),
            EventKind::CacheHit => write!(f, "cache_hit"),
            EventKind::CacheMiss => write!(f, "cache_miss"),
            EventKind::CacheEvict => write!(f, "cache_evict"),
            EventKind::Layer => write!(f, "layer"),
            EventKind::Checksum { bytes } => write!(f, "checksum({bytes}B)"),
            EventKind::PacketSent => write!(f, "packet_sent"),
            EventKind::PacketReceived => write!(f, "packet_received"),
        }
    }
}

/// One structured observation at a component boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Monotonic per-tracer sequence number (assigned at record time).
    pub seq: u64,
    /// Virtual timestamp, in nanoseconds of the machine's cost-model
    /// clock, when the event was recorded.
    pub vtime_ns: u64,
    /// The boundary the event was observed at.
    pub boundary: BoundaryId,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (component, name) = crate::boundary::boundary_info(self.boundary);
        write!(
            f,
            "[{:>10}ns] #{:<5} {}::{} {}",
            self.vtime_ns, self.seq, component, name, self.kind
        )
    }
}
