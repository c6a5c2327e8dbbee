//! The per-machine tracer: the per-boundary counters that are the
//! machine's only ledger, plus the flight recorder, under one lock.

use crate::boundary::{boundary_names, BoundaryId};
use crate::event::{EventKind, TraceEvent};
use crate::ring::FlightRecorder;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A point-in-time snapshot of one boundary's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundaryMetrics {
    /// Component owning the boundary (e.g. `"linux-dev"`).
    pub component: &'static str,
    /// Boundary name within the component (e.g. `"ether_tx"`).
    pub name: &'static str,
    /// Control transfers observed at this seam.
    pub crossings: u64,
    /// Copy operations observed at this seam.
    pub copies: u64,
    /// Total payload bytes physically copied at this seam.
    pub bytes_copied: u64,
    /// Scatter-gather hand-offs observed at this seam (fragment lists
    /// passed to gathering hardware; no bytes copied).
    pub gathers: u64,
    /// Total payload bytes moved by scatter-gather hand-offs at this seam.
    pub bytes_gathered: u64,
    /// Allocations observed at this seam.
    pub allocs: u64,
    /// Total bytes allocated at this seam.
    pub bytes_allocated: u64,
    /// Allocations that failed at this seam (exhaustion or injection) —
    /// the boundary-level companion of the NIC's `rx_dropped` /
    /// `wire_dropped` drop counters.
    pub alloc_failed: u64,
    /// Threads that blocked at this seam.
    pub sleeps: u64,
    /// Wakeups delivered at this seam.
    pub wakeups: u64,
    /// Interrupts delivered at this seam.
    pub irqs: u64,
    /// Budgeted polls (NAPI-style batch drains) run at this seam.
    pub polls: u64,
    /// Frames delivered by those polls.
    pub poll_frames: u64,
    /// Buffer-cache lookups satisfied from memory at this seam.
    pub cache_hits: u64,
    /// Buffer-cache lookups that had to fill from the backing device.
    pub cache_misses: u64,
    /// Cached blocks evicted at this seam to make room.
    pub cache_evictions: u64,
    /// Virtual nanoseconds spent inside spans opened at this seam
    /// (reported by `BoundarySpan` guards in `oskit-machine`).
    pub vtime_ns: u64,
    /// Per-packet protocol layers processed at this seam.
    pub layers: u64,
    /// Checksum passes run at this seam.
    pub checksums: u64,
    /// Total bytes those checksum passes covered.
    pub bytes_checksummed: u64,
    /// The subset of `irqs` raised by a NIC's receive path — the
    /// quantity interrupt mitigation exists to shrink.
    pub rx_irqs: u64,
    /// Frames handed to the NIC this seam's driver services, to transmit.
    pub packets_sent: u64,
    /// Frames that NIC queued on its receive ring.
    pub packets_received: u64,
}

impl BoundaryMetrics {
    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self
            == BoundaryMetrics {
                component: self.component,
                name: self.name,
                ..BoundaryMetrics::default()
            }
    }

    fn add(&mut self, kind: EventKind) {
        match kind {
            EventKind::Crossing => self.crossings += 1,
            EventKind::Copy { bytes } => {
                self.copies += 1;
                self.bytes_copied += bytes;
            }
            EventKind::Alloc { bytes } => {
                self.allocs += 1;
                self.bytes_allocated += bytes;
            }
            EventKind::Sleep => self.sleeps += 1,
            EventKind::Wakeup => self.wakeups += 1,
            EventKind::Irq => self.irqs += 1,
            EventKind::RxIrq => {
                self.irqs += 1;
                self.rx_irqs += 1;
            }
            EventKind::Poll { frames } => {
                self.polls += 1;
                self.poll_frames += frames;
            }
            EventKind::Gather { bytes } => {
                self.gathers += 1;
                self.bytes_gathered += bytes;
            }
            EventKind::AllocFailed { .. } => self.alloc_failed += 1,
            EventKind::CacheHit => self.cache_hits += 1,
            EventKind::CacheMiss => self.cache_misses += 1,
            EventKind::CacheEvict => self.cache_evictions += 1,
            EventKind::Layer => self.layers += 1,
            EventKind::Checksum { bytes } => {
                self.checksums += 1;
                self.bytes_checksummed += bytes;
            }
            EventKind::PacketSent => self.packets_sent += 1,
            EventKind::PacketReceived => self.packets_received += 1,
        }
    }
}

/// A full per-boundary metrics snapshot from one tracer.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// One entry per boundary registered in the process, in registration
    /// order (index == [`BoundaryId::index`]).  Boundaries this tracer
    /// never touched are present with all-zero counters.
    pub boundaries: Vec<BoundaryMetrics>,
}

impl TraceReport {
    /// Looks up the metrics of one boundary by name.
    pub fn get(&self, component: &str, name: &str) -> Option<&BoundaryMetrics> {
        self.boundaries
            .iter()
            .find(|b| b.component == component && b.name == name)
    }

    /// The boundaries with at least one nonzero counter.
    pub fn nonzero(&self) -> impl Iterator<Item = &BoundaryMetrics> {
        self.boundaries.iter().filter(|b| !b.is_zero())
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<34} {:>9} {:>7} {:>12} {:>7} {:>7} {:>9} {:>7} {:>8} {:>5} {:>6} {:>11} {:>7} {:>7} {:>7} {:>6} {:>11} {:>12}",
            "boundary",
            "crossings",
            "copies",
            "bytes-copied",
            "gathers",
            "allocs",
            "alloc-ENOMEM",
            "sleeps",
            "wakeups",
            "irqs",
            "polls",
            "poll-frames",
            "c-hits",
            "c-miss",
            "c-evict",
            "layers",
            "bytes-cksum",
            "vtime-ns"
        )?;
        for b in self.nonzero() {
            writeln!(
                f,
                "  {:<34} {:>9} {:>7} {:>12} {:>7} {:>7} {:>9} {:>7} {:>8} {:>5} {:>6} {:>11} {:>7} {:>7} {:>7} {:>6} {:>11} {:>12}",
                format!("{}::{}", b.component, b.name),
                b.crossings,
                b.copies,
                b.bytes_copied,
                b.gathers,
                b.allocs,
                b.alloc_failed,
                b.sleeps,
                b.wakeups,
                b.irqs,
                b.polls,
                b.poll_frames,
                b.cache_hits,
                b.cache_misses,
                b.cache_evictions,
                b.layers,
                b.bytes_checksummed,
                b.vtime_ns
            )?;
        }
        Ok(())
    }
}

/// Everything a tracer guards with its one lock.
#[derive(Default)]
struct Ledger {
    /// Counters indexed by [`BoundaryId::index`], grown on first use.
    boundaries: Vec<BoundaryMetrics>,
    recorder: FlightRecorder,
}

impl Ledger {
    fn at(&mut self, boundary: BoundaryId) -> &mut BoundaryMetrics {
        let i = boundary.index();
        if i >= self.boundaries.len() {
            self.boundaries.resize(i + 1, BoundaryMetrics::default());
        }
        &mut self.boundaries[i]
    }
}

/// A cloneable handle to one tracing domain (normally: one simulated
/// machine).
///
/// Clones share one ledger: the per-boundary counters and the flight
/// recorder, behind a single `Mutex`.  The lock is a leaf — nothing is
/// called while it is held — so a snapshot is consistent across every
/// counter, and under the simulator's run token it is never contended.
///
/// ```
/// use oskit_trace::{boundary, EventKind, Tracer};
/// let t = Tracer::new();
/// t.record(boundary!("doc", "seam"), EventKind::Copy { bytes: 64 }, 10);
/// let report = t.metrics();
/// assert_eq!(report.get("doc", "seam").unwrap().bytes_copied, 64);
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    ledger: Arc<Mutex<Ledger>>,
}

impl Tracer {
    /// Creates a tracer with all counters zero and no events recorded.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Every update under the lock is one whole counter bump or event
    /// push, so the ledger stays valid even if a holder panicked.
    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a full structured event: bumps the boundary's counters
    /// and appends to the flight recorder (overwriting, and counting, its
    /// oldest event when full).
    pub fn record(&self, boundary: BoundaryId, kind: EventKind, vtime_ns: u64) {
        let mut ledger = self.ledger();
        ledger.at(boundary).add(kind);
        ledger.recorder.record(boundary, kind, vtime_ns);
    }

    /// Bumps the boundary's counters without emitting a recorder event.
    ///
    /// Used on paths too hot (or too global) for per-event storage,
    /// e.g. COM interface dispatch.
    pub fn count(&self, boundary: BoundaryId, kind: EventKind) {
        self.ledger().at(boundary).add(kind);
    }

    /// Attributes `ns` of virtual time to `boundary` (reported by span
    /// guards when they close).
    pub fn add_vtime(&self, boundary: BoundaryId, ns: u64) {
        self.ledger().at(boundary).vtime_ns += ns;
    }

    /// Snapshots every registered boundary's counters, consistently:
    /// no event is half-counted in the result.
    pub fn metrics(&self) -> TraceReport {
        let names = boundary_names();
        let counts = self.ledger().boundaries.clone();
        let boundaries = names
            .into_iter()
            .enumerate()
            .map(|(i, (component, name))| BoundaryMetrics {
                component,
                name,
                ..counts.get(i).copied().unwrap_or_default()
            })
            .collect();
        TraceReport { boundaries }
    }

    /// Removes and returns the flight recorder's events, oldest first.
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        self.ledger().recorder.drain()
    }

    /// Number of events the flight recorder overwrote to make room.
    pub fn overwritten(&self) -> u64 {
        self.ledger().recorder.overwritten()
    }

    /// Resets every counter and empties the flight recorder.
    pub fn clear(&self) {
        *self.ledger() = Ledger::default();
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}
