//! The per-machine tracer: the per-boundary counters that are the
//! machine's only ledger, under one lock.

use crate::boundary::{boundary_names, BoundaryId};
use crate::event::EventKind;
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
    /// the boundary-level companion of the NIC's `rx_dropped` counter and
    /// the fault ledger's `tx_dropped`.
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
    /// One entry per boundary registered in the process, sorted by
    /// `(component, name)` so the order never depends on which seams the
    /// process happened to touch first.  Boundaries this tracer never
    /// touched are present with all-zero counters.
    pub boundaries: Vec<BoundaryMetrics>,
}

impl FromIterator<BoundaryMetrics> for TraceReport {
    /// Collects rows in any order into a report sorted by
    /// `(component, name)`.
    fn from_iter<I: IntoIterator<Item = BoundaryMetrics>>(rows: I) -> TraceReport {
        let mut boundaries: Vec<BoundaryMetrics> = rows.into_iter().collect();
        boundaries.sort_by_key(|b| (b.component, b.name));
        TraceReport { boundaries }
    }
}

impl TraceReport {
    /// Looks up the metrics of one boundary by name.
    pub fn get(&self, component: &str, name: &str) -> Option<&BoundaryMetrics> {
        self.boundaries
            .iter()
            .find(|b| b.component == component && b.name == name)
    }

    /// The field-wise sum of every row: the machine's whole work, with
    /// `component` and `name` left empty.
    pub fn total(&self) -> BoundaryMetrics {
        let mut sum = BoundaryMetrics::default();
        for b in &self.boundaries {
            sum.crossings += b.crossings;
            sum.copies += b.copies;
            sum.bytes_copied += b.bytes_copied;
            sum.gathers += b.gathers;
            sum.bytes_gathered += b.bytes_gathered;
            sum.allocs += b.allocs;
            sum.bytes_allocated += b.bytes_allocated;
            sum.alloc_failed += b.alloc_failed;
            sum.sleeps += b.sleeps;
            sum.wakeups += b.wakeups;
            sum.irqs += b.irqs;
            sum.polls += b.polls;
            sum.poll_frames += b.poll_frames;
            sum.cache_hits += b.cache_hits;
            sum.cache_misses += b.cache_misses;
            sum.cache_evictions += b.cache_evictions;
            sum.vtime_ns += b.vtime_ns;
            sum.layers += b.layers;
            sum.checksums += b.checksums;
            sum.bytes_checksummed += b.bytes_checksummed;
            sum.rx_irqs += b.rx_irqs;
            sum.packets_sent += b.packets_sent;
            sum.packets_received += b.packets_received;
        }
        sum
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

/// A cloneable handle to one tracing domain (normally: one simulated
/// machine).
///
/// Clones share one ledger: the per-boundary counters, indexed by
/// [`BoundaryId::index`] and grown on first use, behind a single
/// `Mutex`.  The lock is a leaf — nothing is called while it is held —
/// so a snapshot is consistent across every counter, and under the
/// simulator's run token it is never contended.
///
/// ```
/// use oskit_trace::{boundary, EventKind, Tracer};
/// let t = Tracer::new();
/// t.record(boundary!("doc", "seam"), EventKind::Copy { bytes: 64 });
/// let report = t.metrics();
/// assert_eq!(report.get("doc", "seam").unwrap().bytes_copied, 64);
/// ```
#[derive(Clone, Default)]
pub struct Tracer {
    counters: Arc<Mutex<Vec<BoundaryMetrics>>>,
}

impl Tracer {
    /// Creates a tracer with all counters zero.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Every update under the lock is one whole counter bump, so the
    /// counters stay valid even if a holder panicked.
    fn counters(&self) -> MutexGuard<'_, Vec<BoundaryMetrics>> {
        self.counters.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on `boundary`'s counters under the lock.
    fn at(&self, boundary: BoundaryId, f: impl FnOnce(&mut BoundaryMetrics)) {
        let mut counters = self.counters();
        let i = boundary.index();
        if i >= counters.len() {
            counters.resize(i + 1, BoundaryMetrics::default());
        }
        f(&mut counters[i]);
    }

    /// Books `kind` at `boundary`: bumps the boundary's counters.
    pub fn record(&self, boundary: BoundaryId, kind: EventKind) {
        self.at(boundary, |m| m.add(kind));
    }

    /// Attributes `ns` of virtual time to `boundary` (reported by span
    /// guards when they close).
    pub fn add_vtime(&self, boundary: BoundaryId, ns: u64) {
        self.at(boundary, |m| m.vtime_ns += ns);
    }

    /// Snapshots every registered boundary's counters, consistently:
    /// no event is half-counted in the result.
    pub fn metrics(&self) -> TraceReport {
        let names = boundary_names();
        let counts = self.counters().clone();
        names
            .into_iter()
            .enumerate()
            .map(|(i, (component, name))| BoundaryMetrics {
                component,
                name,
                ..counts.get(i).copied().unwrap_or_default()
            })
            .collect()
    }

    /// Resets every counter.
    pub fn clear(&self) {
        self.counters().clear();
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}
