//! The simulated PC: RAM, interrupt controller, CPU clock and accounting.

use crate::costs;
use crate::irq::IrqController;
use crate::phys::PhysMem;
use crate::sched::{EventId, Ns, Sim};
use oskit_fault::FaultInjector;
use oskit_trace::{BoundaryId, BoundaryMetrics, EventKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One simulated machine (one "PC" of the paper's two-machine testbed).
///
/// A machine owns its physical memory, interrupt controller, work ledger
/// and a **CPU clock**: virtual time consumed by code logically executing
/// on this machine.  The clock advances when components book work
/// ([`Machine::book`]) and is pulled forward to the global event clock
/// whenever an event (packet arrival, disk completion) is delivered to
/// the machine.
pub struct Machine {
    /// Machine name, for diagnostics ("sender", "receiver", ...).
    pub name: String,
    /// The simulation this machine belongs to.
    pub sim: Arc<Sim>,
    /// Simulated RAM.
    pub phys: PhysMem,
    /// The interrupt controller.
    pub irq: Arc<IrqController>,
    /// The work ledger: every booking, at the boundary it was made at.
    tracer: Tracer,
    /// Scripted fault schedules.
    faults: FaultInjector,
    clock: AtomicU64,
}

impl Machine {
    /// Creates a machine with `mem_size` bytes of RAM.
    pub fn new(sim: &Arc<Sim>, name: impl Into<String>, mem_size: usize) -> Arc<Machine> {
        Arc::new(Machine {
            name: name.into(),
            sim: Arc::clone(sim),
            phys: PhysMem::new(mem_size),
            irq: Arc::new(IrqController::new()),
            tracer: Tracer::new(),
            faults: FaultInjector::new(),
            clock: AtomicU64::new(0),
        })
    }

    /// This machine's tracer: the per-boundary ledger of every booking.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The mechanical work this machine performed: the sum over every
    /// boundary of [`Machine::tracer`]'s counters
    /// ([`TraceReport::total`](oskit_trace::TraceReport::total)).
    pub fn work(&self) -> BoundaryMetrics {
        self.tracer.metrics().total()
    }

    /// This machine's fault injector: the device models consult it at
    /// every fault point, and a kernel installs a
    /// [`FaultPlan`](oskit_fault::FaultPlan) on it to script faults.
    /// Inert (all decisions "no fault") until a plan is installed.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// This machine's CPU clock: the virtual time up to which its
    /// processor has been busy.
    pub fn clock(&self) -> Ns {
        self.clock.load(Ordering::Relaxed)
    }

    /// Pulls the CPU clock forward to at least `t` (an event was delivered
    /// at global time `t`; the CPU cannot have acted on it earlier).
    pub fn observe(&self, t: Ns) {
        self.clock.fetch_max(t, Ordering::Relaxed);
    }

    /// Advances the CPU clock by `ns` of processing.
    pub fn advance(&self, ns: Ns) {
        self.clock.fetch_add(ns, Ordering::Relaxed);
    }

    /// The time at which work started *now* would be scheduled: the later
    /// of this CPU's clock and the global event clock.
    pub fn cpu_now(&self) -> Ns {
        self.clock().max(self.sim.now())
    }

    /// Schedules `action` at `delay` ns after [`Machine::cpu_now`],
    /// observing the dispatch time on this machine's clock first.
    pub fn at_cpu(
        self: &Arc<Self>,
        delay: Ns,
        action: impl FnOnce(&Arc<Machine>) + Send + 'static,
    ) -> EventId {
        let when = self.cpu_now() + delay;
        let m = Arc::clone(self);
        self.sim.at_abs(when, move || {
            m.observe(m.sim.now());
            action(&m);
        })
    }

    /// Books `kind` at `boundary`: advances the CPU clock by the kind's
    /// [`price`](crate::costs::price) and bumps the boundary's counters.
    ///
    /// This is the one door into the ledger.  Every `memcpy`, checksum,
    /// glue crossing, protocol layer, interrupt and poll performed by
    /// driver, glue or protocol code books here, so the counts and the
    /// time behind Tables 1 and 2 are measured, not asserted; unpriced
    /// observations (allocations, sleeps, cache hits, ...) book here too
    /// and cost nothing.
    pub fn book(&self, boundary: BoundaryId, kind: EventKind) {
        self.advance(costs::price(kind));
        self.tracer.record(boundary, kind);
    }

    /// Opens a profiling span at `boundary`: until the returned guard is
    /// dropped, all virtual time this machine's clock advances is
    /// attributed to the boundary's `vtime_ns` metric.
    ///
    /// Spans observe — they never charge — so wrapping a glue seam in a
    /// span leaves every counter and Table 1/2 number unchanged.
    pub fn span(&self, boundary: BoundaryId) -> BoundarySpan<'_> {
        BoundarySpan {
            machine: self,
            boundary,
            entry: self.clock(),
        }
    }
}

/// RAII guard from [`Machine::span`], attributing elapsed virtual time
/// to a boundary when dropped.
pub struct BoundarySpan<'a> {
    machine: &'a Machine,
    boundary: BoundaryId,
    entry: Ns,
}

impl Drop for BoundarySpan<'_> {
    fn drop(&mut self) {
        let elapsed = self.machine.clock().saturating_sub(self.entry);
        self.machine.tracer.add_vtime(self.boundary, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_charges() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let b = oskit_trace::boundary!("machine-test", "clock_seam");
        m.book(b, EventKind::Copy { bytes: 25_000 }); // 1 ms at 25 MB/s.
        assert_eq!(m.clock(), 1_000_000);
        m.book(b, EventKind::Crossing);
        assert_eq!(m.clock(), 1_000_500);
    }

    #[test]
    fn observe_never_moves_clock_backwards() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        m.advance(500);
        m.observe(100);
        assert_eq!(m.clock(), 500);
        m.observe(900);
        assert_eq!(m.clock(), 900);
    }

    #[test]
    fn at_cpu_runs_after_charged_work() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        m.advance(10_000); // CPU is busy until t=10 µs.
        let m2 = Arc::clone(&m);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let done = Arc::new(crate::sched::SleepRecord::new());
            let d2 = Arc::clone(&done);
            let s3 = Arc::clone(&s2);
            m2.at_cpu(5, move |m| {
                // The event fires at cpu_now() + 5, not sim.now() + 5.
                assert!(m.sim.now() >= 10_005);
                d2.signal(&s3);
            });
            done.wait(&s2);
        });
        sim.run();
    }

    #[test]
    fn span_attributes_vtime_without_charging() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let b = oskit_trace::boundary!("machine-test", "span_seam");
        let before = m.work();
        {
            let _span = m.span(b);
            m.book(b, EventKind::Copy { bytes: 25_000 }); // 1 ms at 25 MB/s
        }
        let after = m.work();
        // The span itself charged nothing beyond the copy.
        assert_eq!(after.copies, before.copies + 1);
        assert_eq!(m.clock(), 1_000_000);
        let v = m
            .tracer()
            .metrics()
            .get("machine-test", "span_seam")
            .unwrap()
            .vtime_ns;
        assert_eq!(v, 1_000_000);
    }

    #[test]
    fn gather_charges_descriptors_not_copies() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let b = oskit_trace::boundary!("machine-test", "sg_seam");
        m.book(
            b,
            EventKind::Gather {
                bytes: 1514,
                fragments: 2,
            },
        );
        let s = m.work();
        // The bytes moved, but nothing was copied by the CPU...
        assert_eq!(s.bytes_gathered, 1514);
        assert_eq!(s.gathers, 1);
        assert_eq!(s.bytes_copied, 0);
        // ...which only cost two descriptor writes of clock time, far
        // below the ~60 µs a 1514-byte copy would have charged.
        assert_eq!(m.clock(), 600);
        assert!(m.clock() < costs::price(EventKind::Copy { bytes: 1514 }) / 10);
        let bm = *m.tracer().metrics().get("machine-test", "sg_seam").unwrap();
        assert_eq!(
            (bm.gathers, bm.bytes_gathered, bm.bytes_copied),
            (1, 1514, 0)
        );
    }

    #[test]
    fn meters_track_work() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let a = oskit_trace::boundary!("machine-test", "work_a");
        let b = oskit_trace::boundary!("machine-test", "work_b");
        m.book(a, EventKind::Copy { bytes: 100 });
        m.book(b, EventKind::Copy { bytes: 200 });
        m.book(a, EventKind::Checksum { bytes: 50 });
        m.book(a, EventKind::Irq);
        m.book(b, EventKind::RxIrq);
        // The aggregate is the sum over boundaries.
        let s = m.work();
        assert_eq!(s.bytes_copied, 300);
        assert_eq!(s.copies, 2);
        assert_eq!(s.bytes_checksummed, 50);
        assert_eq!((s.irqs, s.rx_irqs), (2, 1));
        let bm = *m.tracer().metrics().get("machine-test", "work_a").unwrap();
        assert_eq!((bm.copies, bm.checksums, bm.irqs, bm.rx_irqs), (1, 1, 1, 0));
    }

    /// The price list, one row per kind: the clock advance a single
    /// booking costs, and the counter it bumps at the seam.
    #[test]
    fn book_prices_every_kind() {
        type Count = fn(&BoundaryMetrics) -> u64;
        let table: [(EventKind, Ns, Count); 16] = [
            (EventKind::Crossing, 500, |m| m.crossings),
            (EventKind::Copy { bytes: 1500 }, 60_000, |m| m.copies),
            (EventKind::Alloc { bytes: 32 }, 0, |m| m.allocs),
            (EventKind::Sleep, 0, |m| m.sleeps),
            (EventKind::Wakeup, 0, |m| m.wakeups),
            (EventKind::Irq, 5_000, |m| m.irqs),
            (EventKind::RxIrq, 5_000, |m| m.rx_irqs),
            (EventKind::Poll { frames: 7 }, 1_500, |m| m.polls),
            (
                EventKind::Gather {
                    bytes: 1500,
                    fragments: 3,
                },
                900,
                |m| m.gathers,
            ),
            (EventKind::AllocFailed { bytes: 64 }, 0, |m| m.alloc_failed),
            (EventKind::CacheHit, 0, |m| m.cache_hits),
            (EventKind::CacheMiss, 0, |m| m.cache_misses),
            (EventKind::CacheEvict, 0, |m| m.cache_evictions),
            (EventKind::Layer, 2_000, |m| m.layers),
            (EventKind::Checksum { bytes: 1500 }, 30_000, |m| m.checksums),
            (EventKind::PacketReceived, 0, |m| m.packets_received),
        ];
        let sim = Sim::new();
        let b = oskit_trace::boundary!("machine-test", "price_seam");
        for (kind, ns, count) in table {
            let m = Machine::new(&sim, "m", 4096);
            m.book(b, kind);
            assert_eq!(m.clock(), ns, "{kind:?}");
            let row = *m
                .tracer()
                .metrics()
                .get("machine-test", "price_seam")
                .unwrap();
            assert_eq!(count(&row), 1, "{kind:?}");
        }
    }
}
