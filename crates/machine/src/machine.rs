//! The simulated PC: RAM, interrupt controller, CPU clock and accounting.

use crate::costs::{CostModel, WorkSnapshot};
use crate::irq::IrqController;
use crate::phys::PhysMem;
use crate::sched::{EventId, Ns, Sim};
use oskit_fault::FaultInjector;
use oskit_trace::{BoundaryId, EventKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One simulated machine (one "PC" of the paper's two-machine testbed).
///
/// A machine owns its physical memory, interrupt controller, work ledger
/// and a **CPU clock**: virtual time consumed by code logically executing
/// on this machine.  The clock advances when components charge work
/// ([`Machine::charge_copy_at`] and friends) and is pulled forward to the
/// global event clock whenever an event (packet arrival, disk completion)
/// is delivered to the machine.
pub struct Machine {
    /// Machine name, for diagnostics ("sender", "receiver", ...).
    pub name: String,
    /// The simulation this machine belongs to.
    pub sim: Arc<Sim>,
    /// Simulated RAM.
    pub phys: PhysMem,
    /// The interrupt controller.
    pub irq: Arc<IrqController>,
    /// Rates converting mechanical work to virtual time.
    pub costs: CostModel,
    /// The work ledger: every charge, booked at the boundary it was
    /// paid at.
    tracer: Tracer,
    /// Scripted fault schedules.
    faults: FaultInjector,
    clock: AtomicU64,
}

impl Machine {
    /// Creates a machine with `mem_size` bytes of RAM and default costs.
    pub fn new(sim: &Arc<Sim>, name: impl Into<String>, mem_size: usize) -> Arc<Machine> {
        Self::with_costs(sim, name, mem_size, CostModel::default())
    }

    /// Creates a machine with an explicit cost model.
    pub fn with_costs(
        sim: &Arc<Sim>,
        name: impl Into<String>,
        mem_size: usize,
        costs: CostModel,
    ) -> Arc<Machine> {
        Arc::new(Machine {
            name: name.into(),
            sim: Arc::clone(sim),
            phys: PhysMem::new(mem_size),
            irq: Arc::new(IrqController::new()),
            costs,
            tracer: Tracer::new(),
            faults: FaultInjector::new(),
            clock: AtomicU64::new(0),
        })
    }

    /// This machine's tracer: the per-boundary ledger of every charge.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The mechanical work this machine performed: the sum over every
    /// boundary of [`Machine::tracer`]'s counters.
    pub fn work(&self) -> WorkSnapshot {
        WorkSnapshot::from(&self.tracer.metrics())
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

    /// Advances the CPU clock by `ns` and books `kind` at `boundary`.
    fn charge(&self, boundary: BoundaryId, kind: EventKind, ns: Ns) {
        self.advance(ns);
        self.tracer.record(boundary, kind, self.clock());
    }

    /// Charges a memory copy of `bytes` bytes at `boundary`: advances the
    /// CPU clock and books the copy.
    ///
    /// Every `memcpy` performed by driver, glue, or protocol code calls
    /// this, so the copy counts behind Table 1's send/receive asymmetry
    /// are measured, not asserted.
    pub fn charge_copy_at(&self, boundary: BoundaryId, bytes: usize) {
        let kind = EventKind::Copy {
            bytes: bytes as u64,
        };
        self.charge(boundary, kind, self.costs.copy_ns(bytes));
    }

    /// Charges a scatter-gather hand-off of `bytes` bytes in `fragments`
    /// fragments at `boundary`.
    ///
    /// The CPU programs one DMA descriptor per fragment
    /// ([`CostModel::sg_frag_ns`] each); the bytes themselves are moved
    /// by the gathering hardware, so no copy time and no `bytes_copied`
    /// are charged.  This is what an SG-capable driver pays where a
    /// contiguous-only driver pays [`Machine::charge_copy_at`].
    pub fn charge_gather_at(&self, boundary: BoundaryId, bytes: usize, fragments: usize) {
        let kind = EventKind::Gather {
            bytes: bytes as u64,
        };
        self.charge(boundary, kind, self.costs.sg_frag_ns * fragments as u64);
    }

    /// Charges a checksum pass over `bytes` bytes at `boundary`.
    pub fn charge_checksum_at(&self, boundary: BoundaryId, bytes: usize) {
        let kind = EventKind::Checksum {
            bytes: bytes as u64,
        };
        self.charge(boundary, kind, self.costs.checksum_ns(bytes));
    }

    /// Charges one component-boundary crossing (COM dispatch plus glue
    /// prologue/epilogue) at `boundary` — the per-call price of
    /// separability that dominates Table 2's latency overhead.
    pub fn charge_crossing_at(&self, boundary: BoundaryId) {
        self.charge(boundary, EventKind::Crossing, self.costs.crossing_ns);
    }

    /// Charges one layer of per-packet protocol processing at `boundary`.
    pub fn charge_layer_at(&self, boundary: BoundaryId) {
        self.charge(boundary, EventKind::Layer, self.costs.per_layer_ns);
    }

    /// Charges the fixed cost of taking a hardware interrupt at
    /// `boundary`.
    pub fn charge_irq_at(&self, boundary: BoundaryId) {
        self.charge(boundary, EventKind::Irq, self.costs.irq_ns);
    }

    /// Charges a NIC *receive* interrupt at `boundary`: priced and
    /// counted like [`Machine::charge_irq_at`], and also counted in the
    /// boundary's `rx_irqs`.
    pub fn charge_rx_irq_at(&self, boundary: BoundaryId) {
        self.charge(boundary, EventKind::RxIrq, self.costs.irq_ns);
    }

    /// Charges one budgeted poll dispatch that delivered `frames` frames,
    /// attributed to `boundary`.
    ///
    /// This is the NAPI bargain made explicit in the cost model: the CPU
    /// pays [`CostModel::poll_ns`] once per *batch* where the
    /// interrupt-per-frame path pays [`CostModel::irq_ns`] per *frame*.
    /// The per-frame protocol and glue work is still charged by whoever
    /// consumes the frames — this prices only the dispatch.
    pub fn charge_rx_poll_at(&self, boundary: BoundaryId, frames: u64) {
        self.charge(boundary, EventKind::Poll { frames }, self.costs.poll_ns);
    }

    /// Records a trace event at `boundary` without charging any work —
    /// used for observations that have no cost-model price of their own
    /// (allocations, sleeps, wakeups reported by the osenv).
    pub fn trace_note(&self, boundary: BoundaryId, kind: EventKind) {
        self.tracer.record(boundary, kind, self.clock());
    }

    /// Notes a buffer-cache hit at `boundary`.
    ///
    /// Bookkeeping only: a hit costs no device I/O and no copy, so the
    /// clock is untouched — the whole point of the cache is that the
    /// virtual-time price of the avoided `blkio` read never gets paid.
    pub fn note_cache_hit_at(&self, boundary: BoundaryId) {
        self.tracer.count(boundary, EventKind::CacheHit);
    }

    /// Notes a buffer-cache miss at `boundary` (the fill's device read is
    /// charged by the backing `blkio` itself).
    pub fn note_cache_miss_at(&self, boundary: BoundaryId) {
        self.tracer.count(boundary, EventKind::CacheMiss);
    }

    /// Notes a buffer-cache eviction at `boundary` (any dirty write-back
    /// is charged by the backing `blkio` itself).
    pub fn note_cache_evict_at(&self, boundary: BoundaryId) {
        self.tracer.count(boundary, EventKind::CacheEvict);
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
        m.charge_copy_at(b, 25_000); // 1 ms at 25 MB/s.
        assert_eq!(m.clock(), 1_000_000);
        m.charge_crossing_at(b);
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
            m.charge_copy_at(b, 25_000); // 1 ms at 25 MB/s
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
        m.charge_gather_at(b, 1514, 2);
        let s = m.work();
        // The bytes moved, but nothing was copied by the CPU...
        assert_eq!(s.bytes_gathered, 1514);
        assert_eq!(s.gathers, 1);
        assert_eq!(s.bytes_copied, 0);
        // ...which only cost two descriptor writes of clock time, far
        // below the ~60 µs a 1514-byte copy would have charged.
        assert_eq!(m.clock(), 2 * m.costs.sg_frag_ns);
        assert!(m.clock() < m.costs.copy_ns(1514) / 10);
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
        m.charge_copy_at(a, 100);
        m.charge_copy_at(b, 200);
        m.charge_checksum_at(a, 50);
        m.charge_irq_at(a);
        m.charge_rx_irq_at(b);
        // The aggregate is the sum over boundaries.
        let s = m.work();
        assert_eq!(s.bytes_copied, 300);
        assert_eq!(s.copies, 2);
        assert_eq!(s.bytes_checksummed, 50);
        assert_eq!((s.irqs, s.rx_irqs), (2, 1));
        let bm = *m.tracer().metrics().get("machine-test", "work_a").unwrap();
        assert_eq!((bm.copies, bm.checksums, bm.irqs, bm.rx_irqs), (1, 1, 1, 0));
    }
}
