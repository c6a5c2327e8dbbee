//! The Ethernet NIC model and the wire connecting two machines.
//!
//! Stands in for the paper's "two Pentium Pro 200MHz PCs connected by
//! 100Mbps Ethernet" (§5).  The NIC exposes what driver code actually
//! touches: a receive ring drained at interrupt level and a transmit
//! entry point that DMAs a contiguous frame onto the wire.  The wire
//! charges real Ethernet serialization time — preamble, frame, FCS and
//! inter-frame gap at the configured link rate — per direction.

use crate::machine::Machine;
use crate::sched::Ns;
use oskit_fault::NicTxFault;
use oskit_trace::{BoundaryId, EventKind};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Ethernet framing overhead on the wire: preamble+SFD (8) + FCS (4) +
/// inter-frame gap (12), in bytes.
pub const WIRE_OVERHEAD_BYTES: u64 = 24;

/// Minimum Ethernet frame (without FCS) — short frames are padded.
pub const MIN_FRAME: usize = 60;

/// Maximum Ethernet frame (without FCS): 1500 MTU + 14 header.
pub const MAX_FRAME: usize = 1514;

/// Link parameters.
#[derive(Clone, Copy, Debug)]
pub struct WireConfig {
    /// Link rate in bits per second (100 Mbps in the paper).
    pub bits_per_sec: u64,
    /// One-way propagation + PHY latency in ns.
    pub latency_ns: Ns,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            bits_per_sec: 100_000_000,
            latency_ns: 1_000,
        }
    }
}

impl WireConfig {
    /// Time to serialize a frame of `len` payload bytes onto the wire.
    pub fn serialize_ns(&self, len: usize) -> Ns {
        let on_wire = (len.max(MIN_FRAME) as u64) + WIRE_OVERHEAD_BYTES;
        on_wire * 8 * 1_000_000_000 / self.bits_per_sec
    }
}

/// Hardware receive interrupt-mitigation parameters (what `ethtool -C
/// rx-frames/rx-usecs` programs on a real NIC).
///
/// With coalescing active the NIC holds back the receive interrupt until
/// either `frames` frames are pending on the ring or the link has been
/// quiet — no new frame — for `delay_ns` (a packet timer: each arrival
/// pushes the deadline out, like the e1000's RDTR register).  The delay
/// bound keeps a trickle of traffic from waiting forever; it is also
/// exactly the latency price table2's `--napi` ablation measures on a
/// lone packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RxCoalesce {
    /// Raise the interrupt once this many frames are pending.
    pub frames: usize,
    /// ... or once no new frame has arrived for this long.
    pub delay_ns: Ns,
}

impl Default for RxCoalesce {
    fn default() -> Self {
        // 8 frames or 150 µs of quiet: at full 100 Mbps burst
        // (1514-byte frames every ~123 µs) arrivals keep beating the
        // quiet window, so the frame bound wins and batches run 8 deep —
        // an 8x interrupt reduction; the moment the sender pauses (a
        // lone packet, slow start, the tail of a transfer) the packet
        // timer announces the partial batch within 150 µs, which is the
        // latency price table2's `--napi` row measures.
        RxCoalesce {
            frames: 8,
            delay_ns: 150_000,
        }
    }
}

/// One direction of the full-duplex link.
struct WireDir {
    /// The wire is occupied until this time.
    next_free: Mutex<Ns>,
}

/// The Ethernet NIC device.
pub struct Nic {
    machine: Weak<Machine>,
    mac: [u8; 6],
    irq_line: u8,
    config: WireConfig,
    peer: Mutex<Option<Weak<Nic>>>,
    tx_dir: WireDir,
    rx_ring: Mutex<VecDeque<Vec<u8>>>,
    rx_capacity: usize,
    rx_dropped: AtomicU64,
    /// Frames the driver offered for transmission (includes frames a
    /// wedged transmitter ate).
    tx_offered: AtomicU64,
    /// Frames the transmitter actually serialized onto the wire — the
    /// hardware counter a driver watchdog compares against `tx_offered`
    /// to detect a wedge.
    tx_wire: AtomicU64,
    /// Whether the receive interrupt is armed.  A NAPI-style driver
    /// disarms it on the first frame of a batch and re-arms it only when
    /// the ring runs dry; the classic driver never touches it.
    rx_irq_armed: AtomicBool,
    /// Interrupt-mitigation parameters (None = announce every frame,
    /// the 1997 default).
    rx_coalesce: Mutex<Option<RxCoalesce>>,
    /// Whether the coalesce packet timer is ticking.
    rx_timer_armed: AtomicBool,
    /// Absolute time the packet timer should fire; every accepted frame
    /// pushes it out by `delay_ns` (quiescence detection), so it only
    /// actually fires once the link pauses.
    rx_timer_deadline: AtomicU64,
    /// Frames accepted into the receive ring over the NIC's lifetime.
    rx_enqueued: AtomicU64,
    /// Frames the driver popped off the ring over the NIC's lifetime.
    /// `rx_enqueued`/`rx_popped` both standing still while the ring is
    /// non-empty is the driver watchdog's stalled-ring signal.
    rx_popped: AtomicU64,
    /// The boundary the attached driver's interrupt handler charges at;
    /// see [`Nic::book_frames_at`].
    frame_boundary: OnceLock<BoundaryId>,
}

impl Nic {
    /// Attaches a NIC with the given MAC on IRQ 10, on a default
    /// [`WireConfig`] link.  Frames are lost only by the machine's
    /// [`FaultPlan`](oskit_fault::FaultPlan).
    pub fn new(machine: &Arc<Machine>, mac: [u8; 6]) -> Arc<Nic> {
        Arc::new(Nic {
            machine: Arc::downgrade(machine),
            mac,
            irq_line: crate::irq::lines::ETHER,
            config: WireConfig::default(),
            peer: Mutex::new(None),
            tx_dir: WireDir {
                next_free: Mutex::new(0),
            },
            rx_ring: Mutex::new(VecDeque::new()),
            rx_capacity: 64,
            rx_dropped: AtomicU64::new(0),
            tx_offered: AtomicU64::new(0),
            tx_wire: AtomicU64::new(0),
            rx_irq_armed: AtomicBool::new(true),
            rx_coalesce: Mutex::new(None),
            rx_timer_armed: AtomicBool::new(false),
            rx_timer_deadline: AtomicU64::new(0),
            rx_enqueued: AtomicU64::new(0),
            rx_popped: AtomicU64::new(0),
            frame_boundary: OnceLock::new(),
        })
    }

    /// Books this NIC's received frames on the machine's ledger at the
    /// boundary its driver's interrupt handler charges at — the seam
    /// where the driver services this hardware: every frame queued on the
    /// receive ring counts as `packets_received`.  The first driver to
    /// attach wins; until one does, frames are not booked.
    pub fn book_frames_at(&self, boundary: BoundaryId) {
        let _ = self.frame_boundary.set(boundary);
    }

    /// The station MAC address.
    pub fn mac(&self) -> [u8; 6] {
        self.mac
    }

    /// The IRQ line raised on packet reception.
    pub fn irq_line(&self) -> u8 {
        self.irq_line
    }

    /// Frames dropped because the receive ring was full.
    pub fn rx_dropped(&self) -> u64 {
        self.rx_dropped.load(Ordering::Relaxed)
    }

    /// Connects two NICs back to back (a crossover cable / dedicated
    /// switch port pair).
    pub fn connect(a: &Arc<Nic>, b: &Arc<Nic>) {
        *a.peer.lock() = Some(Arc::downgrade(b));
        *b.peer.lock() = Some(Arc::downgrade(a));
    }

    /// Transmits a contiguous frame (driver → wire).
    ///
    /// The frame leaves when the transmit direction is free; serialization
    /// and propagation delays are charged on the wire, not the CPU (the
    /// NIC DMAs autonomously).  Oversized frames panic — the driver must
    /// respect the MTU, as real hardware would reject them.
    pub fn transmit(&self, frame: &[u8]) {
        self.transmit_assembled(frame.to_vec());
    }

    /// Transmits a frame supplied as a fragment list (driver → wire,
    /// scatter-gather mode).
    ///
    /// The gathering DMA engine walks the descriptors and assembles the
    /// frame on its way onto the wire; like the contiguous [`Nic::transmit`]
    /// path, that movement is the NIC's work, not the CPU's, so no copy is
    /// charged.  Timing on the wire is identical to transmitting the
    /// flattened frame — serialization only sees bytes.
    pub fn transmit_sg(&self, frags: &[&[u8]]) {
        let total: usize = frags.iter().map(|f| f.len()).sum();
        let mut frame = Vec::with_capacity(total);
        for f in frags {
            frame.extend_from_slice(f);
        }
        self.transmit_assembled(frame);
    }

    /// The common tail of both transmit flavors: wire occupancy,
    /// fault injection, and delivery scheduling.
    fn transmit_assembled(&self, frame: Vec<u8>) {
        assert!(
            frame.len() <= MAX_FRAME,
            "frame exceeds MTU: {}",
            frame.len()
        );
        let Some(machine) = self.machine.upgrade() else {
            return;
        };
        self.tx_offered.fetch_add(1, Ordering::Relaxed);
        // Scripted faults: a wedged transmitter eats the frame before it
        // reaches the wire (tx_wire stalls — the watchdog's signal); a
        // dropped frame occupies the wire but never arrives.
        let dropped = match machine.faults().nic_tx_fault(machine.cpu_now()) {
            NicTxFault::Wedged => return,
            NicTxFault::Dropped => true,
            NicTxFault::None => false,
        };
        self.tx_wire.fetch_add(1, Ordering::Relaxed);
        let peer = self.peer.lock().clone();
        let Some(peer) = peer.and_then(|w| w.upgrade()) else {
            return; // Unconnected: frames vanish, like an unplugged cable.
        };
        let start = {
            let mut free = self.tx_dir.next_free.lock();
            let start = (*free).max(machine.cpu_now());
            *free = start + self.config.serialize_ns(frame.len());
            *free
        };
        if dropped {
            return;
        }
        let arrival = start + self.config.latency_ns;
        let sim = Arc::clone(&machine.sim);
        sim.at_abs(arrival, move || peer.wire_deliver(frame));
    }

    /// Frames the driver has offered for transmission, including frames a
    /// wedged transmitter ate.
    pub fn tx_offered(&self) -> u64 {
        self.tx_offered.load(Ordering::Relaxed)
    }

    /// Frames the transmitter actually serialized onto the wire — the
    /// hardware transmit counter.  A driver watchdog that sees
    /// `tx_offered` advance while `tx_wire` stalls has found a wedged
    /// transmitter.
    pub fn tx_wire(&self) -> u64 {
        self.tx_wire.load(Ordering::Relaxed)
    }

    /// Re-initializes the transmitter (the watchdog's recovery action):
    /// clears a wedge in progress so subsequent transmits reach the wire
    /// again.  Frames already eaten stay lost — the protocol retransmits.
    pub fn reset(&self) {
        if let Some(machine) = self.machine.upgrade() {
            machine.faults().nic_reset(machine.cpu_now());
        }
    }

    /// Called by the wire when a frame arrives: queues it on the receive
    /// ring and announces it — immediately, coalesced, or not at all
    /// (interrupt disarmed: the driver is already polling).
    fn wire_deliver(self: &Arc<Self>, frame: Vec<u8>) {
        let Some(machine) = self.machine.upgrade() else {
            return;
        };
        machine.observe(machine.sim.now());
        let pending = {
            let mut ring = self.rx_ring.lock();
            if ring.len() >= self.rx_capacity {
                self.rx_dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ring.push_back(frame);
            ring.len()
        };
        self.rx_enqueued.fetch_add(1, Ordering::Relaxed);
        if let Some(&boundary) = self.frame_boundary.get() {
            machine.book(boundary, EventKind::PacketReceived);
        }
        if !self.rx_irq_armed.load(Ordering::Relaxed) {
            // The driver disarmed the interrupt and is draining the ring
            // by polling; it will find this frame without being told.
            return;
        }
        let coalesce = *self.rx_coalesce.lock();
        match coalesce {
            // No mitigation: announce every frame, as in 1997.  A lost
            // interrupt leaves the frame on the ring; the handler drains
            // the whole ring on the next delivered edge.
            None => self.raise_rx_irq(&machine),
            Some(c) => {
                // Every arrival pushes the quiescence deadline out.
                self.rx_timer_deadline
                    .store(machine.sim.now() + c.delay_ns, Ordering::Relaxed);
                if pending >= c.frames {
                    // Batch full: announce now.  If this edge is lost,
                    // the next arrival re-raises (pending stays over the
                    // bound), the packet timer announces a paused link,
                    // and the driver's rx watchdog backstops both.
                    self.raise_rx_irq(&machine);
                } else if !self.rx_timer_armed.swap(true, Ordering::Relaxed) {
                    // First frame of a batch: start the packet timer.
                    let weak = Arc::downgrade(self);
                    machine.sim.at(c.delay_ns, move || {
                        if let Some(nic) = weak.upgrade() {
                            nic.rx_coalesce_fire();
                        }
                    });
                }
            }
        }
    }

    /// The coalesce packet timer: if frames kept arriving the deadline
    /// has moved — chase it; once the link has actually been quiet for
    /// the programmed delay, announce whatever has accumulated, unless
    /// the driver got there first.
    fn rx_coalesce_fire(self: &Arc<Self>) {
        let Some(machine) = self.machine.upgrade() else {
            return;
        };
        let now = machine.sim.now();
        let deadline = self.rx_timer_deadline.load(Ordering::Relaxed);
        if now < deadline {
            let weak = Arc::downgrade(self);
            machine.sim.at(deadline - now, move || {
                if let Some(nic) = weak.upgrade() {
                    nic.rx_coalesce_fire();
                }
            });
            return;
        }
        self.rx_timer_armed.store(false, Ordering::Relaxed);
        machine.observe(now);
        if self.rx_irq_armed.load(Ordering::Relaxed) && !self.rx_ring.lock().is_empty() {
            self.raise_rx_irq(&machine);
        }
    }

    /// Raises the receive interrupt, subject to injected interrupt loss.
    fn raise_rx_irq(&self, machine: &Arc<Machine>) {
        if machine.faults().irq_lost(self.irq_line) {
            return;
        }
        machine.irq.raise(self.irq_line);
    }

    /// Programs the receive interrupt-mitigation registers (None turns
    /// mitigation off).  Called by the driver at open time.
    pub fn set_rx_coalesce(&self, c: Option<RxCoalesce>) {
        *self.rx_coalesce.lock() = c;
    }

    /// Disarms the receive interrupt (NAPI driver entering poll mode).
    /// Frames continue to accumulate on the ring silently.
    pub fn rx_irq_disable(&self) {
        self.rx_irq_armed.store(false, Ordering::Relaxed);
    }

    /// Re-arms the receive interrupt (NAPI driver leaving poll mode).
    ///
    /// If frames raced onto the ring while the interrupt was disarmed,
    /// the NIC announces them immediately — this closes the classic
    /// re-arm race where a frame lands between the driver's last
    /// `rx_pop` and the write that re-enables the interrupt.
    pub fn rx_irq_enable(self: &Arc<Self>) {
        self.rx_irq_armed.store(true, Ordering::Relaxed);
        let Some(machine) = self.machine.upgrade() else {
            return;
        };
        if !self.rx_ring.lock().is_empty() {
            self.raise_rx_irq(&machine);
        }
    }

    /// Whether the receive interrupt is armed.
    pub fn rx_irq_armed(&self) -> bool {
        self.rx_irq_armed.load(Ordering::Relaxed)
    }

    /// Frames currently pending on the receive ring.
    pub fn rx_pending(&self) -> usize {
        self.rx_ring.lock().len()
    }

    /// Lifetime count of frames accepted into the receive ring.
    pub fn rx_enqueued(&self) -> u64 {
        self.rx_enqueued.load(Ordering::Relaxed)
    }

    /// Lifetime count of frames the driver popped off the ring.
    pub fn rx_popped(&self) -> u64 {
        self.rx_popped.load(Ordering::Relaxed)
    }

    /// Pops the next received frame from the ring (driver, at interrupt
    /// level).
    pub fn rx_pop(&self) -> Option<Vec<u8>> {
        let f = self.rx_ring.lock().pop_front();
        if f.is_some() {
            self.rx_popped.fetch_add(1, Ordering::Relaxed);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Sim, SleepRecord};

    fn pair(sim: &Arc<Sim>) -> (Arc<Machine>, Arc<Nic>, Arc<Machine>, Arc<Nic>) {
        let ma = Machine::new(sim, "a", 4096);
        let mb = Machine::new(sim, "b", 4096);
        let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
        let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
        Nic::connect(&na, &nb);
        (ma, na, mb, nb)
    }

    #[test]
    fn frame_crosses_the_wire_and_raises_irq() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        let nb2 = Arc::clone(&nb);
        mb.irq.install(nb.irq_line(), move |_| {
            while let Some(f) = nb2.rx_pop() {
                g2.lock().push(f);
            }
        });
        mb.irq.enable();
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            na2.transmit(&[0xAA; 100]);
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 1_000_000);
        });
        sim.run();
        let got = got.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], vec![0xAA; 100]);
    }

    #[test]
    fn serialization_time_matches_100mbps() {
        let cfg = WireConfig::default();
        // A 1514-byte frame: (1514+24)*8 bits at 100 Mbps = 123.04 µs.
        assert_eq!(cfg.serialize_ns(1514), 123_040);
        // Short frames are padded to the 60-byte minimum.
        assert_eq!(cfg.serialize_ns(1), cfg.serialize_ns(60));
    }

    #[test]
    fn back_to_back_frames_queue_on_the_wire() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        let times = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&times);
        let nb2 = Arc::clone(&nb);
        let mb2 = Arc::clone(&mb);
        mb.irq.install(nb.irq_line(), move |_| {
            while nb2.rx_pop().is_some() {
                t2.lock().push(mb2.sim.now());
            }
        });
        mb.irq.enable();
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            na2.transmit(&[0; 1514]);
            na2.transmit(&[0; 1514]);
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        let times = times.lock();
        assert_eq!(times.len(), 2);
        // Second frame arrives one serialization time after the first.
        assert_eq!(
            times[1] - times[0],
            WireConfig::default().serialize_ns(1514)
        );
    }

    #[test]
    fn sg_transmit_gathers_fragments_onto_the_wire() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        let nb2 = Arc::clone(&nb);
        mb.irq.install(nb.irq_line(), move |_| {
            while let Some(f) = nb2.rx_pop() {
                g2.lock().push(f);
            }
        });
        mb.irq.enable();
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            na2.transmit_sg(&[&[0x11; 14], &[0x22; 100], &[0x33; 6]]);
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 1_000_000);
        });
        sim.run();
        let got = got.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].len(), 120);
        assert_eq!(&got[0][..14], &[0x11; 14]);
        assert_eq!(&got[0][14..114], &[0x22; 100]);
        assert_eq!(&got[0][114..], &[0x33; 6]);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_sg_frame_is_rejected() {
        let sim = Sim::new();
        let (_ma, na, _mb, _nb) = pair(&sim);
        na.transmit_sg(&[&[0; 1000], &[0; 1000]]);
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        // No handler installed and interrupts disabled on b: ring fills.
        let _ = mb;
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            for _ in 0..100 {
                na2.transmit(&[0; 64]);
            }
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 100_000_000);
        });
        sim.run();
        assert_eq!(nb.rx_dropped(), 36); // 100 - 64 ring slots.
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_frame_is_rejected() {
        let sim = Sim::new();
        let (_ma, na, _mb, _nb) = pair(&sim);
        na.transmit(&[0; 2000]);
    }

    #[test]
    fn coalescing_batches_interrupts_at_the_frame_bound() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        nb.set_rx_coalesce(Some(RxCoalesce {
            frames: 4,
            delay_ns: 1_000_000_000, // Effectively never: frame bound wins.
        }));
        let irqs = Arc::new(AtomicU64::new(0));
        let i2 = Arc::clone(&irqs);
        let nb2 = Arc::clone(&nb);
        mb.irq.install(nb.irq_line(), move |_| {
            i2.fetch_add(1, Ordering::Relaxed);
            while nb2.rx_pop().is_some() {}
        });
        mb.irq.enable();
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            for _ in 0..8 {
                na2.transmit(&[0; 200]);
            }
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        // 8 back-to-back frames, announced every 4th: two interrupts.
        assert_eq!(irqs.load(Ordering::Relaxed), 2);
        assert_eq!(nb.rx_popped(), 8);
    }

    #[test]
    fn coalescing_delay_bound_announces_a_lone_frame() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        nb.set_rx_coalesce(Some(RxCoalesce {
            frames: 64,
            delay_ns: 300_000,
        }));
        let seen_at = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&seen_at);
        let nb2 = Arc::clone(&nb);
        let mb2 = Arc::clone(&mb);
        mb.irq.install(nb.irq_line(), move |_| {
            while nb2.rx_pop().is_some() {
                t2.lock().push(mb2.sim.now());
            }
        });
        mb.irq.enable();
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            na2.transmit(&[0; 100]);
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        let seen_at = seen_at.lock();
        assert_eq!(seen_at.len(), 1);
        // The frame waited the full delay bound (arrival + 300 µs).
        let arrival = WireConfig::default().serialize_ns(100) + WireConfig::default().latency_ns;
        assert_eq!(seen_at[0], arrival + 300_000);
    }

    #[test]
    fn disarmed_rx_irq_stays_silent_and_rearm_announces_backlog() {
        let sim = Sim::new();
        let (_ma, na, mb, nb) = pair(&sim);
        let irqs = Arc::new(AtomicU64::new(0));
        let i2 = Arc::clone(&irqs);
        mb.irq.install(nb.irq_line(), move |_| {
            i2.fetch_add(1, Ordering::Relaxed);
        });
        mb.irq.enable();
        nb.rx_irq_disable();
        let s2 = Arc::clone(&sim);
        let na2 = Arc::clone(&na);
        sim.spawn("tx", move || {
            na2.transmit(&[0; 100]);
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        // Frame arrived silently...
        assert_eq!(irqs.load(Ordering::Relaxed), 0);
        assert_eq!(nb.rx_pending(), 1);
        // ...and re-arming announces the backlog immediately.
        nb.rx_irq_enable();
        assert_eq!(irqs.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unconnected_nic_drops_silently() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "solo", 4096);
        let n = Nic::new(&m, [2, 0, 0, 0, 0, 9]);
        n.transmit(&[1, 2, 3, 4]); // Must not panic.
    }
}
