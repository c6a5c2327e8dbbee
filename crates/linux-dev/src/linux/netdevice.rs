//! The Linux 2.0 network-device model and a LANCE-style Ethernet driver,
//! in donor idiom.
//!
//! A `NetDevice` is `struct device` (later `net_device`): `open` hooks the
//! interrupt, `hard_start_xmit` hands a contiguous [`SkBuff`] to the
//! hardware, and received frames flow up through `netif_rx` to whatever
//! packet handler is registered (in the OSKit that handler is the glue).

use super::skbuff::SkBuff;
use oskit_machine::{boundary, EventKind, Nic};
use oskit_osenv::OsEnv;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// `NETIF_F_SG`: the device accepts fragment-list skbuffs and gathers
/// them with DMA — the capability bit that makes the Table 1 send-path
/// copy avoidable.  Off by default, as on the paper's 1997-era hardware.
pub const NETIF_F_SG: u32 = 1;

/// `NETIF_F_NAPI`: the device runs the NAPI-style receive path —
/// interrupt mitigation in hardware plus a budgeted softirq poll loop in
/// the driver — instead of one interrupt per frame.  Off by default (the
/// paper's receive path is interrupt-per-frame).
pub const NETIF_F_NAPI: u32 = 2;

/// Ethernet protocol numbers (host byte order).
pub mod eth_p {
    /// IPv4.
    pub const IP: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
}

/// Length of an Ethernet header.
pub const ETH_HLEN: usize = 14;

type RxHandler = Arc<dyn Fn(SkBuff) + Send + Sync>;

/// The network device.
pub struct NetDevice {
    /// Interface name ("eth0").
    pub name: String,
    /// Station address (`dev->dev_addr`).
    pub dev_addr: [u8; 6],
    /// Interface MTU.
    pub mtu: usize,
    env: Arc<OsEnv>,
    hw: Arc<Nic>,
    /// `dev->features` capability bits ([`NETIF_F_SG`]).
    features: AtomicU32,
    rx_handler: Mutex<Option<RxHandler>>,
    opened: Mutex<bool>,
    /// Offered-vs-wire gap the watchdog has already answered with a
    /// reset, so old losses never re-trigger.
    watchdog_gap: AtomicU64,
    /// Whether a NAPI poll is scheduled or running (`NAPI_STATE_SCHED`).
    /// While set, the rx interrupt is disarmed and arrivals accumulate
    /// silently for the poll loop to find.
    napi_scheduled: AtomicBool,
    /// Frames one `napi_poll` invocation may deliver before it must
    /// yield and reschedule itself (the softirq livelock guard).
    napi_budget: AtomicUsize,
    /// `(rx_enqueued, rx_popped)` hardware counters at the last rx
    /// watchdog tick; both standing still across a full period while
    /// frames sit on the ring means the announcing interrupt was lost.
    rx_watchdog_mark: Mutex<(u64, u64)>,
}

impl NetDevice {
    /// Creates the device bound to its hardware (driver `probe`).
    pub fn new(name: impl Into<String>, env: &Arc<OsEnv>, hw: Arc<Nic>) -> Arc<NetDevice> {
        hw.book_frames_at(boundary!("linux-dev", "net_intr"));
        Arc::new(NetDevice {
            name: name.into(),
            dev_addr: hw.mac(),
            mtu: 1500,
            env: Arc::clone(env),
            hw,
            features: AtomicU32::new(0),
            rx_handler: Mutex::new(None),
            opened: Mutex::new(false),
            watchdog_gap: AtomicU64::new(0),
            napi_scheduled: AtomicBool::new(false),
            napi_budget: AtomicUsize::new(Self::NAPI_BUDGET),
            rx_watchdog_mark: Mutex::new((0, 0)),
        })
    }

    /// Enables capability bits (e.g. [`NETIF_F_SG`]) — the runtime knob
    /// an SG-capable driver variant sets at probe time.
    pub fn set_features(&self, bits: u32) {
        self.features.fetch_or(bits, Ordering::Relaxed);
    }

    /// Whether every bit in `bits` is enabled.
    pub fn has_feature(&self, bits: u32) -> bool {
        self.features.load(Ordering::Relaxed) & bits == bits
    }

    /// Registers the upper-layer packet handler (`dev_add_pack`); frames
    /// delivered before a handler exists are dropped, as in Linux.
    pub fn set_rx_handler(&self, h: impl Fn(SkBuff) + Send + Sync + 'static) {
        *self.rx_handler.lock() = Some(Arc::new(h));
    }

    /// Whether this device runs the NAPI receive path: it set
    /// [`NETIF_F_NAPI`].
    pub fn napi_active(&self) -> bool {
        self.has_feature(NETIF_F_NAPI)
    }

    /// Overrides the per-poll frame budget (clamped to at least 1) —
    /// a test knob; the default is [`NetDevice::NAPI_BUDGET`].
    pub fn set_napi_budget(&self, budget: usize) {
        self.napi_budget.store(budget.max(1), Ordering::Relaxed);
    }

    /// `dev->open()`: hooks the receive interrupt and starts the
    /// interface.  A NAPI device additionally programs the NIC's
    /// interrupt-mitigation registers and starts the rx watchdog.
    pub fn open(self: &Arc<Self>) {
        {
            let mut opened = self.opened.lock();
            if *opened {
                return;
            }
            *opened = true;
        }
        let napi = self.napi_active();
        // Weak: the machine owns the handler (see `IdeDrive::new`).
        let weak: Weak<NetDevice> = Arc::downgrade(self);
        let machine = Arc::downgrade(&self.env.machine);
        self.env.machine.irq.install(self.hw.irq_line(), move |_| {
            let (Some(dev), Some(machine)) = (weak.upgrade(), machine.upgrade()) else {
                return;
            };
            machine.book(boundary!("linux-dev", "net_intr"), EventKind::RxIrq);
            if napi {
                dev.napi_schedule();
            } else {
                dev.rx_interrupt();
            }
        });
        if napi {
            self.hw
                .set_rx_coalesce(Some(oskit_machine::RxCoalesce::default()));
            self.start_rx_watchdog();
        }
    }

    /// The receive interrupt: drains the hardware ring.  "When a Linux
    /// network driver receives a packet from the hardware, it reads it
    /// into a contiguous skbuff and then passes it up" (§4.7.3).  The NIC
    /// DMAs the frame, so no CPU copy is charged here.
    fn rx_interrupt(self: &Arc<Self>) {
        while let Some(frame) = self.hw.rx_pop() {
            self.deliver_frame(frame);
        }
    }

    /// Default frames-per-poll budget (`netdev_budget` era value, scaled
    /// to the 64-slot ring).
    pub const NAPI_BUDGET: usize = 16;

    /// Period of the NAPI rx watchdog, the lost-interrupt safety net.
    const RX_WATCHDOG_NS: u64 = 5_000_000;

    /// `napi_schedule`: called from the receive ISR (or the rx watchdog).
    /// Disarms the rx interrupt and queues the poll — the interrupt half
    /// of NAPI's "switch to polling under load".  Idempotent while a poll
    /// is already scheduled, exactly like `NAPI_STATE_SCHED`.
    pub fn napi_schedule(self: &Arc<Self>) {
        if self.napi_scheduled.swap(true, Ordering::Relaxed) {
            return;
        }
        self.hw.rx_irq_disable();
        let weak = Arc::downgrade(self);
        self.env.machine.at_cpu(0, move |_| {
            if let Some(dev) = weak.upgrade() {
                dev.napi_poll();
            }
        });
    }

    /// The budgeted poll (`dev->poll`): delivers up to `napi_budget`
    /// frames from the ring.  If the ring still has frames when the
    /// budget runs out, the poll *reschedules itself* with the interrupt
    /// still disarmed — the livelock guard: receive work can saturate
    /// the CPU but can never re-enter it from interrupt context.  Only
    /// when the ring runs dry is the interrupt re-armed.
    fn napi_poll(self: &Arc<Self>) {
        let b = boundary!("linux-dev", "net_rx_poll");
        let budget = self.napi_budget.load(Ordering::Relaxed);
        let mut frames = 0;
        while frames < budget {
            let Some(frame) = self.hw.rx_pop() else { break };
            self.deliver_frame(frame);
            frames += 1;
        }
        self.env.machine.book(b, EventKind::Poll { frames });
        if self.hw.rx_pending() > 0 {
            let weak = Arc::downgrade(self);
            self.env.machine.at_cpu(0, move |_| {
                if let Some(dev) = weak.upgrade() {
                    dev.napi_poll();
                }
            });
        } else {
            // `napi_complete`: leave poll mode, then re-arm.  The NIC
            // re-raises immediately if a frame raced in, which re-enters
            // `napi_schedule` through the ISR — ordering matters here.
            self.napi_scheduled.store(false, Ordering::Relaxed);
            self.hw.rx_irq_enable();
        }
    }

    /// The rx watchdog: a periodic check that frames sitting on the ring
    /// are actually being announced.  If a full period passes with frames
    /// pending, no poll in flight, and neither hardware counter moving,
    /// the announcing (coalesced) interrupt was lost — force a poll, so a
    /// lost edge costs at most one watchdog period, not a TCP timeout.
    fn start_rx_watchdog(self: &Arc<Self>) {
        let weak = Arc::downgrade(self);
        let machine = Arc::clone(&self.env.machine);
        let sim = Arc::clone(&machine.sim);
        sim.at(Self::RX_WATCHDOG_NS, move || {
            let Some(dev) = weak.upgrade() else { return };
            let mark = (dev.hw.rx_enqueued(), dev.hw.rx_popped());
            let stalled = {
                let mut last = dev.rx_watchdog_mark.lock();
                let stalled = dev.hw.rx_pending() > 0
                    && !dev.napi_scheduled.load(Ordering::Relaxed)
                    && *last == mark;
                *last = mark;
                stalled
            };
            if stalled {
                machine.observe(machine.sim.now());
                machine.faults().note_rx_timeout_poll();
                dev.napi_schedule();
            }
            dev.start_rx_watchdog();
        });
    }

    /// Processes one received frame (split out for tests).
    pub fn deliver_frame(&self, frame: Vec<u8>) {
        // `dev_alloc_skb(GFP_ATOMIC)` — at interrupt level the allocation
        // may fail, and the donor answer is to drop the frame and count
        // it; the sender's retransmit machinery does the rest.
        if self.env.machine.faults().alloc_fail(true) {
            self.env.machine.faults().note_pkt_alloc_drop();
            return;
        }
        let mut skb = SkBuff::from_vec(frame);
        if skb.len() < ETH_HLEN {
            return;
        }
        // eth_type_trans: record the protocol, leave the header in place
        // for the upper layer to strip.
        skb.protocol = skb.with_data(|d| u16::from_be_bytes([d[12], d[13]]));
        self.netif_rx(skb);
    }

    /// `netif_rx`: hands a frame to the upper layer, or drops it if no
    /// handler is registered.
    ///
    /// The handler runs *outside* the `rx_handler` lock: handlers
    /// re-enter the device (a protocol that transmits a reply which a
    /// loopback wire delivers straight back arrives here recursively),
    /// and invoking under the lock deadlocks on that re-entry.
    pub fn netif_rx(&self, skb: SkBuff) {
        let handler = self.rx_handler.lock().clone();
        if let Some(h) = handler {
            h(skb);
        }
    }

    /// `dev->hard_start_xmit()`: transmits one frame.  On the classic
    /// path the hardware wants one contiguous buffer — which an skbuff by
    /// construction is; mapped "fake" skbuffs read through their mapping
    /// with no copy.  A fragment-list skbuff instead takes the
    /// [`NETIF_F_SG`] path: the driver walks `skb_shinfo->frags` and
    /// programs one gather descriptor per fragment, charging descriptor
    /// writes (a `gather`), never a copy.
    pub fn hard_start_xmit(&self, skb: &SkBuff) {
        if skb.is_sg() {
            assert!(
                self.has_feature(NETIF_F_SG),
                "sg skb on non-sg device {}",
                self.name
            );
            assert!(
                skb.len() <= self.mtu + ETH_HLEN,
                "oversized frame for {}",
                self.name
            );
            skb.with_frags(|frags| {
                let parts: Vec<&[u8]> = frags.iter().map(|fr| fr.data).collect();
                self.env.machine.book(
                    boundary!("linux-dev", "ether_tx"),
                    EventKind::Gather {
                        bytes: skb.len(),
                        fragments: parts.len(),
                    },
                );
                self.hw.transmit_sg(&parts);
            });
            self.tx_watchdog();
        } else {
            skb.with_data(|d| self.xmit_frame(d));
        }
    }

    /// How many frames the transmitter may eat before the watchdog
    /// declares it wedged — a few, since a healthy LANCE never eats any.
    const WATCHDOG_THRESHOLD: u64 = 3;

    /// `dev_watchdog` / `tx_timeout`: compares frames offered to the
    /// hardware against frames that actually made the wire.  A growing
    /// gap means the transmitter has wedged; the cure — then as now — is
    /// to reset the device.  The eaten frames are lost (TCP retransmits
    /// them) and the fault ledger counts the reset; the driver never
    /// panics.
    fn tx_watchdog(&self) {
        let gap = self.hw.tx_offered().saturating_sub(self.hw.tx_wire());
        let seen = self.watchdog_gap.load(Ordering::Relaxed);
        if gap.saturating_sub(seen) >= Self::WATCHDOG_THRESHOLD
            && self
                .watchdog_gap
                .compare_exchange(seen, gap, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.hw.reset();
            self.env.machine.faults().note_tx_watchdog_reset();
        }
    }

    /// The contiguous tail of [`NetDevice::hard_start_xmit`]: hands one
    /// already-flat frame to the hardware.  Public so glue code holding a
    /// mapped foreign frame can transmit inside its own single mapping.
    pub fn xmit_frame(&self, frame: &[u8]) {
        assert!(
            frame.len() <= self.mtu + ETH_HLEN,
            "oversized frame for {}",
            self.name
        );
        self.hw.transmit(frame);
        self.tx_watchdog();
    }

    /// Builds and transmits an Ethernet frame around `payload`
    /// (`eth_header` + xmit): the convenience used by the mini stack.
    pub fn xmit_ether(&self, dst: [u8; 6], proto: u16, payload: &[u8]) {
        let mut skb = SkBuff::alloc(ETH_HLEN + payload.len());
        skb.reserve(ETH_HLEN);
        skb.put(payload.len()).copy_from_slice(payload);
        let hdr = skb.push(ETH_HLEN);
        hdr[0..6].copy_from_slice(&dst);
        hdr[6..12].copy_from_slice(&self.dev_addr);
        hdr[12..14].copy_from_slice(&proto.to_be_bytes());
        self.hard_start_xmit(&skb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::{Machine, Sim, SleepRecord};

    fn two_devices() -> (Arc<Sim>, Arc<NetDevice>, Arc<NetDevice>) {
        let sim = Sim::new();
        let ma = Machine::new(&sim, "a", 1 << 20);
        let mb = Machine::new(&sim, "b", 1 << 20);
        let na = Nic::new(&ma, [2, 0, 0, 0, 0, 0xA]);
        let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 0xB]);
        Nic::connect(&na, &nb);
        let ea = OsEnv::new(&ma);
        let eb = OsEnv::new(&mb);
        let da = NetDevice::new("eth0", &ea, na);
        let db = NetDevice::new("eth0", &eb, nb);
        da.open();
        db.open();
        ma.irq.enable();
        mb.irq.enable();
        (sim, da, db)
    }

    #[test]
    fn frame_flows_driver_to_driver() {
        let (sim, da, db) = two_devices();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        db.set_rx_handler(move |skb| {
            g2.lock().push((skb.protocol, skb.to_vec()));
        });
        let s2 = Arc::clone(&sim);
        let da2 = Arc::clone(&da);
        let dst = db.dev_addr;
        sim.spawn("tx", move || {
            da2.xmit_ether(dst, eth_p::IP, b"payload-bytes");
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        let got = got.lock();
        assert_eq!(got.len(), 1);
        let (proto, frame) = &got[0];
        assert_eq!(*proto, eth_p::IP);
        assert_eq!(&frame[0..6], &db.dev_addr);
        assert_eq!(&frame[6..12], &da.dev_addr);
        assert_eq!(&frame[ETH_HLEN..], b"payload-bytes");
    }

    #[test]
    fn sg_device_transmits_fragment_skbs_without_copying() {
        let (sim, da, db) = two_devices();
        da.set_features(NETIF_F_SG);
        assert!(da.has_feature(NETIF_F_SG));
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        db.set_rx_handler(move |skb| g2.lock().push(skb.to_vec()));
        let s2 = Arc::clone(&sim);
        let da2 = Arc::clone(&da);
        sim.spawn("tx", move || {
            let b = oskit_com::interfaces::blkio::VecBufIo::from_vec(vec![0x5A; 80]);
            let skb = crate::linux::skbuff::SkBuff::fake_sg(b, 80).unwrap();
            da2.hard_start_xmit(&skb);
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        assert_eq!(got.lock().len(), 1);
        assert_eq!(got.lock()[0], vec![0x5A; 80]);
    }

    #[test]
    #[should_panic(expected = "sg skb on non-sg device")]
    fn non_sg_device_rejects_fragment_skbs() {
        let (_sim, da, _db) = two_devices();
        let b = oskit_com::interfaces::blkio::VecBufIo::from_vec(vec![0u8; 8]);
        let skb = crate::linux::skbuff::SkBuff::fake_sg(b, 8).unwrap();
        da.hard_start_xmit(&skb);
    }

    #[test]
    fn frames_without_handler_are_dropped() {
        let (sim, da, db) = two_devices();
        let s2 = Arc::clone(&sim);
        let da2 = Arc::clone(&da);
        let dst = db.dev_addr;
        sim.spawn("tx", move || {
            da2.xmit_ether(dst, eth_p::IP, b"x");
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        // The NIC queued the frame and the driver took it off the ring,
        // with nowhere to hand it.
        assert_eq!(db.env.machine.work().packets_received, 1);
        assert_eq!(db.hw.rx_pending(), 0);
    }

    #[test]
    fn netif_rx_handler_may_reenter_delivery() {
        // Regression: the rx handler used to run under the `rx_handler`
        // mutex, so a handler that triggered another delivery on the same
        // stack (transmit + loopback arrival) deadlocked right here.
        let (_sim, _da, db) = two_devices();
        let db2 = Arc::downgrade(&db);
        let seen = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&seen);
        db.set_rx_handler(move |skb| {
            s2.fetch_add(1, Ordering::Relaxed);
            if skb.protocol == eth_p::IP {
                // A reply that the wire loops straight back to us.
                let mut reply = vec![0u8; 60];
                reply[12..14].copy_from_slice(&eth_p::ARP.to_be_bytes());
                if let Some(dev) = db2.upgrade() {
                    dev.deliver_frame(reply);
                }
            }
        });
        let mut frame = vec![0u8; 60];
        frame[12..14].copy_from_slice(&eth_p::IP.to_be_bytes());
        db.deliver_frame(frame);
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn napi_device_batches_frames_under_fewer_irqs() {
        let sim = Sim::new();
        let ma = Machine::new(&sim, "a", 1 << 20);
        let mb = Machine::new(&sim, "b", 1 << 20);
        let na = Nic::new(&ma, [2, 0, 0, 0, 0, 0xA]);
        let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 0xB]);
        Nic::connect(&na, &nb);
        let ea = OsEnv::new(&ma);
        let eb = OsEnv::new(&mb);
        let da = NetDevice::new("eth0", &ea, na);
        let db = NetDevice::new("eth0", &eb, nb);
        db.set_features(NETIF_F_NAPI);
        da.open();
        db.open();
        ma.irq.enable();
        mb.irq.enable();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        db.set_rx_handler(move |skb| g2.lock().push(skb.to_vec()));
        let s2 = Arc::clone(&sim);
        let da2 = Arc::clone(&da);
        let dst = db.dev_addr;
        sim.spawn("tx", move || {
            for i in 0..16u8 {
                da2.xmit_ether(dst, eth_p::IP, &[i; 64]);
            }
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 50_000_000);
        });
        sim.run();
        let got = got.lock();
        assert_eq!(got.len(), 16);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(&f[ETH_HLEN..], &[i as u8; 64]);
        }
        let m = mb.work();
        // Mitigation + polling: strictly fewer interrupts than frames,
        // and every frame accounted to a poll batch.
        assert!(m.rx_irqs < 16, "rx_irqs = {}", m.rx_irqs);
        assert!(m.polls > 0);
        assert_eq!(m.poll_frames, 16);
    }

    #[test]
    fn napi_budget_exhaustion_reschedules_until_ring_is_dry() {
        let (sim, da, dev) = two_devices();
        dev.set_features(NETIF_F_NAPI);
        dev.set_napi_budget(2);
        let got = Arc::new(AtomicU64::new(0));
        let g2 = Arc::clone(&got);
        dev.set_rx_handler(move |_| {
            g2.fetch_add(1, Ordering::Relaxed);
        });
        // Pile 11 frames on the ring with the interrupt disarmed, then
        // schedule one poll: it must chew through all of them in
        // budget-sized bites without a fresh interrupt.
        dev.hw.rx_irq_disable();
        let s2 = Arc::clone(&sim);
        let da2 = Arc::clone(&da);
        let dev2 = Arc::clone(&dev);
        let dst = dev.dev_addr;
        sim.spawn("tx", move || {
            for i in 0..11u8 {
                da2.xmit_ether(dst, eth_p::IP, &[i; 46]);
            }
            let rec = Arc::new(SleepRecord::new());
            // All 11 are on the wire within ~1 ms; they accumulated
            // silently because the interrupt is disarmed.
            let _ = rec.wait_timeout(&s2, 1_000_000);
            assert_eq!(dev2.hw.rx_pending(), 11);
            dev2.napi_schedule();
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        assert_eq!(got.load(Ordering::Relaxed), 11);
        let s = dev.env.machine.work();
        // ceil(11 / 2) = 6 polls: five full batches and the final dry run.
        assert_eq!(s.polls, 6);
        assert_eq!(s.poll_frames, 11);
        // The ring is dry, so the interrupt is armed again.
        assert!(dev.hw.rx_irq_armed());
    }

    #[test]
    fn runt_frames_are_dropped() {
        let (_sim, _da, db) = two_devices();
        db.set_rx_handler(move |_| panic!("runt delivered"));
        db.deliver_frame(vec![0u8; 10]);
    }
}
