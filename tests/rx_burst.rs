//! Deterministic receive-burst soak for the driver rx path, run in both
//! receive modes: classic interrupt-per-frame and NAPI (NIC interrupt
//! mitigation + budgeted polling, `NETIF_F_NAPI`).
//!
//! The battery asserts the properties the NAPI ablation rests on:
//! byte-exact in-order delivery in both modes, `rx_dropped` bounded by
//! (and only by) ring overflow, and — under burst load — strictly fewer
//! receive interrupts than frames, by a wide margin.

use oskit::linux_dev::{NetDevice, NETIF_F_NAPI};
use oskit::machine::{Machine, Nic, Sim, SleepRecord, WorkSnapshot};
use oskit::osenv::OsEnv;
use parking_lot::Mutex;
use std::sync::Arc;

const ETH_HLEN: usize = 14;
const ETH_P_IP: u16 = 0x0800;

/// Tiny deterministic LCG so every run sends the identical frame stream.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// The seeded burst: `n` payloads of mixed small sizes (46..=200 B), so
/// frames serialize quickly and the NIC's frame-count coalesce bound —
/// not the delay bound — dominates at full burst.
fn burst_payloads(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut lcg = Lcg(seed);
    (0..n)
        .map(|_| {
            let len = 46 + (lcg.next() as usize % 155);
            (0..len).map(|_| lcg.next() as u8).collect()
        })
        .collect()
}

struct RigResult {
    /// Payloads delivered to the receiver's rx handler, in order.
    got: Vec<Vec<u8>>,
    /// Receiver machine work meter.
    meter: WorkSnapshot,
    /// Frames the receiver NIC dropped on ring overflow.
    nic_dropped: u64,
    /// Frames the receiver *device* dropped (handler/alloc level).
    dev_dropped: u64,
}

/// Boots a two-machine rig, blasts `payloads` from a to b (back-to-back
/// within each burst, `gap_ns` of idle wire between bursts of
/// `burst_len`), and returns what b's rx handler saw.
fn run_burst(napi: bool, payloads: Vec<Vec<u8>>, burst_len: usize, gap_ns: u64) -> RigResult {
    let sim = Sim::new();
    let ma = Machine::new(&sim, "a", 1 << 20);
    let mb = Machine::new(&sim, "b", 1 << 20);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 0xA]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 0xB]);
    Nic::connect(&na, &nb);
    let ea = OsEnv::new(&ma);
    let eb = OsEnv::new(&mb);
    let da = NetDevice::new("eth0", &ea, na);
    let db = NetDevice::new("eth0", &eb, Arc::clone(&nb));
    if napi {
        db.set_features(NETIF_F_NAPI);
    }
    da.open();
    db.open();
    ma.irq.enable();
    mb.irq.enable();
    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = Arc::clone(&got);
    db.set_rx_handler(move |skb| g2.lock().push(skb.to_vec()[ETH_HLEN..].to_vec()));
    let s2 = Arc::clone(&sim);
    let da2 = Arc::clone(&da);
    let dst = db.dev_addr;
    sim.spawn("tx", move || {
        let rec = Arc::new(SleepRecord::new());
        for (i, p) in payloads.iter().enumerate() {
            if i > 0 && i % burst_len == 0 && gap_ns > 0 {
                let _ = rec.wait_timeout(&s2, gap_ns);
            }
            da2.xmit_ether(dst, ETH_P_IP, p);
        }
        // Long enough for any coalesce delay (400 µs) and the rx
        // watchdog to have done whatever they are going to do.
        let _ = rec.wait_timeout(&s2, 50_000_000);
    });
    sim.run();
    let got = got.lock().clone();
    RigResult {
        got,
        meter: mb.work(),
        nic_dropped: nb.rx_dropped(),
        dev_dropped: db.stats.rx_dropped.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// Both modes deliver the identical byte-exact stream, in order, with
/// zero drops — and NAPI does it under far fewer receive interrupts.
#[test]
fn burst_soak_is_byte_exact_in_both_modes() {
    let payloads = burst_payloads(0x00b5_0a4e, 96);
    let classic = run_burst(false, payloads.clone(), 32, 300_000);
    assert_eq!(classic.got, payloads, "classic mode corrupted the stream");
    assert_eq!(classic.nic_dropped, 0);
    assert_eq!(classic.dev_dropped, 0);
    // Interrupt-per-frame: the classic path announces every frame.
    assert_eq!(classic.meter.rx_irqs, 96);
    assert_eq!(classic.meter.rx_polls, 0);

    let napi = run_burst(true, payloads.clone(), 32, 300_000);
    assert_eq!(napi.got, payloads, "NAPI mode corrupted the stream");
    assert_eq!(napi.nic_dropped, 0);
    assert_eq!(napi.dev_dropped, 0);
    // Strictly fewer interrupts than frames; at full burst the frame
    // bound (8) makes it at least 4x fewer than interrupt-per-frame.
    assert!(napi.meter.rx_irqs > 0);
    assert!(
        napi.meter.rx_irqs < 96,
        "NAPI raised {} rx irqs for 96 frames",
        napi.meter.rx_irqs
    );
    assert!(
        classic.meter.rx_irqs >= 4 * napi.meter.rx_irqs,
        "mitigation too weak: classic {} vs NAPI {}",
        classic.meter.rx_irqs,
        napi.meter.rx_irqs
    );
    // Every frame came up through a budgeted poll.
    assert!(napi.meter.rx_polls > 0);
    assert_eq!(napi.meter.rx_batch_frames, 96);
}

/// Sparse arrivals (one frame per gap, gaps far above the coalesce
/// delay) still deliver everything: the delay bound announces lone
/// frames, it does not wait for a batch that will never fill.
#[test]
fn napi_sparse_arrivals_are_not_starved() {
    let payloads = burst_payloads(0x51_0e11, 12);
    let r = run_burst(true, payloads.clone(), 1, 2_000_000);
    assert_eq!(r.got, payloads);
    assert_eq!(r.nic_dropped, 0);
    // Nothing to coalesce: each lone frame costs its own (delayed) irq.
    assert_eq!(r.meter.rx_irqs, 12);
}

/// `rx_dropped` is bounded by ring overflow and happens *only* then: a
/// 100-frame blast at a ring nobody is draining loses exactly the
/// overflow (100 - 64 slots), and the 64 ring slots survive to be
/// delivered once draining starts.
#[test]
fn ring_overflow_is_the_only_source_of_drops() {
    let sim = Sim::new();
    let ma = Machine::new(&sim, "a", 1 << 20);
    let mb = Machine::new(&sim, "b", 1 << 20);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 0xA]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 0xB]);
    Nic::connect(&na, &nb);
    let ea = OsEnv::new(&ma);
    let eb = OsEnv::new(&mb);
    let da = NetDevice::new("eth0", &ea, na);
    let db = NetDevice::new("eth0", &eb, Arc::clone(&nb));
    da.open();
    db.open();
    ma.irq.enable();
    // Receiver IRQs stay *disabled*: frames pile onto the ring with
    // nobody draining it, like a driver that has fallen behind.
    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = Arc::clone(&got);
    db.set_rx_handler(move |skb| g2.lock().push(skb.to_vec()));
    let payloads = burst_payloads(0xd805, 100);
    let s2 = Arc::clone(&sim);
    let da2 = Arc::clone(&da);
    let dst = db.dev_addr;
    sim.spawn("tx", move || {
        for p in &payloads {
            da2.xmit_ether(dst, ETH_P_IP, p);
        }
        let rec = Arc::new(SleepRecord::new());
        let _ = rec.wait_timeout(&s2, 50_000_000);
        // The backlog: 64 ring slots held, the rest overflowed.
        assert_eq!(nb.rx_dropped(), 36);
        assert_eq!(nb.rx_pending(), 64);
        // Start draining: the surviving frames all come up.
        mb.irq.enable();
        nb.rx_irq_enable();
        let _ = rec.wait_timeout(&s2, 10_000_000);
    });
    sim.run();
    // Exactly the ring's worth delivered, none corrupted, and the only
    // drop accounting anywhere is the NIC's overflow count.
    assert_eq!(got.lock().len(), 64);
    assert_eq!(db.stats.rx_dropped.load(std::sync::atomic::Ordering::Relaxed), 0);
}
