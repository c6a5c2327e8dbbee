//! Property tests for the receive path's two dispatch modes.
//!
//! A random burst/gap pattern of random frames goes from machine a to
//! machine b twice — once with the classic interrupt-per-frame receiver
//! and once with the NAPI receiver (`NETIF_F_NAPI`, random poll budget).
//! Whatever the pattern, both modes must deliver the identical byte
//! stream in the identical order: interrupt mitigation is an economics
//! knob, never a semantics knob.  And however small the budget, an
//! exhausted poll must reschedule itself until the ring runs dry —
//! never strand frames behind a disarmed interrupt.

use oskit::linux_dev::{NetDevice, NETIF_F_NAPI};
use oskit::machine::{BoundaryMetrics, Machine, Nic, Sim, SleepRecord};
use oskit::osenv::OsEnv;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const ETH_HLEN: usize = 14;
const ETH_P_IP: u16 = 0x0800;

/// Builds the payloads for one random pattern: `sizes[i]` bytes of
/// seeded filler each (sizes already constrained to valid frame range).
fn payloads_from(sizes: &[usize], seed: u64) -> Vec<Vec<u8>> {
    let mut x = seed | 1;
    sizes
        .iter()
        .map(|&len| {
            (0..len)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x >> 33) as u8
                })
                .collect()
        })
        .collect()
}

/// Transmits `payloads` from a to b with `gaps[i]` ns of wire idle
/// before frame i (cycled), returns (delivered payloads, b's meter).
fn run_pattern(
    napi: bool,
    budget: usize,
    payloads: Vec<Vec<u8>>,
    gaps: Vec<u64>,
) -> (Vec<Vec<u8>>, BoundaryMetrics) {
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
    if napi {
        db.set_features(NETIF_F_NAPI);
        db.set_napi_budget(budget);
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
            let gap = gaps[i % gaps.len()];
            if gap > 0 {
                let _ = rec.wait_timeout(&s2, gap);
            }
            da2.xmit_ether(dst, ETH_P_IP, p);
        }
        // Outlast the coalesce delay and a couple of watchdog periods.
        let _ = rec.wait_timeout(&s2, 20_000_000);
    });
    sim.run();
    let got = got.lock().clone();
    (got, mb.work())
}

proptest! {
    /// Poll mode and interrupt mode deliver identical frame streams for
    /// any arrival pattern and any budget — and NAPI accounts every
    /// frame to a poll batch while never dropping one.
    #[test]
    fn modes_deliver_identical_streams(
        sizes in proptest::collection::vec(46usize..=1400, 1..24),
        gaps in proptest::collection::vec(0u64..600_000, 1..6),
        budget in 1usize..=20,
        seed in any::<u64>(),
    ) {
        let payloads = payloads_from(&sizes, seed);
        let (classic, cm) = run_pattern(false, 0, payloads.clone(), gaps.clone());
        prop_assert_eq!(&classic, &payloads);
        prop_assert_eq!(cm.polls, 0);
        let (napi, nm) = run_pattern(true, budget, payloads.clone(), gaps);
        prop_assert_eq!(&napi, &payloads);
        prop_assert_eq!(&napi, &classic);
        prop_assert!(nm.polls > 0);
        prop_assert_eq!(nm.poll_frames, payloads.len() as u64);
        // Mitigation may only remove interrupts, never add them.
        prop_assert!(nm.rx_irqs <= payloads.len() as u64);
    }

    /// Budget exhaustion always reschedules: a ring pre-loaded with more
    /// frames than any budget drains completely off ONE schedule, in
    /// ceil(n/budget) polls, and leaves the interrupt re-armed.
    #[test]
    fn budget_exhaustion_always_reschedules(
        n in 1usize..=60,
        budget in 1usize..=8,
        seed in any::<u64>(),
    ) {
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
        db.set_features(NETIF_F_NAPI);
        db.set_napi_budget(budget);
        da.open();
        db.open();
        ma.irq.enable();
        mb.irq.enable();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        db.set_rx_handler(move |skb| g2.lock().push(skb.to_vec()[ETH_HLEN..].to_vec()));
        let payloads = payloads_from(&vec![64; n], seed);
        let expect = payloads.clone();
        // Pile the whole burst up behind a disarmed interrupt, then fire
        // exactly one schedule.
        nb.rx_irq_disable();
        let s2 = Arc::clone(&sim);
        let da2 = Arc::clone(&da);
        let db2 = Arc::clone(&db);
        let dst = db.dev_addr;
        sim.spawn("tx", move || {
            for p in &payloads {
                da2.xmit_ether(dst, ETH_P_IP, p);
            }
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 5_000_000);
            db2.napi_schedule();
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        prop_assert_eq!(&*got.lock(), &expect);
        let m = mb.work();
        prop_assert_eq!(m.polls, n.div_ceil(budget) as u64);
        prop_assert_eq!(m.poll_frames, n as u64);
        prop_assert!(nb.rx_irq_armed());
    }
}
