//! The per-machine fault injector the device models consult.

use crate::plan::FaultPlan;
use crate::rng::SplitMix64;
use crate::stats::FaultSnapshot;
use parking_lot::Mutex;

/// The transmit-side verdict for one offered frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NicTxFault {
    /// No fault: transmit normally.
    None,
    /// The frame is destroyed on the wire (random drop, burst, or link
    /// down): it occupies the wire but is never delivered.
    Dropped,
    /// The transmitter is wedged: the frame vanishes without reaching the
    /// wire at all, and the hardware transmit counter does not advance —
    /// the signature a driver watchdog detects.
    Wedged,
}

/// The verdict for one disk request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskFault {
    /// Complete the request with a transient error (`ok == false`).
    pub error: bool,
    /// Extra service time to add (latency spike), ns.
    pub extra_ns: u64,
}

/// Seeded per-device-class decision streams plus window state.
struct PlanState {
    plan: FaultPlan,
    nic_rng: SplitMix64,
    disk_rng: SplitMix64,
    alloc_rng: SplitMix64,
    irq_rng: SplitMix64,
    /// Remaining frames of an in-progress drop burst.
    nic_burst_left: u32,
    /// A watchdog reset cancels the current wedge window: the transmitter
    /// works again until this time has passed.
    wedge_cleared_until: u64,
}

impl PlanState {
    fn new(plan: FaultPlan) -> PlanState {
        PlanState {
            plan,
            nic_rng: SplitMix64::stream(plan.seed, 1),
            disk_rng: SplitMix64::stream(plan.seed, 2),
            alloc_rng: SplitMix64::stream(plan.seed, 3),
            irq_rng: SplitMix64::stream(plan.seed, 4),
            nic_burst_left: 0,
            wedge_cleared_until: 0,
        }
    }
}

/// Everything an injector guards with its one lock: the installed plan
/// (if any) and the injection/recovery counters.
#[derive(Default)]
struct InjectorState {
    plan: Option<PlanState>,
    stats: FaultSnapshot,
}

/// True while `now` lies in the leading `duration` ns of a `period`-ns
/// cycle.
fn in_window(now: u64, period: u64, duration: u64) -> bool {
    period > 0 && duration > 0 && now % period < duration
}

/// End of the window containing `now` (callers check `in_window` first).
fn window_end(now: u64, period: u64, duration: u64) -> u64 {
    now - now % period + duration
}

/// One machine's fault domain, owned by the machine: seeded decision
/// streams and a block of injection/recovery counters.  Without an
/// installed [`FaultPlan`] every decision is "no fault", so merely
/// carrying the injector changes nothing.
#[derive(Default)]
pub struct FaultInjector {
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Creates an injector with no plan installed.
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Installs (or replaces) the fault plan, resetting its decision
    /// streams.
    pub fn install(&self, plan: FaultPlan) {
        self.state.lock().plan = Some(PlanState::new(plan));
    }

    /// Snapshots the injection/recovery counters.
    pub fn stats(&self) -> FaultSnapshot {
        self.state.lock().stats
    }

    // --- Device consultation points ---

    /// NIC transmit: the verdict for one frame offered at time `now`.
    pub fn nic_tx_fault(&self, now: u64) -> NicTxFault {
        let mut guard = self.state.lock();
        let InjectorState { plan, stats } = &mut *guard;
        let Some(st) = plan.as_mut() else {
            return NicTxFault::None;
        };
        let nf = st.plan.nic;
        if in_window(now, nf.wedge_period_ns, nf.wedge_duration_ns) && now >= st.wedge_cleared_until
        {
            stats.tx_wedged += 1;
            return NicTxFault::Wedged;
        }
        if st.nic_burst_left > 0 {
            st.nic_burst_left -= 1;
            stats.tx_dropped += 1;
            return NicTxFault::Dropped;
        }
        if st.nic_rng.chance(nf.drop_per_mille) {
            st.nic_burst_left = nf.burst_len.saturating_sub(1);
            stats.tx_dropped += 1;
            return NicTxFault::Dropped;
        }
        NicTxFault::None
    }

    /// NIC reset (the watchdog's recovery action): cancels the wedge
    /// window in progress at `now`, if any — re-initializing the
    /// transmitter brings the hardware back.
    pub fn nic_reset(&self, now: u64) {
        let mut guard = self.state.lock();
        let Some(st) = guard.plan.as_mut() else {
            return;
        };
        let nf = st.plan.nic;
        if in_window(now, nf.wedge_period_ns, nf.wedge_duration_ns) {
            st.wedge_cleared_until = window_end(now, nf.wedge_period_ns, nf.wedge_duration_ns);
        }
    }

    /// Disk submit: the verdict for one request.
    pub fn disk_fault(&self) -> DiskFault {
        let mut guard = self.state.lock();
        let InjectorState { plan, stats } = &mut *guard;
        let Some(st) = plan.as_mut() else {
            return DiskFault::default();
        };
        let df = st.plan.disk;
        let error = st.disk_rng.chance(df.error_per_mille);
        let spike = st.disk_rng.chance(df.spike_per_mille);
        stats.disk_errors += u64::from(error);
        stats.disk_spikes += u64::from(spike);
        DiskFault {
            error,
            extra_ns: if spike { df.spike_ns } else { 0 },
        }
    }

    /// Allocation: whether this request is forced to fail.  `atomic`
    /// requests (GFP_ATOMIC: interrupt level, cannot sleep) additionally
    /// face the plan's `atomic_fail_per_mille`.
    pub fn alloc_fail(&self, atomic: bool) -> bool {
        let mut guard = self.state.lock();
        let InjectorState { plan, stats } = &mut *guard;
        let Some(st) = plan.as_mut() else {
            return false;
        };
        let af = st.plan.alloc;
        let fail = st.alloc_rng.chance(af.fail_per_mille)
            || (atomic && st.alloc_rng.chance(af.atomic_fail_per_mille));
        stats.alloc_failures += u64::from(fail);
        fail
    }

    /// Device interrupt raise: whether this edge is lost.  The device
    /// queue state survives; only the notification vanishes.
    pub fn irq_lost(&self, _line: u8) -> bool {
        let mut guard = self.state.lock();
        let InjectorState { plan, stats } = &mut *guard;
        let Some(st) = plan.as_mut() else {
            return false;
        };
        let lost = st.irq_rng.chance(st.plan.irq.lose_per_mille);
        stats.irqs_lost += u64::from(lost);
        lost
    }

    // --- Recovery notes (bumped by the glue when it survives a fault) ---

    /// The block layer retried a transiently failed request.
    pub fn note_blk_retry(&self) {
        self.state.lock().stats.blk_retries += 1;
    }

    /// A block request exhausted its retries and failed hard.
    pub fn note_blk_hard_failure(&self) {
        self.state.lock().stats.blk_hard_failures += 1;
    }

    /// The block layer polled for completions after a suspected lost
    /// interrupt.
    pub fn note_blk_lost_irq_poll(&self) {
        self.state.lock().stats.blk_lost_irq_polls += 1;
    }

    /// The ether transmit watchdog reset a wedged device.
    pub fn note_tx_watchdog_reset(&self) {
        self.state.lock().stats.tx_watchdog_resets += 1;
    }

    /// A packet was dropped because its buffer allocation failed.
    pub fn note_pkt_alloc_drop(&self) {
        self.state.lock().stats.pkt_alloc_drops += 1;
    }

    /// The rx watchdog force-polled a ring whose (coalesced) receive
    /// interrupt was lost — the NAPI-mode companion of
    /// [`FaultInjector::note_blk_lost_irq_poll`].
    pub fn note_rx_timeout_poll(&self) {
        self.state.lock().stats.rx_timeout_polls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AllocFaults, DiskFaults, FaultPlan, IrqFaults, NicFaults};

    #[test]
    fn no_plan_means_no_faults() {
        let inj = FaultInjector::new();
        assert_eq!(inj.nic_tx_fault(0), NicTxFault::None);
        assert_eq!(inj.disk_fault(), DiskFault::default());
        assert!(!inj.alloc_fail(true));
        assert!(!inj.irq_lost(14));
        assert!(inj.stats().is_zero());
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(0xF00D)
            .nic(NicFaults {
                drop_per_mille: 50,
                burst_len: 3,
                ..NicFaults::default()
            })
            .disk(DiskFaults {
                error_per_mille: 100,
                spike_per_mille: 100,
                spike_ns: 5_000_000,
            })
            .alloc(AllocFaults {
                fail_per_mille: 10,
                atomic_fail_per_mille: 30,
            })
            .irq(IrqFaults { lose_per_mille: 20 });
        let runs: Vec<FaultSnapshot> = (0..2)
            .map(|_| {
                let inj = FaultInjector::new();
                inj.install(plan);
                for i in 0..10_000u64 {
                    let _ = inj.nic_tx_fault(i * 1000);
                    let _ = inj.disk_fault();
                    let _ = inj.alloc_fail(i % 2 == 0);
                    let _ = inj.irq_lost(10);
                }
                inj.stats()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].tx_dropped > 0);
        assert!(runs[0].disk_errors > 0);
        assert!(runs[0].alloc_failures > 0);
        assert!(runs[0].irqs_lost > 0);
    }

    #[test]
    fn bursts_eat_consecutive_frames() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::new(1).nic(NicFaults {
            drop_per_mille: 1, // rare trigger...
            burst_len: 4,      // ...but each trigger eats 4 frames.
            ..NicFaults::default()
        }));
        let verdicts: Vec<NicTxFault> = (0..100_000).map(|_| inj.nic_tx_fault(0)).collect();
        let drops = inj.stats().tx_dropped;
        assert!(drops > 0);
        assert_eq!(drops % 4, 0, "drops come in whole bursts of 4");
        // Every drop run in the sequence is exactly 4 long.
        let mut run = 0u64;
        for v in verdicts {
            match v {
                NicTxFault::Dropped => run += 1,
                _ => {
                    assert!(run == 0 || run == 4, "burst of {run}");
                    run = 0;
                }
            }
        }
    }

    #[test]
    fn wedge_window_and_reset() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::new(1).nic(NicFaults {
            wedge_period_ns: 1000,
            wedge_duration_ns: 300,
            ..NicFaults::default()
        }));
        assert_eq!(inj.nic_tx_fault(100), NicTxFault::Wedged);
        assert_eq!(inj.nic_tx_fault(500), NicTxFault::None);
        // A reset clears the remainder of the window...
        assert_eq!(inj.nic_tx_fault(1100), NicTxFault::Wedged);
        inj.nic_reset(1150);
        assert_eq!(inj.nic_tx_fault(1200), NicTxFault::None);
        // ...but the next window wedges again.
        assert_eq!(inj.nic_tx_fault(2100), NicTxFault::Wedged);
    }

    #[test]
    fn atomic_allocations_fail_more() {
        let inj = FaultInjector::new();
        inj.install(FaultPlan::new(9).alloc(AllocFaults {
            fail_per_mille: 0,
            atomic_fail_per_mille: 200,
        }));
        assert!((0..1000).all(|_| !inj.alloc_fail(false)));
        let atomic_fails = (0..1000).filter(|_| inj.alloc_fail(true)).count();
        assert!(atomic_fails > 100, "{atomic_fails}");
    }

    #[test]
    fn recovery_notes_count_without_a_plan() {
        let inj = FaultInjector::new();
        inj.note_blk_retry();
        inj.note_tx_watchdog_reset();
        inj.note_pkt_alloc_drop();
        let s = inj.stats();
        assert_eq!(
            (s.blk_retries, s.tx_watchdog_resets, s.pkt_alloc_drops),
            (1, 1, 1)
        );
    }
}
