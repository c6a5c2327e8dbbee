//! Fault and recovery counters.
//!
//! Injection counters are bumped by the device models when a scheduled
//! fault fires; recovery counters are bumped by the glue when it survives
//! one.  The pairing is the point: a soak run asserts both that faults
//! actually fired and that every one was absorbed, and the replay gate
//! diffs two same-seed snapshots for equality.

use std::fmt;

/// One injector's counters (a copy of them, when returned by
/// `FaultInjector::stats`).
///
/// All-zero (and [`FaultSnapshot::is_zero`]) while no plan is installed
/// and nothing has recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Frames destroyed on the wire by random drops and bursts.
    pub tx_dropped: u64,
    /// Frames lost because the link was flapped down.
    pub link_down_dropped: u64,
    /// Frames eaten by a wedged transmitter (never reached the wire).
    pub tx_wedged: u64,
    /// Disk requests completed with an injected transient error.
    pub disk_errors: u64,
    /// Disk requests that suffered an injected latency spike.
    pub disk_spikes: u64,
    /// Allocations forced to fail (includes the GFP_ATOMIC extras).
    pub alloc_failures: u64,
    /// Device interrupt raises that were swallowed.
    pub irqs_lost: u64,
    /// Block-layer retries of transiently failed requests.
    pub blk_retries: u64,
    /// Block requests that exhausted their retries and failed hard.
    pub blk_hard_failures: u64,
    /// Block-layer completion polls after a suspected lost interrupt.
    pub blk_lost_irq_polls: u64,
    /// Ether transmit-watchdog device resets.
    pub tx_watchdog_resets: u64,
    /// Packets dropped because a packet-buffer allocation failed.
    pub pkt_alloc_drops: u64,
    /// Rx-watchdog timeout polls that recovered a ring stalled by a lost
    /// coalesced receive interrupt.
    pub rx_timeout_polls: u64,
}

impl FaultSnapshot {
    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultSnapshot::default()
    }

    /// Total injected faults (the left side of the ledger).
    pub fn total_injected(&self) -> u64 {
        self.tx_dropped
            + self.link_down_dropped
            + self.tx_wedged
            + self.disk_errors
            + self.disk_spikes
            + self.alloc_failures
            + self.irqs_lost
    }
}

impl fmt::Display for FaultSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  injected: {} tx-drop, {} link-down, {} tx-wedge, {} disk-err, {} disk-spike, {} alloc-fail, {} irq-lost",
            self.tx_dropped,
            self.link_down_dropped,
            self.tx_wedged,
            self.disk_errors,
            self.disk_spikes,
            self.alloc_failures,
            self.irqs_lost
        )?;
        writeln!(
            f,
            "  recovered: {} blk-retry, {} blk-hardfail, {} blk-poll, {} watchdog-reset, {} pkt-alloc-drop, {} rx-timeout-poll",
            self.blk_retries,
            self.blk_hard_failures,
            self.blk_lost_irq_polls,
            self.tx_watchdog_resets,
            self.pkt_alloc_drops,
            self.rx_timeout_polls
        )
    }
}
