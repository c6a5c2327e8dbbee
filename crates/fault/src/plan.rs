//! Fault plans: the per-device-class schedules a kernel scripts.
//!
//! A plan is plain data — probabilities in per-mille plus window timings —
//! and a seed.  All knobs default to "off", so `FaultPlan::new(seed)` is a
//! benign plan that injects nothing; callers switch on exactly the faults
//! a scenario needs.

/// NIC faults: what a flaky wire and a wedge-prone transmitter do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NicFaults {
    /// Probability (per mille) that a transmitted frame is destroyed on
    /// the wire.  The frame still occupies the wire — like a collision or
    /// FCS corruption — and TCP must recover.
    pub drop_per_mille: u16,
    /// When a random drop fires, eat this many back-to-back frames in
    /// total (a burst, as a noisy cable produces).  `0` and `1` both mean
    /// single-frame drops.
    pub burst_len: u32,
    /// Transmitter-wedge period in ns (`0` = never wedges).
    pub wedge_period_ns: u64,
    /// The transmitter is dead for the first `wedge_duration_ns` of each
    /// wedge period: offered frames vanish without reaching the wire,
    /// until the driver's watchdog resets the device (or the window
    /// passes).
    pub wedge_duration_ns: u64,
}

/// Disk faults: a mid-90s drive on a bad day.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskFaults {
    /// Probability (per mille) that a request completes with a transient
    /// media error (`Completion::ok == false`); the driver retries.
    pub error_per_mille: u16,
    /// Probability (per mille) that a request suffers a latency spike
    /// (thermal recalibration, retried seek).
    pub spike_per_mille: u16,
    /// Service time added by one latency spike, ns.
    pub spike_ns: u64,
}

/// Allocation faults: the failing `kmalloc`s of paper §4.1.2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocFaults {
    /// Probability (per mille) that any osenv allocation fails.
    pub fail_per_mille: u16,
    /// Additional failure probability (per mille) applied only to
    /// `GFP_ATOMIC` requests — interrupt-level allocations cannot sleep
    /// or reclaim, so they fail first, exactly as in the donor kernels.
    pub atomic_fail_per_mille: u16,
}

/// IRQ faults: edges lost between device and PIC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IrqFaults {
    /// Probability (per mille) that a device's raise of its completion /
    /// receive interrupt is lost.  The device state (rx ring, completion
    /// queue) is intact; the driver must recover by polling or by riding
    /// the next delivered edge.
    pub lose_per_mille: u16,
}

/// A complete scripted fault schedule for one machine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every stream the plan draws from.  Same seed, same plan,
    /// same simulation → identical fault sequence and counters.
    pub seed: u64,
    /// NIC schedule.
    pub nic: NicFaults,
    /// Disk schedule.
    pub disk: DiskFaults,
    /// Allocation-failure schedule.
    pub alloc: AllocFaults,
    /// Lost-IRQ schedule.
    pub irq: IrqFaults,
}

impl FaultPlan {
    /// A benign plan: seeded, but with every fault switched off.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the NIC schedule (builder style).
    pub fn nic(mut self, nic: NicFaults) -> FaultPlan {
        self.nic = nic;
        self
    }

    /// Sets the disk schedule (builder style).
    pub fn disk(mut self, disk: DiskFaults) -> FaultPlan {
        self.disk = disk;
        self
    }

    /// Sets the allocation schedule (builder style).
    pub fn alloc(mut self, alloc: AllocFaults) -> FaultPlan {
        self.alloc = alloc;
        self
    }

    /// Sets the lost-IRQ schedule (builder style).
    pub fn irq(mut self, irq: IrqFaults) -> FaultPlan {
        self.irq = irq;
        self
    }
}
