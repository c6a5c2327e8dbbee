//! `oskit-machine` — the simulated PC substrate.
//!
//! The paper's experiments run on real Pentium Pro PCs; this crate is the
//! documented substitution (see `DESIGN.md` §2): a discrete-event machine
//! model exposing exactly the contracts OSKit components program against —
//! physical memory with its layout quirks, an 8259-style interrupt
//! controller, trap frames, and register-level device models (UART, PIT
//! timer, Ethernet NIC on a rate-limited wire, IDE-style disk) — plus the
//! virtual-time scheduler that enforces the kit's process/interrupt
//! execution model and the cost accounting behind Tables 1 and 2.

pub mod costs;
pub mod disk;
pub mod irq;
pub mod machine;
pub mod nic;
pub mod phys;
pub mod sched;
pub mod timer;
pub mod trap;
pub mod uart;

pub use disk::{Completion, Disk, DiskConfig, SECTOR_SIZE};
pub use irq::{IrqController, IrqGuard, NUM_IRQS};
pub use machine::{BoundarySpan, Machine};
pub use nic::{Nic, RxCoalesce, WireConfig, MAX_FRAME, MIN_FRAME};
pub use oskit_fault::{
    AllocFaults, DiskFault, DiskFaults, FaultInjector, FaultPlan, FaultSnapshot, IrqFaults,
    NicFaults, NicTxFault,
};
pub use oskit_trace::{boundary, BoundaryId, BoundaryMetrics, EventKind, TraceReport, Tracer};
pub use phys::{PhysAddr, PhysMem, DMA_LIMIT, LOWER_MEM_END, UPPER_MEM_START};
pub use sched::{EventId, Ns, Sim, SleepRecord, Tid, WakeReason};
pub use timer::Timer;
pub use trap::{TrapDisposition, TrapFrame};
pub use uart::Uart;
