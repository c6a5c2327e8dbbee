//! `oskit-fault` — the deterministic fault-injection substrate.
//!
//! The paper's central claim is that unmodified donor code can be safely
//! encapsulated behind thin glue (§4); real OSKit kernels had to survive
//! failing `kmalloc`s (§4.1.2 lists allocation failure among the "BSD
//! malloc properties" drivers depend on), flaky disks, and wedged NICs.
//! This crate lets any kernel *script* those failures per device, from a
//! seed, so a soak run is exactly reproducible:
//!
//! * a [`FaultPlan`] describes per-device-class schedules — NIC frame
//!   drops/bursts/link-flap/transmitter wedge, disk transient-I/O-error
//!   and latency-spike probabilities, allocation-failure injection
//!   (GFP_ATOMIC-aware), and lost IRQ delivery;
//! * a [`FaultInjector`] handle (one per machine, threaded through
//!   `oskit-machine`) is consulted by the device models at each fault
//!   point and by the glue when it recovers, keeping a [`FaultSnapshot`]
//!   of matched injection/recovery counters;
//! * the injector is exported as the `oskit_fault` COM interface
//!   ([`Fault`], IID `oskit_iid(0xC1)`) so a client that was handed
//!   nothing but the registry can install a plan and read the counters.
//!
//! Without an installed plan every decision is "no fault" and only the
//! recovery counters are live, so default benchmark output is unchanged.
//!
//! Determinism: decisions are drawn from per-device-class [`SplitMix64`]
//! streams derived from the plan seed, and the simulation delivers events
//! in a fixed order, so the same seed yields the same fault sequence and
//! identical counters on every run — the property the soak harness's
//! replay gate asserts.

#![warn(missing_docs)]

mod com;
mod injector;
mod plan;
mod rng;
mod stats;

pub use com::{global, register_com_object, Fault, FaultObj, FAULT_IID};
pub use injector::{DiskFault, FaultInjector, NicTxFault};
pub use plan::{AllocFaults, DiskFaults, FaultPlan, IrqFaults, NicFaults};
pub use rng::SplitMix64;
pub use stats::FaultSnapshot;
