//! A seeded end-to-end and per-layer benchmark of the OSKit reproduction.
//!
//! Three closed-loop workloads (`net_stream`, `net_rpc`, `file_serve`)
//! run in rounds; each round builds its simulated testbed from the
//! components' public constructors, measures virtual time (deterministic
//! under a seed) and host time, and checks every delivered byte against
//! an oracle built apart from the program.  A traced round interposes
//! pass-through COM objects at the netio and blkio seams and records one
//! span per call.  See README.md for the workloads and metrics.

pub mod gen;
pub mod interpose;
pub mod kit;
pub mod probe;
pub mod stats;
pub mod workloads;

pub use workloads::{run_round, Params, Round, VtMetrics, VtRecord, Workload};
