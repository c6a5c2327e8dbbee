//! The "encapsulated donor code": Linux 2.0-style drivers and networking.
//!
//! Everything in this module tree is written in the donor system's idiom
//! (paper §4.7.1 keeps donor code in its own subtree, `linux/src`,
//! mirrored here) and consumes the one Linux-native process service the
//! glue emulates: wait queues (`sleep_on`/`wake_up`).  Skbuffs are heap
//! buffers, so there is no `kmalloc`; no code reads `current`.

pub mod blkdev;
pub mod inet;
pub mod netdevice;
pub mod sched;
pub mod skbuff;
