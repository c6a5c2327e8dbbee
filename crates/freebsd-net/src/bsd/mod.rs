//! The "encapsulated donor code": a FreeBSD 2.1.5-style network stack.
//!
//! Everything here is written in the donor system's idiom (paper §4.7.1
//! keeps donor code in its own subtree, `freebsd/src`, mirrored here):
//! mbuf chains, the sleep/wakeup event hash, and the classic
//! `ether_input` → `ip_input` → `tcp_input`/`udp_input` → sockbuf
//! pipeline.
//!
//! The BSD kernel `malloc` that §4.7.7 emulates is left out: mbufs and
//! clusters are heap buffers, and no code here calls `malloc`.

pub mod ip;
pub mod mbuf;
pub mod net;
pub mod sleep;
pub mod socket;
pub mod stack;
pub mod tcp;
pub mod tcp_input;
pub mod udp;
