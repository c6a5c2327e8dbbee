//! `oskit-freebsd-net` — the encapsulated FreeBSD TCP/IP stack
//! (paper §3.7, §4.7, §5).
//!
//! "The OSKit provides a full TCP/IP network protocol stack ... the
//! OSKit's network components are instead drawn from the 4.4BSD-derived
//! FreeBSD system, which is generally considered to have much more mature
//! network protocols.  This demonstrates a secondary advantage of using
//! encapsulation to package existing software into flexible components:
//! with this approach, it is possible to pick the best components from
//! different sources and use them together — in this case, Linux network
//! drivers with BSD networking."
//!
//! Layout mirrors the paper's §4.7.1: [`bsd`] is the donor-idiom code
//! (mbufs, the `tsleep`/`wakeup` hash over osenv sleep records,
//! ether/ARP/IP/ICMP/UDP/TCP, sockbufs); [`glue`] is the thin OSKit layer
//! (mbuf↔bufio conversion, the socket factory, netio exchange, and the
//! monolithic-native baseline binding).  The BSD kernel `malloc` of
//! §4.7.7 is left out: no donor code here calls it.

pub mod bsd;
pub mod glue;

pub use bsd::stack::BsdNet;
pub use bsd::tcp::{TcpSock, TcpState};
pub use bsd::udp::UdpSock;
pub use glue::native::attach_native_if;
pub use glue::sockets::{BsdComSocket, BsdSocketFactory};
pub use glue::{ifconfig, open_ether_if, oskit_freebsd_net_init, FREEBSD_NET};
