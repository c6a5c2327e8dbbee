//! `oskit-linux-dev` — the encapsulated Linux driver set (paper §3.6, §4.7).
//!
//! "Currently, most of the Ethernet, SCSI, and IDE disk device drivers
//! from Linux 2.0.29 are included ... existing driver code is incorporated
//! into the OSKit largely unmodified using an encapsulation technique."
//!
//! Layout mirrors the paper's §4.7.1: [`linux`] holds the donor-idiom code
//! (skbuffs, the net-device model, the request-queue block layer, a mini
//! TCP/IP stack used as the monolithic-Linux baseline); [`glue`] holds the
//! thin OSKit layer that encapsulates it — COM `etherdev`/`blkio` exports,
//! skbuff↔bufio wrapping (§4.7.3), and wait-queue emulation over osenv
//! sleep records (§4.7.6).  The paper's manufactured `current` (§4.7.5)
//! and Linux `kmalloc` are left out: no donor code here calls them.

pub mod glue;
pub mod linux;

pub use glue::block::LinuxBlkIo;
pub use glue::ether::{LinuxEtherDev, SkbBufIo, SkbIo};
pub use glue::sockets::{LinuxComSocket, LinuxSocketFactory};
pub use glue::{fdev_linux_init_ethernet, fdev_linux_init_ide, LINUX_ETHERNET, LINUX_IDE};
pub use linux::inet::{LinuxInet, LinuxSock};
pub use linux::netdevice::{NetDevice, NETIF_F_NAPI, NETIF_F_SG};
pub use linux::skbuff::SkBuff;
