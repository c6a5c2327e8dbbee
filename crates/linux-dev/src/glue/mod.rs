//! The OSKit glue around the Linux-style driver set (paper §4.7).
//!
//! "The OSKit defines a set of COM interfaces by which the client OS
//! invokes OSKit services; the OSKit components implement these services
//! in a thin layer of glue code, which in turn relies on a much larger
//! mass of encapsulated code."

pub mod block;
pub mod ether;
pub mod sockets;

use crate::linux::netdevice::NetDevice;
use oskit_com::component::ComponentDesc;
use oskit_fdev::{Bus, DeviceClass, DeviceNode, DeviceRegistry, Driver};
use oskit_osenv::OsEnv;
use std::sync::Arc;

/// The Linux Ethernet driver set, as paper Figure 1 shows it.
pub const LINUX_ETHERNET: ComponentDesc = ComponentDesc {
    name: "linux_ethernet",
    library: "liboskit_linux_dev",
    donor: "Linux 2.0.29",
    exports: &[
        ether::LinuxEtherDev::INTERFACES,
        ether::LinuxTxNetIo::INTERFACES,
        ether::SkbBufIo::INTERFACES,
    ],
    imports: &["osenv_mem", "osenv_intr", "osenv_sleep", "osenv_timer"],
};

/// The Linux IDE driver set, as paper Figure 1 shows it.
pub const LINUX_IDE: ComponentDesc = ComponentDesc {
    name: "linux_ide",
    library: "liboskit_linux_dev",
    donor: "Linux 2.0.29",
    exports: &[block::LinuxBlkIo::INTERFACES],
    imports: &["osenv_mem", "osenv_intr", "osenv_sleep", "osenv_timer"],
};

/// The Linux Ethernet driver set entry point: the paper's
/// `fdev_linux_init_ethernet()`, "causing all supported drivers to be
/// linked into the resulting application".
pub fn fdev_linux_init_ethernet(registry: &DeviceRegistry) {
    registry.register_driver(Arc::new(LinuxEtherDriver));
}

/// The Linux IDE driver set entry point (`fdev_linux_init_ide()`).
pub fn fdev_linux_init_ide(registry: &DeviceRegistry) {
    registry.register_driver(Arc::new(LinuxIdeDriver));
}

struct LinuxEtherDriver;

impl Driver for LinuxEtherDriver {
    fn name(&self) -> &str {
        "linux ethernet (lance-class)"
    }

    fn probe(&self, env: &Arc<OsEnv>, bus: &Bus) -> Vec<DeviceNode> {
        let mut out = Vec::new();
        while let Some((i, nic)) = bus.claim_nic() {
            let netdev = NetDevice::new(format!("eth{i}"), env, nic);
            let com = ether::LinuxEtherDev::new(env, &netdev);
            out.push(DeviceNode {
                name: netdev.name.clone(),
                class: DeviceClass::Ethernet,
                description: "Linux 2.0.29 lance-class Ethernet (encapsulated)".into(),
                object: com as Arc<dyn oskit_com::IUnknown>,
            });
        }
        out
    }
}

struct LinuxIdeDriver;

impl Driver for LinuxIdeDriver {
    fn name(&self) -> &str {
        "linux ide"
    }

    fn probe(&self, env: &Arc<OsEnv>, bus: &Bus) -> Vec<DeviceNode> {
        let mut out = Vec::new();
        let names = ["hda", "hdb", "hdc", "hdd"];
        let mut n = 0;
        while let Some((_, disk)) = bus.claim_disk() {
            let name = names.get(n).copied().unwrap_or("hdx");
            n += 1;
            let drive = crate::linux::blkdev::IdeDrive::new(name, env, disk);
            let com = block::LinuxBlkIo::new(env, &drive);
            out.push(DeviceNode {
                name: name.to_string(),
                class: DeviceClass::Block,
                description: "Linux 2.0.29 IDE (encapsulated)".into(),
                object: com as Arc<dyn oskit_com::IUnknown>,
            });
        }
        out
    }
}
