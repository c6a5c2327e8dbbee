//! Regenerates paper Figure 1: the structure of the OSKit — native
//! components and encapsulated donor code beneath a client OS.
//!
//! Renders the components' own descriptors (`oskit::FIGURE_1`), whose
//! exports are the interface lists their COM objects answer `query` from,
//! then boots a kernel and probes its Ethernet and IDE drivers for the
//! list of devices.

use oskit::com::component::render_structure;
use oskit::linux_dev::fdev_linux_init_ethernet;
use oskit::machine::Sim;
use oskit::{KernelBuilder, FIGURE_1};
use std::sync::Arc;

fn main() {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("fig1")
        .nic([2, 0, 0, 0, 0, 1])
        .disk(4096)
        .boot(&sim);
    let k = Arc::clone(&kernel);
    sim.spawn("init", move || {
        fdev_linux_init_ethernet(&k.fdev);
        k.init_disks();
    });
    sim.run();

    println!("Figure 1: the structure of the OSKit");
    println!("(shaded = encapsulated off-the-shelf code behind glue)\n");
    print!("{}", render_structure(FIGURE_1));
    println!();
    println!("devices probed:");
    for d in kernel.fdev.all() {
        println!("  {:6} [{:?}] {}", d.name, d.class, d.description);
    }
}
