//! The monolithic-FreeBSD baseline: the stack bound to a BSD-style native
//! driver with no component boundary in between.
//!
//! This is the "FreeBSD" row of Tables 1 and 2: same protocol code, but
//! the driver shares the mbuf representation (scatter-gather DMA straight
//! from the chain), so there are no glue crossings and no representation
//! conversions to pay for.

use crate::bsd::mbuf::{Mbuf, MbufChain};
use crate::bsd::net::{IfOutput, Ifnet};
use crate::bsd::stack::BsdNet;
use oskit_com::interfaces::blkio::VecBufIo;
use oskit_machine::{boundary, EventKind, Nic};
use std::sync::Arc;

/// Attaches the stack directly to hardware, BSD-monolithic style.
pub fn attach_native_if(net: &Arc<BsdNet>, nic: &Arc<Nic>) -> Arc<Ifnet> {
    let ifp = Ifnet::new("de0", nic.mac());
    nic.book_frames_at(boundary!("freebsd-net", "net_intr"));
    // Transmit: gather the chain into the NIC's DMA engine.  No CPU copy
    // is charged: the lance-class DMA walks the chain.
    let nic2 = Arc::clone(nic);
    ifp.set_output(Arc::new(NativeOutput { nic: nic2 }));
    // Receive: hardware DMA fills a cluster; the interrupt handler hands
    // the chain straight to `ether_input`.  The machine owns the handler,
    // so it holds the stack (and through it the machine) only weakly.
    let weak = Arc::downgrade(net);
    let nic3 = Arc::clone(nic);
    net.env.machine.irq.install(nic.irq_line(), move |_| {
        let Some(net2) = weak.upgrade() else { return };
        net2.env
            .machine
            .book(boundary!("freebsd-net", "net_intr"), EventKind::RxIrq);
        while let Some(frame) = nic3.rx_pop() {
            // The DMA target cluster, wrapped without a CPU copy.
            let len = frame.len();
            let cluster = VecBufIo::from_vec(frame);
            let chain = MbufChain::from_mbuf(Mbuf::ext(cluster, 0, len));
            net2.ether_input(chain);
        }
    });
    net.set_ifnet(Arc::clone(&ifp));
    ifp
}

struct NativeOutput {
    nic: Arc<Nic>,
}

impl IfOutput for NativeOutput {
    fn output(&self, frame: MbufChain) {
        // Scatter-gather: assemble the wire image for the DMA engine.
        // (Host-level flattening; not charged as a CPU copy.)
        let flat = frame.to_vec();
        self.nic.transmit(&flat);
    }
}
