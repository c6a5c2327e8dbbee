//! The OSKit glue around the FreeBSD networking code (paper §4.7, §5).
//!
//! `oskit_freebsd_net_init` brings the stack up and returns the socket
//! factory; `open_ether_if` binds the stack to any `oskit_etherdev`
//! (typically the encapsulated Linux driver), exchanging netio callbacks;
//! `ifconfig` configures the interface.  This is exactly the
//! initialization sequence printed in the paper's §5.

pub mod bufio;
pub mod native;
pub mod sockets;

use crate::bsd::mbuf::{Mbuf, MbufChain};
use crate::bsd::net::{IfOutput, Ifnet};
use crate::bsd::stack::BsdNet;
use bufio::MbufBufIo;
use oskit_com::interfaces::blkio::BufIo;
use oskit_com::interfaces::netio::{EtherDev, FnNetIo, NetIo};
use oskit_com::interfaces::socket::SocketFactory;
use oskit_com::{Error, Result};
use oskit_machine::Machine;
use oskit_osenv::OsEnv;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// `oskit_freebsd_net_init()`: initializes the stack, returning the
/// component and its socket factory ("returns a 'socket factory'
/// interface used to create new sockets", §5).
pub fn oskit_freebsd_net_init(env: &Arc<OsEnv>) -> (Arc<BsdNet>, Arc<dyn SocketFactory>) {
    let net = BsdNet::init(env);
    let factory = sockets::BsdSocketFactory::new(&net);
    oskit_com::registry::register(oskit_com::registry::ComponentDesc {
        name: "freebsd_net",
        library: "liboskit_freebsd_net",
        provenance: oskit_com::registry::Provenance::Encapsulated {
            donor: "FreeBSD 2.1.5",
        },
        exports: vec![
            "oskit_socket_factory",
            "oskit_socket",
            "oskit_netio",
            "oskit_bufio",
        ],
        imports: vec![
            "oskit_etherdev",
            "osenv_mem",
            "osenv_intr",
            "osenv_sleep",
            "osenv_timer",
        ],
    });
    (net, factory as Arc<dyn SocketFactory>)
}

/// `oskit_freebsd_net_open_ether_if()`: binds the stack to an Ethernet
/// device, exchanging netio callbacks with it.
pub fn open_ether_if(net: &Arc<BsdNet>, dev: &Arc<dyn EtherDev>) -> Result<Arc<Ifnet>> {
    let mac = dev.get_addr().0;
    let ifp = Ifnet::new("de0", mac);
    // Receive: wrap each incoming bufio as an external mbuf — "the FreeBSD
    // glue code is able to obtain a direct pointer to the packet data
    // using the map method of the bufio interface, and therefore never has
    // to copy the incoming data" (§5).  Batched (NAPI) delivery arrives as
    // consecutive pushes of the same shape: every frame of a poll batch
    // still takes the zero-copy Ext-mbuf wrap.  The device holds this
    // callback, and the stack holds the device through its ifnet, so the
    // callback holds the stack weakly.
    let weak = Arc::downgrade(net);
    let rx = FnNetIo::new(move |pkt: Arc<dyn BufIo>| {
        let Some(net2) = weak.upgrade() else {
            return Ok(());
        };
        let b = oskit_machine::boundary!("freebsd-net", "rx_ether");
        let _span = net2.env.machine.span(b);
        net2.env.machine.charge_crossing_at(b); // Entering the BSD component.
                                                // `MGETHDR(m, M_DONTWAIT, ...)` — at interrupt level the mbuf
                                                // allocation may fail; BSD drops the frame and counts it, and the
                                                // peer's retransmit machinery recovers.
        if net2.env.machine.faults().alloc_fail(true) {
            net2.env.machine.faults().note_pkt_alloc_drop();
            return Ok(());
        }
        let len = pkt.get_size()? as usize;
        let chain = match pkt.with_map(0, len, &mut |_| {}) {
            Ok(()) => MbufChain::from_mbuf(Mbuf::ext(pkt, 0, len)),
            Err(Error::NotImpl) => {
                // Unmappable foreign buffer: copy into a cluster chain.
                let mut flat = vec![0u8; len];
                let n = pkt.read(&mut flat, 0)?;
                net2.env.machine.charge_copy_at(b, n);
                MbufChain::from_slice(&flat[..n])
            }
            Err(e) => return Err(e),
        };
        net2.ether_input(chain);
        Ok(())
    });
    // Attach the ifnet *before* opening the device: frames may already be
    // waiting in the receive ring and will be delivered the moment the
    // interrupt handler is installed.  (An ARP reply racing this window is
    // dropped and retried, as on real hardware.)
    net.set_ifnet(Arc::clone(&ifp));
    let tx = dev.open(rx as Arc<dyn NetIo>)?;
    let machine = Arc::clone(&net.env.machine);
    ifp.set_output(Arc::new(GlueOutput { tx, machine }));
    Ok(ifp)
}

/// `oskit_freebsd_net_ifconfig()`.
pub fn ifconfig(ifp: &Arc<Ifnet>, addr: Ipv4Addr, mask: Ipv4Addr) {
    ifp.ifconfig(addr, mask);
}

/// The transmit hook: exports the mbuf chain as a COM bufio and pushes it
/// into the device's netio.  The chain rides along uncopied; whether the
/// *driver* must copy depends on the chain's contiguity (§4.7.3).
struct GlueOutput {
    tx: Arc<dyn NetIo>,
    machine: Arc<Machine>,
}

impl IfOutput for GlueOutput {
    fn output(&self, frame: MbufChain) {
        let b = oskit_machine::boundary!("freebsd-net", "tx_output");
        let _span = self.machine.span(b);
        self.machine.charge_crossing_at(b); // Leaving the BSD component.
        let pkt = MbufBufIo::new(frame);
        let _ = self.tx.push(pkt as Arc<dyn BufIo>);
    }
}
