//! The stack instance: demux, timers and global state — BSD's
//! `netisr`/`inetsw` plumbing in donor idiom.

use super::ip::{icmp_reflect, ipproto, IpState, IP_HDR_LEN};
use super::mbuf::MbufChain;
use super::net::{ethertype, Ifnet, ETHER_HDR_LEN};
use super::sleep::BsdSleep;
use super::tcp::TcpSock;
use super::udp::UdpSock;
use oskit_machine::{boundary, EventKind};
use oskit_osenv::{OsEnv, TimerHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A TCP connection key: (local port, foreign addr, foreign port).
pub type ConnKey = (u16, Ipv4Addr, u16);

/// The FreeBSD networking component instance.
pub struct BsdNet {
    /// The execution environment.
    pub env: Arc<OsEnv>,
    /// The component's sleep/wakeup hash (paper §4.7.6).
    pub sleep: BsdSleep,
    /// IP-layer state.
    pub ip: IpState,
    ifnet: Mutex<Option<Arc<Ifnet>>>,
    /// Established/opening TCP connections.
    pub(crate) tcp_conns: Mutex<HashMap<ConnKey, Arc<TcpSock>>>,
    /// Listening TCP sockets by port.
    pub(crate) tcp_listen: Mutex<HashMap<u16, Arc<TcpSock>>>,
    /// Bound UDP sockets by port.
    pub(crate) udp_socks: Mutex<HashMap<u16, Arc<UdpSock>>>,
    /// Bound port set (TCP and UDP share the ephemeral allocator).
    pub(crate) bound: Mutex<std::collections::HashSet<u16>>,
    next_port: Mutex<u16>,
    iss: Mutex<u32>,
    next_sock_id: Mutex<u64>,
    timers: Mutex<Vec<TimerHandle>>,
    /// Outstanding pings: ident → waiter (the `ping` convenience API).
    ping_waiters: Mutex<HashMap<u16, oskit_osenv::OsenvSleep>>,
    ping_ident: Mutex<u16>,
}

impl BsdNet {
    /// `oskit_freebsd_net_init`: brings the stack up on an environment.
    pub fn init(env: &Arc<OsEnv>) -> Arc<BsdNet> {
        let net = Arc::new(BsdNet {
            env: Arc::clone(env),
            sleep: BsdSleep::new(),
            ip: IpState::new(),
            ifnet: Mutex::new(None),
            tcp_conns: Mutex::new(HashMap::new()),
            tcp_listen: Mutex::new(HashMap::new()),
            udp_socks: Mutex::new(HashMap::new()),
            bound: Mutex::new(std::collections::HashSet::new()),
            next_port: Mutex::new(1024),
            iss: Mutex::new(1),
            next_sock_id: Mutex::new(1),
            timers: Mutex::new(Vec::new()),
            ping_waiters: Mutex::new(HashMap::new()),
            ping_ident: Mutex::new(1),
        });
        // The BSD fast (200 ms) and slow (500 ms) protocol timers.
        let weak = Arc::downgrade(&net);
        let fast = env.timer_register(200_000_000, move || {
            if let Some(net) = weak.upgrade() {
                net.tcp_fasttimo();
            }
        });
        let weak = Arc::downgrade(&net);
        let slow = env.timer_register(500_000_000, move || {
            if let Some(net) = weak.upgrade() {
                net.tcp_slowtimo();
            }
        });
        net.timers.lock().extend([fast, slow]);
        net
    }

    /// Attaches the (single) interface.
    pub fn set_ifnet(&self, ifp: Arc<Ifnet>) {
        *self.ifnet.lock() = Some(ifp);
    }

    /// The attached interface.
    ///
    /// # Panics
    ///
    /// Panics if no interface was attached — using the stack before
    /// `open_ether_if` is a client bug.
    pub fn ifnet(&self) -> Arc<Ifnet> {
        self.ifnet.lock().clone().expect("no interface attached")
    }

    /// Allocates an ephemeral port.
    pub(crate) fn alloc_port(&self) -> u16 {
        let mut p = self.next_port.lock();
        let mut bound = self.bound.lock();
        loop {
            let port = *p;
            *p = if *p >= 65000 { 1024 } else { *p + 1 };
            if bound.insert(port) {
                return port;
            }
        }
    }

    /// The initial send sequence (`tcp_iss`): bumped per connection.
    pub(crate) fn next_iss(&self) -> u32 {
        let mut iss = self.iss.lock();
        *iss = iss.wrapping_add(64_000);
        *iss
    }

    /// Unique socket id, feeding the sleep-channel namespace.
    pub(crate) fn next_sock_id(&self) -> u64 {
        let mut id = self.next_sock_id.lock();
        *id += 1;
        *id
    }

    /// `ether_input`: the entry point the glue feeds received frames into
    /// (at interrupt level).
    pub fn ether_input(self: &Arc<Self>, mut frame: MbufChain) {
        self.env
            .machine
            .book(boundary!("freebsd-net", "ether_in"), EventKind::Layer);
        if frame.pkt_len() < ETHER_HDR_LEN {
            return;
        }
        frame.m_pullup(ETHER_HDR_LEN);
        let ethtype = frame
            .with_contig(ETHER_HDR_LEN, |h| u16::from_be_bytes([h[12], h[13]]))
            .expect("pulled up");
        frame.m_adj(ETHER_HDR_LEN);
        match ethtype {
            ethertype::ARP => {
                let pkt = frame.to_vec();
                self.ifnet().arp_input(&pkt);
            }
            ethertype::IP => self.ip_input(frame),
            _ => {}
        }
    }

    fn ip_input(self: &Arc<Self>, pkt: MbufChain) {
        let now = self.env.now();
        // Header validation (checksummed) is protocol work.
        self.env.machine.book(
            boundary!("freebsd-net", "ip_in"),
            EventKind::Checksum { bytes: IP_HDR_LEN },
        );
        let Some((hdr, payload)) = self.ip.ip_input(pkt, now) else {
            return;
        };
        if Some(hdr.dst) != self.ifnet().address() {
            return; // Not ours; no forwarding in the kit's example config.
        }
        match hdr.proto {
            ipproto::TCP => super::tcp_input::tcp_input(self, hdr.src, hdr.dst, payload),
            ipproto::UDP => super::udp::udp_input(self, hdr.src, hdr.dst, payload),
            ipproto::ICMP => {
                if let Some(reply) = icmp_reflect(&payload) {
                    self.env
                        .machine
                        .book(boundary!("freebsd-net", "icmp"), EventKind::Layer);
                    let ifp = self.ifnet();
                    self.ip
                        .ip_output(&ifp, ipproto::ICMP, hdr.dst, hdr.src, reply);
                } else {
                    // An echo *reply*: wake any matching ping waiter.
                    let data = payload.to_vec();
                    if data.len() >= 8 && data[0] == 0 {
                        let ident = u16::from_be_bytes([data[4], data[5]]);
                        if let Some(w) = self.ping_waiters.lock().remove(&ident) {
                            w.wakeup();
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// `tcp_fasttimo`: fires delayed ACKs.
    fn tcp_fasttimo(self: &Arc<Self>) {
        let socks: Vec<_> = self.tcp_conns.lock().values().cloned().collect();
        for s in socks {
            s.fasttimo(self);
        }
    }

    /// `tcp_slowtimo`: retransmit / persist / 2MSL processing.
    fn tcp_slowtimo(self: &Arc<Self>) {
        let socks: Vec<_> = self.tcp_conns.lock().values().cloned().collect();
        let now = self.env.now();
        for s in socks {
            s.slowtimo(self, now);
        }
    }

    /// Sends an ICMP echo request to `dst` and blocks until the reply or
    /// the timeout — the `ping` every kernel hacker writes first.
    pub fn ping(self: &Arc<Self>, dst: std::net::Ipv4Addr, timeout_ns: u64) -> bool {
        let ident = {
            let mut i = self.ping_ident.lock();
            *i = i.wrapping_add(1).max(1);
            *i
        };
        let waiter = self.env.sleep_create();
        self.ping_waiters.lock().insert(ident, waiter.clone());
        // Build the echo request.
        let mut pkt = vec![8u8, 0, 0, 0, 0, 0, 0, 1];
        pkt[4..6].copy_from_slice(&ident.to_be_bytes());
        pkt.extend_from_slice(b"oskit ping payload");
        let csum = super::ip::in_cksum(&pkt);
        pkt[2..4].copy_from_slice(&csum.to_be_bytes());
        let ifp = self.ifnet();
        let Some(src) = ifp.address() else {
            self.ping_waiters.lock().remove(&ident);
            return false;
        };
        self.env
            .machine
            .book(boundary!("freebsd-net", "icmp"), EventKind::Layer);
        self.ip
            .ip_output(&ifp, ipproto::ICMP, src, dst, MbufChain::from_slice(&pkt));
        let ok = matches!(
            waiter.sleep_timeout(timeout_ns),
            oskit_machine::WakeReason::Signaled
        );
        self.ping_waiters.lock().remove(&ident);
        ok
    }
}
