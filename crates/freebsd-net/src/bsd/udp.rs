//! UDP — BSD `udp_usrreq.c` in donor idiom.

use super::ip::{in_cksum_chain, ipproto};
use super::mbuf::{Mbuf, MbufChain, MLEN};
use super::stack::BsdNet;
use oskit_machine::{boundary, EventKind};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::{Arc, Weak};

/// UDP header length.
pub const UDP_HDR_LEN: usize = 8;

/// A bound UDP socket.
pub struct UdpSock {
    net: Weak<BsdNet>,
    sock_id: u64,
    inner: Mutex<UdpInner>,
}

struct UdpInner {
    local: (Ipv4Addr, u16),
    /// Fixed peer from `connect`, if any.
    connected: Option<(Ipv4Addr, u16)>,
    /// Received datagrams: (source, payload).
    recvq: VecDeque<((Ipv4Addr, u16), Vec<u8>)>,
    /// Receive queue byte limit.
    hiwat: usize,
    queued: usize,
    /// Datagrams dropped due to a full queue.
    pub dropped: u64,
}

impl UdpSock {
    /// Creates an unbound socket.
    pub fn new(net: &Arc<BsdNet>) -> Arc<UdpSock> {
        Arc::new(UdpSock {
            net: Arc::downgrade(net),
            sock_id: net.next_sock_id(),
            inner: Mutex::new(UdpInner {
                local: (Ipv4Addr::UNSPECIFIED, 0),
                connected: None,
                recvq: VecDeque::new(),
                hiwat: 48 * 1024,
                queued: 0,
                dropped: 0,
            }),
        })
    }

    fn net(&self) -> Arc<BsdNet> {
        self.net.upgrade().expect("stack gone")
    }

    fn chan(&self) -> u64 {
        self.sock_id * 4
    }

    /// `bind` (port 0 = ephemeral).
    pub fn bind(self: &Arc<Self>, addr: Ipv4Addr, port: u16) -> Result<(), oskit_com::Error> {
        let net = self.net();
        if port != 0 && !net.bound.lock().insert(port) {
            return Err(oskit_com::Error::AddrInUse);
        }
        let port = if port == 0 { net.alloc_port() } else { port };
        let addr = if addr.is_unspecified() {
            net.ifnet().address().unwrap_or(Ipv4Addr::UNSPECIFIED)
        } else {
            addr
        };
        self.inner.lock().local = (addr, port);
        net.udp_socks.lock().insert(port, Arc::clone(self));
        Ok(())
    }

    /// `connect`: fixes the default peer.
    pub fn connect(self: &Arc<Self>, dst: Ipv4Addr, port: u16) -> Result<(), oskit_com::Error> {
        if self.inner.lock().local.1 == 0 {
            self.bind(Ipv4Addr::UNSPECIFIED, 0)?;
        }
        self.inner.lock().connected = Some((dst, port));
        Ok(())
    }

    /// Local (addr, port).
    pub fn local_addr(&self) -> (Ipv4Addr, u16) {
        self.inner.lock().local
    }

    /// The connected peer, if fixed.
    pub fn peer_addr(&self) -> Option<(Ipv4Addr, u16)> {
        self.inner.lock().connected
    }

    /// `sendto`.
    pub fn sendto(
        self: &Arc<Self>,
        buf: &[u8],
        dst: Ipv4Addr,
        dport: u16,
    ) -> Result<usize, oskit_com::Error> {
        let net = self.net();
        if self.inner.lock().local.1 == 0 {
            self.bind(Ipv4Addr::UNSPECIFIED, 0)?;
        }
        let (laddr, lport) = self.inner.lock().local;
        if buf.len() + UDP_HDR_LEN + 20 > 65_535 {
            return Err(oskit_com::Error::MsgSize);
        }
        net.env
            .machine
            .book(boundary!("freebsd-net", "udp_out"), EventKind::Layer);
        net.env.machine.book(
            boundary!("freebsd-net", "sockbuf"),
            EventKind::Copy { bytes: buf.len() },
        ); // uiomove.
        let mut hdr = [0u8; UDP_HDR_LEN];
        hdr[0..2].copy_from_slice(&lport.to_be_bytes());
        hdr[2..4].copy_from_slice(&dport.to_be_bytes());
        let ulen = (UDP_HDR_LEN + buf.len()) as u16;
        hdr[4..6].copy_from_slice(&ulen.to_be_bytes());
        let mut seg = MbufChain::from_mbuf(Mbuf::small(&hdr, MLEN - UDP_HDR_LEN));
        seg.m_cat(MbufChain::from_slice(buf));
        // Checksum over the pseudo-header.
        let mut pseudo = Vec::with_capacity(12);
        pseudo.extend_from_slice(&laddr.octets());
        pseudo.extend_from_slice(&dst.octets());
        pseudo.push(0);
        pseudo.push(ipproto::UDP);
        pseudo.extend_from_slice(&ulen.to_be_bytes());
        net.env.machine.book(
            boundary!("freebsd-net", "udp_out"),
            EventKind::Checksum {
                bytes: ulen as usize,
            },
        );
        let csum = in_cksum_chain(&seg, &pseudo);
        let mut hdr2 = hdr;
        hdr2[6..8].copy_from_slice(&csum.to_be_bytes());
        let mut seg = MbufChain::from_mbuf(Mbuf::small(&hdr2, MLEN - UDP_HDR_LEN));
        seg.m_cat(MbufChain::from_slice(buf));
        let ifp = net.ifnet();
        net.ip.ip_output(&ifp, ipproto::UDP, laddr, dst, seg);
        Ok(buf.len())
    }

    /// `send` on a connected socket.
    pub fn send(self: &Arc<Self>, buf: &[u8]) -> Result<usize, oskit_com::Error> {
        let (dst, port) = self
            .inner
            .lock()
            .connected
            .ok_or(oskit_com::Error::NotConn)?;
        self.sendto(buf, dst, port)
    }

    /// `recvfrom`: blocks for one datagram.
    pub fn recvfrom(&self, buf: &mut [u8]) -> Result<(usize, (Ipv4Addr, u16)), oskit_com::Error> {
        let net = self.net();
        loop {
            {
                let mut inner = self.inner.lock();
                if let Some((src, data)) = inner.recvq.pop_front() {
                    inner.queued -= data.len();
                    let n = buf.len().min(data.len());
                    buf[..n].copy_from_slice(&data[..n]);
                    net.env.machine.book(
                        boundary!("freebsd-net", "sockbuf"),
                        EventKind::Copy { bytes: n },
                    );
                    return Ok((n, src));
                }
            }
            net.sleep.tsleep(&net.env, self.chan());
        }
    }

    /// Whether a datagram is waiting.
    pub fn readable(&self) -> bool {
        !self.inner.lock().recvq.is_empty()
    }

    /// Datagrams dropped at the socket (queue overflow).
    pub fn drops(&self) -> u64 {
        self.inner.lock().dropped
    }
}

/// The UDP demux (interrupt level).
pub(crate) fn udp_input(net: &Arc<BsdNet>, src: Ipv4Addr, dst: Ipv4Addr, mut pkt: MbufChain) {
    net.env
        .machine
        .book(boundary!("freebsd-net", "udp_in"), EventKind::Layer);
    let total = pkt.pkt_len();
    if total < UDP_HDR_LEN {
        return;
    }
    // Verify the checksum (optional on the wire, always emitted by us).
    net.env.machine.book(
        boundary!("freebsd-net", "udp_in"),
        EventKind::Checksum { bytes: total },
    );
    let mut pseudo = Vec::with_capacity(12);
    pseudo.extend_from_slice(&src.octets());
    pseudo.extend_from_slice(&dst.octets());
    pseudo.push(0);
    pseudo.push(ipproto::UDP);
    pseudo.extend_from_slice(&(total as u16).to_be_bytes());
    let csum_field = {
        pkt.m_pullup(UDP_HDR_LEN);
        pkt.with_contig(UDP_HDR_LEN, |h| u16::from_be_bytes([h[6], h[7]]))
            .expect("pulled up")
    };
    if csum_field != 0 && in_cksum_chain(&pkt, &pseudo) != 0 {
        return;
    }
    let (sport, dport, ulen) = pkt
        .with_contig(UDP_HDR_LEN, |h| {
            (
                u16::from_be_bytes([h[0], h[1]]),
                u16::from_be_bytes([h[2], h[3]]),
                usize::from(u16::from_be_bytes([h[4], h[5]])),
            )
        })
        .expect("pulled up");
    if ulen < UDP_HDR_LEN || ulen > total {
        return;
    }
    pkt.m_adj_tail(total - ulen);
    pkt.m_adj(UDP_HDR_LEN);
    let sock = net.udp_socks.lock().get(&dport).cloned();
    let Some(sock) = sock else { return };
    {
        let mut inner = sock.inner.lock();
        let data = pkt.to_vec();
        if inner.queued + data.len() > inner.hiwat {
            inner.dropped += 1;
            return;
        }
        inner.queued += data.len();
        inner.recvq.push_back(((src, sport), data));
    }
    net.sleep.wakeup(sock.chan());
}
