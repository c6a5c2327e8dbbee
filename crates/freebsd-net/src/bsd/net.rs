//! `ifnet`, Ethernet framing and ARP — the BSD link layer in donor idiom.

use super::mbuf::{Mbuf, MbufChain};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Ethernet protocol ids.
pub mod ethertype {
    /// IPv4.
    pub const IP: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
}

/// Ethernet header length.
pub const ETHER_HDR_LEN: usize = 14;

/// The interface output hook, installed by the glue: "when the client OS
/// binds the FreeBSD protocol stack to a Linux device driver during
/// initialization, these components exchange callback functions" (§5).
pub trait IfOutput: Send + Sync {
    /// Transmits a complete Ethernet frame.
    fn output(&self, frame: MbufChain);
}

/// A network interface (`struct ifnet`).
pub struct Ifnet {
    /// Interface name ("de0").
    pub name: String,
    /// Station MAC address.
    pub mac: [u8; 6],
    /// Interface MTU.
    pub mtu: usize,
    addr: Mutex<Option<(Ipv4Addr, Ipv4Addr)>>,
    output: Mutex<Option<Arc<dyn IfOutput>>>,
    arp: ArpCache,
}

impl Ifnet {
    /// Creates an interface; the glue installs the output hook and the
    /// client configures the address.
    pub fn new(name: impl Into<String>, mac: [u8; 6]) -> Arc<Ifnet> {
        Arc::new(Ifnet {
            name: name.into(),
            mac,
            mtu: 1500,
            addr: Mutex::new(None),
            output: Mutex::new(None),
            arp: ArpCache::new(),
        })
    }

    /// Installs the transmit hook.
    pub fn set_output(&self, out: Arc<dyn IfOutput>) {
        *self.output.lock() = Some(out);
    }

    /// `ifconfig`: sets address and netmask.
    pub fn ifconfig(&self, addr: Ipv4Addr, mask: Ipv4Addr) {
        *self.addr.lock() = Some((addr, mask));
    }

    /// The configured address, if any.
    pub fn address(&self) -> Option<Ipv4Addr> {
        self.addr.lock().map(|(a, _)| a)
    }

    /// Whether `dst` is on this interface's subnet.
    pub fn on_link(&self, dst: Ipv4Addr) -> bool {
        match *self.addr.lock() {
            Some((a, m)) => u32::from(dst) & u32::from(m) == u32::from(a) & u32::from(m),
            None => false,
        }
    }

    /// `ether_output`: frames `payload` and transmits.
    pub fn ether_output(&self, dst_mac: [u8; 6], ethertype: u16, mut payload: MbufChain) {
        let mut hdr = [0u8; ETHER_HDR_LEN];
        hdr[0..6].copy_from_slice(&dst_mac);
        hdr[6..12].copy_from_slice(&self.mac);
        hdr[12..14].copy_from_slice(&ethertype.to_be_bytes());
        payload.m_prepend(&hdr);
        if let Some(out) = self.output.lock().clone() {
            out.output(payload);
        }
    }

    /// Resolves `dst` and sends the IP packet, queueing on a pending ARP
    /// resolution when necessary.
    pub fn arp_resolve_output(&self, dst: Ipv4Addr, packet: MbufChain) {
        if let Some(mac) = self.arp.lookup(dst) {
            self.ether_output(mac, ethertype::IP, packet);
            return;
        }
        self.arp.enqueue(dst, packet);
        self.arp_request(dst);
    }

    fn arp_request(&self, dst: Ipv4Addr) {
        let Some(my_ip) = self.address() else { return };
        let mut req = vec![0u8; 28];
        req[0..2].copy_from_slice(&1u16.to_be_bytes()); // Hardware: Ethernet.
        req[2..4].copy_from_slice(&ethertype::IP.to_be_bytes());
        req[4] = 6;
        req[5] = 4;
        req[6..8].copy_from_slice(&1u16.to_be_bytes()); // Opcode: request.
        req[8..14].copy_from_slice(&self.mac);
        req[14..18].copy_from_slice(&my_ip.octets());
        req[24..28].copy_from_slice(&dst.octets());
        // MH_ALIGN: leave room for the Ethernet header so the packet
        // stays a single (mappable) mbuf through ether_output.
        self.ether_output(
            [0xFF; 6],
            ethertype::ARP,
            MbufChain::from_mbuf(Mbuf::small(&req, 14)),
        );
    }

    /// `arpintr`: processes a received ARP packet (Ethernet header already
    /// stripped), replying to requests for our address and draining any
    /// transmissions queued on the resolution.
    pub fn arp_input(&self, pkt: &[u8]) {
        if pkt.len() < 28 {
            return;
        }
        let op = u16::from_be_bytes([pkt[6], pkt[7]]);
        let sha: [u8; 6] = pkt[8..14].try_into().expect("sized");
        let spa = Ipv4Addr::new(pkt[14], pkt[15], pkt[16], pkt[17]);
        let tpa = Ipv4Addr::new(pkt[24], pkt[25], pkt[26], pkt[27]);
        self.arp.learn(spa, sha);
        if op == 1 && Some(tpa) == self.address() {
            let mut reply = vec![0u8; 28];
            reply[0..2].copy_from_slice(&1u16.to_be_bytes());
            reply[2..4].copy_from_slice(&ethertype::IP.to_be_bytes());
            reply[4] = 6;
            reply[5] = 4;
            reply[6..8].copy_from_slice(&2u16.to_be_bytes()); // Reply.
            reply[8..14].copy_from_slice(&self.mac);
            reply[14..18].copy_from_slice(&tpa.octets());
            reply[18..24].copy_from_slice(&sha);
            reply[24..28].copy_from_slice(&spa.octets());
            // MH_ALIGN, as in arp_request: keep the reply one mbuf.
            self.ether_output(
                sha,
                ethertype::ARP,
                MbufChain::from_mbuf(Mbuf::small(&reply, 14)),
            );
        }
        for queued in self.arp.drain(spa) {
            self.ether_output(sha, ethertype::IP, queued);
        }
    }

    /// Direct cache access for diagnostics.
    pub fn arp_cache_len(&self) -> usize {
        self.arp.table.lock().len()
    }
}

/// The ARP cache with its pending-transmission queue.
struct ArpCache {
    table: Mutex<HashMap<Ipv4Addr, [u8; 6]>>,
    pending: Mutex<HashMap<Ipv4Addr, Vec<MbufChain>>>,
}

impl ArpCache {
    fn new() -> ArpCache {
        ArpCache {
            table: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
        }
    }

    fn lookup(&self, ip: Ipv4Addr) -> Option<[u8; 6]> {
        self.table.lock().get(&ip).copied()
    }

    fn learn(&self, ip: Ipv4Addr, mac: [u8; 6]) {
        self.table.lock().insert(ip, mac);
    }

    fn enqueue(&self, ip: Ipv4Addr, pkt: MbufChain) {
        self.pending.lock().entry(ip).or_default().push(pkt);
    }

    fn drain(&self, ip: Ipv4Addr) -> Vec<MbufChain> {
        self.pending.lock().remove(&ip).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Capture(Mutex<Vec<Vec<u8>>>);
    impl IfOutput for Capture {
        fn output(&self, frame: MbufChain) {
            self.0.lock().push(frame.to_vec());
        }
    }

    fn ifnet_with_capture() -> (Arc<Ifnet>, Arc<Capture>) {
        let ifp = Ifnet::new("de0", [2, 0, 0, 0, 0, 1]);
        ifp.ifconfig(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(255, 255, 255, 0));
        let cap = Arc::new(Capture(Mutex::new(Vec::new())));
        ifp.set_output(Arc::clone(&cap) as Arc<dyn IfOutput>);
        (ifp, cap)
    }

    #[test]
    fn ether_output_frames_correctly() {
        let (ifp, cap) = ifnet_with_capture();
        ifp.ether_output([9; 6], ethertype::IP, MbufChain::from_slice(b"DATA"));
        let frames = cap.0.lock();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(&f[0..6], &[9; 6]);
        assert_eq!(&f[6..12], &[2, 0, 0, 0, 0, 1]);
        assert_eq!(u16::from_be_bytes([f[12], f[13]]), ethertype::IP);
        assert_eq!(&f[14..], b"DATA");
    }

    #[test]
    fn unresolved_destination_triggers_arp_and_queues() {
        let (ifp, cap) = ifnet_with_capture();
        ifp.arp_resolve_output(Ipv4Addr::new(10, 0, 0, 2), MbufChain::from_slice(b"IPPKT"));
        {
            let frames = cap.0.lock();
            assert_eq!(frames.len(), 1, "only the ARP request went out");
            let f = &frames[0];
            assert_eq!(&f[0..6], &[0xFF; 6]); // Broadcast.
            assert_eq!(u16::from_be_bytes([f[12], f[13]]), ethertype::ARP);
            assert_eq!(u16::from_be_bytes([f[20], f[21]]), 1); // Request.
        }
        // The reply arrives; the queued packet drains.
        let mut reply = vec![0u8; 28];
        reply[6..8].copy_from_slice(&2u16.to_be_bytes());
        reply[8..14].copy_from_slice(&[0xBB; 6]);
        reply[14..18].copy_from_slice(&Ipv4Addr::new(10, 0, 0, 2).octets());
        ifp.arp_input(&reply);
        let frames = cap.0.lock();
        assert_eq!(frames.len(), 2);
        let f = &frames[1];
        assert_eq!(&f[0..6], &[0xBB; 6]);
        assert_eq!(&f[14..], b"IPPKT");
    }

    #[test]
    fn arp_request_for_us_is_answered() {
        let (ifp, cap) = ifnet_with_capture();
        let mut req = vec![0u8; 28];
        req[6..8].copy_from_slice(&1u16.to_be_bytes());
        req[8..14].copy_from_slice(&[0xCC; 6]);
        req[14..18].copy_from_slice(&Ipv4Addr::new(10, 0, 0, 7).octets());
        req[24..28].copy_from_slice(&Ipv4Addr::new(10, 0, 0, 1).octets());
        ifp.arp_input(&req);
        let frames = cap.0.lock();
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(&f[0..6], &[0xCC; 6]);
        assert_eq!(u16::from_be_bytes([f[20], f[21]]), 2); // Reply.
                                                           // Sender was learned.
        assert_eq!(ifp.arp_cache_len(), 1);
    }

    #[test]
    fn arp_request_for_other_host_learns_but_stays_silent() {
        let (ifp, cap) = ifnet_with_capture();
        let mut req = vec![0u8; 28];
        req[6..8].copy_from_slice(&1u16.to_be_bytes());
        req[8..14].copy_from_slice(&[0xCC; 6]);
        req[14..18].copy_from_slice(&Ipv4Addr::new(10, 0, 0, 7).octets());
        req[24..28].copy_from_slice(&Ipv4Addr::new(10, 0, 0, 3).octets());
        ifp.arp_input(&req);
        assert!(cap.0.lock().is_empty());
        assert_eq!(ifp.arp_cache_len(), 1);
    }

    #[test]
    fn on_link_subnet_math() {
        let (ifp, _cap) = ifnet_with_capture();
        assert!(ifp.on_link(Ipv4Addr::new(10, 0, 0, 200)));
        assert!(!ifp.on_link(Ipv4Addr::new(10, 0, 1, 1)));
        assert!(!ifp.on_link(Ipv4Addr::new(192, 168, 0, 1)));
    }
}
