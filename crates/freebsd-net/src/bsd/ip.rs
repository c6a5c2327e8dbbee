//! IPv4 input/output with fragmentation and reassembly, plus ICMP echo —
//! BSD `ip_input.c`/`ip_output.c`/`ip_icmp.c` in donor idiom.

use super::mbuf::MbufChain;
use super::net::Ifnet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// IP protocol numbers.
pub mod ipproto {
    /// ICMP.
    pub const ICMP: u8 = 1;
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// IP header length (no options, as the stack emits).
pub const IP_HDR_LEN: usize = 20;

/// The Internet checksum (RFC 1071) — `in_cksum`.
pub fn in_cksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Checksum of an mbuf chain (walks the chain as `in_cksum` does).
pub fn in_cksum_chain(chain: &MbufChain, pseudo: &[u8]) -> u16 {
    // Fold the pseudo-header followed by the chain bytes.  Odd-length
    // mbufs require byte-position tracking.
    let mut sum = 0u32;
    let mut odd = false;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            if odd {
                sum += u32::from(b);
            } else {
                sum += u32::from(b) << 8;
            }
            odd = !odd;
        }
    };
    fold(pseudo);
    for m in chain.iter() {
        m.with_data(&mut fold);
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// A parsed IP header.
#[derive(Clone, Copy, Debug)]
pub struct IpHeader {
    /// Header length in bytes.
    pub ihl: usize,
    /// Total packet length.
    pub total_len: usize,
    /// Identification (for reassembly).
    pub id: u16,
    /// Fragment offset in bytes.
    pub frag_off: usize,
    /// More-fragments flag.
    pub more_frags: bool,
    /// Protocol.
    pub proto: u8,
    /// Source.
    pub src: Ipv4Addr,
    /// Destination.
    pub dst: Ipv4Addr,
}

impl IpHeader {
    /// Parses and checksums a header from the front of `p`.
    pub fn parse(p: &[u8]) -> Option<IpHeader> {
        if p.len() < IP_HDR_LEN || p[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(p[0] & 0xF) * 4;
        if ihl < IP_HDR_LEN || p.len() < ihl {
            return None;
        }
        if in_cksum(&p[..ihl]) != 0 {
            return None;
        }
        let flags_frag = u16::from_be_bytes([p[6], p[7]]);
        Some(IpHeader {
            ihl,
            total_len: usize::from(u16::from_be_bytes([p[2], p[3]])),
            id: u16::from_be_bytes([p[4], p[5]]),
            frag_off: usize::from(flags_frag & 0x1FFF) * 8,
            more_frags: flags_frag & 0x2000 != 0,
            proto: p[9],
            src: Ipv4Addr::new(p[12], p[13], p[14], p[15]),
            dst: Ipv4Addr::new(p[16], p[17], p[18], p[19]),
        })
    }
}

/// One packet's reassembly state (`struct ipq`).
struct IpQ {
    /// Received fragments: offset → bytes.
    frags: HashMap<usize, Vec<u8>>,
    /// Total length once the last fragment arrives.
    total: Option<usize>,
    /// Arrival time of the first fragment, for expiry.
    born_ns: u64,
}

/// IP-layer state: ident counter and the reassembly queue.
pub struct IpState {
    ident: Mutex<u16>,
    reass: Mutex<HashMap<(Ipv4Addr, Ipv4Addr, u16, u8), IpQ>>,
}

impl Default for IpState {
    fn default() -> Self {
        Self::new()
    }
}

impl IpState {
    /// Fresh state.
    pub fn new() -> IpState {
        IpState {
            ident: Mutex::new(1),
            reass: Mutex::new(HashMap::new()),
        }
    }

    /// `ip_output`: wraps `payload` in an IP header and transmits via
    /// `ifp`, fragmenting to the interface MTU as needed.
    ///
    /// Returns the number of fragments sent (1 = unfragmented).
    pub fn ip_output(
        &self,
        ifp: &Arc<Ifnet>,
        proto: u8,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: MbufChain,
    ) -> usize {
        let id = {
            let mut i = self.ident.lock();
            *i = i.wrapping_add(1);
            *i
        };
        let max_payload = (ifp.mtu - IP_HDR_LEN) & !7;
        let total = payload.pkt_len();
        if total <= ifp.mtu - IP_HDR_LEN {
            self.emit_fragment(ifp, proto, src, dst, id, 0, false, payload);
            return 1;
        }
        // Fragment: split the chain by reference (m_copym shares storage).
        let mut sent = 0;
        let mut off = 0;
        while off < total {
            let n = max_payload.min(total - off);
            let frag = payload.m_copym(off, n);
            let more = off + n < total;
            self.emit_fragment(ifp, proto, src, dst, id, off, more, frag);
            off += n;
            sent += 1;
        }
        sent
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_fragment(
        &self,
        ifp: &Arc<Ifnet>,
        proto: u8,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        id: u16,
        frag_off: usize,
        more: bool,
        mut payload: MbufChain,
    ) {
        let total = (IP_HDR_LEN + payload.pkt_len()) as u16;
        let mut hdr = [0u8; IP_HDR_LEN];
        hdr[0] = 0x45;
        hdr[2..4].copy_from_slice(&total.to_be_bytes());
        hdr[4..6].copy_from_slice(&id.to_be_bytes());
        let flags_frag = ((frag_off / 8) as u16) | if more { 0x2000 } else { 0 };
        hdr[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        hdr[8] = 64; // TTL.
        hdr[9] = proto;
        hdr[12..16].copy_from_slice(&src.octets());
        hdr[16..20].copy_from_slice(&dst.octets());
        let csum = in_cksum(&hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
        payload.m_prepend(&hdr);
        if ifp.on_link(dst) {
            ifp.arp_resolve_output(dst, payload);
        }
        // Off-link with no gateway: dropped, as the testbed has none.
    }

    /// `ip_input` preprocessing: validates the header and performs
    /// reassembly.  Returns the complete transport payload (header
    /// stripped) when a full datagram is available.
    ///
    /// `now_ns` drives fragment-queue expiry (30 s, as in BSD).
    pub fn ip_input(&self, mut pkt: MbufChain, now_ns: u64) -> Option<(IpHeader, MbufChain)> {
        let copied = pkt.m_pullup(IP_HDR_LEN.min(pkt.pkt_len()));
        let _ = copied;
        let hdr = pkt.with_contig(IP_HDR_LEN, IpHeader::parse)??;
        if hdr.total_len > pkt.pkt_len() || hdr.total_len < hdr.ihl {
            return None;
        }
        // Trim link-layer padding and the header.
        pkt.m_adj_tail(pkt.pkt_len() - hdr.total_len);
        pkt.m_adj(hdr.ihl);
        if hdr.frag_off == 0 && !hdr.more_frags {
            return Some((hdr, pkt));
        }
        // Reassembly.
        let key = (hdr.src, hdr.dst, hdr.id, hdr.proto);
        let mut reass = self.reass.lock();
        // Expire stale queues (ipfragttl).
        reass.retain(|_, q| now_ns.saturating_sub(q.born_ns) < 30_000_000_000);
        let q = reass.entry(key).or_insert_with(|| IpQ {
            frags: HashMap::new(),
            total: None,
            born_ns: now_ns,
        });
        let flat = pkt.to_vec();
        if !hdr.more_frags {
            q.total = Some(hdr.frag_off + flat.len());
        }
        q.frags.insert(hdr.frag_off, flat);
        let total = q.total?;
        // Complete?
        let mut have = 0;
        while have < total {
            match q.frags.get(&have) {
                Some(f) => have += f.len(),
                None => return None,
            }
        }
        let mut data = vec![0u8; total];
        for (&off, f) in &q.frags {
            data[off..off + f.len()].copy_from_slice(f);
        }
        reass.remove(&key);
        Some((hdr, MbufChain::from_slice(&data)))
    }

    /// Fragment queues currently held (diagnostics).
    pub fn reass_pending(&self) -> usize {
        self.reass.lock().len()
    }
}

/// Builds an ICMP echo reply for an echo request payload, or `None` for
/// other ICMP types (`icmp_input` reduced to what the kit's examples use).
pub fn icmp_reflect(payload: &MbufChain) -> Option<MbufChain> {
    let data = payload.to_vec();
    if data.len() < 8 || data[0] != 8 {
        return None; // Not an echo request.
    }
    let mut reply = data;
    reply[0] = 0; // Echo reply.
    reply[2] = 0;
    reply[3] = 0;
    let csum = in_cksum(&reply);
    reply[2..4].copy_from_slice(&csum.to_be_bytes());
    Some(MbufChain::from_slice(&reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsd::net::IfOutput;
    use parking_lot::Mutex as PMutex;

    struct Capture(PMutex<Vec<Vec<u8>>>);
    impl IfOutput for Capture {
        fn output(&self, frame: MbufChain) {
            self.0.lock().push(frame.to_vec());
        }
    }

    fn setup() -> (Arc<Ifnet>, Arc<Capture>, IpState) {
        let ifp = Ifnet::new("de0", [2, 0, 0, 0, 0, 1]);
        ifp.ifconfig(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(255, 255, 255, 0));
        let cap = Arc::new(Capture(PMutex::new(Vec::new())));
        ifp.set_output(Arc::clone(&cap) as Arc<dyn IfOutput>);
        // Pre-resolve the peer so frames flow without ARP.
        let mut reply = vec![0u8; 28];
        reply[6..8].copy_from_slice(&2u16.to_be_bytes());
        reply[8..14].copy_from_slice(&[0xEE; 6]);
        reply[14..18].copy_from_slice(&Ipv4Addr::new(10, 0, 0, 2).octets());
        ifp.arp_input(&reply);
        cap.0.lock().clear();
        (ifp, cap, IpState::new())
    }

    fn strip_ether(frame: &[u8]) -> &[u8] {
        &frame[14..]
    }

    #[test]
    fn output_header_is_valid_and_checksummed() {
        let (ifp, cap, ip) = setup();
        let n = ip.ip_output(
            &ifp,
            ipproto::UDP,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            MbufChain::from_slice(b"hello"),
        );
        assert_eq!(n, 1);
        let frames = cap.0.lock();
        let p = strip_ether(&frames[0]);
        let hdr = IpHeader::parse(p).expect("valid header");
        assert_eq!(hdr.proto, ipproto::UDP);
        assert_eq!(hdr.total_len, 25);
        assert_eq!(hdr.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(&p[20..25], b"hello");
    }

    #[test]
    fn input_rejects_bad_checksum() {
        let (ifp, cap, ip) = setup();
        ip.ip_output(
            &ifp,
            ipproto::UDP,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            MbufChain::from_slice(b"x"),
        );
        let mut p = strip_ether(&cap.0.lock()[0]).to_vec();
        p[10] ^= 0xFF; // Corrupt the checksum.
        assert!(ip.ip_input(MbufChain::from_slice(&p), 0).is_none());
    }

    #[test]
    fn fragmentation_and_reassembly_round_trip() {
        let (ifp, cap, ip) = setup();
        let payload: Vec<u8> = (0..4000).map(|i| (i % 253) as u8).collect();
        let n = ip.ip_output(
            &ifp,
            ipproto::UDP,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            MbufChain::from_slice(&payload),
        );
        assert_eq!(n, 3); // 4000 bytes over 1480-byte fragments.
        let frames: Vec<Vec<u8>> = cap.0.lock().clone();
        let receiver = IpState::new();
        let mut done = None;
        // Deliver out of order, as networks do.
        for f in frames.iter().rev() {
            let r = receiver.ip_input(MbufChain::from_slice(strip_ether(f)), 0);
            if let Some((hdr, chain)) = r {
                assert!(done.is_none());
                done = Some((hdr, chain));
            }
        }
        let (hdr, chain) = done.expect("reassembled");
        assert_eq!(hdr.proto, ipproto::UDP);
        assert_eq!(chain.to_vec(), payload);
        assert_eq!(receiver.reass_pending(), 0);
    }

    #[test]
    fn incomplete_fragments_expire() {
        let (ifp, cap, ip) = setup();
        let payload = vec![0u8; 3000];
        ip.ip_output(
            &ifp,
            ipproto::UDP,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            MbufChain::from_slice(&payload),
        );
        let frames: Vec<Vec<u8>> = cap.0.lock().clone();
        let receiver = IpState::new();
        // Only the first fragment arrives.
        assert!(receiver
            .ip_input(MbufChain::from_slice(strip_ether(&frames[0])), 0)
            .is_none());
        assert_eq!(receiver.reass_pending(), 1);
        // 31 virtual seconds later another *fragment* triggers expiry
        // (the queue is only consulted on the fragment path).
        let r = receiver.ip_input(
            MbufChain::from_slice(strip_ether(&frames[1])),
            31_000_000_000,
        );
        assert!(r.is_none());
        // The stale queue was expired; only the fresh fragment remains.
        assert_eq!(receiver.reass_pending(), 1);
        let held: usize = 1;
        assert_eq!(receiver.reass_pending(), held);
    }

    #[test]
    fn icmp_echo_reflect() {
        let mut echo = vec![8u8, 0, 0, 0, 0x12, 0x34, 0x00, 0x01];
        echo.extend_from_slice(b"ping-payload");
        let csum = in_cksum(&echo);
        echo[2..4].copy_from_slice(&csum.to_be_bytes());
        let reply = icmp_reflect(&MbufChain::from_slice(&echo)).expect("reply");
        let r = reply.to_vec();
        assert_eq!(r[0], 0); // Echo reply.
        assert_eq!(in_cksum(&r), 0); // Valid checksum.
        assert_eq!(&r[4..], &echo[4..]); // Ident/seq/payload preserved.
                                         // Non-echo types are ignored.
        assert!(icmp_reflect(&MbufChain::from_slice(&[0u8; 8])).is_none());
    }

    #[test]
    fn chain_checksum_matches_flat_checksum() {
        let data: Vec<u8> = (0..999).map(|i| (i * 7 % 256) as u8).collect();
        let mut chain = MbufChain::from_slice(&data[..123]);
        chain.m_cat(MbufChain::from_slice(&data[123..501]));
        chain.m_cat(MbufChain::from_slice(&data[501..]));
        assert_eq!(in_cksum_chain(&chain, &[]), in_cksum(&data));
        // With a pseudo-header prefix.
        let pseudo = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut flat = pseudo.to_vec();
        flat.extend_from_slice(&data);
        assert_eq!(in_cksum_chain(&chain, &pseudo), in_cksum(&flat));
    }
}
