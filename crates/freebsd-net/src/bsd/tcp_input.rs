//! `tcp_input` — segment arrival processing, BSD style.

use super::ip::{in_cksum_chain, ipproto};
use super::mbuf::MbufChain;
use super::socket::seq;
use super::stack::BsdNet;
use super::tcp::{th, Tcb, TcpSock, TcpState, TFlags, TCP_HDR_LEN, TCP_MSS};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A parsed TCP header.
#[derive(Clone, Copy, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Data offset in bytes.
    pub doff: usize,
    /// Flag bits.
    pub flags: u8,
    /// Advertised window.
    pub wnd: u16,
    /// MSS option value, if present (SYN segments).
    pub mss_opt: Option<u16>,
}

impl TcpHeader {
    /// Parses a header (and its options) from `p`.
    pub fn parse(p: &[u8]) -> Option<TcpHeader> {
        if p.len() < TCP_HDR_LEN {
            return None;
        }
        let doff = usize::from(p[12] >> 4) * 4;
        if doff < TCP_HDR_LEN || doff > p.len() {
            return None;
        }
        let mut mss_opt = None;
        let mut o = TCP_HDR_LEN;
        while o < doff {
            match p[o] {
                0 => break,        // End of options.
                1 => o += 1,       // NOP.
                2 if o + 4 <= doff => {
                    mss_opt = Some(u16::from_be_bytes([p[o + 2], p[o + 3]]));
                    o += 4;
                }
                _ => {
                    let l = usize::from(*p.get(o + 1)?);
                    if l < 2 {
                        return None;
                    }
                    o += l;
                }
            }
        }
        Some(TcpHeader {
            sport: u16::from_be_bytes([p[0], p[1]]),
            dport: u16::from_be_bytes([p[2], p[3]]),
            seq: u32::from_be_bytes([p[4], p[5], p[6], p[7]]),
            ack: u32::from_be_bytes([p[8], p[9], p[10], p[11]]),
            doff,
            flags: p[13],
            wnd: u16::from_be_bytes([p[14], p[15]]),
            mss_opt,
        })
    }
}

/// The segment arrival entry point (interrupt level).
pub(crate) fn tcp_input(net: &Arc<BsdNet>, src: Ipv4Addr, dst: Ipv4Addr, mut pkt: MbufChain) {
    net.env
        .machine
        .charge_layer_at(oskit_machine::boundary!("freebsd-net", "tcp_in"));
    let total = pkt.pkt_len();
    if total < TCP_HDR_LEN {
        return;
    }
    // Verify the checksum over the pseudo-header and segment.
    net.env
        .machine
        .charge_checksum_at(oskit_machine::boundary!("freebsd-net", "tcp_in"), total);
    let mut pseudo = Vec::with_capacity(12);
    pseudo.extend_from_slice(&src.octets());
    pseudo.extend_from_slice(&dst.octets());
    pseudo.push(0);
    pseudo.push(ipproto::TCP);
    pseudo.extend_from_slice(&(total as u16).to_be_bytes());
    if in_cksum_chain(&pkt, &pseudo) != 0 {
        return; // Corrupt segment.
    }
    let pull = pkt.pkt_len().min(60.min(total));
    pkt.m_pullup(pull);
    let Some(Some(hdr)) = pkt.with_contig(pull, TcpHeader::parse) else {
        return;
    };
    pkt.m_adj(hdr.doff);

    let conn = net
        .tcp_conns
        .lock()
        .get(&(hdr.dport, src, hdr.sport))
        .cloned();
    if let Some(sock) = conn {
        sock_input(&sock, net, &hdr, pkt, src);
        return;
    }
    let listener = net.tcp_listen.lock().get(&hdr.dport).cloned();
    if let Some(sock) = listener {
        listen_input(&sock, net, &hdr, src, dst);
    }
    // No socket: BSD would send RST; the kit's examples never need it and
    // the connecting side times out cleanly.
}

/// SYN arriving at a listener: spawn a child in SYN_RECEIVED.
fn listen_input(
    listener: &Arc<TcpSock>,
    net: &Arc<BsdNet>,
    hdr: &TcpHeader,
    src: Ipv4Addr,
    dst: Ipv4Addr,
) {
    if hdr.flags & th::SYN == 0 || hdr.flags & (th::ACK | th::RST) != 0 {
        return;
    }
    if !listener.listen_has_room() {
        return; // Backlog full: drop the SYN; the peer retransmits.
    }
    let child = TcpSock::new(net);
    {
        let mut tcb = child.tcb_lock();
        tcb.local = (dst, listener.local_addr().1);
        tcb.foreign = (src, hdr.sport);
        tcb.rcv_nxt = hdr.seq.wrapping_add(1);
        tcb.rcv_adv = tcb.rcv_nxt;
        let iss = net.next_iss();
        tcb.snd_una = iss;
        tcb.snd_nxt = iss;
        tcb.snd_max = iss;
        tcb.snd_wnd = u32::from(hdr.wnd);
        if let Some(mss) = hdr.mss_opt {
            tcb.t_maxseg = usize::from(mss).min(TCP_MSS);
        }
        tcb.t_state = TcpState::SynReceived;
        tcb.set_parent(listener);
        net.tcp_conns
            .lock()
            .insert((tcb.local.1, src, hdr.sport), Arc::clone(&child));
        child.send_syn_locked(net, &mut tcb, true);
    }
}

/// Segment arriving at a connection.
fn sock_input(
    sock: &Arc<TcpSock>,
    net: &Arc<BsdNet>,
    hdr: &TcpHeader,
    payload: MbufChain,
    _src: Ipv4Addr,
) {
    let mut announce_parent = None;
    let mut closed = false;
    {
        let mut tcb = sock.tcb_lock();
        tcb.segs_rcvd += 1;

        if hdr.flags & th::RST != 0 {
            tcb.so_error = Some(match tcb.t_state {
                TcpState::SynSent => oskit_com::Error::ConnRefused,
                _ => oskit_com::Error::ConnReset,
            });
            tcb.t_state = TcpState::Closed;
            closed = true;
        } else {
            match tcb.t_state {
                TcpState::SynSent
                    if hdr.flags & (th::SYN | th::ACK) == (th::SYN | th::ACK)
                        && hdr.ack == tcb.snd_nxt =>
                {
                    tcb.rcv_nxt = hdr.seq.wrapping_add(1);
                    tcb.rcv_adv = tcb.rcv_nxt;
                    tcb.snd_una = hdr.ack;
                    tcb.snd_wnd = u32::from(hdr.wnd);
                    if let Some(mss) = hdr.mss_opt {
                        tcb.t_maxseg = usize::from(mss).min(TCP_MSS);
                    }
                    tcb.t_state = TcpState::Established;
                    tcb.clear_rexmt();
                    tcb.t_flags.set(TFlags::ACKNOW);
                }
                TcpState::SynReceived if hdr.flags & th::ACK != 0 && hdr.ack == tcb.snd_nxt => {
                    tcb.t_state = TcpState::Established;
                    tcb.snd_una = hdr.ack;
                    tcb.snd_wnd = u32::from(hdr.wnd);
                    tcb.clear_rexmt();
                    announce_parent = tcb.take_parent();
                }
                _ => {}
            }
            if matches!(
                tcb.t_state,
                TcpState::Established
                    | TcpState::FinWait1
                    | TcpState::FinWait2
                    | TcpState::CloseWait
                    | TcpState::Closing
                    | TcpState::LastAck
                    | TcpState::TimeWait
            ) {
                process_segment(sock, net, &mut tcb, hdr, payload, &mut closed);
            }
        }
        if !closed {
            sock.tcp_output_locked(net, &mut tcb);
        }
    }
    if closed {
        sock.detach_and_wake(net);
    } else {
        sock.wake_waiters(net);
    }
    if let Some(parent) = announce_parent {
        parent.enqueue_accepted(net, Arc::clone(sock));
    }
}

/// Established-family processing: ACKs, data, FIN.
fn process_segment(
    sock: &Arc<TcpSock>,
    net: &Arc<BsdNet>,
    tcb: &mut Tcb,
    hdr: &TcpHeader,
    mut payload: MbufChain,
    closed: &mut bool,
) {
    let now = net.env.now();
    // --- ACK processing ---
    if hdr.flags & th::ACK != 0 {
        let ack = hdr.ack;
        if seq::gt(ack, tcb.snd_una) && seq::leq(ack, tcb.snd_max) {
            tcb.ack_advance(net, ack, u32::from(hdr.wnd), now);
            match tcb.t_state {
                TcpState::FinWait1 if tcb.fin_acked() => {
                    tcb.t_state = TcpState::FinWait2;
                }
                TcpState::Closing if tcb.fin_acked() => {
                    tcb.enter_timewait(now);
                }
                TcpState::LastAck if tcb.fin_acked() => {
                    tcb.t_state = TcpState::Closed;
                    *closed = true;
                    return;
                }
                _ => {}
            }
        } else if ack == tcb.snd_una
            && payload.is_empty()
            && hdr.flags & (th::SYN | th::FIN) == 0
            && u32::from(hdr.wnd) == tcb.snd_wnd
            && tcb.snd_buf.cc() > 0
        {
            // Duplicate ACK: fast retransmit after three.
            tcb.dupack(sock, net);
        } else {
            tcb.snd_wnd = u32::from(hdr.wnd);
        }
    }

    // --- Data ---
    let len = payload.pkt_len();
    if len > 0 {
        let seg_seq = hdr.seq;
        if seg_seq == tcb.rcv_nxt {
            tcb.append_in_order(net, payload);
        } else if seq::gt(seg_seq, tcb.rcv_nxt) {
            // Out of order: hold for reassembly (bounded by the buffer).
            tcb.reass_insert(seg_seq, payload.to_vec());
            tcb.t_flags.set(TFlags::ACKNOW); // Duplicate ACK cues fast rexmt.
        } else {
            // Partially or wholly duplicate.
            let dup = tcb.rcv_nxt.wrapping_sub(seg_seq) as usize;
            if dup < len {
                payload.m_adj(dup);
                tcb.append_in_order(net, payload);
            }
            tcb.t_flags.set(TFlags::ACKNOW);
        }
        tcb.drain_reassembly(net);
    }

    // --- FIN ---
    let fin_seq = hdr.seq.wrapping_add(len as u32);
    if hdr.flags & th::FIN != 0 && fin_seq == tcb.rcv_nxt && !tcb.peer_closed {
        tcb.rcv_nxt = tcb.rcv_nxt.wrapping_add(1);
        tcb.peer_closed = true;
        tcb.t_flags.set(TFlags::ACKNOW);
        match tcb.t_state {
            TcpState::Established => tcb.t_state = TcpState::CloseWait,
            TcpState::FinWait1 => {
                if tcb.fin_acked() {
                    tcb.enter_timewait(now);
                } else {
                    tcb.t_state = TcpState::Closing;
                }
            }
            TcpState::FinWait2 => tcb.enter_timewait(now),
            _ => {}
        }
    }
    if tcb.t_state == TcpState::TimeWait && (len > 0 || hdr.flags & th::FIN != 0) {
        // Re-ACK retransmissions while lingering.
        tcb.t_flags.set(TFlags::ACKNOW);
    }
}
