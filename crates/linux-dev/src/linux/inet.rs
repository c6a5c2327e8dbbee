//! A Linux 2.0-style mini TCP/IP stack, in donor idiom, operating
//! directly on [`SkBuff`]s.
//!
//! This is the "Linux" baseline of the paper's Table 1/2 experiments: a
//! monolithic kernel path where the protocol code and the drivers share
//! the `sk_buff` representation, so no cross-representation conversion
//! ever happens.  It is deliberately simpler than the FreeBSD component
//! (fixed RTO, go-back-N retransmission, no congestion control) —
//! consistent with the paper's observation that the BSD protocols were
//! "generally considered to have much more mature network protocols".

// Donor idiom: kernel entry points report failure the way Linux 2.0's
// `int` returns do — success or a bare error, with no error taxonomy.
// The COM socket glue translates to `oskit_com::Error` at the boundary.
#![allow(clippy::result_unit_err)]

use super::netdevice::{eth_p, NetDevice, ETH_HLEN};
use super::sched::WaitQueue;
use super::skbuff::SkBuff;
use oskit_machine::{boundary, EventKind};
use oskit_osenv::{OsEnv, TimerHandle};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;
use std::sync::{Arc, Weak};

/// Fixed MSS (Ethernet MTU minus IP+TCP headers).
pub const MSS: usize = 1460;
/// Send buffer limit.
pub const SNDBUF: usize = 128 * 1024;
/// Receive buffer limit (advertised window ceiling).
pub const RCVBUF: usize = 128 * 1024;
/// Fixed retransmission timeout (ns).
pub const RTO_NS: u64 = 200_000_000;

/// The Internet checksum (RFC 1071).
pub fn checksum(data: &[u8]) -> u16 {
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

/// TCP connection states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Passive open.
    Listen,
    /// Active open sent.
    SynSent,
    /// SYN received on a listener child.
    SynRecv,
    /// Data flows.
    Established,
    /// We closed first.
    FinWait1,
    /// Our FIN acked.
    FinWait2,
    /// Peer closed first.
    CloseWait,
    /// We closed after the peer.
    LastAck,
    /// Both closed; brief linger.
    TimeWait,
}

/// TCP header flags.
mod tf {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const PSH: u8 = 0x08;
    pub const ACK: u8 = 0x10;
}

struct TcpPcb {
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Peer's advertised window.
    snd_wnd: u32,
    /// Next expected receive sequence.
    rcv_nxt: u32,
    /// Bytes sent but not acknowledged (from `snd_una`).
    unacked: VecDeque<u8>,
    /// Bytes queued but not yet sent.
    pending: VecDeque<u8>,
    /// Received in-order data awaiting the application.
    recvq: VecDeque<u8>,
    /// Peer sent FIN and we consumed all data.
    peer_closed: bool,
    /// Time (ns) of last retransmission-relevant event.
    rto_deadline: u64,
    /// Sockets accepted but not yet taken.
    accept_queue: VecDeque<Arc<LinuxSock>>,
    backlog: usize,
}

/// A Linux-style TCP socket.
pub struct LinuxSock {
    inet: Weak<LinuxInet>,
    pcb: Mutex<TcpPcb>,
    /// Wakes readers.
    rx_wq: WaitQueue,
    /// Wakes writers.
    tx_wq: WaitQueue,
    /// Wakes connect/accept.
    conn_wq: WaitQueue,
}

impl LinuxSock {
    fn new(inet: &Arc<LinuxInet>) -> Arc<LinuxSock> {
        Arc::new(LinuxSock {
            inet: Arc::downgrade(inet),
            pcb: Mutex::new(TcpPcb {
                state: TcpState::Closed,
                local: (Ipv4Addr::UNSPECIFIED, 0),
                remote: (Ipv4Addr::UNSPECIFIED, 0),
                snd_una: 0,
                snd_nxt: 0,
                snd_wnd: RCVBUF as u32,
                rcv_nxt: 0,
                unacked: VecDeque::new(),
                pending: VecDeque::new(),
                recvq: VecDeque::new(),
                peer_closed: false,
                rto_deadline: u64::MAX,
                accept_queue: VecDeque::new(),
                backlog: 0,
            }),
            rx_wq: WaitQueue::new(),
            tx_wq: WaitQueue::new(),
            conn_wq: WaitQueue::new(),
        })
    }

    fn inet(&self) -> Arc<LinuxInet> {
        self.inet.upgrade().expect("stack gone")
    }

    /// Current state (diagnostics).
    pub fn state(&self) -> TcpState {
        self.pcb.lock().state
    }

    /// Local (addr, port).
    pub fn local_addr(&self) -> (Ipv4Addr, u16) {
        self.pcb.lock().local
    }

    /// Peer (addr, port).
    pub fn peer_addr(&self) -> (Ipv4Addr, u16) {
        self.pcb.lock().remote
    }

    /// Whether a read or accept would complete without blocking.
    pub fn readable(&self) -> bool {
        let pcb = self.pcb.lock();
        !pcb.recvq.is_empty() || pcb.peer_closed || !pcb.accept_queue.is_empty()
    }

    /// Binds the local port.
    pub fn bind(&self, port: u16) -> Result<(), ()> {
        let inet = self.inet();
        let mut ports = inet.bound.lock();
        if !ports.insert(port) {
            return Err(());
        }
        self.pcb.lock().local = (inet.addr(), port);
        Ok(())
    }

    /// Passive open.
    pub fn listen(self: &Arc<Self>, backlog: usize) -> Result<(), ()> {
        let inet = self.inet();
        let mut pcb = self.pcb.lock();
        if pcb.local.1 == 0 {
            return Err(());
        }
        pcb.state = TcpState::Listen;
        pcb.backlog = backlog.max(1);
        inet.listeners.lock().insert(pcb.local.1, Arc::clone(self));
        Ok(())
    }

    /// Active open; blocks until established or reset.
    pub fn connect(self: &Arc<Self>, dst: Ipv4Addr, port: u16) -> Result<(), ()> {
        let inet = self.inet();
        {
            let mut pcb = self.pcb.lock();
            if pcb.local.1 == 0 {
                pcb.local = (inet.addr(), inet.alloc_port());
            }
            pcb.remote = (dst, port);
            pcb.state = TcpState::SynSent;
            pcb.snd_una = 1000; // Fixed ISS: deterministic simulation.
            pcb.snd_nxt = 1000;
            inet.conns
                .lock()
                .insert((pcb.local.1, dst, port), Arc::clone(self));
        }
        self.send_segment(tf::SYN, &[], true);
        loop {
            {
                let pcb = self.pcb.lock();
                match pcb.state {
                    TcpState::Established => return Ok(()),
                    TcpState::Closed => return Err(()),
                    _ => {}
                }
            }
            self.conn_wq.sleep_on(&self.inet().env);
        }
    }

    /// Accepts one connection; blocks until available.
    pub fn accept(&self) -> Result<Arc<LinuxSock>, ()> {
        loop {
            {
                let mut pcb = self.pcb.lock();
                if pcb.state != TcpState::Listen {
                    return Err(());
                }
                if let Some(child) = pcb.accept_queue.pop_front() {
                    return Ok(child);
                }
            }
            self.conn_wq.sleep_on(&self.inet().env);
        }
    }

    /// Sends data; blocks while the send buffer is full.
    pub fn send(&self, buf: &[u8]) -> Result<usize, ()> {
        let mut written = 0;
        while written < buf.len() {
            {
                let mut pcb = self.pcb.lock();
                match pcb.state {
                    TcpState::Established | TcpState::CloseWait => {}
                    _ => return if written > 0 { Ok(written) } else { Err(()) },
                }
                let space = SNDBUF.saturating_sub(pcb.unacked.len() + pcb.pending.len());
                if space > 0 {
                    let n = space.min(buf.len() - written);
                    // memcpy_fromfs: the user→kernel copy.
                    self.inet().env.machine.book(
                        boundary!("linux-dev", "sockbuf"),
                        EventKind::Copy { bytes: n },
                    );
                    pcb.pending.extend(&buf[written..written + n]);
                    written += n;
                    drop(pcb);
                    self.push_output();
                    continue;
                }
            }
            self.tx_wq.sleep_on(&self.inet().env);
        }
        Ok(written)
    }

    /// Receives data; blocks until at least one byte or end-of-stream.
    pub fn recv(&self, buf: &mut [u8]) -> Result<usize, ()> {
        loop {
            {
                let mut pcb = self.pcb.lock();
                if !pcb.recvq.is_empty() {
                    let n = buf.len().min(pcb.recvq.len());
                    for b in buf.iter_mut().take(n) {
                        *b = pcb.recvq.pop_front().unwrap();
                    }
                    let queued = pcb.recvq.len();
                    drop(pcb);
                    // memcpy_tofs: the kernel→user copy.
                    self.inet().env.machine.book(
                        boundary!("linux-dev", "sockbuf"),
                        EventKind::Copy { bytes: n },
                    );
                    // Window update only when it reopens substantially.
                    if n >= 2 * MSS && queued < RCVBUF / 2 {
                        self.send_segment(tf::ACK, &[], false);
                    }
                    return Ok(n);
                }
                if pcb.peer_closed || pcb.state == TcpState::Closed {
                    return Ok(0);
                }
            }
            self.rx_wq.sleep_on(&self.inet().env);
        }
    }

    /// Closes the send side (FIN), first draining queued data so the FIN
    /// carries the correct sequence number.
    pub fn close(&self) {
        loop {
            {
                let pcb = self.pcb.lock();
                let draining = matches!(pcb.state, TcpState::Established | TcpState::CloseWait);
                if !draining || pcb.pending.is_empty() {
                    break;
                }
            }
            self.tx_wq.sleep_on(&self.inet().env);
        }
        let send_fin = {
            let mut pcb = self.pcb.lock();
            match pcb.state {
                TcpState::Established => {
                    pcb.state = TcpState::FinWait1;
                    true
                }
                TcpState::CloseWait => {
                    pcb.state = TcpState::LastAck;
                    true
                }
                _ => {
                    pcb.state = TcpState::Closed;
                    false
                }
            }
        };
        if send_fin {
            // Flush pending data first, then FIN.
            self.push_output();
            self.send_segment(tf::FIN | tf::ACK, &[], true);
        }
    }

    /// Moves pending bytes into flight, respecting peer window.
    fn push_output(&self) {
        loop {
            let (chunk, _seq) = {
                let mut pcb = self.pcb.lock();
                if !matches!(
                    pcb.state,
                    TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
                ) {
                    return;
                }
                let in_flight = pcb.snd_nxt.wrapping_sub(pcb.snd_una);
                let window_left = pcb.snd_wnd.saturating_sub(in_flight) as usize;
                let n = pcb.pending.len().min(MSS).min(window_left);
                if n == 0 {
                    return;
                }
                let chunk: Vec<u8> = pcb.pending.drain(..n).collect();
                pcb.unacked.extend(chunk.iter());
                let seq = pcb.snd_nxt;
                pcb.snd_nxt = pcb.snd_nxt.wrapping_add(n as u32);
                (chunk, seq)
            };
            self.send_segment_at(tf::ACK | tf::PSH, &chunk, _seq, true);
        }
    }

    /// Sends a segment at `snd_nxt` (advancing for SYN/FIN when `arm_rto`).
    fn send_segment(&self, flags: u8, payload: &[u8], arm_rto: bool) {
        let seq = {
            let mut pcb = self.pcb.lock();
            let seq = pcb.snd_nxt;
            if flags & (tf::SYN | tf::FIN) != 0 {
                pcb.snd_nxt = pcb.snd_nxt.wrapping_add(1);
            }
            seq
        };
        self.send_segment_at(flags, payload, seq, arm_rto);
    }

    fn send_segment_at(&self, flags: u8, payload: &[u8], seq: u32, arm_rto: bool) {
        let inet = self.inet();
        let (local, remote, ack, wnd) = {
            let mut pcb = self.pcb.lock();
            if arm_rto {
                pcb.rto_deadline = inet.env.now() + RTO_NS;
            }
            let wnd = RCVBUF.saturating_sub(pcb.recvq.len()).min(0xFFFF) as u16;
            (pcb.local, pcb.remote, pcb.rcv_nxt, wnd)
        };
        inet.tcp_output(local, remote, seq, ack, flags, wnd, payload);
    }

    /// Retransmission tick: go-back-N from `snd_una`.
    fn rto_tick(&self, now: u64) {
        let (resend, seq) = {
            let mut pcb = self.pcb.lock();
            if now < pcb.rto_deadline {
                return;
            }
            match pcb.state {
                TcpState::SynSent | TcpState::SynRecv => {
                    // Re-send SYN (or SYN|ACK).
                    pcb.rto_deadline = now + RTO_NS;
                    let flags = if pcb.state == TcpState::SynSent {
                        tf::SYN
                    } else {
                        tf::SYN | tf::ACK
                    };
                    let seq = pcb.snd_una;
                    drop(pcb);
                    self.send_segment_at(flags, &[], seq, false);
                    return;
                }
                _ => {}
            }
            if pcb.unacked.is_empty() {
                pcb.rto_deadline = u64::MAX;
                return;
            }
            pcb.rto_deadline = now + RTO_NS;
            let n = pcb.unacked.len().min(MSS);
            let chunk: Vec<u8> = pcb.unacked.iter().take(n).copied().collect();
            (chunk, pcb.snd_una)
        };
        self.send_segment_at(tf::ACK | tf::PSH, &resend, seq, false);
    }

    /// TCP input for this connection (interrupt level).
    #[allow(clippy::too_many_arguments)]
    fn input(
        self: &Arc<Self>,
        seq: u32,
        ack: u32,
        flags: u8,
        wnd: u16,
        payload: &[u8],
        src: (Ipv4Addr, u16),
    ) {
        let mut wake_rx = false;
        let mut wake_tx = false;
        let mut wake_conn = false;
        let mut send_ack = false;
        let mut child_to_announce = None;
        {
            let mut pcb = self.pcb.lock();
            if flags & tf::RST != 0 {
                pcb.state = TcpState::Closed;
                drop(pcb);
                self.rx_wq.wake_up();
                self.tx_wq.wake_up();
                self.conn_wq.wake_up();
                return;
            }
            match pcb.state {
                TcpState::Listen
                    if flags & tf::SYN != 0 && pcb.accept_queue.len() < pcb.backlog =>
                {
                    // Spawn a child in SYN_RECV.
                    let inet = self.inet();
                    let child = LinuxSock::new(&inet);
                    {
                        let mut cp = child.pcb.lock();
                        cp.state = TcpState::SynRecv;
                        cp.local = pcb.local;
                        cp.remote = src;
                        cp.rcv_nxt = seq.wrapping_add(1);
                        cp.snd_una = 2000;
                        cp.snd_nxt = 2000;
                        cp.snd_wnd = u32::from(wnd);
                    }
                    inet.conns
                        .lock()
                        .insert((pcb.local.1, src.0, src.1), Arc::clone(&child));
                    child_to_announce = Some(child);
                }
                TcpState::SynSent if flags & tf::SYN != 0 && flags & tf::ACK != 0 => {
                    pcb.rcv_nxt = seq.wrapping_add(1);
                    pcb.snd_una = ack;
                    pcb.snd_wnd = u32::from(wnd);
                    pcb.state = TcpState::Established;
                    pcb.rto_deadline = u64::MAX;
                    send_ack = true;
                    wake_conn = true;
                }
                TcpState::SynRecv if flags & tf::ACK != 0 && ack == pcb.snd_nxt => {
                    pcb.state = TcpState::Established;
                    pcb.rto_deadline = u64::MAX;
                    // Parent hears about us below (already queued).
                }
                _ => {}
            }
            // ACK processing (go-back-N: cumulative only).
            if flags & tf::ACK != 0
                && matches!(
                    pcb.state,
                    TcpState::Established
                        | TcpState::FinWait1
                        | TcpState::FinWait2
                        | TcpState::CloseWait
                        | TcpState::LastAck
                )
            {
                let acked = ack.wrapping_sub(pcb.snd_una);
                let outstanding = pcb.snd_nxt.wrapping_sub(pcb.snd_una);
                if acked > 0 && acked <= outstanding {
                    let data_acked = (acked as usize).min(pcb.unacked.len());
                    pcb.unacked.drain(..data_acked);
                    pcb.snd_una = ack;
                    pcb.rto_deadline = if pcb.unacked.is_empty() {
                        u64::MAX
                    } else {
                        self.inet().env.now() + RTO_NS
                    };
                    wake_tx = true;
                    if pcb.state == TcpState::FinWait1 && pcb.snd_una == pcb.snd_nxt {
                        pcb.state = TcpState::FinWait2;
                    }
                    if pcb.state == TcpState::LastAck && pcb.snd_una == pcb.snd_nxt {
                        pcb.state = TcpState::Closed;
                    }
                }
                pcb.snd_wnd = u32::from(wnd);
            }
            // In-order data (anything else is dropped; go-back-N resends).
            if !payload.is_empty()
                && matches!(
                    pcb.state,
                    TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
                )
            {
                if seq == pcb.rcv_nxt && pcb.recvq.len() + payload.len() <= RCVBUF {
                    pcb.recvq.extend(payload);
                    pcb.rcv_nxt = pcb.rcv_nxt.wrapping_add(payload.len() as u32);
                    wake_rx = true;
                }
                send_ack = true;
            }
            // FIN (which may ride on the final data segment: its sequence
            // position is `seq + len`).
            let fin_seq = seq.wrapping_add(payload.len() as u32);
            if flags & tf::FIN != 0 && fin_seq == pcb.rcv_nxt && !pcb.peer_closed {
                pcb.rcv_nxt = pcb.rcv_nxt.wrapping_add(1);
                match pcb.state {
                    TcpState::Established => pcb.state = TcpState::CloseWait,
                    TcpState::FinWait1 => pcb.state = TcpState::TimeWait,
                    TcpState::FinWait2 => pcb.state = TcpState::TimeWait,
                    _ => {}
                }
                pcb.peer_closed = true;
                send_ack = true;
                wake_rx = true;
            }
        }
        if let Some(child) = child_to_announce {
            child.send_segment(tf::SYN | tf::ACK, &[], true);
            self.pcb.lock().accept_queue.push_back(child);
            wake_conn = true;
        }
        if send_ack {
            self.send_segment(tf::ACK, &[], false);
        }
        if wake_rx {
            self.rx_wq.wake_up();
        }
        if wake_tx {
            self.tx_wq.wake_up();
            // More pending data may now fit the window.
            self.push_output();
        }
        if wake_conn {
            self.conn_wq.wake_up();
        }
    }
}

/// The per-interface stack instance.
pub struct LinuxInet {
    /// The environment (time, sleep, interrupts).
    pub env: Arc<OsEnv>,
    dev: Arc<NetDevice>,
    ip: Ipv4Addr,
    mask: Ipv4Addr,
    arp_cache: Mutex<HashMap<Ipv4Addr, [u8; 6]>>,
    arp_pending: Mutex<HashMap<Ipv4Addr, Vec<Vec<u8>>>>,
    listeners: Mutex<HashMap<u16, Arc<LinuxSock>>>,
    conns: Mutex<HashMap<(u16, Ipv4Addr, u16), Arc<LinuxSock>>>,
    bound: Mutex<std::collections::HashSet<u16>>,
    next_port: Mutex<u16>,
    ip_ident: Mutex<u16>,
    _timer: Mutex<Option<TimerHandle>>,
}

impl LinuxInet {
    /// Attaches the stack to a device and configures the address
    /// (`ifconfig`).
    pub fn attach(
        env: &Arc<OsEnv>,
        dev: &Arc<NetDevice>,
        ip: Ipv4Addr,
        mask: Ipv4Addr,
    ) -> Arc<LinuxInet> {
        let inet = Arc::new(LinuxInet {
            env: Arc::clone(env),
            dev: Arc::clone(dev),
            ip,
            mask,
            arp_cache: Mutex::new(HashMap::new()),
            arp_pending: Mutex::new(HashMap::new()),
            listeners: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            bound: Mutex::new(std::collections::HashSet::new()),
            next_port: Mutex::new(32768),
            ip_ident: Mutex::new(1),
            _timer: Mutex::new(None),
        });
        let weak = Arc::downgrade(&inet);
        dev.set_rx_handler(move |skb| {
            if let Some(inet) = weak.upgrade() {
                inet.rx(skb);
            }
        });
        dev.open();
        // The retransmit tick (the donor's 200 ms timer).
        let weak = Arc::downgrade(&inet);
        let handle = env.timer_register(50_000_000, move || {
            if let Some(inet) = weak.upgrade() {
                let now = inet.env.now();
                let conns: Vec<_> = inet.conns.lock().values().cloned().collect();
                for c in conns {
                    c.rto_tick(now);
                }
            }
        });
        *inet._timer.lock() = Some(handle);
        inet
    }

    /// The configured address.
    pub fn addr(&self) -> Ipv4Addr {
        self.ip
    }

    /// Creates an unbound TCP socket.
    pub fn socket(self: &Arc<Self>) -> Arc<LinuxSock> {
        LinuxSock::new(self)
    }

    fn alloc_port(&self) -> u16 {
        let mut p = self.next_port.lock();
        let mut bound = self.bound.lock();
        loop {
            let port = *p;
            *p = p.wrapping_add(1).max(32768);
            if bound.insert(port) {
                return port;
            }
        }
    }

    // --- Receive path (interrupt level) ---

    fn rx(self: &Arc<Self>, mut skb: SkBuff) {
        self.env
            .machine
            .book(boundary!("linux-dev", "ether_in"), EventKind::Layer);
        match skb.protocol {
            eth_p::ARP => {
                skb.pull(ETH_HLEN);
                self.arp_input(&skb.to_vec());
            }
            eth_p::IP => {
                skb.pull(ETH_HLEN);
                self.ip_input(&skb);
            }
            _ => {}
        }
    }

    fn arp_input(self: &Arc<Self>, p: &[u8]) {
        if p.len() < 28 {
            return;
        }
        let op = u16::from_be_bytes([p[6], p[7]]);
        let sha: [u8; 6] = p[8..14].try_into().unwrap();
        let spa = Ipv4Addr::new(p[14], p[15], p[16], p[17]);
        let tpa = Ipv4Addr::new(p[24], p[25], p[26], p[27]);
        // Learn the sender unconditionally.
        self.arp_cache.lock().insert(spa, sha);
        if op == 1 && tpa == self.ip {
            // Request for us: reply.
            let mut reply = vec![0u8; 28];
            reply[0..2].copy_from_slice(&1u16.to_be_bytes()); // Ethernet.
            reply[2..4].copy_from_slice(&0x0800u16.to_be_bytes());
            reply[4] = 6;
            reply[5] = 4;
            reply[6..8].copy_from_slice(&2u16.to_be_bytes()); // Reply.
            reply[8..14].copy_from_slice(&self.dev.dev_addr);
            reply[14..18].copy_from_slice(&self.ip.octets());
            reply[18..24].copy_from_slice(&sha);
            reply[24..28].copy_from_slice(&spa.octets());
            self.dev.xmit_ether(sha, eth_p::ARP, &reply);
        }
        // Drain anything queued on this resolution.
        let queued = self.arp_pending.lock().remove(&spa);
        if let Some(packets) = queued {
            for ip_packet in packets {
                self.dev.xmit_ether(sha, eth_p::IP, &ip_packet);
            }
        }
    }

    fn ip_input(self: &Arc<Self>, skb: &SkBuff) {
        skb.with_data(|p| {
            if p.len() < 20 || p[0] >> 4 != 4 {
                return;
            }
            let ihl = usize::from(p[0] & 0xF) * 4;
            let total = usize::from(u16::from_be_bytes([p[2], p[3]]));
            if total > p.len() || ihl < 20 || ihl > total {
                return;
            }
            self.env.machine.book(
                boundary!("linux-dev", "ip_in"),
                EventKind::Checksum { bytes: ihl },
            );
            if checksum(&p[..ihl]) != 0 {
                return;
            }
            let proto = p[9];
            let src = Ipv4Addr::new(p[12], p[13], p[14], p[15]);
            let dst = Ipv4Addr::new(p[16], p[17], p[18], p[19]);
            if dst != self.ip {
                return;
            }
            if proto == 6 {
                self.tcp_input(src, &p[ihl..total]);
            }
        });
    }

    fn tcp_input(self: &Arc<Self>, src: Ipv4Addr, seg: &[u8]) {
        if seg.len() < 20 {
            return;
        }
        self.env
            .machine
            .book(boundary!("linux-dev", "tcp_in"), EventKind::Layer);
        self.env.machine.book(
            boundary!("linux-dev", "tcp_in"),
            EventKind::Checksum { bytes: seg.len() },
        );
        let sport = u16::from_be_bytes([seg[0], seg[1]]);
        let dport = u16::from_be_bytes([seg[2], seg[3]]);
        let seq = u32::from_be_bytes([seg[4], seg[5], seg[6], seg[7]]);
        let ack = u32::from_be_bytes([seg[8], seg[9], seg[10], seg[11]]);
        let doff = usize::from(seg[12] >> 4) * 4;
        let flags = seg[13];
        let wnd = u16::from_be_bytes([seg[14], seg[15]]);
        if doff < 20 || doff > seg.len() {
            return;
        }
        let payload = &seg[doff..];
        // Established connections first, then listeners.
        let conn = self.conns.lock().get(&(dport, src, sport)).cloned();
        if let Some(sock) = conn {
            sock.input(seq, ack, flags, wnd, payload, (src, sport));
            return;
        }
        let listener = self.listeners.lock().get(&dport).cloned();
        if let Some(sock) = listener {
            sock.input(seq, ack, flags, wnd, payload, (src, sport));
        }
    }

    // --- Transmit path ---

    #[allow(clippy::too_many_arguments)]
    fn tcp_output(
        self: &Arc<Self>,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        seq: u32,
        ack: u32,
        flags: u8,
        wnd: u16,
        payload: &[u8],
    ) {
        self.env
            .machine
            .book(boundary!("linux-dev", "tcp_out"), EventKind::Layer);
        let mut seg = vec![0u8; 20 + payload.len()];
        seg[0..2].copy_from_slice(&local.1.to_be_bytes());
        seg[2..4].copy_from_slice(&remote.1.to_be_bytes());
        seg[4..8].copy_from_slice(&seq.to_be_bytes());
        seg[8..12].copy_from_slice(&ack.to_be_bytes());
        seg[12] = 5 << 4;
        seg[13] = flags;
        seg[14..16].copy_from_slice(&wnd.to_be_bytes());
        seg[20..].copy_from_slice(payload);
        // Pseudo-header checksum.
        self.env.machine.book(
            boundary!("linux-dev", "tcp_out"),
            EventKind::Checksum { bytes: seg.len() },
        );
        let mut pseudo = Vec::with_capacity(12 + seg.len());
        pseudo.extend_from_slice(&local.0.octets());
        pseudo.extend_from_slice(&remote.0.octets());
        pseudo.push(0);
        pseudo.push(6);
        pseudo.extend_from_slice(&(seg.len() as u16).to_be_bytes());
        pseudo.extend_from_slice(&seg);
        let csum = checksum(&pseudo);
        seg[16..18].copy_from_slice(&csum.to_be_bytes());
        self.ip_output(remote.0, 6, &seg);
    }

    fn ip_output(self: &Arc<Self>, dst: Ipv4Addr, proto: u8, payload: &[u8]) {
        self.env
            .machine
            .book(boundary!("linux-dev", "ip_out"), EventKind::Layer);
        assert!(
            payload.len() + 20 <= self.dev.mtu,
            "no fragmentation support"
        );
        let mut p = vec![0u8; 20 + payload.len()];
        p[0] = 0x45;
        let total = (20 + payload.len()) as u16;
        p[2..4].copy_from_slice(&total.to_be_bytes());
        let ident = {
            let mut id = self.ip_ident.lock();
            *id = id.wrapping_add(1);
            *id
        };
        p[4..6].copy_from_slice(&ident.to_be_bytes());
        p[8] = 64; // TTL.
        p[9] = proto;
        p[12..16].copy_from_slice(&self.ip.octets());
        p[16..20].copy_from_slice(&dst.octets());
        self.env.machine.book(
            boundary!("linux-dev", "ip_out"),
            EventKind::Checksum { bytes: 20 },
        );
        let csum = checksum(&p[..20]);
        p[10..12].copy_from_slice(&csum.to_be_bytes());
        p[20..].copy_from_slice(payload);
        self.route_output(dst, p);
    }

    fn route_output(self: &Arc<Self>, dst: Ipv4Addr, ip_packet: Vec<u8>) {
        let on_link =
            (u32::from(dst) & u32::from(self.mask)) == (u32::from(self.ip) & u32::from(self.mask));
        if !on_link {
            return; // No router in the testbed; drop, as the sender would notice.
        }
        let mac = self.arp_cache.lock().get(&dst).copied();
        match mac {
            Some(mac) => self.dev.xmit_ether(mac, eth_p::IP, &ip_packet),
            None => {
                self.arp_pending
                    .lock()
                    .entry(dst)
                    .or_default()
                    .push(ip_packet);
                self.arp_request(dst);
            }
        }
    }

    fn arp_request(&self, dst: Ipv4Addr) {
        let mut req = vec![0u8; 28];
        req[0..2].copy_from_slice(&1u16.to_be_bytes());
        req[2..4].copy_from_slice(&0x0800u16.to_be_bytes());
        req[4] = 6;
        req[5] = 4;
        req[6..8].copy_from_slice(&1u16.to_be_bytes());
        req[8..14].copy_from_slice(&self.dev.dev_addr);
        req[14..18].copy_from_slice(&self.ip.octets());
        req[24..28].copy_from_slice(&dst.octets());
        self.dev.xmit_ether([0xFF; 6], eth_p::ARP, &req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::{Machine, Nic, Sim};

    fn testbed() -> (Arc<Sim>, Arc<LinuxInet>, Arc<LinuxInet>) {
        let sim = Sim::new();
        let ma = Machine::new(&sim, "a", 1 << 20);
        let mb = Machine::new(&sim, "b", 1 << 20);
        let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
        let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
        Nic::connect(&na, &nb);
        let ea = OsEnv::new(&ma);
        let eb = OsEnv::new(&mb);
        let da = NetDevice::new("eth0", &ea, na);
        let db = NetDevice::new("eth0", &eb, nb);
        let ia = LinuxInet::attach(
            &ea,
            &da,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 0),
        );
        let ib = LinuxInet::attach(
            &eb,
            &db,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(255, 255, 255, 0),
        );
        ma.irq.enable();
        mb.irq.enable();
        (sim, ia, ib)
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Verifying against a hand-computed value.
        let data = [
            0x45u8, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&data), 0xB861);
        // A packet with its checksum in place sums to zero.
        let mut with = data;
        with[10..12].copy_from_slice(&0xB861u16.to_be_bytes());
        assert_eq!(checksum(&with), 0);
    }

    #[test]
    fn connect_send_recv_close() {
        let (sim, ia, ib) = testbed();
        let server_inet = Arc::clone(&ib);
        sim.spawn("server", move || {
            let ls = server_inet.socket();
            ls.bind(7).unwrap();
            ls.listen(5).unwrap();
            let conn = ls.accept().unwrap();
            let mut total = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                let n = conn.recv(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                total.extend_from_slice(&buf[..n]);
            }
            assert_eq!(total.len(), 100_000);
            assert!(total.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
            conn.close();
        });
        let client_inet = Arc::clone(&ia);
        sim.spawn("client", move || {
            let s = client_inet.socket();
            s.connect(Ipv4Addr::new(10, 0, 0, 2), 7).unwrap();
            let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
            let mut sent = 0;
            while sent < data.len() {
                sent += s.send(&data[sent..]).unwrap();
            }
            s.close();
            // Drain until peer close completes.
            let mut buf = [0u8; 64];
            while s.recv(&mut buf).unwrap() != 0 {}
        });
        sim.run();
    }

    #[test]
    fn connect_refused_by_rst_less_stack_times_out_cleanly() {
        // No listener: our mini stack sends no RST, so the SYN
        // retransmits until we give up via state check; emulate an
        // application timeout by closing from another context.
        let (sim, ia, _ib) = testbed();
        let client_inet = Arc::clone(&ia);
        let sim2 = Arc::clone(&sim);
        sim.spawn("client", move || {
            let s = client_inet.socket();
            let s2 = Arc::clone(&s);
            sim2.at(500_000_000, move || {
                s2.pcb.lock().state = TcpState::Closed;
                s2.conn_wq.wake_up();
            });
            assert!(s.connect(Ipv4Addr::new(10, 0, 0, 9), 7).is_err());
        });
        sim.run();
    }

    #[test]
    fn two_connections_are_demultiplexed() {
        let (sim, ia, ib) = testbed();
        let server_inet = Arc::clone(&ib);
        sim.spawn("server", move || {
            let ls = server_inet.socket();
            ls.bind(80).unwrap();
            ls.listen(5).unwrap();
            for _ in 0..2 {
                let conn = ls.accept().unwrap();
                let server_inet = conn.inet();
                let _ = server_inet;
                let mut buf = [0u8; 16];
                let n = conn.recv(&mut buf).unwrap();
                // Echo back.
                conn.send(&buf[..n]).unwrap();
                conn.close();
            }
        });
        for i in 0..2u8 {
            let client_inet = Arc::clone(&ia);
            sim.spawn(format!("client{i}"), move || {
                let s = client_inet.socket();
                s.connect(Ipv4Addr::new(10, 0, 0, 2), 80).unwrap();
                let msg = [i; 8];
                s.send(&msg).unwrap();
                let mut buf = [0u8; 16];
                let n = s.recv(&mut buf).unwrap();
                assert_eq!(&buf[..n], &msg);
                s.close();
                while s.recv(&mut buf).unwrap() != 0 {}
            });
        }
        sim.run();
    }

    #[test]
    fn bind_conflict_is_rejected() {
        let (_sim, ia, _ib) = testbed();
        let a = ia.socket();
        let b = ia.socket();
        a.bind(1234).unwrap();
        assert!(b.bind(1234).is_err());
    }
}
