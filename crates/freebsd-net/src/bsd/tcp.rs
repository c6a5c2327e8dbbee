//! TCP — BSD `tcp_input.c`/`tcp_output.c`/`tcp_timer.c` in donor idiom.
//!
//! The full 4.4BSD-shape protocol engine: the eleven-state machine,
//! cumulative ACKs with out-of-order reassembly, RTT estimation
//! (srtt/rttvar) with exponential retransmit backoff, slow start and
//! congestion avoidance, fast retransmit on three duplicate ACKs, delayed
//! ACKs on the fast timer, the Nagle algorithm, and window updates — "the
//! BSD network protocols have been tuned for over 15 years" (paper §6.2.6).

use super::ip::{in_cksum_chain, ipproto};
use super::mbuf::{Mbuf, MbufChain, MLEN};
use super::socket::{seq, SockBuf, SB_RCV_HIWAT, SB_SND_HIWAT};
use super::stack::BsdNet;
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Weak};

/// TCP header length (no options).
pub const TCP_HDR_LEN: usize = 20;

/// Default maximum segment size on Ethernet.
pub const TCP_MSS: usize = 1460;

/// Minimum retransmission timeout (BSD's 2 slow ticks).
const TCPTV_MIN_NS: u64 = 1_000_000_000;
/// Maximum retransmission timeout.
const TCPTV_REXMTMAX_NS: u64 = 64_000_000_000;
/// 2*MSL for TIME_WAIT.
const TCPTV_MSL2_NS: u64 = 60_000_000_000;

/// Header flag bits.
pub mod th {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PUSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
}

/// The connection states (`TCPS_*`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// Closed.
    Closed,
    /// Listening.
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// Passive open: SYN received, SYN|ACK sent.
    SynReceived,
    /// Open.
    Established,
    /// Our FIN sent, not yet acked; peer still open.
    FinWait1,
    /// Our FIN acked; peer still open.
    FinWait2,
    /// Peer's FIN received; we may still send.
    CloseWait,
    /// Both FINs in flight, ours unacked.
    Closing,
    /// Peer closed first, now our FIN awaits its ack.
    LastAck,
    /// Both sides done; lingering.
    TimeWait,
}

/// A tiny bitflags helper so the donor idiom (`t_flags & TF_ACKNOW`)
/// survives without an external crate.
macro_rules! bitflags_lite {
    (
        $(#[$m:meta])* pub struct $name:ident { $( $(#[$fm:meta])* $flag:ident = $val:expr; )+ }
    ) => {
        $(#[$m])*
        #[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
        pub struct $name(pub u32);
        impl $name {
            $( $(#[$fm])* pub const $flag: $name = $name($val); )+
            /// Tests whether all bits of `f` are set.
            pub fn has(self, f: $name) -> bool { self.0 & f.0 == f.0 }
            /// Sets the bits of `f`.
            pub fn set(&mut self, f: $name) { self.0 |= f.0; }
            /// Clears the bits of `f`.
            pub fn clear(&mut self, f: $name) { self.0 &= !f.0; }
        }
    };
}
bitflags_lite! {
    /// `t_flags`.
    pub struct TFlags {
        /// Send an ACK immediately.
        ACKNOW = 1;
        /// An ACK is owed but may be delayed to the fast timer.
        DELACK = 2;
        /// `TCP_NODELAY`: Nagle disabled.
        NODELAY = 4;
    }
}

/// The protocol control block (`struct tcpcb`).
pub struct Tcb {
    /// Connection state.
    pub t_state: TcpState,
    /// Local address/port.
    pub local: (Ipv4Addr, u16),
    /// Foreign address/port.
    pub foreign: (Ipv4Addr, u16),
    /// Flags.
    pub t_flags: TFlags,
    /// Maximum segment size.
    pub t_maxseg: usize,

    // Send sequence space.
    /// Oldest unacknowledged.
    pub snd_una: u32,
    /// Next to send.
    pub snd_nxt: u32,
    /// Highest ever sent.
    pub snd_max: u32,
    /// Peer's advertised window.
    pub snd_wnd: u32,
    /// Congestion window.
    pub snd_cwnd: u32,
    /// Slow-start threshold.
    pub snd_ssthresh: u32,

    // Receive sequence space.
    /// Next expected.
    pub rcv_nxt: u32,
    /// Highest advertised edge (`rcv_adv`).
    pub rcv_adv: u32,

    // RTT estimation (nanoseconds; BSD keeps scaled ticks).
    t_srtt: u64,
    t_rttvar: u64,
    t_rxtcur: u64,
    t_rxtshift: u32,
    /// Segment being timed: (seq, start time).
    t_rtttime: Option<(u32, u64)>,
    /// Duplicate-ACK counter for fast retransmit.
    t_dupacks: u32,

    // Timers (absolute virtual-time deadlines; MAX = disarmed).
    rexmt_deadline: u64,
    timewait_deadline: u64,

    /// Send buffer: bytes from `snd_una` onward.
    pub snd_buf: SockBuf,
    /// Receive buffer: in-order bytes awaiting the application.
    pub rcv_buf: SockBuf,
    /// Out-of-order segments, by starting sequence.
    reass: BTreeMap<u32, Vec<u8>>,

    /// We owe the peer a FIN (close requested).
    fin_wanted: bool,
    /// Our FIN occupies `snd_max - 1`.
    fin_sent: bool,
    /// Peer's FIN consumed.
    pub peer_closed: bool,
    /// Terminal error to report to the application.
    pub so_error: Option<oskit_com::Error>,

    /// Completed connections awaiting `accept`.
    accept_queue: std::collections::VecDeque<Arc<TcpSock>>,
    backlog: usize,
    /// The listener that spawned us (to announce establishment).
    parent: Option<Weak<TcpSock>>,

    /// Statistics: segments sent/received (diagnostics and benches).
    pub segs_sent: u64,
    /// See [`Tcb::segs_sent`].
    pub segs_rcvd: u64,
}

/// A TCP socket (socket + inpcb + tcpcb collapsed into one object, with
/// the BSD field names kept on [`Tcb`]).
pub struct TcpSock {
    net: Weak<BsdNet>,
    /// Sleep-channel base: `id*4 + {0: receive, 1: send, 2: connect}`.
    sock_id: u64,
    tcb: Mutex<Tcb>,
}

const CHAN_RCV: u64 = 0;
const CHAN_SND: u64 = 1;
const CHAN_CONN: u64 = 2;

impl TcpSock {
    /// Creates an unbound socket on the stack.
    pub fn new(net: &Arc<BsdNet>) -> Arc<TcpSock> {
        Arc::new(TcpSock {
            net: Arc::downgrade(net),
            sock_id: net.next_sock_id(),
            tcb: Mutex::new(Tcb {
                t_state: TcpState::Closed,
                local: (Ipv4Addr::UNSPECIFIED, 0),
                foreign: (Ipv4Addr::UNSPECIFIED, 0),
                t_flags: TFlags::default(),
                t_maxseg: TCP_MSS,
                snd_una: 0,
                snd_nxt: 0,
                snd_max: 0,
                snd_wnd: 0,
                snd_cwnd: TCP_MSS as u32,
                snd_ssthresh: u32::MAX,
                rcv_nxt: 0,
                rcv_adv: 0,
                t_srtt: 0,
                t_rttvar: 0,
                t_rxtcur: 3_000_000_000,
                t_rxtshift: 0,
                t_rtttime: None,
                t_dupacks: 0,
                rexmt_deadline: u64::MAX,
                timewait_deadline: u64::MAX,
                snd_buf: SockBuf::new(SB_SND_HIWAT),
                rcv_buf: SockBuf::new(SB_RCV_HIWAT),
                reass: BTreeMap::new(),
                fin_wanted: false,
                fin_sent: false,
                peer_closed: false,
                so_error: None,
                accept_queue: std::collections::VecDeque::new(),
                backlog: 0,
                parent: None,
                segs_sent: 0,
                segs_rcvd: 0,
            }),
        })
    }

    fn net(&self) -> Arc<BsdNet> {
        self.net.upgrade().expect("stack gone")
    }

    fn chan(&self, which: u64) -> u64 {
        self.sock_id * 4 + which
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.tcb.lock().t_state
    }

    /// Local (addr, port).
    pub fn local_addr(&self) -> (Ipv4Addr, u16) {
        self.tcb.lock().local
    }

    /// Peer (addr, port).
    pub fn peer_addr(&self) -> (Ipv4Addr, u16) {
        self.tcb.lock().foreign
    }

    /// `bind`.
    pub fn bind(&self, addr: Ipv4Addr, port: u16) -> Result<(), oskit_com::Error> {
        let net = self.net();
        if port != 0 && !net.bound.lock().insert(port) {
            return Err(oskit_com::Error::AddrInUse);
        }
        let port = if port == 0 { net.alloc_port() } else { port };
        let mut tcb = self.tcb.lock();
        let addr = if addr.is_unspecified() {
            net.ifnet().address().unwrap_or(Ipv4Addr::UNSPECIFIED)
        } else {
            addr
        };
        tcb.local = (addr, port);
        Ok(())
    }

    /// `listen`.
    pub fn listen(self: &Arc<Self>, backlog: usize) -> Result<(), oskit_com::Error> {
        let net = self.net();
        let mut tcb = self.tcb.lock();
        if tcb.local.1 == 0 {
            return Err(oskit_com::Error::Inval);
        }
        tcb.t_state = TcpState::Listen;
        tcb.backlog = backlog.max(1);
        net.tcp_listen.lock().insert(tcb.local.1, Arc::clone(self));
        Ok(())
    }

    /// `connect`: active open, blocking until established or failed.
    pub fn connect(self: &Arc<Self>, dst: Ipv4Addr, port: u16) -> Result<(), oskit_com::Error> {
        let net = self.net();
        {
            let mut tcb = self.tcb.lock();
            if tcb.local.1 == 0 {
                let lport = net.alloc_port();
                let laddr = net.ifnet().address().ok_or(oskit_com::Error::NetUnreach)?;
                tcb.local = (laddr, lport);
            }
            tcb.foreign = (dst, port);
            let iss = net.next_iss();
            tcb.snd_una = iss;
            tcb.snd_nxt = iss;
            tcb.snd_max = iss;
            tcb.t_state = TcpState::SynSent;
            net.tcp_conns
                .lock()
                .insert((tcb.local.1, dst, port), Arc::clone(self));
            self.send_syn(&net, &mut tcb, false);
        }
        loop {
            {
                let mut tcb = self.tcb.lock();
                match tcb.t_state {
                    TcpState::Established => return Ok(()),
                    TcpState::Closed => {
                        return Err(tcb.so_error.take().unwrap_or(oskit_com::Error::ConnRefused))
                    }
                    _ => {}
                }
            }
            net.sleep.tsleep(&net.env, self.chan(CHAN_CONN));
        }
    }

    /// `accept`: blocks for a completed connection.
    pub fn accept(&self) -> Result<(Arc<TcpSock>, (Ipv4Addr, u16)), oskit_com::Error> {
        let net = self.net();
        loop {
            {
                let mut tcb = self.tcb.lock();
                if tcb.t_state != TcpState::Listen {
                    return Err(oskit_com::Error::Inval);
                }
                if let Some(child) = tcb.accept_queue.pop_front() {
                    let peer = child.peer_addr();
                    return Ok((child, peer));
                }
            }
            net.sleep.tsleep(&net.env, self.chan(CHAN_CONN));
        }
    }

    /// `sosend`: queues data, blocking while the send buffer is full.
    pub fn send(&self, buf: &[u8]) -> Result<usize, oskit_com::Error> {
        let net = self.net();
        let mut written = 0;
        while written < buf.len() {
            {
                let mut tcb = self.tcb.lock();
                match tcb.t_state {
                    TcpState::Established | TcpState::CloseWait => {}
                    TcpState::Closed => {
                        return Err(tcb.so_error.take().unwrap_or(oskit_com::Error::Pipe))
                    }
                    _ if tcb.fin_wanted => return Err(oskit_com::Error::Pipe),
                    _ => return Err(oskit_com::Error::NotConn),
                }
                let space = tcb.snd_buf.space();
                if space > 0 {
                    let n = space.min(buf.len() - written);
                    // uiomove: the user→mbuf copy every configuration pays.
                    net.env
                        .machine
                        .charge_copy_at(oskit_machine::boundary!("freebsd-net", "sockbuf"), n);
                    let chain = MbufChain::from_slice(&buf[written..written + n]);
                    tcb.snd_buf.append(chain);
                    written += n;
                    self.tcp_output(&net, &mut tcb);
                    continue;
                }
            }
            net.sleep.tsleep(&net.env, self.chan(CHAN_SND));
        }
        Ok(written)
    }

    /// `sosend` for a lent buffer object — the socket half of zero-copy
    /// `sendfile`.  Queues *references* to bytes `[off, off+len)` of
    /// `buf` as external mbufs: no uiomove, no bytes copied into socket
    /// buffers.  The send buffer's mbufs hold the `Arc`, which pins the
    /// lender's storage (a buffer-cache page) for exactly as long as
    /// retransmission might need the data.
    pub fn send_bufio(
        &self,
        buf: &Arc<dyn oskit_com::interfaces::blkio::BufIo>,
        off: usize,
        len: usize,
    ) -> Result<usize, oskit_com::Error> {
        let net = self.net();
        let mut written = 0;
        while written < len {
            {
                let mut tcb = self.tcb.lock();
                match tcb.t_state {
                    TcpState::Established | TcpState::CloseWait => {}
                    TcpState::Closed => {
                        return Err(tcb.so_error.take().unwrap_or(oskit_com::Error::Pipe))
                    }
                    _ if tcb.fin_wanted => return Err(oskit_com::Error::Pipe),
                    _ => return Err(oskit_com::Error::NotConn),
                }
                let space = tcb.snd_buf.space();
                if space > 0 {
                    let n = space.min(len - written);
                    // Where `send` charges a sockbuf copy (uiomove), this
                    // path programs one descriptor-like reference.
                    net.env.machine.charge_gather_at(
                        oskit_machine::boundary!("freebsd-net", "sockbuf"),
                        n,
                        1,
                    );
                    let chain =
                        MbufChain::from_mbuf(Mbuf::ext(Arc::clone(buf), off + written, n));
                    tcb.snd_buf.append(chain);
                    written += n;
                    self.tcp_output(&net, &mut tcb);
                    continue;
                }
            }
            net.sleep.tsleep(&net.env, self.chan(CHAN_SND));
        }
        Ok(written)
    }

    /// `soreceive`: blocks until data, end-of-stream, or error.
    pub fn recv(&self, buf: &mut [u8]) -> Result<usize, oskit_com::Error> {
        let net = self.net();
        loop {
            {
                let mut tcb = self.tcb.lock();
                let cc = tcb.rcv_buf.cc();
                if cc > 0 {
                    let n = tcb.rcv_buf.peek(buf);
                    tcb.rcv_buf.drop_front(n);
                    // The mbuf→user copy (all configurations pay it).
                    net.env
                        .machine
                        .charge_copy_at(oskit_machine::boundary!("freebsd-net", "sockbuf"), n);
                    // Window update if we opened it significantly.
                    let avail = tcb.rcv_buf.space() as u32;
                    let advertised = tcb.rcv_adv.wrapping_sub(tcb.rcv_nxt);
                    if avail.saturating_sub(advertised) >= 2 * tcb.t_maxseg as u32 {
                        tcb.t_flags.set(TFlags::ACKNOW);
                        self.tcp_output(&net, &mut tcb);
                    }
                    return Ok(n);
                }
                if tcb.peer_closed {
                    return Ok(0);
                }
                if tcb.t_state == TcpState::Closed {
                    return match tcb.so_error.take() {
                        Some(e) => Err(e),
                        None => Ok(0),
                    };
                }
                if !matches!(
                    tcb.t_state,
                    TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
                ) && !tcb.peer_closed
                    && matches!(tcb.t_state, TcpState::SynSent | TcpState::SynReceived)
                {
                    return Err(oskit_com::Error::NotConn);
                }
            }
            net.sleep.tsleep(&net.env, self.chan(CHAN_RCV));
        }
    }

    /// `soclose`/`shutdown(SHUT_WR)`: sends FIN after queued data.
    pub fn close(&self) {
        let net = self.net();
        let mut tcb = self.tcb.lock();
        match tcb.t_state {
            TcpState::Established => {
                tcb.t_state = TcpState::FinWait1;
                tcb.fin_wanted = true;
                self.tcp_output(&net, &mut tcb);
            }
            TcpState::CloseWait => {
                tcb.t_state = TcpState::LastAck;
                tcb.fin_wanted = true;
                self.tcp_output(&net, &mut tcb);
            }
            TcpState::SynSent | TcpState::SynReceived | TcpState::Listen => {
                tcb.t_state = TcpState::Closed;
                drop(tcb);
                self.detach(&net);
                self.wake_all(&net);
            }
            _ => {}
        }
    }

    /// `SO_SNDBUF` / `SO_RCVBUF` / `TCP_NODELAY`.
    pub fn setsockopt(&self, opt: oskit_com::interfaces::socket::SockOpt) {
        use oskit_com::interfaces::socket::SockOpt;
        let mut tcb = self.tcb.lock();
        match opt {
            SockOpt::NoDelay(true) => tcb.t_flags.set(TFlags::NODELAY),
            SockOpt::NoDelay(false) => tcb.t_flags.clear(TFlags::NODELAY),
            SockOpt::SndBuf(n) => tcb.snd_buf.set_hiwat(n),
            SockOpt::RcvBuf(n) => tcb.rcv_buf.set_hiwat(n),
            SockOpt::ReuseAddr(_) | SockOpt::Linger(_) => {}
        }
    }

    /// Readiness for `select`.
    pub fn readiness(&self) -> (bool, bool) {
        let tcb = self.tcb.lock();
        let readable = tcb.rcv_buf.cc() > 0
            || tcb.peer_closed
            || !tcb.accept_queue.is_empty()
            || tcb.t_state == TcpState::Closed;
        let writable = matches!(
            tcb.t_state,
            TcpState::Established | TcpState::CloseWait
        ) && tcb.snd_buf.space() > 0;
        (readable, writable)
    }

    /// Debug snapshot: (state, snd_wnd, snd_cwnd, in-flight bytes).
    pub fn debug_send_state(&self) -> (TcpState, u32, u32, u32) {
        let tcb = self.tcb.lock();
        (
            tcb.t_state,
            tcb.snd_wnd,
            tcb.snd_cwnd,
            tcb.snd_nxt.wrapping_sub(tcb.snd_una),
        )
    }

    /// Statistics snapshot: (segments sent, segments received).
    pub fn seg_stats(&self) -> (u64, u64) {
        let tcb = self.tcb.lock();
        (tcb.segs_sent, tcb.segs_rcvd)
    }

    // --- Internals ---

    fn wake_all(&self, net: &Arc<BsdNet>) {
        net.sleep.wakeup(self.chan(CHAN_RCV));
        net.sleep.wakeup(self.chan(CHAN_SND));
        net.sleep.wakeup(self.chan(CHAN_CONN));
    }

    fn detach(&self, net: &Arc<BsdNet>) {
        let tcb = self.tcb.lock();
        let key = (tcb.local.1, tcb.foreign.0, tcb.foreign.1);
        drop(tcb);
        net.tcp_conns.lock().remove(&key);
    }

    /// Sends the initial SYN (or SYN|ACK for `syn_ack`).
    fn send_syn(&self, net: &Arc<BsdNet>, tcb: &mut Tcb, syn_ack: bool) {
        let flags = if syn_ack { th::SYN | th::ACK } else { th::SYN };
        let seq = tcb.snd_nxt;
        tcb.snd_nxt = tcb.snd_nxt.wrapping_add(1);
        tcb.snd_max = tcb.snd_max.max_seq(tcb.snd_nxt);
        self.emit_segment(net, tcb, seq, flags, MbufChain::new(), true);
        tcb.rexmt_deadline = net.env.now() + tcb.t_rxtcur;
    }

    /// `tcp_output`: the send decision engine.  Caller holds the tcb.
    pub(crate) fn tcp_output(&self, net: &Arc<BsdNet>, tcb: &mut Tcb) {
        loop {
            if !matches!(
                tcb.t_state,
                TcpState::Established
                    | TcpState::CloseWait
                    | TcpState::FinWait1
                    | TcpState::Closing
                    | TcpState::LastAck
                    | TcpState::FinWait2
                    | TcpState::TimeWait
            ) {
                return;
            }
            let off = tcb.snd_nxt.wrapping_sub(tcb.snd_una) as usize;
            let win = tcb.snd_wnd.min(tcb.snd_cwnd) as usize;
            let sendable = tcb.snd_buf.cc();
            let mut len = sendable
                .saturating_sub(off)
                .min(win.saturating_sub(off))
                .min(tcb.t_maxseg);
            // Would this segment carry our FIN?
            let data_done = off + len == sendable;
            let fin_now = tcb.fin_wanted && !tcb.fin_sent && data_done && win > off + len;
            let mut send = false;
            if len == tcb.t_maxseg {
                send = true; // A full segment always goes.
            } else if len > 0 && data_done {
                // Nagle: a final partial segment goes only when idle or
                // when the algorithm is disabled.
                if tcb.t_flags.has(TFlags::NODELAY) || tcb.snd_nxt == tcb.snd_una {
                    send = true;
                }
            }
            if fin_now {
                send = true;
            }
            if tcb.t_flags.has(TFlags::ACKNOW) {
                send = true;
            }
            if !send {
                return;
            }
            if !fin_now && len == 0 && !tcb.t_flags.has(TFlags::ACKNOW) {
                return;
            }
            let mut flags = th::ACK;
            let payload = if len > 0 {
                tcb.snd_buf.copym(off, len)
            } else {
                len = 0;
                MbufChain::new()
            };
            if len > 0 && off + len == sendable {
                flags |= th::PUSH;
            }
            let seq = tcb.snd_nxt;
            if fin_now {
                flags |= th::FIN;
                tcb.fin_sent = true;
            }
            tcb.snd_nxt = tcb.snd_nxt.wrapping_add(len as u32 + u32::from(fin_now));
            if seq::gt(tcb.snd_nxt, tcb.snd_max) {
                tcb.snd_max = tcb.snd_nxt;
                // Time this transmission if nothing is being timed.
                if tcb.t_rtttime.is_none() {
                    tcb.t_rtttime = Some((seq, net.env.now()));
                }
            }
            self.emit_segment(net, tcb, seq, flags, payload, false);
            tcb.t_flags.clear(TFlags::ACKNOW);
            tcb.t_flags.clear(TFlags::DELACK);
            if (len > 0 || fin_now) && tcb.rexmt_deadline == u64::MAX {
                tcb.rexmt_deadline = net.env.now() + tcb.t_rxtcur;
            }
            if len == 0 && !fin_now {
                return; // A lone ACK; nothing more to push.
            }
        }
    }

    /// Builds one segment and hands it to IP.
    fn emit_segment(
        &self,
        net: &Arc<BsdNet>,
        tcb: &mut Tcb,
        seq_no: u32,
        flags: u8,
        payload: MbufChain,
        with_mss_opt: bool,
    ) {
        net.env
            .machine
            .charge_layer_at(oskit_machine::boundary!("freebsd-net", "tcp_out")); // TCP processing.
        let hdr_len = if with_mss_opt {
            TCP_HDR_LEN + 4
        } else {
            TCP_HDR_LEN
        };
        let wnd = tcb.rcv_buf.space().min(0xFFFF) as u16;
        tcb.rcv_adv = tcb.rcv_nxt.wrapping_add(u32::from(wnd));
        let mut hdr = vec![0u8; hdr_len];
        hdr[0..2].copy_from_slice(&tcb.local.1.to_be_bytes());
        hdr[2..4].copy_from_slice(&tcb.foreign.1.to_be_bytes());
        hdr[4..8].copy_from_slice(&seq_no.to_be_bytes());
        hdr[8..12].copy_from_slice(&tcb.rcv_nxt.to_be_bytes());
        hdr[12] = ((hdr_len / 4) as u8) << 4;
        hdr[13] = flags;
        hdr[14..16].copy_from_slice(&wnd.to_be_bytes());
        if with_mss_opt {
            hdr[20] = 2; // MSS option kind.
            hdr[21] = 4; // Length.
            hdr[22..24].copy_from_slice(&(TCP_MSS as u16).to_be_bytes());
        }
        // Checksum over pseudo-header + header + payload.
        let total = hdr_len + payload.pkt_len();
        let mut pseudo = Vec::with_capacity(12);
        pseudo.extend_from_slice(&tcb.local.0.octets());
        pseudo.extend_from_slice(&tcb.foreign.0.octets());
        pseudo.push(0);
        pseudo.push(ipproto::TCP);
        pseudo.extend_from_slice(&(total as u16).to_be_bytes());
        net.env
            .machine
            .charge_checksum_at(oskit_machine::boundary!("freebsd-net", "tcp_out"), total);
        let csum = {
            let mut tmp = MbufChain::from_mbuf(Mbuf::small(&hdr, MLEN - hdr_len));
            tmp.m_cat(payload.clone()); // Clones share storage, not bytes.
            in_cksum_chain(&tmp, &pseudo)
        };
        hdr[16..18].copy_from_slice(&csum.to_be_bytes());
        let paylen = payload.pkt_len();
        let seg = if paylen > 0 && hdr_len + paylen + 34 <= MLEN {
            // BSD tcp_output's small-segment path: copy tiny payloads into
            // the header mbuf, so "small packet sizes ... fit in a single
            // protocol mbuf, enabling mapping into a device driver skbuff"
            // (paper §5).  The 34 bytes keep room for the IP and Ethernet
            // headers still to be prepended.
            let mut flat = vec![0u8; hdr_len + paylen];
            flat[..hdr_len].copy_from_slice(&hdr);
            payload.m_copydata(0, &mut flat[hdr_len..]);
            net.env
                .machine
                .charge_copy_at(oskit_machine::boundary!("freebsd-net", "tcp_output"), paylen);
            MbufChain::from_mbuf(Mbuf::small(&flat, MLEN - flat.len()))
        } else {
            // Header-first chain: a small mbuf (with leading space for the
            // IP and Ethernet headers to be prepended into) followed by
            // shared payload mbufs — discontiguous whenever bulk data is
            // present, exactly the BSD shape whose conversion costs
            // Table 1 measures.
            let mut seg = MbufChain::from_mbuf(Mbuf::small(&hdr, MLEN - hdr_len));
            seg.m_cat(payload);
            seg
        };
        tcb.segs_sent += 1;
        // IP layer.
        net.env
            .machine
            .charge_layer_at(oskit_machine::boundary!("freebsd-net", "ip_out"));
        net.env.machine.charge_checksum_at(
            oskit_machine::boundary!("freebsd-net", "ip_out"),
            super::ip::IP_HDR_LEN,
        );
        let ifp = net.ifnet();
        net.ip
            .ip_output(&ifp, ipproto::TCP, tcb.local.0, tcb.foreign.0, seg);
    }

    /// Fast-timer hook: delayed ACKs become immediate.
    pub(crate) fn fasttimo(self: &Arc<Self>, net: &Arc<BsdNet>) {
        let mut tcb = self.tcb.lock();
        if tcb.t_flags.has(TFlags::DELACK) {
            tcb.t_flags.clear(TFlags::DELACK);
            tcb.t_flags.set(TFlags::ACKNOW);
            self.tcp_output(net, &mut tcb);
        }
    }

    /// Slow-timer hook: retransmit and TIME_WAIT expiry.
    pub(crate) fn slowtimo(self: &Arc<Self>, net: &Arc<BsdNet>, now: u64) {
        let mut tcb = self.tcb.lock();
        if now >= tcb.timewait_deadline {
            tcb.t_state = TcpState::Closed;
            drop(tcb);
            self.detach(net);
            self.wake_all(net);
            return;
        }
        if now < tcb.rexmt_deadline {
            return;
        }
        // Retransmission timeout.
        tcb.t_rxtshift += 1;
        if tcb.t_rxtshift > 12 {
            // Drop the connection.
            tcb.so_error = Some(oskit_com::Error::TimedOut);
            tcb.t_state = TcpState::Closed;
            drop(tcb);
            self.detach(net);
            self.wake_all(net);
            return;
        }
        tcb.t_rxtcur = (tcb.t_rxtcur * 2).min(TCPTV_REXMTMAX_NS);
        tcb.rexmt_deadline = now + tcb.t_rxtcur;
        tcb.t_rtttime = None;
        // Congestion response: back to slow start.
        let win = tcb.snd_wnd.min(tcb.snd_cwnd) / 2;
        tcb.snd_ssthresh = win.max(2 * tcb.t_maxseg as u32);
        tcb.snd_cwnd = tcb.t_maxseg as u32;
        tcb.t_dupacks = 0;
        match tcb.t_state {
            TcpState::SynSent => {
                let seq = tcb.snd_una;
                self.emit_segment(net, &mut tcb, seq, th::SYN, MbufChain::new(), true);
            }
            TcpState::SynReceived => {
                let seq = tcb.snd_una;
                self.emit_segment(net, &mut tcb, seq, th::SYN | th::ACK, MbufChain::new(), true);
            }
            _ => {
                // Go back to snd_una and let tcp_output resend.
                tcb.snd_nxt = tcb.snd_una;
                tcb.fin_sent = false;
                tcb.t_flags.set(TFlags::ACKNOW);
                self.tcp_output(net, &mut tcb);
            }
        }
    }
}

/// Extension trait so `snd_max.max_seq(x)` reads like the C macro soup.
trait SeqMax {
    fn max_seq(self, other: u32) -> u32;
}

impl SeqMax for u32 {
    fn max_seq(self, other: u32) -> u32 {
        if seq::gt(other, self) {
            other
        } else {
            self
        }
    }
}

// Helper surface used by `tcp_input.rs`.
impl TcpSock {
    /// Locks the control block.
    pub(crate) fn tcb_lock(&self) -> MutexGuard<'_, Tcb> {
        self.tcb.lock()
    }

    /// Whether the listener can take another embryonic connection.
    pub(crate) fn listen_has_room(&self) -> bool {
        let tcb = self.tcb.lock();
        tcb.t_state == TcpState::Listen && tcb.accept_queue.len() < tcb.backlog
    }

    /// `send_syn` for a caller already holding the tcb.
    pub(crate) fn send_syn_locked(&self, net: &Arc<BsdNet>, tcb: &mut Tcb, syn_ack: bool) {
        self.send_syn(net, tcb, syn_ack);
    }

    /// `tcp_output` for a caller already holding the tcb.
    pub(crate) fn tcp_output_locked(&self, net: &Arc<BsdNet>, tcb: &mut Tcb) {
        self.tcp_output(net, tcb);
    }

    /// Removes the connection from the demux table and wakes everyone.
    pub(crate) fn detach_and_wake(&self, net: &Arc<BsdNet>) {
        self.detach(net);
        self.wake_all(net);
    }

    /// Wakes all waiters; over-waking is harmless because every `tsleep`
    /// loop rechecks its condition.
    pub(crate) fn wake_waiters(&self, net: &Arc<BsdNet>) {
        self.wake_all(net);
    }

    /// Queues a completed child on this listener and wakes `accept`.
    pub(crate) fn enqueue_accepted(&self, net: &Arc<BsdNet>, child: Arc<TcpSock>) {
        self.tcb.lock().accept_queue.push_back(child);
        net.sleep.wakeup(self.chan(CHAN_CONN));
    }
}

impl Tcb {
    /// Records the spawning listener.
    pub(crate) fn set_parent(&mut self, p: &Arc<TcpSock>) {
        self.parent = Some(Arc::downgrade(p));
    }

    /// Takes the spawning listener (announced exactly once).
    pub(crate) fn take_parent(&mut self) -> Option<Arc<TcpSock>> {
        self.parent.take().and_then(|w| w.upgrade())
    }

    /// Disarms the retransmission machinery after forward progress.
    pub(crate) fn clear_rexmt(&mut self) {
        self.rexmt_deadline = u64::MAX;
        self.t_rxtshift = 0;
    }

    /// Whether our FIN has been acknowledged.
    pub(crate) fn fin_acked(&self) -> bool {
        self.fin_sent && self.snd_una == self.snd_max
    }

    /// Enters TIME_WAIT with its 2*MSL deadline.
    pub(crate) fn enter_timewait(&mut self, now: u64) {
        self.t_state = TcpState::TimeWait;
        self.timewait_deadline = now + TCPTV_MSL2_NS;
    }

    /// Processes an ACK that advances `snd_una`: RTT estimation, buffer
    /// release, congestion-window growth, retransmit rearm.
    pub(crate) fn ack_advance(&mut self, net: &Arc<BsdNet>, ack: u32, wnd: u32, now: u64) {
        let _ = net;
        // RTT estimation (tcp_xmit_timer, in nanoseconds).
        if let Some((tseq, t0)) = self.t_rtttime {
            if seq::gt(ack, tseq) {
                let rtt = now.saturating_sub(t0).max(1);
                if self.t_srtt == 0 {
                    self.t_srtt = rtt;
                    self.t_rttvar = rtt / 2;
                } else {
                    let delta = rtt as i64 - self.t_srtt as i64;
                    self.t_srtt = (self.t_srtt as i64 + delta / 8).max(1) as u64;
                    self.t_rttvar =
                        (self.t_rttvar as i64 + (delta.abs() - self.t_rttvar as i64) / 4).max(1)
                            as u64;
                }
                self.t_rxtcur =
                    (self.t_srtt + 4 * self.t_rttvar).clamp(TCPTV_MIN_NS, TCPTV_REXMTMAX_NS);
                self.t_rtttime = None;
            }
        }
        let acked = ack.wrapping_sub(self.snd_una);
        let data_acked = (acked as usize).min(self.snd_buf.cc());
        self.snd_buf.drop_front(data_acked);
        self.snd_una = ack;
        if seq::lt(self.snd_nxt, self.snd_una) {
            self.snd_nxt = self.snd_una;
        }
        // Congestion window: slow start, then additive increase; fast
        // recovery deflates to ssthresh.
        let mss = self.t_maxseg as u32;
        if self.t_dupacks >= 3 {
            self.snd_cwnd = self.snd_ssthresh;
        } else if self.snd_cwnd < self.snd_ssthresh {
            self.snd_cwnd = self.snd_cwnd.saturating_add(mss);
        } else {
            self.snd_cwnd = self
                .snd_cwnd
                .saturating_add((mss * mss / self.snd_cwnd.max(1)).max(1));
        }
        self.snd_cwnd = self.snd_cwnd.min(1 << 20);
        self.t_dupacks = 0;
        self.t_rxtshift = 0;
        self.snd_wnd = wnd;
        self.rexmt_deadline = if self.snd_una == self.snd_max {
            u64::MAX
        } else {
            now + self.t_rxtcur
        };
    }

    /// Duplicate-ACK processing: Reno fast retransmit/recovery.
    pub(crate) fn dupack(&mut self, sock: &Arc<TcpSock>, net: &Arc<BsdNet>) {
        self.t_dupacks += 1;
        let mss = self.t_maxseg as u32;
        if self.t_dupacks == 3 {
            let win = (self.snd_wnd.min(self.snd_cwnd) / 2).max(2 * mss);
            self.snd_ssthresh = win;
            let onxt = self.snd_nxt;
            self.snd_nxt = self.snd_una;
            self.snd_cwnd = mss;
            let fin_was_sent = self.fin_sent;
            self.fin_sent = false;
            sock.tcp_output(net, self);
            self.fin_sent = fin_was_sent || self.fin_sent;
            self.snd_cwnd = self.snd_ssthresh + 3 * mss;
            if seq::gt(onxt, self.snd_nxt) {
                self.snd_nxt = onxt;
            }
        } else if self.t_dupacks > 3 {
            self.snd_cwnd = self.snd_cwnd.saturating_add(mss);
            sock.tcp_output(net, self);
        }
    }

    /// Appends in-order data and applies the ack-every-other-segment
    /// policy.
    pub(crate) fn append_in_order(&mut self, net: &Arc<BsdNet>, payload: MbufChain) {
        let _ = net;
        let len = payload.pkt_len();
        if self.rcv_buf.space() < len {
            // The sender overran our advertised window; drop and re-ack.
            self.t_flags.set(TFlags::ACKNOW);
            return;
        }
        self.rcv_buf.append(payload);
        self.rcv_nxt = self.rcv_nxt.wrapping_add(len as u32);
        if self.t_flags.has(TFlags::DELACK) {
            self.t_flags.set(TFlags::ACKNOW);
        } else {
            self.t_flags.set(TFlags::DELACK);
        }
    }

    /// Holds an out-of-order segment, bounded by the receive buffer.
    pub(crate) fn reass_insert(&mut self, seq_no: u32, data: Vec<u8>) {
        let held: usize = self.reass.values().map(Vec::len).sum();
        if held + data.len() > self.rcv_buf.hiwat() {
            return;
        }
        self.reass.entry(seq_no).or_insert(data);
    }

    /// Moves now-contiguous reassembly segments into the receive buffer.
    pub(crate) fn drain_reassembly(&mut self, net: &Arc<BsdNet>) {
        let _ = net;
        loop {
            let Some((&s, _)) = self.reass.first_key_value() else {
                return;
            };
            if seq::gt(s, self.rcv_nxt) {
                return;
            }
            let data = self.reass.remove(&s).expect("key just seen");
            let skip = self.rcv_nxt.wrapping_sub(s) as usize;
            if skip < data.len() {
                let rest = &data[skip..];
                if self.rcv_buf.space() < rest.len() {
                    // Put it back; the application will drain first.
                    self.reass.insert(s, data);
                    return;
                }
                self.rcv_buf.append(MbufChain::from_slice(rest));
                self.rcv_nxt = self.rcv_nxt.wrapping_add(rest.len() as u32);
            }
        }
    }
}
