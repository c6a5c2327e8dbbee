//! The traced run's recorder: one span per call at each seam the
//! benchmark observes, one root span per exchange, and per-seam totals.
//!
//! A seam is either a call the benchmark makes itself (into `oskit_file`
//! or `oskit_socket`) or a call that crosses one of the pass-through COM
//! objects of [`crate::interpose`].  The workloads keep one request
//! outstanding, so a span opened at interrupt level (a received packet,
//! a disk completion) belongs to the exchange in flight.
//!
//! The probe reads clocks and nothing else: it never charges a machine,
//! so a traced run's virtual time equals the untraced run's.

use oskit::machine::Machine;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One observed seam.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Seam {
    /// `oskit_netio::push` from `freebsd-net` into `linux-dev` (transmit).
    NetTx,
    /// `oskit_netio::push` from `linux-dev` into `freebsd-net` (receive).
    NetRx,
    /// `oskit_blkio::read` from `bufcache`/`netbsd-fs` into `linux-dev`.
    BlkRead,
    /// `oskit_blkio::write` from `bufcache`/`netbsd-fs` into `linux-dev`.
    BlkWrite,
    /// The benchmark's `oskit_file::send_on` of a whole file (a GET).
    FileGet,
    /// The benchmark's `oskit_file::write_at` plus `sync` (a PUT).
    FilePut,
    /// The benchmark's `oskit_socket::send`.
    SockSend,
    /// The benchmark's `oskit_socket::recv`.
    SockRecv,
}

impl Seam {
    /// Every seam, in report order.
    pub const ALL: [Seam; 8] = [
        Seam::NetTx,
        Seam::NetRx,
        Seam::BlkRead,
        Seam::BlkWrite,
        Seam::FileGet,
        Seam::FilePut,
        Seam::SockSend,
        Seam::SockRecv,
    ];

    /// The metric prefix of this seam.
    pub fn name(self) -> &'static str {
        match self {
            Seam::NetTx => "netio.tx",
            Seam::NetRx => "netio.rx",
            Seam::BlkRead => "blkio.read",
            Seam::BlkWrite => "blkio.write",
            Seam::FileGet => "file.get",
            Seam::FilePut => "file.put",
            Seam::SockSend => "socket.send",
            Seam::SockRecv => "socket.recv",
        }
    }
}

/// Totals of one seam over a measured phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeamTotals {
    /// Calls crossing the seam.
    pub calls: u64,
    /// Bytes the calls carried.
    pub bytes: u64,
    /// Virtual time inside the calls, waiting included, in ns.
    pub vt_ns: u64,
    /// Host time inside the calls, in ns.
    pub host_ns: u64,
}

/// One recorded span.  Times are ns since the round began (host) and ns
/// of simulated time (virtual, on the clock of the machine that made the
/// call).
#[derive(Clone, Debug)]
pub struct Span {
    /// Seam name, or `"exchange"` for a root span.
    pub name: &'static str,
    /// Span id, unique within the round.
    pub id: u64,
    /// The root span of the exchange this span belongs to (0 for roots
    /// and for spans outside any exchange).
    pub parent: u64,
    /// Exchange (request) number, counted from 1.
    pub request: u64,
    /// Host start.
    pub host_start_ns: u64,
    /// Host end.
    pub host_end_ns: u64,
    /// Virtual start.
    pub vt_start_ns: u64,
    /// Virtual end.
    pub vt_end_ns: u64,
}

/// An exchange in flight, from [`Probe::begin`].
pub struct Exchange {
    id: u64,
    request: u64,
    host_start_ns: u64,
    vt_start_ns: u64,
}

/// The recorder shared by a round's interposers and workload threads.
pub struct Probe {
    traced: bool,
    origin: Instant,
    measuring: AtomicBool,
    next_id: AtomicU64,
    request: AtomicU64,
    root: AtomicU64,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    totals: [SeamTotals; 8],
    spans: Vec<Span>,
}

impl Probe {
    /// A probe for one round; an untraced probe records nothing.
    pub fn new(traced: bool) -> Arc<Probe> {
        Arc::new(Probe {
            traced,
            origin: Instant::now(),
            measuring: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            request: AtomicU64::new(0),
            root: AtomicU64::new(0),
            state: Mutex::new(State::default()),
        })
    }

    /// Whether this round installs interposers and records spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// When the round began (host time).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn active(&self) -> bool {
        self.traced && self.measuring.load(Ordering::Relaxed)
    }

    /// Starts or stops recording (the measured phase).
    pub fn set_measuring(&self, on: bool) {
        self.measuring.store(on, Ordering::Relaxed);
    }

    fn host_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("probe state poisoned by a panicking workload thread")
    }

    /// Runs `f`, one call across `seam` made on `machine`, and records it
    /// with the byte count `bytes` reads from its result.
    pub fn call<R>(
        &self,
        seam: Seam,
        machine: &Machine,
        f: impl FnOnce() -> R,
        bytes: impl FnOnce(&R) -> u64,
    ) -> R {
        if !self.active() {
            return f();
        }
        let vt0 = machine.cpu_now();
        let h0 = self.host_ns();
        let r = f();
        let h1 = self.host_ns();
        let vt1 = machine.cpu_now();
        let n = bytes(&r);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            name: seam.name(),
            id,
            parent: self.root.load(Ordering::Relaxed),
            request: self.request.load(Ordering::Relaxed),
            host_start_ns: h0,
            host_end_ns: h1,
            vt_start_ns: vt0,
            vt_end_ns: vt1,
        };
        let mut st = self.state();
        let t = &mut st.totals[seam as usize];
        t.calls += 1;
        t.bytes += n;
        t.vt_ns += vt1.saturating_sub(vt0);
        t.host_ns += h1 - h0;
        st.spans.push(span);
        r
    }

    /// Opens the root span of the next exchange, started at virtual time
    /// `vt_now` on the client's clock.
    pub fn begin(&self, vt_now: u64) -> Option<Exchange> {
        if !self.active() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let request = self.request.fetch_add(1, Ordering::Relaxed) + 1;
        self.root.store(id, Ordering::Relaxed);
        Some(Exchange {
            id,
            request,
            host_start_ns: self.host_ns(),
            vt_start_ns: vt_now,
        })
    }

    /// Closes an exchange's root span at virtual time `vt_now`.
    pub fn end(&self, ex: Option<Exchange>, vt_now: u64) {
        let Some(ex) = ex else { return };
        let span = Span {
            name: "exchange",
            id: ex.id,
            parent: 0,
            request: ex.request,
            host_start_ns: ex.host_start_ns,
            host_end_ns: self.host_ns(),
            vt_start_ns: ex.vt_start_ns,
            vt_end_ns: vt_now,
        };
        self.root.store(0, Ordering::Relaxed);
        self.state().spans.push(span);
    }

    /// Per-seam totals, in [`Seam::ALL`] order.
    pub fn totals(&self) -> [SeamTotals; 8] {
        self.state().totals
    }

    /// Takes the recorded spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.state().spans)
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"host_start_ns\":{},\"host_end_ns\":{},\"vt_start_ns\":{},\"vt_end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.host_start_ns, s.host_end_ns, s.vt_start_ns, s.vt_end_ns
        )?;
    }
    out.flush()
}
