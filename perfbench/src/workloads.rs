//! The three workloads.  Each round builds a fresh simulated testbed from
//! the seed, runs one closed loop (one client thread, one server thread,
//! one TCP connection, one request outstanding) and checks every
//! delivered byte and every timing property against the oracle.

use crate::gen::{Payload, Rng};
use crate::kit::{self, Keep, Node, Phase, CLIENT_IP, SERVER_IP};
use crate::probe::{Probe, Seam, SeamTotals, Span};
use crate::stats;
use oskit::com::interfaces::fs::{File, FileSystem};
use oskit::com::interfaces::socket::{Domain, Shutdown, SockAddr, SockOpt, SockType, Socket};
use oskit::machine::{DiskConfig, Machine, SleepRecord, WireConfig, SECTOR_SIZE};
use oskit::netbsd_fs::FfsFileSystem;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The workloads, by their `--workload` names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Bulk one-way TCP between two OSKit kernels, in 4 KiB writes.
    NetStream,
    /// Request/response exchanges between two OSKit kernels.
    NetRpc,
    /// A native-FreeBSD client against an OSKit file server.
    FileServe,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::NetStream, Workload::NetRpc, Workload::FileServe];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetStream => "net_stream",
            Workload::NetRpc => "net_rpc",
            Workload::FileServe => "file_serve",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Workload sizes.  [`Params::FULL`] is what the benchmark runs;
/// smaller sizes serve the benchmark's own tests.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// net_stream: the stream is at least this long...
    pub stream_min: usize,
    /// ...plus a seeded extra below this.
    pub stream_extra: usize,
    /// net_rpc: exchanges per round.
    pub rpc_exchanges: usize,
    /// file_serve: files in the set.
    pub files: usize,
    /// file_serve: requests per round.
    pub fs_requests: usize,
}

impl Params {
    /// The benchmark's sizes.
    pub const FULL: Params = Params {
        stream_min: 12 << 20,
        stream_extra: 1 << 20,
        rpc_exchanges: 2000,
        files: 96,
        fs_requests: 1800,
    };
}

/// The size of every net_stream write.
pub const WRITE_SIZE: usize = 4096;
/// net_rpc response sizes are drawn log-uniformly from 1 B to this.
pub const RPC_MAX_RESPONSE: usize = 16 * 1024;
/// file_serve file sizes are drawn log-uniformly from 1 KiB to 256 KiB.
pub const FILE_SIZES: (usize, usize) = (1024, 256 * 1024);
/// Exponent of file_serve's Zipf-like popularity (weight of rank r is
/// 1/r^s): the middle of the 0.64-0.83 that Breslau et al. ("Web Caching
/// and Zipf-like Distributions", INFOCOM 1999) measured on web request
/// traces.
pub const ZIPF_S: f64 = 0.75;
/// Share of file_serve requests that are PUTs.  An assumption, not a
/// measured mix: reads dominate, and a round still holds enough PUTs for
/// `vt_put_mbit_s` to be steady (see README.md).
pub const PUT_SHARE: f64 = 0.1;
/// The constant stream that fixes which size slice and which popularity
/// rank each file of file_serve's set has.
const FILESET_STREAM: u64 = 0x0F11_E5E7;

const PORT: u16 = 5001;
const GET: u32 = 1;
const PUT: u32 = 2;

/// The deterministic record of one round: every virtual-time sample and
/// count, so two rounds can be compared exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VtRecord {
    /// Per-operation latency samples, virtual ns, in operation order.
    pub lat_ns: Vec<u64>,
    /// Payload bytes and virtual ns behind `vt_goodput_mbit_s`.
    pub total: (u64, u64),
    /// Payload bytes and virtual ns behind `vt_get_mbit_s`.
    pub get: (u64, u64),
    /// Payload bytes and virtual ns behind `vt_put_mbit_s`.
    pub put: (u64, u64),
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
}

/// The end-to-end virtual-time metrics of a round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VtMetrics {
    /// Payload Mbit per virtual second.
    pub goodput_mbit_s: f64,
    /// Median operation latency, virtual µs.
    pub lat_us_p50: f64,
    /// p99 operation latency, virtual µs, where ten samples lie beyond it.
    pub lat_us_p99: Option<f64>,
    /// GET-side Mbit per virtual second.
    pub get_mbit_s: f64,
    /// PUT-side Mbit per virtual second.
    pub put_mbit_s: f64,
    /// Latency samples.
    pub samples: usize,
}

fn mbit_s((bytes, ns): (u64, u64)) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 * 1e3 / ns as f64
}

impl VtRecord {
    /// The record's end-to-end metrics.
    pub fn metrics(&self) -> VtMetrics {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        let (p50, p99) = if sorted.is_empty() {
            (0.0, None)
        } else {
            (
                stats::nearest_rank(&sorted, 0.5) as f64 / 1e3,
                stats::p99(&sorted).map(|v| v as f64 / 1e3),
            )
        };
        VtMetrics {
            goodput_mbit_s: mbit_s(self.total),
            lat_us_p50: p50,
            lat_us_p99: p99,
            get_mbit_s: mbit_s(self.get),
            put_mbit_s: mbit_s(self.put),
            samples: sorted.len(),
        }
    }
}

/// Everything one round measured.
pub struct Round {
    /// The deterministic part.
    pub vt: VtRecord,
    /// The program's per-boundary and NIC counters over the measured phase.
    pub counts: BTreeMap<String, u64>,
    /// Host seconds before the first measured operation.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Voluntary context switches in the measured phase.
    pub ctx_switches: u64,
    /// Per-seam totals (traced rounds only).
    pub seams: [SeamTotals; 8],
    /// Recorded spans (traced rounds only).
    pub spans: Vec<Span>,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
}

/// What the workload threads record.
#[derive(Default)]
struct Log {
    vt: VtRecord,
    errors: Vec<String>,
}

type SharedLog = Arc<Mutex<Log>>;

fn log(l: &SharedLog) -> std::sync::MutexGuard<'_, Log> {
    l.lock()
        .expect("round log poisoned by a panicking workload thread")
}

fn fail(l: &SharedLog, ops: u64, why: String) {
    let mut g = log(l);
    g.vt.failed += ops;
    g.errors.push(why);
}

/// Runs one round of `w` under `seed`.  A traced round installs the
/// interposers and records spans; its virtual-time record must equal an
/// untraced round's.
pub fn run_round(w: Workload, seed: u64, traced: bool, p: &Params) -> Round {
    let probe = Probe::new(traced);
    let shared: SharedLog = Arc::default();
    let mut keep: Keep = Vec::new();
    let (planned, phase, sim) = match w {
        Workload::NetStream => net_stream(seed, p, &probe, &shared, &mut keep),
        Workload::NetRpc => net_rpc(seed, p, &probe, &shared, &mut keep),
        Workload::FileServe => file_serve(seed, p, &probe, &shared, &mut keep),
    };
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
    drop(keep);
    let mut l = std::mem::take(&mut *log(&shared));
    l.vt.attempted = planned;
    if let Err(e) = ran {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        l.errors.push(format!("simulation failed: {msg}"));
        l.vt.failed = planned;
    }
    check_line_rate(&mut l);
    l.vt.failed = l.vt.failed.min(planned);
    let measured = phase.result();

    if measured.is_none() && l.errors.is_empty() {
        l.errors.push("the measured phase never ended".into());
        l.vt.failed = planned;
    }
    let measured = measured.unwrap_or(kit::PhaseResult {
        setup_s: 0.0,
        host_s: 0.0,
        ctx_switches: 0,
        counts: BTreeMap::new(),
    });
    Round {
        vt: l.vt,
        counts: measured.counts,
        setup_s: measured.setup_s,
        host_s: measured.host_s,
        ctx_switches: measured.ctx_switches,
        seams: probe.totals(),
        spans: probe.take_spans(),
        errors: l.errors,
    }
}

fn moved(r: &oskit::com::Result<usize>) -> u64 {
    r.as_ref().map_or(0, |&n| n as u64)
}

/// Sends all of `buf`, one traced `send` call at a time.
fn send_all(probe: &Probe, m: &Machine, s: &dyn Socket, buf: &[u8]) -> Result<(), String> {
    let mut sent = 0;
    while sent < buf.len() {
        match probe.call(Seam::SockSend, m, || s.send(&buf[sent..]), moved) {
            Ok(0) => return Err("send made no progress".into()),
            Ok(n) => sent += n,
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Receives exactly `buf.len()` bytes; `Ok(false)` on a clean EOF before
/// the first byte.
fn recv_exact(probe: &Probe, m: &Machine, s: &dyn Socket, buf: &mut [u8]) -> Result<bool, String> {
    let mut got = 0;
    while got < buf.len() {
        match probe.call(Seam::SockRecv, m, || s.recv(&mut buf[got..]), moved) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => return Err(format!("short transfer: {got} of {} bytes", buf.len())),
            Ok(n) => got += n,
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
    Ok(true)
}

/// Reads until the peer closes, then drops the connection.
fn drain(s: &dyn Socket) {
    let mut d = [0u8; 256];
    while matches!(s.recv(&mut d), Ok(n) if n > 0) {}
}

fn words(buf: &[u8]) -> impl Iterator<Item = u32> + '_ {
    buf.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
}

fn header(ws: &[u32]) -> Vec<u8> {
    ws.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn listen(node: &Node) -> Result<Arc<dyn Socket>, String> {
    let ls = node
        .sockets
        .create(Domain::Inet, SockType::Stream)
        .map_err(|e| format!("socket: {e}"))?;
    ls.bind(SockAddr::any(PORT))
        .map_err(|e| format!("bind: {e}"))?;
    ls.listen(1).map_err(|e| format!("listen: {e}"))?;
    Ok(ls)
}

fn accept(ls: &dyn Socket, nodelay: bool) -> Result<Arc<dyn Socket>, String> {
    let (conn, _) = ls.accept().map_err(|e| format!("accept: {e}"))?;
    if nodelay {
        conn.setsockopt(SockOpt::NoDelay(true))
            .map_err(|e| format!("setsockopt: {e}"))?;
    }
    Ok(conn)
}

fn connect(node: &Node, nodelay: bool) -> Result<Arc<dyn Socket>, String> {
    let s = node
        .sockets
        .create(Domain::Inet, SockType::Stream)
        .map_err(|e| format!("socket: {e}"))?;
    s.connect(SockAddr::new(SERVER_IP, PORT))
        .map_err(|e| format!("connect: {e}"))?;
    if nodelay {
        s.setsockopt(SockOpt::NoDelay(true))
            .map_err(|e| format!("setsockopt: {e}"))?;
    }
    Ok(s)
}

/// The fastest any exchange can be: two one-way wire latencies plus the
/// serialization of its payload in each direction.
fn wire_floor(request: usize, response: usize) -> u64 {
    let w = WireConfig::default();
    2 * w.latency_ns + w.serialize_ns(request) + w.serialize_ns(response)
}

/// Fails every operation if a rate exceeds the 100 Mbit/s line rate.
fn check_line_rate(l: &mut Log) {
    let line = WireConfig::default().bits_per_sec as f64 / 1e6;
    let m = l.vt.metrics();
    for (name, v) in [
        ("vt_goodput_mbit_s", m.goodput_mbit_s),
        ("vt_get_mbit_s", m.get_mbit_s),
        ("vt_put_mbit_s", m.put_mbit_s),
    ] {
        if v > line {
            l.vt.failed = l.vt.attempted;
            l.errors
                .push(format!("{name} {v} exceeds the {line} Mbit/s line rate"));
        }
    }
}

fn two_oskit_kernels(
    probe: &Arc<Probe>,
    keep: &mut Keep,
) -> (Arc<oskit::machine::Sim>, Node, Node, Arc<Phase>) {
    let sim = kit::new_sim();
    let a = kit::machine(&sim, "client", 1);
    let b = kit::machine(&sim, "server", 2);
    oskit::machine::Nic::connect(&a.1, &b.1);
    let client = kit::oskit_node(a, CLIENT_IP, false, probe, keep);
    let server = kit::oskit_node(b, SERVER_IP, false, probe, keep);
    client.machine.irq.enable();
    server.machine.irq.enable();
    let phase = Phase::new(
        vec![Arc::clone(&client.machine), Arc::clone(&server.machine)],
        vec![Arc::clone(&client.nic), Arc::clone(&server.nic)],
        probe,
    );
    (sim, client, server, phase)
}

type Built = (u64, Arc<Phase>, Arc<oskit::machine::Sim>);

/// net_stream: the client writes a seeded-length stream in 4 KiB writes;
/// the server reads it with seeded buffer sizes.  An operation is one
/// write; its latency runs from the start of the write (client clock) to
/// the server's read of its last byte (server clock; both clocks share the
/// simulation's timebase).
fn net_stream(seed: u64, p: &Params, probe: &Arc<Probe>, l: &SharedLog, keep: &mut Keep) -> Built {
    let total = p.stream_min + (Rng::new(seed, 1).next_u64() % p.stream_extra as u64) as usize;
    let writes = total.div_ceil(WRITE_SIZE);
    let (sim, client, server, phase) = two_oskit_kernels(probe, keep);
    let payload = Payload {
        seed,
        stream: 0,
        version: 0,
    };
    let starts = Arc::new(Mutex::new(vec![0u64; writes]));
    // Virtual times of the first write's start and of the first byte read.
    let marks = Arc::new(Mutex::new([0u64; 2]));

    let (pr, ph, lg, st, mk) = (
        Arc::clone(probe),
        Arc::clone(&phase),
        Arc::clone(l),
        Arc::clone(&starts),
        Arc::clone(&marks),
    );
    sim.spawn("stream-server", move || {
        let m = &server.machine;
        let run = || -> Result<(), String> {
            let ls = listen(&server)?;
            let conn = accept(&*ls, false)?;
            let mut sizes = Rng::new(seed, 2);
            let mut buf = vec![0u8; 64 * 1024];
            let (mut got, mut next, mut bad) = (0usize, 0usize, 0u64);
            let mut lat = Vec::with_capacity(writes);
            while got < total {
                let want = sizes.log_uniform(1024, buf.len());
                let n = match pr.call(Seam::SockRecv, m, || conn.recv(&mut buf[..want]), moved) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e) => return Err(format!("recv: {e}")),
                };
                let now = m.cpu_now();
                if got == 0 {
                    mk.lock().expect("marks")[1] = now;
                }
                if got + n > total || !payload.check(got as u64, &buf[..n]) {
                    bad += 1;
                }
                got += n;
                let starts = st.lock().expect("starts");
                while next < writes && ((next + 1) * WRITE_SIZE).min(total) <= got {
                    let len = ((next + 1) * WRITE_SIZE).min(total) - next * WRITE_SIZE;
                    let w = WireConfig::default();
                    let l = now - starts[next];
                    if l < w.latency_ns + w.serialize_ns(len) {
                        bad += 1;
                    }
                    lat.push(l);
                    next += 1;
                }
            }
            ph.end();
            let [t0, r0] = *mk.lock().expect("marks");
            let end = m.cpu_now();
            let missing = (writes - next) as u64;
            let mut g = log(&lg);
            g.vt.lat_ns = lat;
            g.vt.total = (got as u64, end - t0);
            g.vt.get = (got as u64, end - r0);
            if bad + missing > 0 {
                g.vt.failed += bad + missing;
                g.errors.push(format!(
                    "{bad} corrupt or impossible reads, {missing} writes never delivered"
                ));
            }
            drop(g);
            let _ = conn.shutdown(Shutdown::Both);
            Ok(())
        };
        if let Err(e) = run() {
            ph.end();
            fail(&lg, writes as u64, e);
        }
    });

    let (pr, ph, lg, st, mk) = (
        Arc::clone(probe),
        Arc::clone(&phase),
        Arc::clone(l),
        starts,
        marks,
    );
    sim.spawn("stream-client", move || {
        let m = &client.machine;
        let run = || -> Result<(), String> {
            let s = connect(&client, false)?;
            ph.start();
            mk.lock().expect("marks")[0] = m.cpu_now();
            let mut buf = vec![0u8; WRITE_SIZE];
            for i in 0..writes {
                let off = i * WRITE_SIZE;
                let len = WRITE_SIZE.min(total - off);
                payload.fill(off as u64, &mut buf[..len]);
                // A write is this workload's exchange: its root span
                // covers the send calls that queue it.
                let ex = pr.begin(m.cpu_now());
                st.lock().expect("starts")[i] = m.cpu_now();
                send_all(&pr, m, &*s, &buf[..len])?;
                pr.end(ex, m.cpu_now());
            }
            let t0 = mk.lock().expect("marks")[0];
            log(&lg).vt.put = (total as u64, m.cpu_now() - t0);
            s.shutdown(Shutdown::Write)
                .map_err(|e| format!("shutdown: {e}"))?;
            drain(&*s);
            Ok(())
        };
        if let Err(e) = run() {
            fail(&lg, 1, e);
        }
    });

    (writes as u64, phase, sim)
}

/// net_rpc: each exchange sends an 8-byte request naming the response
/// size (log-uniform from 1 B to 16 KiB) and waits for the response.
fn net_rpc(seed: u64, p: &Params, probe: &Arc<Probe>, l: &SharedLog, keep: &mut Keep) -> Built {
    let n = p.rpc_exchanges;
    // Log-uniform, stratified by octave: every power-of-two size class
    // gets the same number of responses, each drawn log-uniformly within
    // its class, in seeded order.  Every seed sees the same spread of
    // sizes; the percentiles move only within a class.
    let mut rng = Rng::new(seed, 3);
    let octaves = RPC_MAX_RESPONSE.trailing_zeros() as usize;
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            let lo = 1usize << (i % octaves);
            rng.log_uniform(lo, 2 * lo).min(RPC_MAX_RESPONSE)
        })
        .collect();
    shuffle(&mut sizes, &mut rng);
    let (sim, client, server, phase) = two_oskit_kernels(probe, keep);

    let (pr, lg) = (Arc::clone(probe), Arc::clone(l));
    sim.spawn("rpc-server", move || {
        let m = &server.machine;
        let run = || -> Result<(), String> {
            let ls = listen(&server)?;
            let conn = accept(&*ls, true)?;
            let mut req = [0u8; 8];
            let mut resp = vec![0u8; RPC_MAX_RESPONSE];
            while recv_exact(&pr, m, &*conn, &mut req)? {
                let [size, id] = [0, 1].map(|i| words(&req).nth(i).expect("two words") as usize);
                if size == 0 || size > RPC_MAX_RESPONSE {
                    return Err(format!("request {id} names a bad size {size}"));
                }
                Payload {
                    seed,
                    stream: id as u64,
                    version: 0,
                }
                .fill(0, &mut resp[..size]);
                send_all(&pr, m, &*conn, &resp[..size])?;
            }
            let _ = conn.shutdown(Shutdown::Both);
            Ok(())
        };
        if let Err(e) = run() {
            fail(&lg, 1, e);
        }
    });

    let (pr, ph, lg) = (Arc::clone(probe), Arc::clone(&phase), Arc::clone(l));
    sim.spawn("rpc-client", move || {
        let m = &client.machine;
        let run = || -> Result<(), String> {
            let s = connect(&client, true)?;
            ph.start();
            let mut resp = vec![0u8; RPC_MAX_RESPONSE];
            let (mut lat, mut failed) = (Vec::with_capacity(n), 0u64);
            let (mut req_bytes, mut resp_bytes, mut ns) = (0u64, 0u64, 0u64);
            for (i, &size) in sizes.iter().enumerate() {
                let req = header(&[size as u32, i as u32]);
                let ex = pr.begin(m.cpu_now());
                let t0 = m.cpu_now();
                send_all(&pr, m, &*s, &req)?;
                if !recv_exact(&pr, m, &*s, &mut resp[..size])? {
                    return Err(format!("server closed before exchange {i}"));
                }
                let t1 = m.cpu_now();
                pr.end(ex, t1);
                let ok = Payload {
                    seed,
                    stream: i as u64,
                    version: 0,
                }
                .check(0, &resp[..size])
                    && t1 - t0 >= wire_floor(req.len(), size);
                failed += u64::from(!ok);
                lat.push(t1 - t0);
                req_bytes += req.len() as u64;
                resp_bytes += size as u64;
                ns += t1 - t0;
            }
            ph.end();
            {
                let mut g = log(&lg);
                g.vt.lat_ns = lat;
                g.vt.total = (req_bytes + resp_bytes, ns);
                g.vt.get = (resp_bytes, ns);
                g.vt.put = (req_bytes, ns);
                if failed > 0 {
                    g.vt.failed += failed;
                    g.errors.push(format!(
                        "{failed} exchanges corrupt or faster than the wire"
                    ));
                }
            }
            s.shutdown(Shutdown::Write)
                .map_err(|e| format!("shutdown: {e}"))?;
            drain(&*s);
            Ok(())
        };
        if let Err(e) = run() {
            ph.end();
            fail(&lg, n as u64, e);
        }
    });
    (n as u64, phase, sim)
}

/// file_serve's file set.
///
/// File sizes are log-uniform from 1 KiB to 256 KiB, stratified: the
/// scale is cut into as many equal slices as there are files, each file
/// owns one slice (a fixed shuffle) and the seed draws its size inside
/// that slice.  Popularity ranks are another fixed shuffle, independent
/// of size.  Every seed thus serves nearly the same make-up, and no two
/// seeds exactly the same sizes.
pub struct FileSet {
    /// File sizes, by file id.
    pub sizes: Vec<usize>,
    /// Request probability, by file id.
    weights: Vec<f64>,
}

impl FileSet {
    /// `files` files under `seed`.
    pub fn new(files: usize, seed: u64) -> FileSet {
        let mut fixed = Rng::new(FILESET_STREAM, 0);
        let mut slice: Vec<usize> = (0..files).collect();
        shuffle(&mut slice, &mut fixed);
        let mut rank: Vec<usize> = (0..files).collect();
        shuffle(&mut rank, &mut fixed);
        let mut jitter = Rng::new(seed, 5);
        let (lo, hi) = ((FILE_SIZES.0 as f64).ln(), (FILE_SIZES.1 as f64).ln());
        let sizes = slice
            .iter()
            .map(|&k| {
                let at = lo + (k as f64 + jitter.unit()) / files as f64 * (hi - lo);
                (at.exp() as usize).clamp(FILE_SIZES.0, FILE_SIZES.1)
            })
            .collect();
        let weights: Vec<f64> = rank
            .iter()
            .map(|&k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
            .collect();
        let sum: f64 = weights.iter().sum();
        FileSet {
            sizes,
            weights: weights.iter().map(|w| w / sum).collect(),
        }
    }

    /// Splits `count` requests over the files in proportion to their
    /// popularity: file `i` gets one request for every point `offset + m`
    /// (`m` = 0, 1, ...) inside its stretch of the cumulative share, so
    /// it gets the floor or the ceiling of its share and the total is
    /// exact.  `offset` is in `[0, 1)`.
    pub fn apportion(&self, count: usize, offset: f64) -> Vec<usize> {
        let last = self.weights.len() - 1;
        let mut acc = 0.0;
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let lo = acc;
                // The last stretch ends at `count` exactly, whatever the
                // floating-point drift, so the total is exact.
                acc = if i == last {
                    count as f64
                } else {
                    acc + w * count as f64
                };
                ((acc - offset).floor() - (lo - offset).floor()).max(0.0) as usize
            })
            .collect()
    }
}

fn shuffle<T>(v: &mut [T], r: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (r.next_u64() % (i as u64 + 1)) as usize);
    }
}

fn file_name(id: usize) -> String {
    format!("f{id:04}")
}

/// Writes all of `data` at offset 0.
fn write_all(f: &dyn File, data: &[u8]) -> oskit::com::Result<usize> {
    let mut off = 0;
    while off < data.len() {
        match f.write_at(&data[off..], off as u64)? {
            0 => return Err(oskit::com::Error::Io),
            n => off += n,
        }
    }
    Ok(off)
}

/// Reads a whole file.
fn read_all(f: &dyn File, size: usize) -> oskit::com::Result<Vec<u8>> {
    let mut buf = vec![0u8; size];
    let mut off = 0;
    while off < size {
        match f.read_at(&mut buf[off..], off as u64)? {
            0 => break,
            n => off += n,
        }
    }
    buf.truncate(off);
    Ok(buf)
}

/// file_serve: a native-FreeBSD client sends GET and PUT requests to an
/// OSKit file server (IDE disk → blkdev glue → blkio → bufcache → FFS →
/// COM file/socket → FreeBSD TCP → SG-capable Ethernet glue) over one
/// connection.  Set-up populates the volume, syncs and remounts it cold.
fn file_serve(seed: u64, p: &Params, probe: &Arc<Probe>, l: &SharedLog, keep: &mut Keep) -> Built {
    let set = Arc::new(FileSet::new(p.files, seed));
    // The request mix follows the popularity in proportion, each file
    // getting the floor or the ceiling of its share (systematic sampling
    // from a seeded offset), in seeded order: every seed touches nearly
    // the same files nearly as often, so the cold misses each round pays
    // are alike.
    let mut rng = Rng::new(seed, 4);
    let puts = (p.fs_requests as f64 * PUT_SHARE).round() as usize;
    let mut requests: Vec<(u32, usize)> = Vec::with_capacity(p.fs_requests);
    for (op, count) in [(GET, p.fs_requests - puts), (PUT, puts)] {
        for (id, k) in set.apportion(count, rng.unit()).into_iter().enumerate() {
            requests.extend(std::iter::repeat_n((op, id), k));
        }
    }
    shuffle(&mut requests, &mut rng);
    let n = requests.len() as u64;
    let versions = Arc::new(Mutex::new(vec![0u64; set.sizes.len()]));

    let sim = kit::new_sim();
    let s_parts = kit::machine(&sim, "server", 2);
    let c_parts = kit::machine(&sim, "client", 1);
    oskit::machine::Nic::connect(&s_parts.1, &c_parts.1);
    let server = kit::oskit_node(s_parts, SERVER_IP, true, probe, keep);
    let client = kit::native_node(c_parts, CLIENT_IP, keep);
    let total: usize = set.sizes.iter().sum();
    let sectors = 2 * total / SECTOR_SIZE + 8192;
    let blkio = kit::ide_blkio(&server, sectors, probe, keep);
    server.machine.irq.enable();
    client.machine.irq.enable();
    let phase = Phase::new(
        vec![Arc::clone(&server.machine)],
        vec![Arc::clone(&server.nic)],
        probe,
    );
    let ready = Arc::new(SleepRecord::new());

    let (pr, lg, st, vs, rd, sim2) = (
        Arc::clone(probe),
        Arc::clone(l),
        Arc::clone(&set),
        Arc::clone(&versions),
        Arc::clone(&ready),
        Arc::clone(&sim),
    );
    sim.spawn("file-server", move || {
        let m = &server.machine;
        let env = &server.env;
        let e = |what: &str| {
            let what = what.to_string();
            move |err: oskit::com::Error| format!("{what}: {err}")
        };
        let run = || -> Result<(), String> {
            FfsFileSystem::mkfs(&blkio).map_err(e("mkfs"))?;
            {
                let fs = FfsFileSystem::mount_on(env, &blkio).map_err(e("mount"))?;
                let root = fs.getroot().map_err(e("getroot"))?;
                for (id, &size) in st.sizes.iter().enumerate() {
                    let f = root
                        .create(&file_name(id), true, 0o644)
                        .map_err(e("create"))?;
                    let data = Payload {
                        seed,
                        stream: id as u64,
                        version: 0,
                    }
                    .bytes(0, size);
                    write_all(&*f, &data).map_err(e("populate"))?;
                }
                FileSystem::sync(&*fs).map_err(e("sync"))?;
                fs.unmount().map_err(e("unmount"))?;
            }
            // Remount: the cache starts cold.
            let fs = FfsFileSystem::mount_on(env, &blkio).map_err(e("remount"))?;
            let root = fs.getroot().map_err(e("getroot"))?;
            let ls = listen(&server)?;
            rd.signal(&sim2);
            let conn = accept(&*ls, true)?;
            let mut hdr = [0u8; 16];
            let mut body = vec![0u8; FILE_SIZES.1];
            while recv_exact(&pr, m, &*conn, &mut hdr)? {
                let [op, id, size] = [0, 1, 2].map(|i| words(&hdr).nth(i).expect("three words"));
                let (id, size) = (id as usize, size as usize);
                if id >= st.sizes.len() || size > FILE_SIZES.1 {
                    return Err(format!("bad request for file {id} of {size} bytes"));
                }
                let f = root.lookup(&file_name(id)).map_err(e("lookup"))?;
                match op {
                    GET => {
                        let size = f.getstat().map_err(e("getstat"))?.size;
                        send_all(&pr, m, &*conn, &header(&[0, size as u32]))?;
                        let sent = pr
                            .call(
                                Seam::FileGet,
                                m,
                                || f.send_on(&*conn, 0, size),
                                |r| *r.as_ref().unwrap_or(&0),
                            )
                            .map_err(e("send_on"))?;
                        if sent != size {
                            return Err(format!("sendfile sent {sent} of {size} bytes"));
                        }
                    }
                    PUT => {
                        if !recv_exact(&pr, m, &*conn, &mut body[..size])? {
                            return Err("client closed inside a PUT".into());
                        }
                        let put = || {
                            let n = write_all(&*f, &body[..size])?;
                            File::sync(&*f)?;
                            Ok(n)
                        };
                        let n = pr.call(Seam::FilePut, m, put, moved).map_err(e("put"))?;
                        send_all(&pr, m, &*conn, &header(&[0, n as u32]))?;
                    }
                    _ => return Err(format!("bad op {op}")),
                }
            }
            let _ = conn.shutdown(Shutdown::Both);
            // The oracle's after-image: sync, unmount, remount cold and
            // re-read every file against the last version written.
            FileSystem::sync(&*fs).map_err(e("sync"))?;
            fs.unmount().map_err(e("unmount"))?;
            let fs = FfsFileSystem::mount_on(env, &blkio).map_err(e("remount"))?;
            let root = fs.getroot().map_err(e("getroot"))?;
            let versions = vs.lock().expect("versions").clone();
            let mut bad = 0;
            for (id, &size) in st.sizes.iter().enumerate() {
                let f = root.lookup(&file_name(id)).map_err(e("lookup"))?;
                let data = read_all(&*f, size + 1).map_err(e("re-read"))?;
                let want = Payload {
                    seed,
                    stream: id as u64,
                    version: versions[id],
                };
                if data.len() != size || !want.check(0, &data) {
                    bad += 1;
                }
            }
            let findings = fs.fsck().map_err(e("fsck"))?;
            if bad > 0 || !findings.is_empty() {
                fail(
                    &lg,
                    bad.max(1),
                    format!(
                        "after remount: {bad} files differ from the oracle, fsck: {findings:?}"
                    ),
                );
            }
            Ok(())
        };
        if let Err(err) = run() {
            fail(&lg, 1, err);
        }
    });

    let (pr, ph, lg, st, sim2) = (
        Arc::clone(probe),
        Arc::clone(&phase),
        Arc::clone(l),
        set,
        Arc::clone(&sim),
    );
    sim.spawn("file-client", move || {
        let m = &client.machine;
        let run = || -> Result<(), String> {
            ready.wait(&sim2);
            let s = connect(&client, true)?;
            ph.start();
            let disk = DiskConfig::default();
            let mut buf = vec![0u8; 16 + FILE_SIZES.1];
            let (mut lat, mut failed) = (Vec::with_capacity(requests.len()), 0u64);
            let (mut get, mut put) = ((0u64, 0u64), (0u64, 0u64));
            for &(op, id) in &requests {
                let size = st.sizes[id];
                let ex = pr.begin(m.cpu_now());
                let t0 = m.cpu_now();
                let version = versions.lock().expect("versions")[id];
                let ok = if op == GET {
                    send_all(&pr, m, &*s, &header(&[GET, id as u32, 0, 0]))?;
                    let mut ack = [0u8; 8];
                    let ok = recv_exact(&pr, m, &*s, &mut ack)? && words(&ack).eq([0, size as u32]);
                    if !ok {
                        return Err(format!("GET {id}: bad reply header"));
                    }
                    recv_exact(&pr, m, &*s, &mut buf[..size])?
                        && Payload {
                            seed,
                            stream: id as u64,
                            version,
                        }
                        .check(0, &buf[..size])
                } else {
                    buf[..16].copy_from_slice(&header(&[PUT, id as u32, size as u32, 0]));
                    Payload {
                        seed,
                        stream: id as u64,
                        version: version + 1,
                    }
                    .fill(0, &mut buf[16..16 + size]);
                    send_all(&pr, m, &*s, &buf[..16 + size])?;
                    let mut ack = [0u8; 8];
                    let ok = recv_exact(&pr, m, &*s, &mut ack)? && words(&ack).eq([0, size as u32]);
                    versions.lock().expect("versions")[id] = version + 1;
                    ok
                };
                let t1 = m.cpu_now();
                pr.end(ex, t1);
                let ns = t1 - t0;
                let floor = if op == GET {
                    wire_floor(16, 8 + size)
                } else {
                    // One positioning plus the bytes at the media rate.
                    (disk.overhead_ns + size as u64 * 1_000_000_000 / disk.bytes_per_sec)
                        .max(wire_floor(16 + size, 8))
                };
                failed += u64::from(!ok || ns < floor);
                lat.push(ns);
                let acc = if op == GET { &mut get } else { &mut put };
                acc.0 += size as u64;
                acc.1 += ns;
            }
            ph.end();
            {
                let mut g = log(&lg);
                g.vt.lat_ns = lat;
                g.vt.total = (get.0 + put.0, get.1 + put.1);
                g.vt.get = get;
                g.vt.put = put;
                if failed > 0 {
                    g.vt.failed += failed;
                    g.errors.push(format!(
                        "{failed} requests corrupt or faster than the hardware"
                    ));
                }
            }
            s.shutdown(Shutdown::Write)
                .map_err(|e| format!("shutdown: {e}"))?;
            drain(&*s);
            Ok(())
        };
        if let Err(e) = run() {
            ph.end();
            fail(&lg, n, e);
        }
    });
    (n, phase, sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_gives_each_file_the_floor_or_ceiling_of_its_share() {
        let set = FileSet::new(Params::FULL.files, 1);
        for offset in [0.0, 0.25, 0.5, 0.999_999] {
            for count in [1, 180, 1620] {
                let k = set.apportion(count, offset);
                assert_eq!(k.iter().sum::<usize>(), count);
                for (i, &n) in k.iter().enumerate() {
                    let share = set.weights[i] * count as f64;
                    assert!(n as f64 >= share.floor() - 1e-9 && n as f64 <= share.ceil() + 1e-9);
                }
            }
        }
    }

    #[test]
    fn file_set_outgrows_the_cache_and_needs_indirect_blocks() {
        let set = FileSet::new(Params::FULL.files, 1);
        let total: usize = set.sizes.iter().sum();
        assert!(
            total >= 4 * 256 * 4096,
            "file set {total} bytes is not 4x the 1 MiB cache"
        );
        // 12 direct 4 KiB blocks cover 48 KiB; larger files use the
        // indirect block.
        assert!(set.sizes.iter().any(|&s| s > 48 * 1024));
        assert!(set.sizes.iter().any(|&s| s <= 48 * 1024));
    }
}
