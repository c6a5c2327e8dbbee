//! The §5 experiment harness: ttcp (Table 1) and rtcp (Table 2) over the
//! three system configurations the paper compares.
//!
//! "Tables 1 and 2 compare the TCP send and receive bandwidth and latency
//! for three environments: Linux 2.0.29, FreeBSD 2.1.5, and the OSKit
//! using the FreeBSD 2.1.5 protocol stack and the Linux 2.0.29 device
//! drivers."
//!
//! Nothing here charges configuration-specific costs: the three setups
//! run different *code paths*, and the virtual-time deltas fall out of the
//! copies, crossings and protocol work those paths actually perform (see
//! DESIGN.md §5).

use oskit_com::interfaces::netio::EtherDev;
use oskit_com::Query;
use oskit_freebsd_net::{attach_native_if, ifconfig, open_ether_if, oskit_freebsd_net_init};
use oskit_linux_dev::linux::inet::LinuxInet;
use oskit_linux_dev::{LinuxEtherDev, NetDevice};
use oskit_machine::{FaultPlan, FaultSnapshot, Machine, Nic, Sim, TraceReport};
use oskit_osenv::OsEnv;
use parking_lot::Mutex;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The three systems of Tables 1 and 2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackKind {
    /// Monolithic Linux: the Linux-style stack on the Linux driver,
    /// sharing `sk_buff`s throughout.
    Linux,
    /// Monolithic FreeBSD: the BSD stack on a BSD-native driver, sharing
    /// mbufs throughout.
    FreeBsd,
    /// The OSKit: the FreeBSD stack bound to the encapsulated Linux
    /// driver through COM netio/bufio glue.
    OsKit,
}

/// One side's configuration: a stack plus *composable* driver feature
/// knobs.  Built fluently —
///
/// ```
/// use oskit::experiments::NetConfig;
/// let cfg = NetConfig::oskit().sg(true).napi(true);
/// assert_eq!(cfg.name(), "OSKit (SG+NAPI)");
/// ```
///
/// The feature knobs only exist on the encapsulated Linux driver, so
/// they are meaningful only for [`NetConfig::oskit`]; on the monolithic
/// configurations they are ignored.  Each knob is an ablation, not a
/// paper configuration — the plain `oskit()` numbers are untouched.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetConfig {
    kind: StackKind,
    sg: bool,
    napi: bool,
}

impl NetConfig {
    /// Monolithic Linux.
    pub fn linux() -> NetConfig {
        NetConfig {
            kind: StackKind::Linux,
            sg: false,
            napi: false,
        }
    }

    /// Monolithic FreeBSD.
    pub fn freebsd() -> NetConfig {
        NetConfig {
            kind: StackKind::FreeBsd,
            sg: false,
            napi: false,
        }
    }

    /// The OSKit: FreeBSD stack over the encapsulated Linux driver.
    pub fn oskit() -> NetConfig {
        NetConfig {
            kind: StackKind::OsKit,
            sg: false,
            napi: false,
        }
    }

    /// Sets `NETIF_F_SG` scatter-gather transmit: discontiguous mbuf
    /// chains cross the `ether_tx` seam as fragment lists instead of
    /// being copied.
    pub fn sg(mut self, on: bool) -> NetConfig {
        self.sg = on;
        self
    }

    /// Sets the `NETIF_F_NAPI` receive mode: the NIC coalesces receive
    /// interrupts and the driver drains the ring with budgeted polls
    /// instead of taking one interrupt per frame.
    pub fn napi(mut self, on: bool) -> NetConfig {
        self.napi = on;
        self
    }

    /// Which stack this configuration runs.
    pub fn kind(self) -> StackKind {
        self.kind
    }

    /// Whether scatter-gather transmit is enabled.
    pub fn has_sg(self) -> bool {
        self.sg
    }

    /// Whether NAPI receive is enabled.
    pub fn has_napi(self) -> bool {
        self.napi
    }

    /// Display name matching the paper's tables (feature ablations are
    /// suffixed, and compose: `"OSKit (SG+NAPI)"`).
    pub fn name(self) -> String {
        match self.kind {
            StackKind::Linux => "Linux".to_string(),
            StackKind::FreeBsd => "FreeBSD".to_string(),
            StackKind::OsKit => match (self.sg, self.napi) {
                (false, false) => "OSKit".to_string(),
                (true, false) => "OSKit (SG driver)".to_string(),
                (false, true) => "OSKit (NAPI rx)".to_string(),
                (true, true) => "OSKit (SG+NAPI)".to_string(),
            },
        }
    }
}

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

/// The result of one ttcp run.
#[derive(Clone, Debug)]
pub struct TtcpResult {
    /// Bytes transferred.
    pub bytes: u64,
    /// Virtual elapsed time, ns.
    pub elapsed_ns: u64,
    /// Throughput in Mbit/s of virtual time.
    pub mbit_s: f64,
    /// The sender machine's ledger, per boundary; `total()` sums it.
    pub sender: TraceReport,
    /// The receiver machine's ledger.
    pub receiver: TraceReport,
    /// Sender-machine fault ledger (all-zero unless a plan was installed
    /// via [`ttcp_run_faulted`]).
    pub sender_faults: FaultSnapshot,
    /// Receiver-machine fault ledger.
    pub receiver_faults: FaultSnapshot,
}

/// The result of one rtcp run.
#[derive(Clone, Debug)]
pub struct RtcpResult {
    /// Round trips performed.
    pub round_trips: u64,
    /// Mean round-trip time in microseconds of virtual time.
    pub rtt_us: f64,
    /// The client machine's ledger, per boundary; `total()` sums it.
    pub client: TraceReport,
    /// The server machine's ledger.
    pub server: TraceReport,
}

/// An abstract connected byte pipe: lets one driver routine run over all
/// three stacks' socket flavors.
trait Pipe: Send + Sync {
    fn send(&self, buf: &[u8]) -> usize;
    fn recv(&self, buf: &mut [u8]) -> usize;
    fn close(&self);
}

struct BsdPipe(Arc<oskit_freebsd_net::TcpSock>);
impl Pipe for BsdPipe {
    fn send(&self, buf: &[u8]) -> usize {
        self.0.send(buf).expect("send")
    }
    fn recv(&self, buf: &mut [u8]) -> usize {
        self.0.recv(buf).expect("recv")
    }
    fn close(&self) {
        self.0.close();
    }
}

struct LinuxPipe(Arc<oskit_linux_dev::LinuxSock>);
impl Pipe for LinuxPipe {
    fn send(&self, buf: &[u8]) -> usize {
        self.0.send(buf).expect("send")
    }
    fn recv(&self, buf: &mut [u8]) -> usize {
        self.0.recv(buf).expect("recv")
    }
    fn close(&self) {
        self.0.close();
    }
}

/// A testbed: two machines wired together with connect/accept hooks.
struct Testbed {
    sim: Arc<Sim>,
    machine_a: Arc<Machine>,
    machine_b: Arc<Machine>,
    /// Accepts one connection on port 5001 (runs on a sim thread).
    accept: Box<dyn FnOnce() -> Box<dyn Pipe> + Send>,
    /// Connects to 10.0.0.2:5001 (runs on a sim thread).
    connect: Box<dyn FnOnce() -> Box<dyn Pipe> + Send>,
    /// Keeps stacks and devices alive for the run (components hold only
    /// weak back-references, as the real ones hold raw pointers).
    _keep: Vec<Box<dyn std::any::Any + Send + Sync>>,
}

fn build(sim: Arc<Sim>, sender_cfg: NetConfig, receiver_cfg: NetConfig) -> Testbed {
    sim.set_time_limit(10_000_000_000_000); // 10000 s: full-size runs fit.
    let ma = Machine::new(&sim, "sender", 1 << 22);
    let mb = Machine::new(&sim, "receiver", 1 << 22);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
    Nic::connect(&na, &nb);
    let ea = OsEnv::new(&ma);
    let eb = OsEnv::new(&mb);
    let mut keep: Vec<Box<dyn std::any::Any + Send + Sync>> = Vec::new();

    // Per-side stack construction.  `server` decides whether this side
    // accepts (receiver) or connects (sender).
    let mut make_side = |cfg: NetConfig,
                         env: &Arc<OsEnv>,
                         nic: &Arc<Nic>,
                         ip: Ipv4Addr,
                         server: bool|
     -> Box<dyn FnOnce() -> Box<dyn Pipe> + Send> {
        match cfg.kind() {
            StackKind::FreeBsd | StackKind::OsKit => {
                let (net, _) = oskit_freebsd_net_init(env);
                if cfg.kind() == StackKind::FreeBsd {
                    let ifp = attach_native_if(&net, nic);
                    ifconfig(&ifp, ip, MASK);
                } else {
                    let dev = NetDevice::new("eth0", env, Arc::clone(nic));
                    if cfg.has_sg() {
                        dev.set_features(oskit_linux_dev::NETIF_F_SG);
                    }
                    if cfg.has_napi() {
                        dev.set_features(oskit_linux_dev::NETIF_F_NAPI);
                    }
                    let com = LinuxEtherDev::new(env, &dev);
                    let ether: Arc<dyn EtherDev> = com.query::<dyn EtherDev>().expect("etherdev");
                    let ifp = open_ether_if(&net, &ether).expect("open");
                    ifconfig(&ifp, ip, MASK);
                    keep.push(Box::new((dev, com, ifp)));
                }
                let net2 = Arc::clone(&net);
                keep.push(Box::new(net));
                if server {
                    Box::new(move || {
                        let ls = oskit_freebsd_net::TcpSock::new(&net2);
                        ls.bind(Ipv4Addr::UNSPECIFIED, 5001).unwrap();
                        ls.listen(1).unwrap();
                        let (conn, _) = ls.accept().unwrap();
                        Box::new(BsdPipe(conn)) as Box<dyn Pipe>
                    })
                } else {
                    Box::new(move || {
                        let s = oskit_freebsd_net::TcpSock::new(&net2);
                        s.connect(IP_B, 5001).unwrap();
                        Box::new(BsdPipe(s)) as Box<dyn Pipe>
                    })
                }
            }
            StackKind::Linux => {
                let dev = NetDevice::new("eth0", env, Arc::clone(nic));
                let inet = LinuxInet::attach(env, &dev, ip, MASK);
                let inet2 = Arc::clone(&inet);
                keep.push(Box::new((dev, inet)));
                if server {
                    Box::new(move || {
                        let ls = inet2.socket();
                        ls.bind(5001).unwrap();
                        ls.listen(1).unwrap();
                        let conn = ls.accept().unwrap();
                        Box::new(LinuxPipe(conn)) as Box<dyn Pipe>
                    })
                } else {
                    Box::new(move || {
                        let s = inet2.socket();
                        s.connect(IP_B, 5001).unwrap();
                        Box::new(LinuxPipe(s)) as Box<dyn Pipe>
                    })
                }
            }
        }
    };
    let connect = make_side(sender_cfg, &ea, &na, IP_A, false);
    let accept = make_side(receiver_cfg, &eb, &nb, IP_B, true);

    ma.irq.enable();
    mb.irq.enable();
    Testbed {
        sim,
        machine_a: ma,
        machine_b: mb,
        accept,
        connect,
        _keep: keep,
    }
}

/// Runs ttcp: `blocks` writes of `block_size` bytes, a → b (paper: 131072
/// blocks of 4096 bytes).  Both machines run `config`.
pub fn ttcp_run(config: NetConfig, blocks: usize, block_size: usize) -> TtcpResult {
    ttcp_run_mixed(config, config, blocks, block_size)
}

/// Runs ttcp with different systems on each side — how the table's "Send"
/// and "Receive" rows isolate one path: pair the system under test with a
/// native-FreeBSD peer on the other side.
pub fn ttcp_run_mixed(
    sender: NetConfig,
    receiver: NetConfig,
    blocks: usize,
    block_size: usize,
) -> TtcpResult {
    ttcp_run_faulted(sender, receiver, blocks, block_size, None)
}

/// Runs ttcp with a scripted fault plan installed on *both* machines —
/// the robustness ablation.  The receiver still asserts a byte-exact
/// transfer, so a passing run proves every injected fault was absorbed
/// by the stack's own recovery machinery.  `None` is the plain run.
pub fn ttcp_run_faulted(
    sender: NetConfig,
    receiver: NetConfig,
    blocks: usize,
    block_size: usize,
    plan: Option<FaultPlan>,
) -> TtcpResult {
    ttcp_in(Sim::new(), sender, receiver, blocks, block_size, plan)
}

/// [`ttcp_run_faulted`] on `sim`, which it frees once the result is in.
fn ttcp_in(
    sim: Arc<Sim>,
    sender: NetConfig,
    receiver: NetConfig,
    blocks: usize,
    block_size: usize,
    plan: Option<FaultPlan>,
) -> TtcpResult {
    let tb = build(sim, sender, receiver);
    if let Some(plan) = plan {
        tb.machine_a.faults().install(plan);
        tb.machine_b.faults().install(plan);
    }
    let total = blocks * block_size;
    let finish = Arc::new(Mutex::new(0u64));
    let f2 = Arc::clone(&finish);
    let mb = Arc::clone(&tb.machine_b);
    let accept = tb.accept;
    tb.sim.spawn("ttcp-r", move || {
        let pipe = accept();
        let mut buf = vec![0u8; 65536];
        let mut got = 0usize;
        loop {
            let n = pipe.recv(&mut buf);
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, total, "short transfer");
        *f2.lock() = mb.cpu_now();
        pipe.close();
        let mut d = [0u8; 256];
        while pipe.recv(&mut d) != 0 {}
    });
    let connect = tb.connect;
    tb.sim.spawn("ttcp-t", move || {
        let pipe = connect();
        let block = vec![0x55u8; block_size];
        for _ in 0..blocks {
            let mut sent = 0;
            while sent < block.len() {
                sent += pipe.send(&block[sent..]);
            }
        }
        pipe.close();
        let mut d = [0u8; 256];
        while pipe.recv(&mut d) != 0 {}
    });
    tb.sim.run();
    let elapsed = *finish.lock();
    let result = TtcpResult {
        bytes: total as u64,
        elapsed_ns: elapsed,
        mbit_s: total as f64 * 8.0 / (elapsed as f64 / 1e9) / 1e6,
        sender: tb.machine_a.tracer().metrics(),
        receiver: tb.machine_b.tracer().metrics(),
        sender_faults: tb.machine_a.faults().stats(),
        receiver_faults: tb.machine_b.faults().stats(),
    };
    tb.sim.shutdown();
    result
}

/// Runs rtcp: `round_trips` one-byte ping-pongs (paper Table 2).
pub fn rtcp_run(config: NetConfig, round_trips: usize) -> RtcpResult {
    rtcp_in(Sim::new(), config, round_trips)
}

/// [`rtcp_run`] on `sim`, which it frees once the result is in.
fn rtcp_in(sim: Arc<Sim>, config: NetConfig, round_trips: usize) -> RtcpResult {
    let tb = build(sim, config, config);
    let elapsed = Arc::new(Mutex::new(0u64));
    let accept = tb.accept;
    tb.sim.spawn("rtcp-server", move || {
        let pipe = accept();
        let mut b = [0u8; 1];
        loop {
            if pipe.recv(&mut b) == 0 {
                break;
            }
            pipe.send(&b);
        }
        pipe.close();
    });
    let connect = tb.connect;
    let ma = Arc::clone(&tb.machine_a);
    let e2 = Arc::clone(&elapsed);
    tb.sim.spawn("rtcp-client", move || {
        let pipe = connect();
        let start = ma.cpu_now();
        let mut b = [1u8; 1];
        for _ in 0..round_trips {
            pipe.send(&b);
            assert_eq!(pipe.recv(&mut b), 1);
        }
        *e2.lock() = ma.cpu_now() - start;
        pipe.close();
        let mut d = [0u8; 16];
        while pipe.recv(&mut d) != 0 {}
    });
    tb.sim.run();
    let total_ns = *elapsed.lock();
    let result = RtcpResult {
        round_trips: round_trips as u64,
        rtt_us: total_ns as f64 / round_trips as f64 / 1000.0,
        client: tb.machine_a.tracer().metrics(),
        server: tb.machine_b.tracer().metrics(),
    };
    tb.sim.shutdown();
    result
}

/// One file-serving configuration of the `table3` benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServeMode {
    /// `read_at` + `send` over a freshly mounted (cold) buffer cache:
    /// every block comes off the simulated disk during the transfer.
    ColdCopy,
    /// `read_at` + `send` with the cache pre-warmed by a priming pass.
    WarmCopy,
    /// `File::send_on` over a warm cache with an SG-capable NIC: cache
    /// pages travel from the file system to the wire by reference.
    Sendfile,
}

impl ServeMode {
    /// Row label used by the `table3` binary.
    pub fn name(self) -> &'static str {
        match self {
            ServeMode::ColdCopy => "cold copy",
            ServeMode::WarmCopy => "warm copy",
            ServeMode::Sendfile => "warm sendfile",
        }
    }
}

/// The result of one [`fileserve_run`].
#[derive(Clone, Debug)]
pub struct FileServeResult {
    /// Payload bytes served.
    pub bytes: u64,
    /// Client-observed transfer time (connect → EOF), virtual ns.
    pub elapsed_ns: u64,
    /// Throughput in Mbit/s of virtual time.
    pub mbit_s: f64,
    /// The server machine's ledger, per boundary, reset after volume
    /// prep and warm-up so it covers exactly the measured transfer.
    pub server: TraceReport,
    /// The client machine's ledger (not reset; includes connect).
    pub client: TraceReport,
}

/// Serves one `kib`-KiB file from an FFS volume on a simulated IDE disk
/// to a native-FreeBSD client over TCP — the `table3` experiment.
///
/// The server is the full OSKit sandwich: encapsulated Linux IDE driver
/// → shared buffer cache → encapsulated NetBSD FFS → COM file/socket
/// interfaces → encapsulated FreeBSD TCP → encapsulated Linux Ethernet
/// driver.  The client asserts the payload is byte-exact, so a passing
/// sendfile run proves the lent cache pages carried the right bytes.
pub fn fileserve_run(mode: ServeMode, kib: usize) -> FileServeResult {
    fileserve_in(Sim::new(), mode, kib)
}

/// [`fileserve_run`] on `sim`, which it frees once the result is in.
fn fileserve_in(sim: Arc<Sim>, mode: ServeMode, kib: usize) -> FileServeResult {
    use oskit_com::interfaces::blkio::BlkIo;
    use oskit_com::interfaces::fs::FileSystem;
    use oskit_com::interfaces::socket::{Domain, Shutdown, SockAddr, SockType};
    use oskit_machine::{Disk, SleepRecord, SECTOR_SIZE};
    use oskit_netbsd_fs::FfsFileSystem;

    let size = kib * 1024;
    sim.set_time_limit(10_000_000_000_000);
    let ms = Machine::new(&sim, "server", 1 << 22);
    let mc = Machine::new(&sim, "client", 1 << 22);
    let nsrv = Nic::new(&ms, [2, 0, 0, 0, 0, 2]);
    let ncli = Nic::new(&mc, [2, 0, 0, 0, 0, 1]);
    Nic::connect(&nsrv, &ncli);
    let es = OsEnv::new(&ms);
    let ec = OsEnv::new(&mc);

    // Server hardware: an IDE disk behind the encapsulated Linux driver
    // (sized for the payload plus file-system metadata), and an Ethernet
    // device — SG-capable in sendfile mode, since the gather path needs
    // hardware that can follow fragment lists.
    let sectors = size / SECTOR_SIZE + 8192;
    let disk = Disk::new(&ms, sectors);
    let drive = oskit_linux_dev::linux::blkdev::IdeDrive::new("hda", &es, disk);
    let blkio = oskit_linux_dev::LinuxBlkIo::new(&es, &drive) as Arc<dyn BlkIo>;
    let dev = NetDevice::new("eth0", &es, Arc::clone(&nsrv));
    if mode == ServeMode::Sendfile {
        dev.set_features(oskit_linux_dev::NETIF_F_SG);
    }
    let (snet, sf) = oskit_freebsd_net_init(&es);
    let com = LinuxEtherDev::new(&es, &dev);
    let ether: Arc<dyn EtherDev> = com.query::<dyn EtherDev>().expect("etherdev");
    let sif = open_ether_if(&snet, &ether).expect("open");
    ifconfig(&sif, IP_B, MASK);

    // Client: native FreeBSD.
    let (cnet, _csf) = oskit_freebsd_net_init(&ec);
    let cif = attach_native_if(&cnet, &ncli);
    ifconfig(&cif, IP_A, MASK);
    ms.irq.enable();
    mc.irq.enable();

    // The client must not connect before the server's disk prep is done
    // and the listener is up.
    let ready = Arc::new(SleepRecord::new());
    let done = Arc::new(Mutex::new((0u64, 0u64)));

    let sim_s = Arc::clone(&sim);
    let ms2 = Arc::clone(&ms);
    let ready_s = Arc::clone(&ready);
    let keep_s = (snet, sif, com, dev, drive);
    sim.spawn("fileserve-server", move || {
        let _keep = keep_s;
        // Build the volume: a deterministic payload, synced out.
        FfsFileSystem::mkfs(&blkio).expect("mkfs");
        {
            let fs = FfsFileSystem::mount_on(&es, &blkio).expect("mount");
            let root = fs.getroot().expect("root");
            let f = root.create("payload", true, 0o644).expect("create");
            let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let mut off = 0;
            while off < size {
                off += f.write_at(&data[off..], off as u64).expect("write");
            }
            FileSystem::sync(&*fs).expect("sync");
            fs.unmount().expect("unmount");
        }
        // Remount: the cache starts cold.
        let fs = FfsFileSystem::mount_on(&es, &blkio).expect("remount");
        let root = fs.getroot().expect("root");
        let file = root.lookup("payload").expect("lookup");
        if mode != ServeMode::ColdCopy {
            // Priming pass: pull every block of the file into the cache.
            let mut buf = vec![0u8; 64 * 1024];
            let mut off = 0u64;
            loop {
                let n = file.read_at(&mut buf, off).expect("warm read");
                if n == 0 {
                    break;
                }
                off += n as u64;
            }
        }
        let ls = sf.create(Domain::Inet, SockType::Stream).expect("socket");
        ls.bind(SockAddr::any(7070)).expect("bind");
        ls.listen(1).expect("listen");
        // Measurement starts here: the counters cover the transfer only.
        ms2.tracer().clear();
        ready_s.signal(&sim_s);
        let (conn, _) = ls.accept().expect("accept");
        match mode {
            ServeMode::Sendfile => {
                let sent = file.send_on(&*conn, 0, size as u64).expect("send_on");
                assert_eq!(sent, size as u64, "short sendfile");
            }
            ServeMode::ColdCopy | ServeMode::WarmCopy => {
                let mut buf = vec![0u8; 64 * 1024];
                let mut off = 0u64;
                loop {
                    let n = file.read_at(&mut buf, off).expect("read");
                    if n == 0 {
                        break;
                    }
                    let mut sent = 0;
                    while sent < n {
                        sent += conn.send(&buf[sent..n]).expect("send");
                    }
                    off += n as u64;
                }
            }
        }
        conn.shutdown(Shutdown::Both).expect("shutdown");
        let mut d = [0u8; 256];
        while conn.recv(&mut d).unwrap_or(0) != 0 {}
        FileSystem::sync(&*fs).expect("sync");
    });

    let sim_c = Arc::clone(&sim);
    let mc2 = Arc::clone(&mc);
    let done_c = Arc::clone(&done);
    sim.spawn("fileserve-client", move || {
        let _keep = (cif,);
        ready.wait(&sim_c);
        let s = oskit_freebsd_net::TcpSock::new(&cnet);
        s.connect(IP_B, 7070).expect("connect");
        let start = mc2.cpu_now();
        let mut buf = vec![0u8; 65536];
        let mut got = 0usize;
        loop {
            let n = s.recv(&mut buf).expect("recv");
            if n == 0 {
                break;
            }
            // Byte-exact check: on the sendfile path these bytes were
            // never copied between the cache page and the wire, so this
            // is the end-to-end proof the lent pages carried the data.
            for (i, &b) in buf[..n].iter().enumerate() {
                assert_eq!(b, ((got + i) % 251) as u8, "corrupt byte at {}", got + i);
            }
            got += n;
        }
        let elapsed = mc2.cpu_now() - start;
        assert_eq!(got, size, "short transfer");
        *done_c.lock() = (got as u64, elapsed);
        s.close();
        let mut d = [0u8; 256];
        while s.recv(&mut d).unwrap_or(0) != 0 {}
    });

    sim.run();
    let (bytes, elapsed_ns) = *done.lock();
    let result = FileServeResult {
        bytes,
        elapsed_ns,
        mbit_s: bytes as f64 * 8.0 / (elapsed_ns as f64 / 1e9) / 1e6,
        server: ms.tracer().metrics(),
        client: mc.tracer().metrics(),
    };
    sim.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttcp_shapes_match_the_paper() {
        // Small runs; the shape assertions are what matter (Table 1).
        let linux = ttcp_run(NetConfig::linux(), 256, 4096);
        let bsd = ttcp_run(NetConfig::freebsd(), 256, 4096);
        let oskit = ttcp_run(NetConfig::oskit(), 256, 4096);
        // Everyone actually moves the bytes at a plausible fraction of
        // the 100 Mbit/s wire.
        for r in [&linux, &bsd, &oskit] {
            assert!(r.mbit_s > 20.0, "implausibly slow: {:?}", r);
            assert!(r.mbit_s < 100.0, "faster than the wire: {:?}", r);
        }
        // The OSKit send path pays an extra copy per packet vs FreeBSD.
        let (oskit_copied, bsd_copied) = (
            oskit.sender.total().bytes_copied,
            bsd.sender.total().bytes_copied,
        );
        assert!(
            oskit_copied > bsd_copied,
            "oskit sender should copy more: {oskit_copied} vs {bsd_copied}"
        );
        // OSKit throughput does not exceed FreeBSD's.
        assert!(oskit.mbit_s <= bsd.mbit_s * 1.01);
    }

    #[test]
    fn oskit_send_copy_is_attributed_to_linux_ether_glue() {
        let oskit = ttcp_run_mixed(NetConfig::oskit(), NetConfig::freebsd(), 64, 4096);
        // The Table 1 send-path penalty — one copy per packet when the
        // mbuf chain is handed to the Linux driver — books precisely on
        // the linux-dev ether_tx boundary.
        let tx = oskit
            .sender
            .get("linux-dev", "ether_tx")
            .expect("ether_tx boundary present");
        assert!(tx.copies > 0, "send-path copies must land on ether_tx");
        assert!(
            tx.bytes_copied >= oskit.bytes,
            "every payload byte copied once"
        );
        // Receive path on an OSKit receiver: zero copied bytes at every
        // glue boundary (§5: the glue "never has to copy the incoming
        // data").  The only copying boundary is the donor stack's own
        // sockbuf uiomove — the mbuf→user copy native FreeBSD pays too.
        let rx = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::oskit(), 64, 4096);
        for b in rx.receiver.nonzero() {
            if (b.component, b.name) == ("freebsd-net", "sockbuf") {
                continue;
            }
            assert_eq!(
                b.bytes_copied, 0,
                "receive path must be zero-copy at {}::{}",
                b.component, b.name
            );
        }
        // And that baseline copy is exactly one pass over the payload —
        // identical to a native FreeBSD receiver, i.e. zero *extra*.
        let native = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::freebsd(), 64, 4096);
        assert_eq!(
            rx.receiver.total().bytes_copied,
            native.receiver.total().bytes_copied,
            "OSKit receiver must copy no more than native FreeBSD"
        );
    }

    /// Once a harness returns, nothing keeps its simulation alive: no
    /// pending timer, interrupt handler or exited process thread.
    #[test]
    fn harnesses_free_their_simulation() {
        let freed = |run: &dyn Fn(Arc<Sim>)| {
            let sim = Sim::new();
            let weak = Arc::downgrade(&sim);
            run(sim);
            weak.upgrade().is_none()
        };
        for config in [NetConfig::linux(), NetConfig::freebsd(), NetConfig::oskit()] {
            let name = config.name();
            assert!(
                freed(&|sim| drop(ttcp_in(sim, config, config, 16, 4096, None))),
                "ttcp over {name} leaked its Sim"
            );
            assert!(
                freed(&|sim| drop(rtcp_in(sim, config, 4))),
                "rtcp over {name} leaked its Sim"
            );
        }
        assert!(
            freed(&|sim| drop(fileserve_in(sim, ServeMode::Sendfile, 16))),
            "fileserve leaked its Sim"
        );
    }

    #[test]
    fn rtcp_shapes_match_the_paper() {
        let bsd = rtcp_run(NetConfig::freebsd(), 50);
        let oskit = rtcp_run(NetConfig::oskit(), 50);
        // Table 2: "the FreeBSD versus OSKit results indicate that the
        // OSKit imposes significant overhead ... largely attributable to
        // the additional glue code."
        assert!(
            oskit.rtt_us > bsd.rtt_us,
            "oskit RTT {} must exceed FreeBSD RTT {}",
            oskit.rtt_us,
            bsd.rtt_us
        );
        // And the mechanism is crossings, not copies (1-byte payloads).
        assert!(oskit.client.total().crossings > 0);
        assert_eq!(bsd.client.total().crossings, 0);
    }
}
