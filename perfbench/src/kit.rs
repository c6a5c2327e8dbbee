//! Composition of the simulated testbeds from the components' public
//! constructors, and the bookkeeping of a round's measured phase.

use crate::interpose::{TracedBlkIo, TracedEtherDev};
use crate::probe::Probe;
use oskit::com::interfaces::blkio::BlkIo;
use oskit::com::interfaces::netio::EtherDev;
use oskit::com::interfaces::socket::SocketFactory;
use oskit::com::Query;
use oskit::freebsd_net::{attach_native_if, ifconfig, open_ether_if, oskit_freebsd_net_init};
use oskit::linux_dev::linux::blkdev::IdeDrive;
use oskit::linux_dev::{LinuxBlkIo, LinuxEtherDev, NetDevice, NETIF_F_SG};
use oskit::machine::{Disk, Machine, Nic, Sim, TraceReport};
use oskit::osenv::OsEnv;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The client's address.
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// The server's address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

/// Anything a round must keep alive until the simulation ends
/// (components hold only weak back-references to each other).
pub type Keep = Vec<Box<dyn std::any::Any + Send + Sync>>;

/// One simulated PC with a NIC, running a FreeBSD network stack.
pub struct Node {
    /// The machine.
    pub machine: Arc<Machine>,
    /// Its execution environment.
    pub env: Arc<OsEnv>,
    /// Its NIC.
    pub nic: Arc<Nic>,
    /// The stack's socket factory.
    pub sockets: Arc<dyn SocketFactory>,
}

/// A simulation with its runaway guard raised so every round fits.
pub fn new_sim() -> Arc<Sim> {
    let sim = Sim::new();
    sim.set_time_limit(10_000_000_000_000);
    sim
}

/// Builds a machine named `name` with a NIC; `last` is the last byte of
/// its MAC address.
pub fn machine(sim: &Arc<Sim>, name: &str, last: u8) -> (Arc<Machine>, Arc<Nic>, Arc<OsEnv>) {
    let m = Machine::new(sim, name, 1 << 22);
    let nic = Nic::new(&m, [2, 0, 0, 0, 0, last]);
    let env = OsEnv::new(&m);
    (m, nic, env)
}

/// The paper's configuration: the FreeBSD stack over the encapsulated
/// Linux Ethernet driver, bound through COM `oskit_etherdev`/`oskit_netio`.
/// A traced round interposes on that binding.
pub fn oskit_node(
    parts: (Arc<Machine>, Arc<Nic>, Arc<OsEnv>),
    ip: Ipv4Addr,
    sg: bool,
    probe: &Arc<Probe>,
    keep: &mut Keep,
) -> Node {
    let (machine, nic, env) = parts;
    let (net, sockets) = oskit_freebsd_net_init(&env);
    let dev = NetDevice::new("eth0", &env, Arc::clone(&nic));
    if sg {
        dev.set_features(NETIF_F_SG);
    }
    let com = LinuxEtherDev::new(&env, &dev);
    let mut ether: Arc<dyn EtherDev> = com.query::<dyn EtherDev>().expect("etherdev");
    if probe.traced() {
        ether = TracedEtherDev::wrap(ether, probe, &machine);
    }
    let ifp = open_ether_if(&net, &ether).expect("open ether if");
    ifconfig(&ifp, ip, MASK);
    keep.push(Box::new((net, dev, com, ether, ifp)));
    Node {
        machine,
        env,
        nic,
        sockets,
    }
}

/// Native FreeBSD: the same stack on its own driver, no glue.
pub fn native_node(
    parts: (Arc<Machine>, Arc<Nic>, Arc<OsEnv>),
    ip: Ipv4Addr,
    keep: &mut Keep,
) -> Node {
    let (machine, nic, env) = parts;
    let (net, sockets) = oskit_freebsd_net_init(&env);
    let ifp = attach_native_if(&net, &nic);
    ifconfig(&ifp, ip, MASK);
    keep.push(Box::new((net, ifp)));
    Node {
        machine,
        env,
        nic,
        sockets,
    }
}

/// An IDE disk of `sectors` sectors behind the encapsulated Linux driver,
/// exported as `oskit_blkio`; a traced round interposes on it.
pub fn ide_blkio(
    node: &Node,
    sectors: usize,
    probe: &Arc<Probe>,
    keep: &mut Keep,
) -> Arc<dyn BlkIo> {
    let disk = Disk::new(&node.machine, sectors);
    let drive = IdeDrive::new("hda", &node.env, disk);
    let mut blkio = LinuxBlkIo::new(&node.env, &drive) as Arc<dyn BlkIo>;
    if probe.traced() {
        blkio = TracedBlkIo::wrap(blkio, probe, &node.machine);
    }
    keep.push(Box::new(drive));
    blkio
}

/// Counters of one machine-side snapshot.
struct Snapshot {
    host: Instant,
    rusage: crate::stats::Rusage,
    counts: BTreeMap<String, u64>,
}

/// The measured phase of a round: host time, context switches and the
/// program's own per-boundary and NIC counters, summed over the machines
/// that run the kit, between [`Phase::start`] and [`Phase::end`].
pub struct Phase {
    kit: Vec<Arc<Machine>>,
    nics: Vec<Arc<Nic>>,
    probe: Arc<Probe>,
    marks: Mutex<(Option<Snapshot>, Option<Snapshot>)>,
}

/// What a finished phase measured.
pub struct PhaseResult {
    /// Host seconds from the round's start to the first measured operation.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub host_s: f64,
    /// Voluntary context switches of the process in the measured phase.
    pub ctx_switches: u64,
    /// Per-boundary and NIC counter deltas (`component.boundary.field`).
    pub counts: BTreeMap<String, u64>,
}

impl Phase {
    /// A phase over the kit machines `kit` and their NICs.
    pub fn new(kit: Vec<Arc<Machine>>, nics: Vec<Arc<Nic>>, probe: &Arc<Probe>) -> Arc<Phase> {
        Arc::new(Phase {
            kit,
            nics,
            probe: Arc::clone(probe),
            marks: Mutex::new((None, None)),
        })
    }

    fn snapshot(&self) -> Snapshot {
        let mut counts = BTreeMap::new();
        for m in &self.kit {
            add_report(&mut counts, &m.tracer().metrics());
        }
        for n in &self.nics {
            *counts.entry("nic.tx_frames".into()).or_default() += n.tx_wire();
            *counts.entry("nic.rx_dropped".into()).or_default() += n.rx_dropped();
        }
        Snapshot {
            host: Instant::now(),
            rusage: crate::stats::Rusage::now(),
            counts,
        }
    }

    fn marks(&self) -> std::sync::MutexGuard<'_, (Option<Snapshot>, Option<Snapshot>)> {
        self.marks
            .lock()
            .expect("phase marks poisoned by a panicking workload thread")
    }

    /// Marks the first measured operation.
    pub fn start(&self) {
        let s = self.snapshot();
        self.marks().0 = Some(s);
        self.probe.set_measuring(true);
    }

    /// Marks the end of the last measured operation.
    pub fn end(&self) {
        self.probe.set_measuring(false);
        let s = self.snapshot();
        self.marks().1 = Some(s);
    }

    /// The phase's measurements; `None` if it never started or ended.
    pub fn result(&self) -> Option<PhaseResult> {
        let marks = self.marks();
        let (Some(a), Some(b)) = (&marks.0, &marks.1) else {
            return None;
        };
        let mut counts = b.counts.clone();
        for (k, v) in counts.iter_mut() {
            *v = v.saturating_sub(a.counts.get(k).copied().unwrap_or(0));
        }
        counts.retain(|_, v| *v != 0);
        Some(PhaseResult {
            setup_s: (a.host - self.probe.origin()).as_secs_f64(),
            host_s: (b.host - a.host).as_secs_f64(),
            ctx_switches: b.rusage.nvcsw.saturating_sub(a.rusage.nvcsw),
            counts,
        })
    }
}

fn add_report(counts: &mut BTreeMap<String, u64>, r: &TraceReport) {
    for b in r.nonzero() {
        let fields = [
            ("crossings", b.crossings),
            ("copies", b.copies),
            ("bytes_copied", b.bytes_copied),
            ("gathers", b.gathers),
            ("bytes_gathered", b.bytes_gathered),
            ("allocs", b.allocs),
            ("bytes_allocated", b.bytes_allocated),
            ("alloc_failed", b.alloc_failed),
            ("sleeps", b.sleeps),
            ("wakeups", b.wakeups),
            ("irqs", b.irqs),
            ("polls", b.polls),
            ("poll_frames", b.poll_frames),
            ("cache_hits", b.cache_hits),
            ("cache_misses", b.cache_misses),
            ("cache_evictions", b.cache_evictions),
            ("vtime_ns", b.vtime_ns),
        ];
        for (f, v) in fields {
            if v != 0 {
                *counts
                    .entry(format!("{}.{}.{}", b.component, b.name, f))
                    .or_default() += v;
            }
        }
    }
}
