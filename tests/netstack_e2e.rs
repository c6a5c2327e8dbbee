//! Network end-to-end: the §5 experiment shapes as assertions, plus
//! cross-stack interoperability (the Linux-style stack talking standard
//! TCP to the BSD one on the wire).

use oskit::{rtcp_run, ttcp_run, ttcp_run_mixed, NetConfig};

/// Table 1's receive row: the OSKit receives at FreeBSD's rate because
/// incoming skbuffs are wrapped as mbuf clusters, never copied.
#[test]
fn table1_receive_parity() {
    let bsd = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::freebsd(), 512, 4096);
    let oskit = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::oskit(), 512, 4096);
    let ratio = oskit.mbit_s / bsd.mbit_s;
    assert!(
        (0.97..=1.03).contains(&ratio),
        "receive parity broken: OSKit {:.2} vs FreeBSD {:.2}",
        oskit.mbit_s,
        bsd.mbit_s
    );
}

/// Table 1's receive row, per boundary: the trace layer proves the
/// zero-copy claim seam by seam — no glue boundary on the OSKit
/// receiver's path copies a single payload byte, and the crossings that
/// do occur land on the linux-dev/freebsd-net glue, not anywhere hidden.
#[test]
fn table1_receive_is_zero_copy_at_every_boundary() {
    let r = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::oskit(), 512, 4096);
    let report = &r.receiver;
    for b in report.nonzero() {
        // The donor stack's sockbuf uiomove (mbuf→user) is the one copy
        // every configuration pays, native FreeBSD included; everything
        // else — every glue seam — must be zero.
        if (b.component, b.name) == ("freebsd-net", "sockbuf") {
            continue;
        }
        assert_eq!(
            b.bytes_copied, 0,
            "receive path copied {} bytes at {}::{}",
            b.bytes_copied, b.component, b.name
        );
    }
    // Zero *extra* overall: the OSKit receiver copies exactly as much as
    // a native FreeBSD receiver does.
    let native = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::freebsd(), 512, 4096);
    assert_eq!(
        r.receiver.total().bytes_copied,
        native.receiver.total().bytes_copied
    );
    // The receive path is actually instrumented: the ether glue saw
    // every inbound frame cross.
    let rx = report
        .get("linux-dev", "ether_rx")
        .expect("ether_rx boundary missing from receiver report");
    assert!(rx.crossings > 0, "no crossings recorded at ether_rx");
}

/// Table 1's send row, per boundary: the one extra copy of every payload
/// byte is attributed to the linux-dev ether glue (mbuf→skbuff), exactly
/// where §4.7 says the price of encapsulation is paid.
#[test]
fn table1_send_copy_lands_on_ether_glue() {
    let r = ttcp_run_mixed(NetConfig::oskit(), NetConfig::freebsd(), 512, 4096);
    let tx = r
        .sender
        .get("linux-dev", "ether_tx")
        .expect("ether_tx boundary missing from sender report");
    assert!(
        tx.bytes_copied >= r.bytes,
        "ether_tx copied {} B, expected at least the {} B payload",
        tx.bytes_copied,
        r.bytes
    );
}

/// Protocol work has a seam too: on the Table 1 send run the OSKit
/// sender books its per-packet layer and checksum charges on the
/// FreeBSD stack's protocol boundaries, and booking them there leaves
/// the glue mechanics exactly where Table 1 prints them.
#[test]
fn table1_send_books_layer_and_checksum_work() {
    let r = ttcp_run_mixed(NetConfig::oskit(), NetConfig::freebsd(), 4096, 4096);
    let report = &r.sender;
    for (component, name) in [
        ("freebsd-net", "tcp_out"),
        ("freebsd-net", "ip_out"),
        ("freebsd-net", "tcp_in"),
        ("freebsd-net", "ip_in"),
    ] {
        let b = report.get(component, name).expect("protocol boundary");
        assert!(
            b.layers > 0 || b.checksums > 0,
            "{component}::{name} booked nothing"
        );
    }
    assert!(report.nonzero().any(|b| b.layers > 0));
    assert!(report.nonzero().any(|b| b.checksums > 0));
    let summed: u64 = report.boundaries.iter().map(|b| b.bytes_checksummed).sum();
    assert!(summed > 0);
    let work = r.sender.total();
    assert_eq!(work.bytes_checksummed, summed);
    // The new counters add no crossings and no copies: the mechanics
    // line of `table1` is unchanged.
    assert_eq!(
        (work.copies, work.crossings, work.bytes_copied),
        (26_978, 45_984, 34_175_000)
    );
}

/// Table 1's send row: the OSKit pays the mbuf→skbuff copy and lands
/// well below FreeBSD.
#[test]
fn table1_send_penalty() {
    let bsd = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::freebsd(), 512, 4096);
    let oskit = ttcp_run_mixed(NetConfig::oskit(), NetConfig::freebsd(), 512, 4096);
    assert!(
        oskit.mbit_s < bsd.mbit_s * 0.9,
        "send penalty missing: OSKit {:.2} vs FreeBSD {:.2}",
        oskit.mbit_s,
        bsd.mbit_s
    );
    // The mechanism: roughly one extra copy of every payload byte.
    assert!(oskit.sender.total().bytes_copied > bsd.sender.total().bytes_copied * 3 / 2);
}

/// The SG ablation: with NETIF_F_SG advertised, the driver maps mbuf
/// fragments instead of copying them, and the Table 1 send penalty
/// disappears — throughput recovers to FreeBSD's rate.
#[test]
fn sg_driver_recovers_send_penalty() {
    let bsd = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::freebsd(), 512, 4096);
    let sg = ttcp_run_mixed(NetConfig::oskit().sg(true), NetConfig::freebsd(), 512, 4096);
    assert!(
        sg.mbit_s >= 90.0,
        "SG send did not recover: {:.2} Mbit/s",
        sg.mbit_s
    );
    assert!(
        sg.mbit_s <= bsd.mbit_s * 1.01,
        "SG send {:.2} implausibly beats native FreeBSD {:.2}",
        sg.mbit_s,
        bsd.mbit_s
    );
    // The mechanism: descriptors are gathered, payload bytes are not
    // copied — the SG sender copies no more than the native one (whose
    // only copy is the sosend user→mbuf move every stack pays).
    let work = sg.sender.total();
    assert!(work.gathers > 0, "SG sender never gathered");
    assert!(work.bytes_gathered >= sg.bytes);
    assert!(work.bytes_copied <= bsd.sender.total().bytes_copied);
    assert_eq!(sg.bytes, 512 * 4096, "payload must still arrive intact");
}

/// The SG ablation, per boundary: the ether glue charges gathers and
/// ZERO copied bytes — the mbuf→skbuff copy is gone from the seam where
/// `table1_send_copy_lands_on_ether_glue` proves it normally lives.
#[test]
fn sg_send_is_zero_copy_at_ether_glue() {
    let r = ttcp_run_mixed(NetConfig::oskit().sg(true), NetConfig::freebsd(), 512, 4096);
    let tx = r
        .sender
        .get("linux-dev", "ether_tx")
        .expect("ether_tx boundary missing from SG sender report");
    assert_eq!(
        tx.bytes_copied, 0,
        "SG send still copied {} B at linux-dev::ether_tx",
        tx.bytes_copied
    );
    assert!(tx.gathers > 0, "no gathers recorded at ether_tx");
    assert!(tx.bytes_gathered >= r.bytes);
}

/// Table 2: OSKit round trips cost more than FreeBSD's, and the delta is
/// crossings, not copies.
#[test]
fn table2_latency_overhead() {
    let bsd = rtcp_run(NetConfig::freebsd(), 100);
    let oskit = rtcp_run(NetConfig::oskit(), 100);
    assert!(oskit.rtt_us > bsd.rtt_us + 1.0);
    assert_eq!(bsd.client.total().crossings, 0);
    assert!(
        oskit.client.total().crossings >= 100 * 4,
        "4+ crossings per RT"
    );
}

/// Both directions of every configuration actually move correct data.
#[test]
fn all_configs_transfer_correctly() {
    for cfg in [
        NetConfig::linux(),
        NetConfig::freebsd(),
        NetConfig::oskit(),
        NetConfig::oskit().sg(true),
        NetConfig::oskit().napi(true),
    ] {
        let r = ttcp_run(cfg, 128, 4096);
        assert_eq!(r.bytes, 128 * 4096);
        assert!(r.mbit_s > 10.0, "{} too slow: {:.2}", cfg.name(), r.mbit_s);
    }
}

/// Cross-stack interop: the Linux-idiom stack and the BSD stack speak the
/// same wire protocol (ARP, IP, TCP with MSS options), so a mixed pair
/// works — components from different donors cooperating, the §3.7 story
/// taken one step further.
#[test]
fn linux_and_bsd_stacks_interoperate() {
    let a = ttcp_run_mixed(NetConfig::linux(), NetConfig::freebsd(), 256, 4096);
    assert_eq!(a.bytes, 256 * 4096);
    let b = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::linux(), 256, 4096);
    assert_eq!(b.bytes, 256 * 4096);
}

/// The §6.2.6 Java/PC observation holds for any client of the OSKit
/// configuration: receive outruns send.
#[test]
fn oskit_receive_beats_oskit_send() {
    let send = ttcp_run_mixed(NetConfig::oskit(), NetConfig::freebsd(), 512, 4096);
    let recv = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::oskit(), 512, 4096);
    assert!(
        recv.mbit_s > send.mbit_s * 1.15,
        "recv {:.2} should clearly beat send {:.2}",
        recv.mbit_s,
        send.mbit_s
    );
}

/// §5: "this C library code can be used with any protocol stack that
/// provides these socket and socket factory interfaces" — the same POSIX
/// application code runs unchanged over the FreeBSD stack and over the
/// Linux-style stack, selected purely by which factory is registered.
#[test]
fn posix_layer_is_stack_agnostic() {
    use oskit::clib::PosixIo;
    use oskit::com::interfaces::socket::{Domain, SockAddr, SockType, SocketFactory};
    use oskit::linux_dev::{LinuxSocketFactory, NetDevice};
    use oskit::machine::{Machine, Nic, Sim};
    use oskit::osenv::OsEnv;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    /// The application, written once against POSIX.
    fn echo_once(server: Arc<PosixIo>, client: Arc<PosixIo>, sim: &Arc<Sim>) {
        let s2 = Arc::clone(&server);
        sim.spawn("server", move || {
            let fd = s2.socket(Domain::Inet, SockType::Stream).unwrap();
            s2.bind(fd, SockAddr::any(9000)).unwrap();
            s2.listen(fd, 1).unwrap();
            let (conn, _) = s2.accept(fd).unwrap();
            let mut b = [0u8; 32];
            let n = s2.recv(conn, &mut b).unwrap();
            s2.send(conn, &b[..n]).unwrap();
            s2.shutdown(conn, oskit::com::interfaces::socket::Shutdown::Write)
                .unwrap();
        });
        let c2 = Arc::clone(&client);
        sim.spawn("client", move || {
            let fd = c2.socket(Domain::Inet, SockType::Stream).unwrap();
            c2.connect(fd, SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 9000))
                .unwrap();
            c2.send(fd, b"stack agnostic").unwrap();
            let mut b = [0u8; 32];
            let n = c2.recv(fd, &mut b).unwrap();
            assert_eq!(&b[..n], b"stack agnostic");
            c2.shutdown(fd, oskit::com::interfaces::socket::Shutdown::Write)
                .unwrap();
            while c2.recv(fd, &mut b).unwrap() != 0 {}
        });
        sim.run();
    }

    // Round 1: the Linux-style stack behind the factories.
    {
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
        let ia = oskit::linux_dev::linux::inet::LinuxInet::attach(
            &ea,
            &da,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(255, 255, 255, 0),
        );
        let ib = oskit::linux_dev::linux::inet::LinuxInet::attach(
            &eb,
            &db,
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(255, 255, 255, 0),
        );
        ma.irq.enable();
        mb.irq.enable();
        let pa = PosixIo::new();
        pa.set_socket_creator(LinuxSocketFactory::new(&ia) as Arc<dyn SocketFactory>);
        let pb = PosixIo::new();
        pb.set_socket_creator(LinuxSocketFactory::new(&ib) as Arc<dyn SocketFactory>);
        echo_once(pb, pa, &sim);
    }

    // Round 2: the same application over the FreeBSD stack via the full
    // kernel path (already covered elsewhere; here for the side-by-side).
    {
        let sim = Sim::new();
        let (ka, nics_a, _) = oskit::KernelBuilder::new("a")
            .nic([2, 0, 0, 0, 0, 1])
            .boot(&sim);
        let (kb, nics_b, _) = oskit::KernelBuilder::new("b")
            .nic([2, 0, 0, 0, 0, 2])
            .boot(&sim);
        Nic::connect(&nics_a[0], &nics_b[0]);
        ka.init_networking(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(255, 255, 255, 0));
        kb.init_networking(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(255, 255, 255, 0));
        echo_once(Arc::clone(&kb.posix), Arc::clone(&ka.posix), &sim);
    }
}
