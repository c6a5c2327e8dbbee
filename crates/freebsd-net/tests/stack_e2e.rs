//! End-to-end tests of the FreeBSD stack over the simulated testbed, in
//! both the monolithic-native configuration (the paper's "FreeBSD" row)
//! and the OSKit configuration (FreeBSD stack + encapsulated Linux driver,
//! the paper's headline combination).

use oskit_com::interfaces::netio::EtherDev;
use oskit_com::Query;
use oskit_freebsd_net::{attach_native_if, ifconfig, open_ether_if, oskit_freebsd_net_init};
use oskit_linux_dev::{LinuxEtherDev, NetDevice};
use oskit_machine::{Machine, Nic, Sim};
use oskit_osenv::OsEnv;
use std::net::Ipv4Addr;
use std::sync::Arc;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

struct Node {
    machine: Arc<Machine>,
    net: Arc<oskit_freebsd_net::BsdNet>,
}

/// Builds a two-machine testbed with the stack bound natively (no glue).
fn native_pair(sim: &Arc<Sim>) -> (Node, Node) {
    let ma = Machine::new(sim, "a", 1 << 20);
    let mb = Machine::new(sim, "b", 1 << 20);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
    Nic::connect(&na, &nb);
    let ea = OsEnv::new(&ma);
    let eb = OsEnv::new(&mb);
    let (net_a, _) = oskit_freebsd_net_init(&ea);
    let (net_b, _) = oskit_freebsd_net_init(&eb);
    let ifa = attach_native_if(&net_a, &na);
    let ifb = attach_native_if(&net_b, &nb);
    ifconfig(&ifa, IP_A, MASK);
    ifconfig(&ifb, IP_B, MASK);
    ma.irq.enable();
    mb.irq.enable();
    (
        Node {
            machine: ma,
            net: net_a,
        },
        Node {
            machine: mb,
            net: net_b,
        },
    )
}

/// Builds the OSKit configuration: FreeBSD stack over the encapsulated
/// Linux driver on both machines.
fn oskit_pair(sim: &Arc<Sim>) -> (Node, Node) {
    oskit_pair_with(sim, 0)
}

/// OSKit configuration with extra `NETIF_F_*` feature bits on both
/// devices (e.g. `NETIF_F_NAPI` for the batched receive path).
fn oskit_pair_with(sim: &Arc<Sim>, features: u32) -> (Node, Node) {
    let ma = Machine::new(sim, "a", 1 << 20);
    let mb = Machine::new(sim, "b", 1 << 20);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
    Nic::connect(&na, &nb);
    let ea = OsEnv::new(&ma);
    let eb = OsEnv::new(&mb);
    let (net_a, _) = oskit_freebsd_net_init(&ea);
    let (net_b, _) = oskit_freebsd_net_init(&eb);
    for (env, nic, net, ip) in [
        (&ea, &na, &net_a, IP_A),
        (&eb, &nb, &net_b, IP_B),
    ] {
        let dev = NetDevice::new("eth0", env, Arc::clone(nic));
        dev.set_features(features);
        let com = LinuxEtherDev::new(env, &dev);
        let ether: Arc<dyn EtherDev> = com.query::<dyn EtherDev>().expect("etherdev");
        let ifp = open_ether_if(net, &ether).expect("open_ether_if");
        ifconfig(&ifp, ip, MASK);
    }
    ma.irq.enable();
    mb.irq.enable();
    (
        Node {
            machine: ma,
            net: net_a,
        },
        Node {
            machine: mb,
            net: net_b,
        },
    )
}

/// Runs a bulk transfer of `total` bytes from a → b; returns when done.
fn bulk_transfer(sim: &Arc<Sim>, a: &Node, b: &Node, total: usize) {
    let server = oskit_freebsd_net::TcpSock::new(&b.net);
    server.bind(Ipv4Addr::UNSPECIFIED, 5001).unwrap();
    let srv = Arc::clone(&server);
    sim.spawn("server", move || {
        srv.listen(5).unwrap();
        let (conn, peer) = srv.accept().unwrap();
        assert_eq!(peer.0, IP_A);
        let mut buf = vec![0u8; 16384];
        let mut got = 0usize;
        let mut expect = 0u8;
        loop {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            for &byte in &buf[..n] {
                assert_eq!(byte, expect, "corruption at offset {got}");
                expect = expect.wrapping_add(1);
                got += 1;
            }
        }
        assert_eq!(got, total);
        conn.close();
    });
    let client_net = Arc::clone(&a.net);
    let total2 = total;
    sim.spawn("client", move || {
        let sock = oskit_freebsd_net::TcpSock::new(&client_net);
        sock.connect(IP_B, 5001).unwrap();
        let chunk: Vec<u8> = (0..16384u32).map(|i| (i % 256) as u8).collect();
        let mut sent = 0usize;
        let mut next = 0u8;
        while sent < total2 {
            let n = (total2 - sent).min(chunk.len());
            // Keep the rolling byte pattern aligned.
            let data: Vec<u8> = (0..n)
                .map(|i| next.wrapping_add(i as u8))
                .collect();
            let w = sock.send(&data).unwrap();
            assert_eq!(w, n);
            next = next.wrapping_add(n as u8);
            sent += n;
        }
        sock.close();
        // Drain the peer's close.
        let mut b = [0u8; 64];
        while sock.recv(&mut b).unwrap() != 0 {}
    });
    sim.run();
}

#[test]
fn native_bulk_transfer_delivers_exact_bytes() {
    let sim = Sim::new();
    let (a, b) = native_pair(&sim);
    bulk_transfer(&sim, &a, &b, 300_000);
    // The native configuration never crosses a component boundary.
    assert_eq!(a.machine.work().crossings, 0);
    assert_eq!(b.machine.work().crossings, 0);
}

#[test]
fn oskit_bulk_transfer_delivers_exact_bytes() {
    let sim = Sim::new();
    let (a, b) = oskit_pair(&sim);
    bulk_transfer(&sim, &a, &b, 300_000);
    let am = a.machine.work();
    let bm = b.machine.work();
    // The OSKit configuration pays glue crossings on both sides.
    assert!(am.crossings > 0, "sender saw no crossings");
    assert!(bm.crossings > 0, "receiver saw no crossings");
    // §5: the *send* path pays the mbuf→skbuff copy for bulk data; the
    // receive path wraps skbuffs as mbuf clusters with no copy.  The copy
    // accounting below ignores the unavoidable user↔kernel copies that
    // every configuration pays, by comparing against the native run.
    let sim2 = Sim::new();
    let (na, nb) = native_pair(&sim2);
    bulk_transfer(&sim2, &na, &nb, 300_000);
    let nam = na.machine.work();
    let nbm = nb.machine.work();
    assert!(
        am.bytes_copied > nam.bytes_copied + 250_000,
        "send path should pay ~one extra copy of the payload: oskit={} native={}",
        am.bytes_copied,
        nam.bytes_copied
    );
    let extra_rx = bm.bytes_copied as i64 - nbm.bytes_copied as i64;
    assert!(
        extra_rx.abs() < 50_000,
        "receive path should pay no significant extra copies, got {extra_rx}"
    );
}

#[test]
fn oskit_napi_bulk_transfer_batches_and_stays_zero_copy() {
    let sim = Sim::new();
    let (a, b) = oskit_pair_with(&sim, oskit_linux_dev::NETIF_F_NAPI);
    bulk_transfer(&sim, &a, &b, 300_000);
    let bm = b.machine.work();
    // Interrupt mitigation actually mitigated: the receiver took strictly
    // fewer rx interrupts than it received frames, and every frame came
    // up through a budgeted poll.
    assert!(bm.packets_received > 0);
    assert!(
        bm.rx_irqs < bm.packets_received,
        "rx_irqs {} !< frames {}",
        bm.rx_irqs,
        bm.packets_received
    );
    assert!(bm.rx_polls > 0);
    assert_eq!(bm.rx_batch_frames, bm.packets_received);
    // Batched delivery must not cost the receive path its zero-copy
    // skbuff→mbuf wrap: same copy budget as the interrupt-per-frame
    // OSKit configuration.
    let sim2 = Sim::new();
    let (ca, cb) = oskit_pair(&sim2);
    bulk_transfer(&sim2, &ca, &cb, 300_000);
    let _ = ca;
    let cbm = cb.machine.work();
    let extra_rx = bm.bytes_copied as i64 - cbm.bytes_copied as i64;
    assert!(
        extra_rx.abs() < 50_000,
        "batched receive should add no copies, got {extra_rx}"
    );
}

#[test]
fn connect_to_dead_port_times_out() {
    let sim = Sim::new();
    sim.set_time_limit(2_000_000_000_000);
    let (a, _b) = native_pair(&sim);
    let net = Arc::clone(&a.net);
    sim.spawn("client", move || {
        let sock = oskit_freebsd_net::TcpSock::new(&net);
        let err = sock.connect(IP_B, 9999).unwrap_err();
        assert_eq!(err, oskit_com::Error::TimedOut);
    });
    sim.run();
}

#[test]
fn udp_datagram_round_trip() {
    let sim = Sim::new();
    let (a, b) = native_pair(&sim);
    let net_b = Arc::clone(&b.net);
    sim.spawn("server", move || {
        let sock = oskit_freebsd_net::UdpSock::new(&net_b);
        sock.bind(Ipv4Addr::UNSPECIFIED, 7).unwrap();
        let mut buf = [0u8; 2048];
        let (n, (src, sport)) = sock.recvfrom(&mut buf).unwrap();
        assert_eq!(src, IP_A);
        // Echo it back.
        sock.sendto(&buf[..n], src, sport).unwrap();
    });
    let net_a = Arc::clone(&a.net);
    sim.spawn("client", move || {
        let sock = oskit_freebsd_net::UdpSock::new(&net_a);
        sock.bind(Ipv4Addr::UNSPECIFIED, 0).unwrap();
        sock.sendto(b"echo me", IP_B, 7).unwrap();
        let mut buf = [0u8; 64];
        let (n, (src, _)) = sock.recvfrom(&mut buf).unwrap();
        assert_eq!(src, IP_B);
        assert_eq!(&buf[..n], b"echo me");
    });
    sim.run();
}

#[test]
fn many_concurrent_connections() {
    let sim = Sim::new();
    let (a, b) = native_pair(&sim);
    let server_net = Arc::clone(&b.net);
    sim.spawn("server", move || {
        let ls = oskit_freebsd_net::TcpSock::new(&server_net);
        ls.bind(Ipv4Addr::UNSPECIFIED, 80).unwrap();
        ls.listen(8).unwrap();
        for _ in 0..5 {
            let (conn, _) = ls.accept().unwrap();
            let mut buf = [0u8; 256];
            let n = conn.recv(&mut buf).unwrap();
            conn.send(&buf[..n]).unwrap();
            conn.close();
            let mut d = [0u8; 64];
            while conn.recv(&mut d).unwrap() != 0 {}
        }
    });
    for i in 0..5u8 {
        let net = Arc::clone(&a.net);
        sim.spawn(format!("client{i}"), move || {
            let sock = oskit_freebsd_net::TcpSock::new(&net);
            sock.connect(IP_B, 80).unwrap();
            let msg = vec![i; 32];
            sock.send(&msg).unwrap();
            let mut buf = [0u8; 64];
            let n = sock.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], &msg[..]);
            sock.close();
            while sock.recv(&mut buf).unwrap() != 0 {}
        });
    }
    sim.run();
}

#[test]
fn nagle_coalesces_small_writes() {
    let sim = Sim::new();
    let (a, b) = native_pair(&sim);
    let server_net = Arc::clone(&b.net);
    sim.spawn("server", move || {
        let ls = oskit_freebsd_net::TcpSock::new(&server_net);
        ls.bind(Ipv4Addr::UNSPECIFIED, 80).unwrap();
        ls.listen(1).unwrap();
        let (conn, _) = ls.accept().unwrap();
        let mut buf = [0u8; 4096];
        let mut got = 0;
        while got < 1000 {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 1000);
        conn.close();
        let mut d = [0u8; 64];
        while conn.recv(&mut d).unwrap() != 0 {}
    });
    let net = Arc::clone(&a.net);
    sim.spawn("client", move || {
        let sock = oskit_freebsd_net::TcpSock::new(&net);
        sock.connect(IP_B, 80).unwrap();
        // 100 ten-byte writes: Nagle must coalesce most into far fewer
        // segments than 100.
        for _ in 0..100 {
            sock.send(&[0x42; 10]).unwrap();
        }
        let (sent, _) = sock.seg_stats();
        assert!(
            sent < 60,
            "Nagle should coalesce 100 tiny writes, sent {sent} segments"
        );
        sock.close();
        let mut buf = [0u8; 64];
        while sock.recv(&mut buf).unwrap() != 0 {}
    });
    sim.run();
}

#[test]
fn icmp_ping_round_trip() {
    let sim = Sim::new();
    let (a, _b) = native_pair(&sim);
    let net = Arc::clone(&a.net);
    sim.spawn("pinger", move || {
        assert!(net.ping(IP_B, 1_000_000_000), "peer should answer echo");
        assert!(
            !net.ping(Ipv4Addr::new(10, 0, 0, 99), 50_000_000),
            "silent address must time out"
        );
    });
    sim.run();
}
