//! Failure injection: a lossy wire forces the BSD TCP's recovery
//! machinery — retransmission timeouts, go-back, fast retransmit on
//! duplicate ACKs — to actually run, and the transfer must still be
//! byte-exact.  Frames are lost by a seeded [`FaultPlan`] installed on
//! the machine whose transmit direction should lose them, and counted in
//! that machine's fault ledger.

use oskit_freebsd_net::{attach_native_if, ifconfig, oskit_freebsd_net_init, TcpSock};
use oskit_machine::{FaultPlan, FaultSnapshot, Machine, Nic, NicFaults, Sim};
use oskit_osenv::OsEnv;
use std::net::Ipv4Addr;
use std::sync::Arc;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

/// Which direction the wire eats frames in.
#[derive(Clone, Copy)]
enum LossDir {
    /// Data direction (a → b): recovery rides dup ACKs and RTOs.
    Data,
    /// ACK direction (b → a): data arrives, but the sender can't see it
    /// and must retransmit until an ACK survives.
    Ack,
}

/// A seeded plan that destroys `drop_per_mille` of the frames its
/// machine transmits.
fn drops(seed: u64, drop_per_mille: u16) -> FaultPlan {
    FaultPlan::new(seed).nic(NicFaults {
        drop_per_mille,
        ..NicFaults::default()
    })
}

/// One byte-exact transfer, a → b, with `plan` installed on the machine
/// that transmits in `dir`.  Returns (segments sent, a's fault ledger,
/// b's fault ledger).
fn lossy_transfer(
    dir: LossDir,
    plan: FaultPlan,
    total: usize,
) -> (u64, FaultSnapshot, FaultSnapshot) {
    let sim = Sim::new();
    // Loss recovery leans on 1-second RTOs; give it room.
    sim.set_time_limit(5_000_000_000_000);
    let ma = Machine::new(&sim, "a", 1 << 21);
    let mb = Machine::new(&sim, "b", 1 << 21);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
    match dir {
        LossDir::Data => ma.faults().install(plan),
        LossDir::Ack => mb.faults().install(plan),
    }
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

    let nb2 = Arc::clone(&net_b);
    sim.spawn("server", move || {
        let ls = TcpSock::new(&nb2);
        ls.bind(Ipv4Addr::UNSPECIFIED, 5001).unwrap();
        ls.listen(1).unwrap();
        let (conn, _) = ls.accept().unwrap();
        let mut buf = vec![0u8; 16384];
        let mut got = 0usize;
        let mut expect = 0u8;
        loop {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            for &b in &buf[..n] {
                assert_eq!(b, expect, "corruption at {got} under loss");
                expect = expect.wrapping_add(1);
                got += 1;
            }
        }
        assert_eq!(got, total, "bytes lost");
        conn.close();
        let mut d = [0u8; 64];
        while conn.recv(&mut d).unwrap() != 0 {}
    });
    let na2 = Arc::clone(&net_a);
    let sent_stats = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let ss = Arc::clone(&sent_stats);
    sim.spawn("client", move || {
        let s = TcpSock::new(&na2);
        s.connect(IP_B, 5001).unwrap();
        let mut next = 0u8;
        let mut sent = 0usize;
        while sent < total {
            let n = (total - sent).min(8192);
            let data: Vec<u8> = (0..n).map(|i| next.wrapping_add(i as u8)).collect();
            let w = s.send(&data).unwrap();
            assert_eq!(w, n);
            next = next.wrapping_add(n as u8);
            sent += n;
        }
        s.close();
        let mut d = [0u8; 64];
        while s.recv(&mut d).unwrap() != 0 {}
        *ss.lock().unwrap() = s.seg_stats();
    });
    sim.run();
    let (tx, _) = *sent_stats.lock().unwrap();
    (tx, ma.faults().stats(), mb.faults().stats())
}

#[test]
fn survives_one_percent_loss() {
    let total = 200_000;
    let (segs_sent, a, _) = lossy_transfer(LossDir::Data, drops(1, 10), total);
    let dropped = a.tx_dropped;
    assert!(dropped > 0, "fault injection did not fire");
    // Every dropped segment had to be retransmitted: more segments than
    // the lossless minimum.
    let ideal = (total / 1460 + 3) as u64;
    assert!(
        segs_sent > ideal + dropped / 2,
        "too few retransmissions: sent {segs_sent}, ideal {ideal}, dropped {dropped}"
    );
}

#[test]
fn survives_heavy_ten_percent_loss() {
    // Brutal: one data-direction frame in ten vanishes.  Correctness must
    // hold even when fast retransmit and RTO interact.
    let total = 60_000;
    let (_segs, a, _) = lossy_transfer(LossDir::Data, drops(1, 100), total);
    assert!(a.tx_dropped >= 4);
}

#[test]
fn survives_ack_direction_loss() {
    // Loss on the *return* path: every data segment arrives, but its ACK
    // may die.  The sender, blind to the delivery, retransmits; the
    // receiver discards the duplicates.  The byte-exactness assertion
    // lives in the server loop.
    let total = 120_000;
    let (segs_sent, a, b) = lossy_transfer(LossDir::Ack, drops(1, 40), total);
    assert_eq!(a.tx_dropped, 0, "data direction must be clean");
    assert!(b.tx_dropped > 0, "ACK-direction loss did not fire");
    // Lost ACKs force duplicate data transmissions.
    let ideal = (total / 1460 + 3) as u64;
    assert!(
        segs_sent > ideal,
        "no retransmissions despite ACK loss: sent {segs_sent}, ideal {ideal}"
    );
}

#[test]
fn survives_seeded_burst_drops() {
    // Seeded random drops arriving in bursts of three — the pattern
    // (back-to-back losses inside one window) that defeats plain fast
    // retransmit and forces the RTO path.
    let plan = FaultPlan::new(0xB0B5).nic(NicFaults {
        drop_per_mille: 8,
        burst_len: 3,
        ..NicFaults::default()
    });
    let total = 120_000;
    let (_, ledger, _) = lossy_transfer(LossDir::Data, plan, total);
    assert!(
        ledger.tx_dropped >= 3,
        "burst drops did not fire: {ledger:?}"
    );
    // Replay determinism across the whole TCP recovery dance.
    let (_, ledger2, _) = lossy_transfer(LossDir::Data, plan, total);
    assert_eq!(ledger, ledger2, "same seed must reproduce the ledger");
}

#[test]
fn handshake_survives_syn_loss() {
    // Half the client's frames die, the handshake's among them: connect
    // must retransmit after the RTO and still succeed.
    let sim = Sim::new();
    sim.set_time_limit(5_000_000_000_000);
    let ma = Machine::new(&sim, "a", 1 << 20);
    let mb = Machine::new(&sim, "b", 1 << 20);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
    ma.faults().install(drops(1, 500));
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
    let nb2 = Arc::clone(&net_b);
    sim.spawn("server", move || {
        let ls = TcpSock::new(&nb2);
        ls.bind(Ipv4Addr::UNSPECIFIED, 7).unwrap();
        ls.listen(1).unwrap();
        let (conn, _) = ls.accept().unwrap();
        let mut b = [0u8; 16];
        let n = conn.recv(&mut b).unwrap();
        assert_eq!(&b[..n], b"ping");
        conn.send(b"pong").unwrap();
        conn.close();
        let mut d = [0u8; 16];
        while conn.recv(&mut d).unwrap() != 0 {}
    });
    let na2 = Arc::clone(&net_a);
    let ma2 = Arc::clone(&ma);
    // (frames lost, segments sent) when connect returned.
    let handshake = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let hs = Arc::clone(&handshake);
    sim.spawn("client", move || {
        let s = TcpSock::new(&na2);
        s.connect(IP_B, 7).unwrap();
        *hs.lock().unwrap() = (ma2.faults().stats().tx_dropped, s.seg_stats().0);
        s.send(b"ping").unwrap();
        let mut b = [0u8; 16];
        let n = s.recv(&mut b).unwrap();
        assert_eq!(&b[..n], b"pong");
        s.close();
        while s.recv(&mut b).unwrap() != 0 {}
    });
    sim.run();
    let (lost, segs) = *handshake.lock().unwrap();
    assert!(lost > 0, "no frame was lost before connect returned");
    // A lossless handshake sends SYN and ACK; more means connect
    // retransmitted the SYN.
    assert!(
        segs > 2,
        "connect recovered without a retransmission: {segs}"
    );
}
