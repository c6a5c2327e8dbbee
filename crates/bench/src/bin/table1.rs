//! Regenerates paper Table 1: "TCP bandwidth in MBit/s measured with ttcp
//! between two Pentium Pro 200MHz PCs connected by 100Mbps Ethernet."
//!
//! Methodology (see EXPERIMENTS.md): the Send row pairs the system under
//! test with a native-FreeBSD receiver; the Receive row pairs a
//! native-FreeBSD sender with the system under test.  Default run is
//! 16 MB per cell; `--paper` uses the paper's full 131072×4096 B = 512 MB.
//!
//! `--boundaries` appends the per-boundary breakdown from the machine's
//! ledger: which glue seam each copy and crossing was charged at.
//!
//! `--napi` appends the receive-path ablation: the OSKit configuration
//! rerun with the driver in `NETIF_F_NAPI` mode (NIC interrupt
//! mitigation + budgeted rx polling), printing the rx IRQ/poll mechanics
//! next to the default interrupt-per-frame numbers.
//!
//! `--faults` appends the robustness ablation: the OSKit configuration
//! rerun under a seeded fault plan (frame drops, transmitter wedges,
//! failing interrupt-level allocations, lost IRQs), printing the
//! injection/recovery ledger.  The transfer is still byte-exact — the
//! harness asserts it — so the row quantifies the throughput cost of
//! surviving the faults.
//!
//! The process exits non-zero if any shape check prints `[FAIL]`.

use oskit::machine::{AllocFaults, FaultPlan, IrqFaults, NicFaults};
use oskit::{ttcp_run_faulted, NetConfig, TtcpResult};
use oskit_bench::{check, exit_on_failed_checks};

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let boundaries = std::env::args().any(|a| a == "--boundaries");
    let sg = std::env::args().any(|a| a == "--sg");
    let napi = std::env::args().any(|a| a == "--napi");
    let faults = std::env::args().any(|a| a == "--faults");
    let blocks = if paper { 131_072 } else { 4096 };
    let bs = 4096;
    println!("Table 1: TCP bandwidth (Mbit/s of virtual time), ttcp,");
    println!(
        "{} blocks x {} B over simulated 100 Mbit/s Ethernet\n",
        blocks, bs
    );
    // A Send run pairs `cfg` with a FreeBSD receiver, a Receive run a
    // FreeBSD sender with `cfg`.
    let run = |cfg: NetConfig, plan: Option<FaultPlan>| {
        let bsd = NetConfig::freebsd();
        (
            ttcp_run_faulted(cfg, bsd, blocks, bs, plan),
            ttcp_run_faulted(bsd, cfg, blocks, bs, plan),
        )
    };
    let ablation_row = |name: &str, send: &TtcpResult, recv: &TtcpResult| {
        println!("{name:18} {:>10.2} {:>10.2}", send.mbit_s, recv.mbit_s);
    };
    println!("{:10} {:>10} {:>10}", "", "Send", "Receive");
    let mut rows = Vec::new();
    for cfg in [NetConfig::linux(), NetConfig::freebsd(), NetConfig::oskit()] {
        let (send, recv) = run(cfg, None);
        println!(
            "{:10} {:>10.2} {:>10.2}",
            cfg.name(),
            send.mbit_s,
            recv.mbit_s
        );
        rows.push((cfg, send, recv));
    }
    println!();
    println!("paper shape checks:");
    let bsd_send = rows[1].1.mbit_s;
    let oskit_send = rows[2].1.mbit_s;
    let bsd_recv = rows[1].2.mbit_s;
    let oskit_recv = rows[2].2.mbit_s;
    check(
        "OSKit receives about as fast as FreeBSD (zero-copy skbuff→mbuf)",
        (oskit_recv / bsd_recv - 1.0).abs() < 0.05,
    );
    check(
        "OSKit send is measurably below FreeBSD (extra mbuf→skbuff copy)",
        oskit_send < bsd_send * 0.9,
    );
    let s = rows[2].1.sender.total();
    println!(
        "\nmechanics: OSKit sender copied {} B ({} copies, {} crossings);",
        s.bytes_copied, s.copies, s.crossings
    );
    let s = rows[1].1.sender.total();
    println!(
        "           FreeBSD sender copied {} B ({} copies, {} crossings).",
        s.bytes_copied, s.copies, s.crossings
    );

    if sg {
        // Ablation row, printed after (never instead of) the paper table:
        // the same glue and stack, but the driver advertises NETIF_F_SG and
        // the send path maps mbuf fragments instead of copying them.
        let cfg = NetConfig::oskit().sg(true);
        let (send, recv) = run(cfg, None);
        println!("\nSG ablation (--sg, not a paper configuration):");
        ablation_row(&cfg.name(), &send, &recv);
        check(
            "SG send recovers the copy penalty (>= 90 Mbit/s)",
            send.mbit_s >= 90.0,
        );
        let s = send.sender.total();
        check(
            "SG sender gathers fragments instead of copying them",
            s.gathers > 0 && s.bytes_gathered >= send.bytes,
        );
        println!(
            "  mechanics: SG sender copied {} B, gathered {} B ({} gathers).",
            s.bytes_copied, s.bytes_gathered, s.gathers
        );
        check(
            "zero bytes copied at linux-dev::ether_tx under SG",
            send.sender
                .get("linux-dev", "ether_tx")
                .is_some_and(|b| b.bytes_copied == 0 && b.gathers > 0),
        );
        if boundaries {
            println!("\nper-boundary breakdown (OSKit SG sender, send path):");
            print!("{}", send.sender);
        }
    }

    if napi {
        // Receive-path ablation, printed after (never instead of) the
        // paper table: same stack, same glue, but the NIC coalesces rx
        // interrupts and the driver drains the ring with budgeted polls.
        let cfg = NetConfig::oskit().napi(true);
        let (send, recv) = run(cfg, None);
        println!("\nNAPI ablation (--napi, not a paper configuration):");
        ablation_row(&cfg.name(), &send, &recv);
        let base = rows[2].2.receiver.total(); // Default OSKit, receive run.
        let r = recv.receiver.total();
        let frames = r.packets_received;
        check(
            "receive IRQ count cut >= 4x at full burst",
            r.rx_irqs > 0 && base.rx_irqs >= 4 * r.rx_irqs,
        );
        // "No worse" with a 0.5% allowance: the handful of slow-start
        // and tail-of-transfer pauses each pay the 150 µs packet-timer
        // window (~2 ms over a 1.4 s transfer); steady-state batching
        // never stalls the wire.
        check(
            "receive bandwidth no worse than the default path (0.5%)",
            recv.mbit_s >= oskit_recv * 0.995,
        );
        check(
            "every received frame came up through a budgeted poll",
            r.polls > 0 && r.poll_frames == frames,
        );
        println!(
            "  mechanics: NAPI receiver took {} rx IRQs for {} frames ({} polls, avg batch {:.1});",
            r.rx_irqs,
            frames,
            r.polls,
            r.poll_frames as f64 / r.polls.max(1) as f64
        );
        println!(
            "             default OSKit receiver took {} rx IRQs for {} frames.",
            base.rx_irqs, base.packets_received
        );
        if boundaries {
            println!("\nper-boundary breakdown (OSKit NAPI receiver, receive path):");
            print!("{}", recv.receiver);
        }
    }

    if sg && napi {
        // Stacked ablation, printed after (never instead of) the
        // single-feature blocks: the builder composes both knobs on
        // one driver — gathered transmit and polled receive at once.
        let cfg = NetConfig::oskit().sg(true).napi(true);
        let (send, recv) = run(cfg, None);
        println!("\nstacked ablation (--sg --napi, features compose):");
        ablation_row(&cfg.name(), &send, &recv);
        let (s, r) = (send.sender.total(), recv.receiver.total());
        check(
            "stacked sender still gathers instead of copying",
            s.gathers > 0 && s.bytes_gathered >= send.bytes,
        );
        check(
            "stacked receiver still drains the ring with budgeted polls",
            r.polls > 0 && r.poll_frames == r.packets_received,
        );
        check(
            "stacking loses nothing: send >= SG-only shape, recv >= NAPI-only shape (1%)",
            send.mbit_s >= 90.0 && recv.mbit_s >= oskit_recv * 0.99,
        );
    }

    if faults {
        // Robustness ablation, printed after (never instead of) the
        // paper table: the OSKit rows rerun under a seeded fault plan.
        // Throughput drops; correctness may not — ttcp_run_faulted
        // asserts the transfer is byte-exact.
        let plan = FaultPlan::new(0x0a51_c0de)
            .nic(NicFaults {
                drop_per_mille: 5,
                burst_len: 2,
                // Not a round number: a period dividing TCP's 3 s
                // retransmit schedule would park every SYN retry
                // inside the wedge window (see tests/fault_soak.rs).
                wedge_period_ns: 83_000_009,
                wedge_duration_ns: 1_500_000,
            })
            .alloc(AllocFaults {
                fail_per_mille: 1,
                atomic_fail_per_mille: 2,
            })
            .irq(IrqFaults { lose_per_mille: 1 });
        let (send, recv) = run(NetConfig::oskit(), Some(plan));
        println!("\nfault ablation (--faults, seed 0x0a51c0de, byte-exact transfers):");
        ablation_row("OSKit (faults)", &send, &recv);
        let injected = send.sender_faults.total_injected() + send.receiver_faults.total_injected();
        check("fault plan actually fired on the send run", injected > 0);
        check(
            "faulted throughput is below the clean OSKit row",
            send.mbit_s < oskit_send && recv.mbit_s < oskit_recv,
        );
        check(
            "no block-layer involvement in a pure network run",
            send.sender_faults.blk_hard_failures == 0
                && recv.receiver_faults.blk_hard_failures == 0,
        );
        println!("send-run sender ledger:");
        print!("{}", send.sender_faults);
        println!("send-run receiver ledger:");
        print!("{}", send.receiver_faults);
    }

    if boundaries {
        let (_, send, recv) = &rows[2];
        println!("\nper-boundary breakdown (OSKit sender, send path):");
        print!("{}", send.sender);
        println!("\nper-boundary breakdown (OSKit receiver, receive path):");
        print!("{}", recv.receiver);
        let tx_copied = send
            .sender
            .get("linux-dev", "ether_tx")
            .map(|b| b.bytes_copied)
            .unwrap_or(0);
        check(
            "send-path copy penalty attributed to linux-dev::ether_tx",
            tx_copied >= send.bytes,
        );
        check(
            "receive path copied zero extra bytes at every boundary",
            // Only the donor stack's own sockbuf copy (mbuf→user, paid by
            // native FreeBSD too) moves bytes; every glue seam is zero.
            recv.receiver.nonzero().all(|b| {
                b.bytes_copied == 0 || (b.component, b.name) == ("freebsd-net", "sockbuf")
            }) && recv.receiver.total().bytes_copied == rows[1].2.receiver.total().bytes_copied,
        );
    }
    exit_on_failed_checks();
}
