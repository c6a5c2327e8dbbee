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
use oskit::{ttcp_run_faulted, ttcp_run_mixed, NetConfig};
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
    println!("{:10} {:>10} {:>10}", "", "Send", "Receive");
    let mut rows = Vec::new();
    for cfg in [NetConfig::linux(), NetConfig::freebsd(), NetConfig::oskit()] {
        let send = ttcp_run_mixed(cfg, NetConfig::freebsd(), blocks, bs);
        let recv = ttcp_run_mixed(NetConfig::freebsd(), cfg, blocks, bs);
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
    let (_, s, _) = &rows[2];
    println!(
        "\nmechanics: OSKit sender copied {} B ({} copies, {} crossings);",
        s.sender.bytes_copied, s.sender.copies, s.sender.crossings
    );
    let (_, s, _) = &rows[1];
    println!(
        "           FreeBSD sender copied {} B ({} copies, {} crossings).",
        s.sender.bytes_copied, s.sender.copies, s.sender.crossings
    );

    if sg {
        // Ablation row, printed after (never instead of) the paper table:
        // the same glue and stack, but the driver advertises NETIF_F_SG and
        // the send path maps mbuf fragments instead of copying them.
        let send = ttcp_run_mixed(NetConfig::oskit().sg(true), NetConfig::freebsd(), blocks, bs);
        let recv = ttcp_run_mixed(NetConfig::freebsd(), NetConfig::oskit().sg(true), blocks, bs);
        println!("\nSG ablation (--sg, not a paper configuration):");
        println!(
            "{:18} {:>10.2} {:>10.2}",
            NetConfig::oskit().sg(true).name(),
            send.mbit_s,
            recv.mbit_s
        );
        check(
            "SG send recovers the copy penalty (>= 90 Mbit/s)",
            send.mbit_s >= 90.0,
        );
        check(
            "SG sender gathers fragments instead of copying them",
            send.sender.gathers > 0 && send.sender.bytes_gathered >= send.bytes,
        );
        println!(
            "  mechanics: SG sender copied {} B, gathered {} B ({} gathers).",
            send.sender.bytes_copied, send.sender.bytes_gathered, send.sender.gathers
        );
        check(
            "zero bytes copied at linux-dev::ether_tx under SG",
            send.sender_boundaries
                .get("linux-dev", "ether_tx")
                .map(|b| b.bytes_copied == 0 && b.gathers > 0)
                .unwrap_or(false),
        );
        if boundaries {
            println!("\nper-boundary breakdown (OSKit SG sender, send path):");
            print!("{}", send.sender_boundaries);
        }
    }

    if napi {
        // Receive-path ablation, printed after (never instead of) the
        // paper table: same stack, same glue, but the NIC coalesces rx
        // interrupts and the driver drains the ring with budgeted polls.
        let send = ttcp_run_mixed(
            NetConfig::oskit().napi(true),
            NetConfig::freebsd(),
            blocks,
            bs,
        );
        let recv = ttcp_run_mixed(
            NetConfig::freebsd(),
            NetConfig::oskit().napi(true),
            blocks,
            bs,
        );
        println!("\nNAPI ablation (--napi, not a paper configuration):");
        println!(
            "{:18} {:>10.2} {:>10.2}",
            NetConfig::oskit().napi(true).name(),
            send.mbit_s,
            recv.mbit_s
        );
        let base = &rows[2].2.receiver; // Default OSKit, receive run.
        let frames = recv.receiver.packets_received;
        check(
            "receive IRQ count cut >= 4x at full burst",
            recv.receiver.rx_irqs > 0 && base.rx_irqs >= 4 * recv.receiver.rx_irqs,
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
            recv.receiver.rx_polls > 0 && recv.receiver.rx_batch_frames == frames,
        );
        println!(
            "  mechanics: NAPI receiver took {} rx IRQs for {} frames ({} polls, avg batch {:.1});",
            recv.receiver.rx_irqs,
            frames,
            recv.receiver.rx_polls,
            recv.receiver.rx_batch_frames as f64 / recv.receiver.rx_polls.max(1) as f64
        );
        println!(
            "             default OSKit receiver took {} rx IRQs for {} frames.",
            base.rx_irqs, base.packets_received
        );
        if boundaries {
            println!("\nper-boundary breakdown (OSKit NAPI receiver, receive path):");
            print!("{}", recv.receiver_boundaries);
        }
    }

    if sg && napi {
        // Stacked ablation, printed after (never instead of) the
        // single-feature blocks: the builder composes both knobs on
        // one driver — gathered transmit and polled receive at once.
        let cfg = NetConfig::oskit().sg(true).napi(true);
        let send = ttcp_run_mixed(cfg, NetConfig::freebsd(), blocks, bs);
        let recv = ttcp_run_mixed(NetConfig::freebsd(), cfg, blocks, bs);
        println!("\nstacked ablation (--sg --napi, features compose):");
        println!(
            "{:18} {:>10.2} {:>10.2}",
            cfg.name(),
            send.mbit_s,
            recv.mbit_s
        );
        check(
            "stacked sender still gathers instead of copying",
            send.sender.gathers > 0 && send.sender.bytes_gathered >= send.bytes,
        );
        check(
            "stacked receiver still drains the ring with budgeted polls",
            recv.receiver.rx_polls > 0
                && recv.receiver.rx_batch_frames == recv.receiver.packets_received,
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
                ..NicFaults::default()
            })
            .alloc(AllocFaults {
                fail_per_mille: 1,
                atomic_fail_per_mille: 2,
            })
            .irq(IrqFaults { lose_per_mille: 1 });
        let send = ttcp_run_faulted(
            NetConfig::oskit(),
            NetConfig::freebsd(),
            blocks,
            bs,
            Some(plan),
        );
        let recv = ttcp_run_faulted(
            NetConfig::freebsd(),
            NetConfig::oskit(),
            blocks,
            bs,
            Some(plan),
        );
        println!("\nfault ablation (--faults, seed 0x0a51c0de, byte-exact transfers):");
        println!(
            "{:18} {:>10.2} {:>10.2}",
            "OSKit (faults)", send.mbit_s, recv.mbit_s
        );
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
        print!("{}", send.sender_boundaries);
        println!("\nper-boundary breakdown (OSKit receiver, receive path):");
        print!("{}", recv.receiver_boundaries);
        let tx_copied = send
            .sender_boundaries
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
            recv.receiver_boundaries
                .nonzero()
                .all(|b| b.bytes_copied == 0 || (b.component, b.name) == ("freebsd-net", "sockbuf"))
                && recv.receiver.bytes_copied == rows[1].2.receiver.bytes_copied,
        );
    }
    exit_on_failed_checks();
}
