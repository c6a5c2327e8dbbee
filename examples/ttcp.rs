//! ttcp — the TCP bandwidth benchmark kernel of paper §5 (Table 1).
//!
//! Runs the transfer for each of the three system configurations and
//! prints the send/receive bandwidth table.  Pass `--structure` to print
//! the component structure of the OSKit configuration (paper Figure 3),
//! `--paper` for the full-size 131072×4096-byte run (slow), or a number
//! to set the block count.
//!
//! Run with: `cargo run --release --example ttcp`

use oskit::{ttcp_run, ttcp_run_mixed, NetConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--structure") {
        print_structure();
        return;
    }
    let blocks = if args.iter().any(|a| a == "--paper") {
        131_072
    } else {
        args.iter()
            .find_map(|a| a.parse::<usize>().ok())
            .unwrap_or(4096)
    };
    let block_size = 4096;

    println!(
        "ttcp: {blocks} blocks x {block_size} B = {} MB over simulated 100 Mbit/s Ethernet",
        blocks * block_size / (1024 * 1024)
    );
    println!("(paper §5, Table 1; virtual-time Mbit/s)\n");
    println!("{:10} {:>10} {:>10}", "", "Send", "Receive");
    for cfg in [NetConfig::linux(), NetConfig::freebsd(), NetConfig::oskit()] {
        // Send row: system under test transmits to a native-FreeBSD peer.
        let send = ttcp_run_mixed(cfg, NetConfig::freebsd(), blocks, block_size);
        // Receive row: a native-FreeBSD peer transmits to it.
        let recv = ttcp_run_mixed(NetConfig::freebsd(), cfg, blocks, block_size);
        println!(
            "{:10} {:>10.2} {:>10.2}",
            cfg.name(),
            send.mbit_s,
            recv.mbit_s
        );
    }
    println!();

    // The mechanics behind the shape, from the work meters.
    let why_blocks = blocks.min(1024);
    let oskit = ttcp_run(NetConfig::oskit(), why_blocks, block_size);
    let bsd = ttcp_run(NetConfig::freebsd(), why_blocks, block_size);
    println!("why (per {} MB):", why_blocks * block_size / (1024 * 1024));
    let (o, b) = (oskit.sender.total(), bsd.sender.total());
    println!(
        "  OSKit sender copied {} B in {} copies ({} glue crossings);",
        o.bytes_copied, o.copies, o.crossings
    );
    println!(
        "  FreeBSD sender copied {} B in {} copies ({} crossings).",
        b.bytes_copied, b.copies, b.crossings
    );
    println!(
        "  Receive side: OSKit copied {} B vs FreeBSD {} B — the skbuff is",
        oskit.receiver.total().bytes_copied,
        bsd.receiver.total().bytes_copied
    );
    println!("  wrapped as an mbuf cluster, never copied (paper §4.7.3).");
}

/// Paper Figure 3: the structure of the ttcp example kernel.
fn print_structure() {
    println!(
        "\
Figure 3: structure of the ttcp/rtcp example kernels
-----------------------------------------------------
  ttcp application  (BSD socket functions)
    |  posix fd layer: socket() via registered socket factory
    v
  oskit_socket COM interface
    |
  FreeBSD TCP/IP  (encapsulated; mbufs inside)
    |  oskit_netio push / oskit_bufio packets
    v
  Linux Ethernet driver  (encapsulated; skbuffs inside)
    |
  fdev_ethernet device --- simulated NIC --- 100 Mbit/s wire
"
    );
}
