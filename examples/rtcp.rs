//! rtcp — the TCP latency benchmark kernel of paper §5 (Table 2).
//!
//! "We implemented a second benchmark to measure latency, similar to
//! hbench's lat_tcp, called rtcp, which measures the time required for a
//! 1-byte round trip."
//!
//! Run with: `cargo run --release --example rtcp [round_trips]`

use oskit::{rtcp_run, NetConfig};

fn main() {
    let round_trips = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1000);

    println!("rtcp: {round_trips} one-byte round trips over simulated 100 Mbit/s Ethernet");
    println!("(paper §5, Table 2; virtual-time microseconds)\n");
    println!(
        "{:10} {:>12} {:>14} {:>12}",
        "", "RTT (us)", "crossings/RT", "copies/RT"
    );
    let mut bsd_rtt = 0.0;
    let mut oskit_rtt = 0.0;
    for cfg in [NetConfig::linux(), NetConfig::freebsd(), NetConfig::oskit()] {
        let r = rtcp_run(cfg, round_trips);
        println!(
            "{:10} {:>12.1} {:>14.1} {:>12.1}",
            cfg.name(),
            r.rtt_us,
            r.client.total().crossings as f64 / round_trips as f64,
            r.client.total().copies as f64 / round_trips as f64,
        );
        if cfg == NetConfig::freebsd() {
            bsd_rtt = r.rtt_us;
        } else if cfg == NetConfig::oskit() {
            oskit_rtt = r.rtt_us;
        }
    }
    println!();
    println!(
        "OSKit adds {:.1} us per round trip over FreeBSD — \"the overhead is\n\
         largely attributable to the additional glue code within the OSKit\n\
         components: the price we pay for modularity and separability\" (§5).\n\
         Extra data copies are *not* part of it: one-byte packets fit in a\n\
         single protocol mbuf and map straight into a driver skbuff.",
        oskit_rtt - bsd_rtt
    );
}
