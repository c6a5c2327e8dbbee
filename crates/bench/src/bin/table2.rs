//! Regenerates paper Table 2: "TCP one-byte round-trip time in µsec
//! measured with rtcp between two Pentium Pro 200MHz PCs connected by
//! 100Mbps Ethernet."

//! `--boundaries` appends the per-boundary crossing breakdown for the
//! OSKit client — *which* glue seams the Table 2 latency overhead is
//! paid at.
//!
//! `--napi` appends the receive-path ablation: the OSKit configuration
//! rerun with NIC interrupt mitigation + budgeted polling.  Latency is
//! where mitigation *loses* — a lone packet waits out the coalesce
//! delay — so this row quantifies the price table1's `--napi` bandwidth
//! row pays for its IRQ reduction.
//!
//! The process exits non-zero if any shape check prints `[FAIL]`.

use oskit::{rtcp_run, NetConfig, RtcpResult};
use oskit_bench::{exit_on_failed_checks, mark};

fn main() {
    let boundaries = std::env::args().any(|a| a == "--boundaries");
    let sg = std::env::args().any(|a| a == "--sg");
    let napi = std::env::args().any(|a| a == "--napi");
    let round_trips = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2000);
    println!("Table 2: TCP one-byte round-trip time (µs of virtual time), rtcp,");
    println!("{round_trips} round trips over simulated 100 Mbit/s Ethernet\n");
    println!(
        "{:10} {:>10} {:>16} {:>12}",
        "", "RTT (us)", "crossings/RT", "copies/RT"
    );
    // The paper rows' names take 10 columns, the ablation rows' 18.
    let row = |width: usize, name: &str, r: &RtcpResult| {
        let per_rt = |n: u64| n as f64 / round_trips as f64;
        let total = r.client.total();
        println!(
            "{name:width$} {:>10.1} {:>16.1} {:>12.1}",
            r.rtt_us,
            per_rt(total.crossings),
            per_rt(total.copies)
        );
    };
    let mut bsd = 0.0;
    let mut oskit = 0.0;
    let mut oskit_breakdown = None;
    for cfg in [NetConfig::linux(), NetConfig::freebsd(), NetConfig::oskit()] {
        let r = rtcp_run(cfg, round_trips);
        row(10, &cfg.name(), &r);
        if cfg == NetConfig::freebsd() {
            bsd = r.rtt_us;
        } else if cfg == NetConfig::oskit() {
            oskit = r.rtt_us;
            oskit_breakdown = Some(r.client.clone());
        }
    }
    if boundaries {
        if let Some(report) = &oskit_breakdown {
            println!("\nper-boundary breakdown (OSKit client): where the glue crossings land");
            print!("{report}");
        }
    }
    println!();
    let ok = oskit > bsd;
    println!(
        "  [{}] OSKit imposes overhead over FreeBSD: +{:.1} us/RT, \"largely",
        mark(ok),
        oskit - bsd
    );
    println!("       attributable to the additional glue code ... the price we pay");
    println!("       for modularity and separability\" (paper §5).  Extra data");
    println!("       copies are not part of it: one-byte packets fit in a single");
    println!("       protocol mbuf, enabling mapping into a driver skbuff.");

    if napi {
        let r = rtcp_run(NetConfig::oskit().napi(true), round_trips);
        println!("\nNAPI ablation (--napi, not a paper configuration):");
        row(18, &NetConfig::oskit().napi(true).name(), &r);
        let delta = r.rtt_us - oskit;
        println!(
            "  [{}] interrupt mitigation trades latency for IRQ count: +{:.1} us/RT",
            mark(delta > 0.0),
            delta
        );
        println!("       over the default OSKit row.  A lone packet sits on the ring");
        println!("       until the NIC's coalesce delay expires — exactly the cost");
        println!("       table1 --napi shows being repaid at full burst load.");
    }

    if sg {
        // One-byte round trips fit in a single mbuf, so SG transmit has
        // nothing to gather; the row documents that the knob is latency-
        // neutral, and with --napi it stacks onto the same driver.
        let cfg = NetConfig::oskit().sg(true).napi(napi);
        let r = rtcp_run(cfg, round_trips);
        println!("\nSG ablation (--sg, not a paper configuration):");
        row(18, &cfg.name(), &r);
        if !napi {
            let delta = (r.rtt_us - oskit).abs();
            println!(
                "  [{}] SG is latency-neutral: |Δ| = {:.1} us/RT vs the default",
                mark(delta < 1.0),
                delta
            );
            println!("       OSKit row — one-byte segments never fragment, so the");
            println!("       gather path is simply never taken.");
        }
    }
    exit_on_failed_checks();
}
