//! The file-serving throughput benchmark ("table3"): the buffer-cache
//! and zero-copy sendfile ablation this kit adds on top of the paper's
//! Tables 1 and 2.
//!
//! Three rows serve the same file from an FFS volume on a simulated IDE
//! disk to a native-FreeBSD client over TCP:
//!
//! * **cold copy** — `read_at` + `send` over a freshly mounted cache:
//!   every block pays the disk, then two copies (cache page → caller
//!   buffer at `fs_read`, caller buffer → mbuf at `sockbuf`) plus the
//!   non-SG driver's `ether_tx` copy;
//! * **warm copy** — the same loop with the cache pre-warmed: the disk
//!   drops out, the copies stay;
//! * **warm sendfile** — `File::send_on` over a warm cache with an
//!   SG-capable NIC: pinned cache pages ride as external mbufs from the
//!   file system to the wire; the copy columns collapse to zero and the
//!   work shows up as gathers instead.
//!
//! The client byte-verifies the payload, so the sendfile row is also an
//! end-to-end correctness proof for the lent-page path.  Checks pin the
//! zero-copy claim to the exact boundaries: 0 bytes copied at
//! `freebsd-net::sockbuf` and `linux-dev::ether_tx`.  `--boundaries`
//! prints the full breakdown.  The process exits non-zero if any shape
//! check prints `[FAIL]`.

use oskit::{fileserve_run, FileServeResult, ServeMode};
use oskit_bench::{check, exit_on_failed_checks};

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let boundaries = std::env::args().any(|a| a == "--boundaries");
    // Default 512 KiB fits the mount-time cache (1 MiB), so the warm
    // rows are genuinely warm; --paper serves 4 MiB and lets the cold
    // row evict as it streams.
    let kib = if paper { 4096 } else { 512 };
    println!("Table 3: file-serving throughput (Mbit/s of virtual time),");
    println!(
        "one {} KiB file, FFS on IDE -> buffer cache -> TCP -> 100 Mbit/s Ethernet\n",
        kib
    );
    println!(
        "{:14} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "", "Mbit/s", "copied B", "gathered B", "hits", "misses"
    );
    let mut rows = Vec::new();
    for mode in [ServeMode::ColdCopy, ServeMode::WarmCopy, ServeMode::Sendfile] {
        let r = fileserve_run(mode, kib);
        println!(
            "{:14} {:>8.2} {:>12} {:>12} {:>8} {:>8}",
            mode.name(),
            r.mbit_s,
            r.server.bytes_copied,
            r.server.bytes_gathered,
            r.server.cache_hits,
            r.server.cache_misses
        );
        rows.push(r);
    }
    let (cold, warm, sendfile) = (&rows[0], &rows[1], &rows[2]);

    println!("\nshape checks:");
    check(
        "warm copy beats cold copy (the cache absorbs the disk)",
        warm.mbit_s > cold.mbit_s,
    );
    check(
        "warm sendfile beats warm copy (lent pages beat copied ones)",
        sendfile.mbit_s > warm.mbit_s,
    );
    check(
        "cold run misses in the cache; warm runs hit",
        cold.server.cache_misses > 0
            && warm.server.cache_misses == 0
            && sendfile.server.cache_misses == 0,
    );
    check(
        "sendfile converts the copy work into gather work",
        sendfile.server.bytes_gathered >= sendfile.bytes
            && sendfile.server.bytes_copied < warm.server.bytes_copied / 4,
    );
    check(
        "copy rows moved every payload byte at least twice",
        warm.server.bytes_copied >= 2 * warm.bytes,
    );

    fn at<'a>(
        r: &'a FileServeResult,
        c: &str,
        b: &str,
    ) -> Option<&'a oskit::machine::BoundaryMetrics> {
        r.server_boundaries.get(c, b)
    }
    check(
        "0 bytes copied at freebsd-net::sockbuf on the sendfile path",
        at(sendfile, "freebsd-net", "sockbuf")
            .map(|b| b.bytes_copied == 0 && b.bytes_gathered >= sendfile.bytes)
            .unwrap_or(false),
    );
    check(
        "0 bytes copied at linux-dev::ether_tx on the sendfile path",
        at(sendfile, "linux-dev", "ether_tx")
            .map(|b| b.bytes_copied == 0 && b.gathers > 0)
            .unwrap_or(false),
    );
    check(
        "0 bytes copied at netbsd-fs::fs_read on the sendfile path",
        at(sendfile, "netbsd-fs", "fs_read")
            .map(|b| b.bytes_copied == 0)
            .unwrap_or(true),
    );
    check(
        "copy rows pay fs_read + sockbuf + ether_tx in full",
        [
            "netbsd-fs::fs_read",
            "freebsd-net::sockbuf",
            "linux-dev::ether_tx",
        ]
        .iter()
        .all(|s| {
            let (c, b) = s.split_once("::").unwrap();
            at(warm, c, b)
                .map(|x| x.bytes_copied >= warm.bytes)
                .unwrap_or(false)
        }),
    );
    if boundaries {
        println!("\nper-boundary breakdown (warm copy server):");
        print!("{}", warm.server_boundaries);
        println!("\nper-boundary breakdown (sendfile server):");
        print!("{}", sendfile.server_boundaries);
    }
    exit_on_failed_checks();
}
