//! The file-serving throughput benchmark ("table3"): the buffer-cache
//! and zero-copy sendfile ablation this kit adds on top of the paper's
//! Tables 1 and 2.
//!
//! Three rows serve the same file from an FFS volume on a simulated IDE
//! disk to a native-FreeBSD client over TCP:
//!
//! * **cold copy** — `read_at` + `send` over a freshly mounted cache:
//!   every block pays the disk, whose whole-sector requests land in the
//!   cache pages with no glue copy at `blk_read`, then the warm row's
//!   two copies (cache page → caller buffer at `fs_read`, caller buffer
//!   → mbuf at `sockbuf`) plus the non-SG driver's `ether_tx` copy;
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

use oskit::{fileserve_run, ServeMode};
use oskit_bench::{check, exit_on_failed_checks};

/// The size of the served file: 512 KiB fits the mount-time cache
/// (1 MiB), so the warm rows are genuinely warm.
const KIB: usize = 512;

fn main() {
    let boundaries = std::env::args().any(|a| a == "--boundaries");
    println!("Table 3: file-serving throughput (Mbit/s of virtual time),");
    println!(
        "one {} KiB file, FFS on IDE -> buffer cache -> TCP -> 100 Mbit/s Ethernet\n",
        KIB
    );
    println!(
        "{:14} {:>8} {:>12} {:>12} {:>8} {:>8}",
        "", "Mbit/s", "copied B", "gathered B", "hits", "misses"
    );
    let rows = [
        ServeMode::ColdCopy,
        ServeMode::WarmCopy,
        ServeMode::Sendfile,
    ]
    .map(|mode| {
        let r = fileserve_run(mode, KIB);
        let s = r.server.total();
        println!(
            "{:14} {:>8.2} {:>12} {:>12} {:>8} {:>8}",
            mode.name(),
            r.mbit_s,
            s.bytes_copied,
            s.bytes_gathered,
            s.cache_hits,
            s.cache_misses
        );
        (r, s)
    });
    let [(cold, cold_s), (warm, warm_s), (sendfile, sendfile_s)] = &rows;

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
        cold_s.cache_misses > 0 && warm_s.cache_misses == 0 && sendfile_s.cache_misses == 0,
    );
    check(
        "sendfile converts the copy work into gather work",
        sendfile_s.bytes_gathered >= sendfile.bytes
            && sendfile_s.bytes_copied < warm_s.bytes_copied / 4,
    );
    check(
        "copy rows moved every payload byte at least twice",
        warm_s.bytes_copied >= 2 * warm.bytes,
    );
    check(
        "0 bytes copied at freebsd-net::sockbuf on the sendfile path",
        sendfile
            .server
            .get("freebsd-net", "sockbuf")
            .is_some_and(|b| b.bytes_copied == 0 && b.bytes_gathered >= sendfile.bytes),
    );
    check(
        "0 bytes copied at linux-dev::ether_tx on the sendfile path",
        sendfile
            .server
            .get("linux-dev", "ether_tx")
            .is_some_and(|b| b.bytes_copied == 0 && b.gathers > 0),
    );
    check(
        "0 bytes copied at netbsd-fs::fs_read on the sendfile path",
        sendfile
            .server
            .get("netbsd-fs", "fs_read")
            .is_none_or(|b| b.bytes_copied == 0),
    );
    check(
        "copy rows pay fs_read + sockbuf + ether_tx in full",
        [
            ("netbsd-fs", "fs_read"),
            ("freebsd-net", "sockbuf"),
            ("linux-dev", "ether_tx"),
        ]
        .iter()
        .all(|&(c, b)| {
            let row = warm.server.get(c, b);
            row.is_some_and(|x| x.bytes_copied >= warm.bytes)
        }),
    );
    if boundaries {
        println!("\nper-boundary breakdown (warm copy server):");
        print!("{}", warm.server);
        println!("\nper-boundary breakdown (sendfile server):");
        print!("{}", sendfile.server);
    }
    exit_on_failed_checks();
}
