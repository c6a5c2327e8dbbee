//! Regenerates paper Table 3 (source sizes): the breakdown of the kit's
//! components, split into native/glue code versus donor-idiom
//! ("encapsulated") code — the paper's headline structural claim that a
//! modest amount of native code unlocks a much larger encapsulated mass.
//! (The `table3` binary is the file-serving ablation, not a paper table.)

use oskit_bench::{dir_loc, file_locs, workspace_root};

/// One row per crate: (library, description, directory under `crates/`,
/// subdirectories of `src/` holding donor-idiom code).
#[rustfmt::skip]
const ROWS: &[(&str, &str, &str, &[&str])] = &[
    ("com", "COM interfaces & support", "com", &[]),
    ("machine", "Simulated PC substrate", "machine", &[]),
    ("osenv", "Execution environment", "osenv", &[]),
    ("boot", "Bootstrap support", "boot", &[]),
    ("kern", "Kernel support", "kern", &[]),
    ("lmm", "List Memory Manager", "lmm", &[]),
    ("amm", "Address Map Manager", "amm", &[]),
    ("c", "Minimal C library", "clib", &[]),
    ("memdebug", "Malloc debugging", "memdebug", &[]),
    ("gdb", "GDB remote stub", "gdb", &[]),
    ("fdev", "Device driver support", "fdev", &[]),
    ("diskpart", "Disk partitioning", "diskpart", &[]),
    ("fsread", "File system reading", "fsread", &[]),
    ("exec", "Program loading", "exec", &[]),
    ("trace", "Observability substrate", "trace", &[]),
    ("fault", "Fault injection", "fault", &[]),
    ("bufcache", "Shared buffer cache", "bufcache", &[]),
    ("linux_dev", "Linux drivers & support", "linux-dev", &["linux"]),
    ("freebsd_net", "FreeBSD network stack", "freebsd-net", &["bsd"]),
    ("netbsd_fs", "NetBSD file system", "netbsd-fs", &["ffs"]),
    ("oskit (facade)", "Kernel builder & experiments", "core", &[]),
];

/// Prints one table row; the total is the sum of the three columns.
fn row(library: &str, description: &str, native: usize, donor: usize, test: usize) {
    let total = native + donor + test;
    println!("{library:16} {description:30} {native:>8} {donor:>8} {test:>8} {total:>8}");
}

fn main() {
    let root = workspace_root();
    println!("Table 3: \"filtered\" source code size of the components,");
    println!("native/glue vs donor-idiom (\"encapsulated\") implementation.");
    println!("The filter removes comments, attributes, blank and");
    println!("punctuation-only lines, per the paper's counting rule.\n");
    println!(
        "{:16} {:30} {:>8} {:>8} {:>8} {:>8}",
        "Library", "Description", "Native", "Donor", "Tests", "Total"
    );
    let (mut tn, mut td, mut tt) = (0, 0, 0);
    for &(library, description, dir, donor_subdirs) in ROWS {
        let src = root.join("crates").join(dir).join("src");
        let (mut all_code, mut all_test, mut donor) = (0, 0, 0);
        for (path, code, test) in file_locs(&src) {
            all_code += code;
            all_test += test;
            if donor_subdirs
                .iter()
                .any(|sub| path.starts_with(src.join(sub)))
            {
                donor += code;
            }
        }
        let native = all_code.saturating_sub(donor);
        row(library, description, native, donor, all_test);
        tn += native;
        td += donor;
        tt += all_test;
    }
    // Workspace-level examples, tests and benches.
    for (name, desc, dir) in [
        ("examples", "Example kernels", "examples"),
        ("tests", "Integration tests", "tests"),
        ("bench", "Experiment harnesses", "crates/bench"),
    ] {
        let (c, t) = dir_loc(&root.join(dir));
        row(name, desc, c, 0, t);
        tn += c;
        tt += t;
    }
    println!("{}", "-".repeat(92));
    row("Total", "", tn, td, tt);
    println!(
        "\nDonor-idiom share of component code: {:.0}%  (the paper: 230k of 260k",
        100.0 * td as f64 / (tn + td) as f64
    );
    println!("lines encapsulated; here the donor code is re-authored, so the ratio");
    println!("reflects structure, not provenance — see DESIGN.md §2).");
}
