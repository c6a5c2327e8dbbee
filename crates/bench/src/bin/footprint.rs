//! Regenerates the paper's §6.2.5 footprint observation: "the inherent
//! modularity of the OSKit keeps the resulting system to a modest size:
//! the static (code+data) size of our executable is 412KB, including one
//! ethernet driver, networking (121KB), the Kaffe virtual machine and
//! native libraries (132KB), and various glue code."
//!
//! For the Rust reproduction the closest analogue is the compiled size of
//! each component library (release rlib) plus the statically linked size
//! of the `langos` example (the Java/PC stand-in).  Run after
//! `cargo build --release --examples`.

use oskit_bench::workspace_root;
use std::path::Path;

fn main() {
    let root = workspace_root();
    let deps = root.join("target/release/deps");
    println!("Component footprint (release rlib sizes — §6.2.5 analogue)\n");
    let mut rows: Vec<(String, u64)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(&deps) {
        for e in entries.flatten() {
            let p = e.path();
            let name = p
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .into_owned();
            if name.starts_with("liboskit") && name.ends_with(".rlib") {
                let base = name
                    .trim_start_matches("lib")
                    .split('-')
                    .next()
                    .unwrap_or(&name)
                    .to_string();
                let size = p.metadata().map(|m| m.len()).unwrap_or(0);
                // Keep the largest per crate (stale duplicates linger).
                match rows.iter_mut().find(|(n, _)| *n == base) {
                    Some((_, s)) if *s < size => *s = size,
                    Some(_) => {}
                    None => rows.push((base, size)),
                }
            }
        }
    }
    if rows.is_empty() {
        eprintln!(
            "no release rlibs found under {deps:?};\nrun `cargo build --release --examples` first"
        );
        std::process::exit(1);
    }
    rows.sort_by_key(|(_, s)| std::cmp::Reverse(*s));
    let mut total = 0;
    for (name, size) in &rows {
        println!("  {:24} {:>8} KB", name, size / 1024);
        total += size;
    }
    println!("  {:24} {:>8} KB", "total components", total / 1024);
    let langos = root.join("target/release/examples/langos");
    print_bin("langos (Java/PC analogue)", &langos);
    let ttcp = root.join("target/release/examples/ttcp");
    print_bin("ttcp example kernel", &ttcp);
    println!(
        "\nA network-computer build without the file system is just a matter of\n\
         not linking those crates — §6.2.5: \"using the OSKit it proved trivial\n\
         to build a version of Java/PC that included networking but no file\n\
         system.\"  (The `langos` example depends only on the facade; a lean\n\
         build would depend on the individual oskit-* crates it needs.)"
    );
}

fn print_bin(label: &str, path: &Path) {
    match path.metadata() {
        Ok(m) => println!(
            "  {:24} {:>8} KB (linked executable)",
            label,
            m.len() / 1024
        ),
        Err(_) => println!(
            "  {:24} not built (cargo build --release --examples)",
            label
        ),
    }
}
