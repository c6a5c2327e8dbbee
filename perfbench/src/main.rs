//! `perfbench --workload <net_stream|net_rpc|file_serve> --seed <n>
//! --seconds <s> --trace <0|1> [--spans <path>]`
//!
//! Runs whole rounds of one workload until `--seconds` of host time have
//! passed, then prints every metric by name and unit, the operations
//! attempted and failed, and, as the last line, one JSON object.  With
//! `--trace 0` the metrics are the end-to-end ones, from rounds with no
//! interposers installed.  With `--trace 1` rounds alternate between
//! untraced and traced; the metrics are the per-layer ones, and the last
//! traced round's spans are written to `--spans`.  The exit code is 0
//! only if every operation succeeded and every round was correct.
//!
//! Each round runs in a child process of its own (`perfbench --round
//! ...`), which reports back on its standard output.  A finished
//! simulation is never freed (its pending timer events and its machines
//! hold each other), so rounds sharing one process would grow its memory
//! and slow it round after round; a process per round keeps
//! `peak_rss_mb` the memory of one round and every round's host time
//! alike.

use oskit_perfbench::probe::{write_spans, Seam, SeamTotals};
use oskit_perfbench::stats::{median, Rusage};
use oskit_perfbench::{run_round, Params, Round, VtRecord, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <net_stream|net_rpc|file_serve> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

/// Rounds of each kind a run makes at least, so medians have a middle.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1 to 600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let child = argv.first().is_some_and(|a| a == "--round");
    if child {
        argv.remove(0);
    }
    let args = match parse(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if child {
        one_round(&args);
        return;
    }
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut plain, mut traced): (Vec<Child>, Vec<Child>) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    loop {
        let is_traced = args.trace && (plain.len() + traced.len()) % 2 == 1;
        let r = match round_in_child(&args, is_traced) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {}: round failed: {e}", args.workload.name());
                correct = false;
                break;
            }
        };
        attempted += r.round.vt.attempted;
        failed += r.round.vt.failed;
        for e in &r.round.errors {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            correct = false;
        }
        // Every round replays the same seeded inputs: its virtual-time
        // record and the program's counters must repeat exactly, traced
        // or not (interposers do not charge the modelled machine).
        if let Some(first) = plain.first() {
            if first.round.vt != r.round.vt || first.round.counts != r.round.counts {
                eprintln!(
                    "perfbench: round {} ({}) differs from round 1 in virtual time or counters",
                    plain.len() + traced.len() + 1,
                    if is_traced { "traced" } else { "untraced" }
                );
                correct = false;
            }
        }
        if is_traced {
            traced.push(r);
        } else {
            plain.push(r);
        }
        let enough = plain.len() >= MIN_ROUNDS && (!args.trace || traced.len() >= MIN_ROUNDS);
        if enough && started.elapsed() >= budget {
            break;
        }
    }
    if plain.is_empty() || (args.trace && traced.is_empty()) {
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            attempted.max(1),
            failed
        );
        std::process::exit(1);
    }

    let first = &plain[0].round;
    let vt = first.vt.metrics();
    let p99 = vt.lat_us_p99.unwrap_or_else(|| {
        eprintln!(
            "perfbench: fewer than ten samples beyond p99 ({} samples)",
            vt.samples
        );
        correct = false;
        0.0
    });
    let host = |rs: &[Child]| median(&rs.iter().map(|r| r.round.host_s).collect::<Vec<_>>());
    let metrics = if args.trace {
        let mut m = per_layer(first, &plain, &traced);
        m.push(metric(
            "trace.overhead_s",
            host(&traced) - host(&plain),
            "s",
        ));
        if let (Some(path), Some(last)) = (&args.spans, traced.last()) {
            if last.round.errors.is_empty() {
                println!("spans: {} written to {}", last.spans, path.display());
            }
        }
        m
    } else {
        vec![
            metric("vt_goodput_mbit_s", vt.goodput_mbit_s, "Mbit/s"),
            metric("vt_lat_us_p50", vt.lat_us_p50, "us"),
            metric("vt_lat_us_p99", p99, "us"),
            metric("vt_get_mbit_s", vt.get_mbit_s, "Mbit/s"),
            metric("vt_put_mbit_s", vt.put_mbit_s, "Mbit/s"),
            metric("host_s", host(&plain), "s"),
            metric(
                "setup_s",
                median(&plain.iter().map(|r| r.round.setup_s).collect::<Vec<_>>()),
                "s",
            ),
            metric(
                "peak_rss_mb",
                median(
                    &plain
                        .iter()
                        .map(|r| r.rss_kib as f64 / 1024.0)
                        .collect::<Vec<_>>(),
                ),
                "MiB",
            ),
        ]
    };

    println!(
        "workload {}  seed {}  rounds {} untraced + {} traced  latency samples {} per round",
        args.workload.name(),
        args.seed,
        plain.len(),
        traced.len(),
        vt.samples
    );
    for m in &metrics {
        println!("  {:<36} {:>16} {}", m.name, m.value, m.unit);
    }
    println!("  attempted {attempted}  failed {failed}");
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct || failed > 0 {
        std::process::exit(1);
    }
}

/// The per-layer metrics: seam totals from the traced rounds, the
/// program's own counters, and the scheduler's cost from the untraced
/// rounds.
fn per_layer(first: &Round, plain: &[Child], traced: &[Child]) -> Vec<Metric> {
    let mut out = Vec::new();
    let last = &traced
        .last()
        .expect("a traced run makes traced rounds")
        .round;
    for seam in Seam::ALL {
        let t = last.seams[seam as usize];
        let p = seam.name();
        out.push(metric(format!("{p}.calls"), t.calls as f64, "count"));
        if !matches!(seam, Seam::SockSend | Seam::SockRecv) {
            out.push(metric(format!("{p}.bytes"), t.bytes as f64, "bytes"));
        }
        out.push(metric(format!("{p}.vt_us"), t.vt_ns as f64 / 1e3, "us"));
        if matches!(seam, Seam::NetTx | Seam::NetRx) {
            let host: Vec<f64> = traced
                .iter()
                .map(|r| r.round.seams[seam as usize].host_ns as f64 / 1e6)
                .collect();
            out.push(metric(format!("{p}.host_ms"), median(&host), "ms"));
        }
    }
    let ctx: Vec<f64> = plain.iter().map(|r| r.round.ctx_switches as f64).collect();
    let per: Vec<f64> = plain
        .iter()
        .map(|r| r.round.host_s * 1e6 / r.round.ctx_switches.max(1) as f64)
        .collect();
    out.push(metric("sched.ctx_switches", median(&ctx), "count"));
    out.push(metric("sched.us_per_switch", median(&per), "us"));

    let c = &first.counts;
    let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let sum = |field: &str| {
        c.iter()
            .filter(|(k, _)| !k.starts_with("nic.") && k.ends_with(&format!(".{field}")))
            .map(|(_, v)| *v as f64)
            .sum::<f64>()
    };
    let (hits, misses) = (
        get("bufcache.getblk.cache_hits"),
        get("bufcache.getblk.cache_misses"),
    );
    let named: BTreeMap<&str, f64> = BTreeMap::from([
        (
            "linux-dev.ether_tx.bytes_copied",
            get("linux-dev.ether_tx.bytes_copied"),
        ),
        (
            "linux-dev.ether_tx.bytes_gathered",
            get("linux-dev.ether_tx.bytes_gathered"),
        ),
        ("linux-dev.rx_irqs", get("linux-dev.net_intr.irqs")),
        ("linux-dev.rx_polls", get("linux-dev.net_rx_poll.polls")),
        (
            "freebsd-net.socket.crossings",
            get("freebsd-net.socket.crossings"),
        ),
        ("glue.crossings", sum("crossings")),
        ("glue.bytes_copied", sum("bytes_copied")),
        (
            "freebsd-net.sockbuf.bytes_copied",
            get("freebsd-net.sockbuf.bytes_copied"),
        ),
        (
            "netbsd-fs.fs_read.bytes_copied",
            get("netbsd-fs.fs_read.bytes_copied"),
        ),
        ("bufcache.hits", hits),
        ("bufcache.misses", misses),
        ("bufcache.evictions", get("bufcache.getblk.cache_evictions")),
        ("nic.tx_frames", get("nic.tx_frames")),
        ("nic.rx_dropped", get("nic.rx_dropped")),
    ]);
    for (k, v) in named {
        let unit = if k.ends_with("bytes_copied") || k.ends_with("bytes_gathered") {
            "bytes"
        } else {
            "count"
        };
        out.push(metric(k, v, unit));
    }
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.push(metric("bufcache.hit_ratio", ratio, "ratio"));
    out
}

/// One round as its child process reported it.
struct Child {
    round: Round,
    rss_kib: u64,
    spans: usize,
}

/// The child side: runs one round, writes its spans, and reports the
/// round on standard output, one `key value...` line per item.
fn one_round(args: &Args) {
    let r = run_round(args.workload, args.seed, args.trace, &Params::FULL);
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    if let Some(path) = &args.spans {
        if let Err(e) = write_spans(path, &r.spans) {
            line(format!("error writing spans to {}: {e}", path.display()));
        }
    }
    let v = &r.vt;
    line(format!("ops {} {}", v.attempted, v.failed));
    line(format!(
        "lat {}",
        v.lat_ns
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (k, (b, ns)) in [("total", v.total), ("get", v.get), ("put", v.put)] {
        line(format!("{k} {b} {ns}"));
    }
    line(format!(
        "host {:?} {:?} {}",
        r.setup_s, r.host_s, r.ctx_switches
    ));
    line(format!(
        "rss {} {}",
        Rusage::now().maxrss_kib,
        r.spans.len()
    ));
    for (i, t) in r.seams.iter().enumerate() {
        line(format!(
            "seam {i} {} {} {} {}",
            t.calls, t.bytes, t.vt_ns, t.host_ns
        ));
    }
    for (k, n) in &r.counts {
        line(format!("count {k} {n}"));
    }
    for e in &r.errors {
        line(format!("error {}", e.replace('\n', " ")));
    }
    print!("{out}");
}

/// The parent side: runs one round in a child process and reads its
/// report.
fn round_in_child(args: &Args, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--round", "--workload", args.workload.name()])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let (true, Some(p)) = (traced, &args.spans) {
        cmd.arg("--spans").arg(p);
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| format!("report: {e}"))?;
    parse_report(&text).ok_or_else(|| format!("malformed report: {text:.200}"))
}

fn parse_report(text: &str) -> Option<Child> {
    let mut vt = VtRecord::default();
    let (mut setup_s, mut host_s, mut ctx, mut rss_kib, mut spans) = (0.0, 0.0, 0, 0, 0);
    let mut seams = [SeamTotals::default(); 8];
    let (mut counts, mut errors) = (BTreeMap::new(), Vec::new());
    for l in text.lines() {
        let (key, rest) = l.split_once(' ').unwrap_or((l, ""));
        let nums = || {
            rest.split_whitespace()
                .map(str::parse::<u64>)
                .collect::<Result<Vec<_>, _>>()
                .ok()
        };
        match key {
            "ops" => [vt.attempted, vt.failed] = nums()?.try_into().ok()?,
            "lat" => vt.lat_ns = nums()?,
            "total" | "get" | "put" => {
                let [b, ns]: [u64; 2] = nums()?.try_into().ok()?;
                *match key {
                    "total" => &mut vt.total,
                    "get" => &mut vt.get,
                    _ => &mut vt.put,
                } = (b, ns);
            }
            "host" => {
                let f: Vec<&str> = rest.split_whitespace().collect();
                setup_s = f.first()?.parse().ok()?;
                host_s = f.get(1)?.parse().ok()?;
                ctx = f.get(2)?.parse().ok()?;
            }
            "rss" => [rss_kib, spans] = nums()?.try_into().ok()?,
            "seam" => {
                let [i, calls, bytes, vt_ns, host_ns]: [u64; 5] = nums()?.try_into().ok()?;
                *seams.get_mut(i as usize)? = SeamTotals {
                    calls,
                    bytes,
                    vt_ns,
                    host_ns,
                };
            }
            "count" => {
                let (k, n) = rest.split_once(' ')?;
                counts.insert(k.to_string(), n.parse().ok()?);
            }
            "error" => errors.push(rest.to_string()),
            _ => return None,
        }
    }
    Some(Child {
        round: Round {
            vt,
            counts,
            setup_s,
            host_s,
            ctx_switches: ctx,
            seams,
            spans: Vec::new(),
            errors,
        },
        rss_kib,
        spans: spans as usize,
    })
}
