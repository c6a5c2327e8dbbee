//! The fault-injection soak: the robustness acceptance test of the fault
//! substrate (ISSUE 3).
//!
//! Two workloads — the ttcp netstack transfer and an FFS fileserver over
//! the encapsulated IDE driver — run under seeded fault plans aggressive
//! enough that every fault class actually fires.  The assertions are the
//! point of the whole substrate:
//!
//! * **Byte-exactness.** Transfers and files come back bit-identical;
//!   every injected fault was absorbed by the donor code's own recovery
//!   machinery (TCP retransmit, blkdev retry, watchdog reset), never
//!   papered over by the harness.
//! * **Bounded recovery.** Retries stay within the block layer's
//!   `BLK_MAX_RETRIES`; nothing fails hard, nothing panics.
//! * **Replay determinism.** The same seed over the same workload yields
//!   *identical* fault ledgers and work counters — run-to-run inside the
//!   process and (via the `fault-soak:` lines diffed by tools/check.sh)
//!   across processes.

use oskit::com::interfaces::fs::{File, FileSystem};
use oskit::machine::{
    AllocFaults, BoundaryMetrics, DiskFaults, FaultPlan, FaultSnapshot, IrqFaults, NicFaults, Sim,
    TraceReport,
};
use oskit::netbsd_fs::FfsFileSystem;
use oskit::{ttcp_run_faulted, KernelBuilder, NetConfig};
use std::sync::Arc;

/// A machine's ledger rows with at least one nonzero counter.  Replay
/// compares rows, not whole reports: tests running in parallel in this
/// process can register new, all-zero boundaries between two runs.
type Rows = Vec<BoundaryMetrics>;

fn rows(report: &TraceReport) -> Rows {
    report.nonzero().copied().collect()
}

/// One row of `rows`, all zero if the seam booked nothing.
fn row(rows: &Rows, component: &str, name: &str) -> BoundaryMetrics {
    rows.iter()
        .find(|b| (b.component, b.name) == (component, name))
        .copied()
        .unwrap_or_default()
}

/// A disk soak's block-glue and sleep rows, printed on its `fault-soak:`
/// line so that the cross-process replay gate compares them too.
fn disk_seams(rows: &Rows) -> String {
    let (read, write) = (
        row(rows, "linux-dev", "blk_read"),
        row(rows, "linux-dev", "blk_write"),
    );
    let sleep = row(rows, "osenv", "sleep");
    format!(
        "linux-dev::blk_read {} crossings {} B copied, \
         linux-dev::blk_write {} crossings {} B copied, \
         osenv::sleep {} sleeps {} wakeups",
        read.crossings,
        read.bytes_copied,
        write.crossings,
        write.bytes_copied,
        sleep.sleeps,
        sleep.wakeups
    )
}

/// The netstack soak plan: lossy wire, periodic transmitter wedges,
/// failing interrupt-level allocations, lost IRQs.
fn netstack_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .nic(NicFaults {
            drop_per_mille: 5,
            burst_len: 2,
            // Deliberately prime-ish: a round period resonates with TCP's
            // retransmit schedule (3 s, 9 s, ... are exact multiples of
            // 50 ms), parking every SYN retransmit inside the wedge
            // window and wedging the handshake forever.
            wedge_period_ns: 47_000_003,
            wedge_duration_ns: 2_000_000,
        })
        .alloc(AllocFaults {
            fail_per_mille: 1,
            atomic_fail_per_mille: 3,
        })
        .irq(IrqFaults { lose_per_mille: 2 })
}

/// The fileserver soak plan: transient media errors, latency spikes, and
/// lost completion interrupts.
fn fileserver_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .disk(DiskFaults {
            error_per_mille: 30,
            spike_per_mille: 30,
            spike_ns: 3_000_000,
        })
        .irq(IrqFaults { lose_per_mille: 40 })
}

/// One faulted ttcp transfer; byte-exactness is asserted inside the
/// harness (the receiver counts every byte).
fn netstack_soak_once(seed: u64) -> (FaultSnapshot, FaultSnapshot, Rows, Rows) {
    let r = ttcp_run_faulted(
        NetConfig::oskit(),
        NetConfig::freebsd(),
        512,
        4096,
        Some(netstack_plan(seed)),
    );
    (
        r.sender_faults,
        r.receiver_faults,
        rows(&r.sender),
        rows(&r.receiver),
    )
}

#[test]
fn netstack_survives_seeded_faults_deterministically() {
    let (sf, rf, sw, rw) = netstack_soak_once(0xDEAD_BEEF);

    // The plan must actually have bitten, on every class it scripts.
    assert!(sf.tx_dropped > 0, "no drops injected: {sf:?}");
    assert!(sf.tx_wedged > 0, "transmitter never wedged: {sf:?}");
    assert!(
        sf.alloc_failures + rf.alloc_failures > 0,
        "no allocation failures injected"
    );
    // And the glue must have recovered in donor idiom: the watchdog saw
    // the wedge and reset the device; alloc-starved packets were dropped
    // and counted, not panicked over.
    assert!(sf.tx_watchdog_resets > 0, "watchdog never fired: {sf:?}");
    assert_eq!(sf.blk_hard_failures, 0, "network run touched no disk");

    // Replay: same seed, same workload → identical ledgers and meters.
    let (sf2, rf2, sw2, rw2) = netstack_soak_once(0xDEAD_BEEF);
    assert_eq!(sf, sf2, "sender fault ledger not reproducible");
    assert_eq!(rf, rf2, "receiver fault ledger not reproducible");
    assert_eq!(sw, sw2, "sender ledger rows not reproducible");
    assert_eq!(rw, rw2, "receiver ledger rows not reproducible");

    // A different seed must diverge (the plan is live, not inert).
    let (sf3, ..) = netstack_soak_once(0xFEED_F00D);
    assert_ne!(sf, sf3, "seed does not steer the fault schedule");

    // Cross-process determinism: check.sh runs this test twice and diffs
    // these lines.
    println!("fault-soak: netstack sender {sf:?}");
    println!("fault-soak: netstack receiver {rf:?}");
}

/// The NAPI soak plan: nothing but lost interrupts, at a rate high
/// enough that coalesced receive interrupts — already ~8x rarer than
/// frames — get eaten repeatedly.
fn napi_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).irq(IrqFaults {
        lose_per_mille: 200,
    })
}

/// One faulted NAPI transfer: native-FreeBSD sender, OSKit receiver in
/// `NETIF_F_NAPI` mode.  Byte-exactness asserted inside the harness.
fn napi_soak_once(seed: u64) -> (FaultSnapshot, FaultSnapshot, Rows, Rows) {
    let r = ttcp_run_faulted(
        NetConfig::freebsd(),
        NetConfig::oskit().napi(true),
        512,
        4096,
        Some(napi_plan(seed)),
    );
    (
        r.sender_faults,
        r.receiver_faults,
        rows(&r.sender),
        rows(&r.receiver),
    )
}

/// The interplay the NAPI path must get right (ISSUE 4 x ISSUE 3): under
/// interrupt mitigation a single receive interrupt announces a whole
/// batch, so *losing* one strands up to a ring of frames — and on a quiet
/// wire no later arrival will re-raise.  The driver's rx watchdog must
/// convert every such stall into a forced poll within one period, the
/// transfer must stay byte-exact, and the whole story must replay
/// deterministically.
#[test]
fn napi_receiver_survives_lost_coalesced_irqs() {
    let (sf, rf, sw, rw) = napi_soak_once(0x0a51_50ac);

    // The plan bit: receive-side interrupts actually got lost...
    assert!(rf.irqs_lost > 0, "no rx irqs lost: {rf:?}");
    // ...and the rx watchdog — not a hang, not a TCP stall-out — is what
    // brought the ring back every time it mattered.
    assert!(
        rf.rx_timeout_polls > 0,
        "watchdog never had to force a poll: {rf:?}"
    );
    // Mitigation stayed on through the faults: batched polls, fewer
    // interrupts than frames.
    let work = rw.iter().copied().collect::<TraceReport>().total();
    assert!(work.polls > 0, "receiver never polled: {work:?}");
    assert!(
        work.rx_irqs < work.packets_received,
        "mitigation off: {} irqs for {} frames",
        work.rx_irqs,
        work.packets_received
    );

    // Replay: same seed, same workload → identical ledgers and meters.
    let (sf2, rf2, sw2, rw2) = napi_soak_once(0x0a51_50ac);
    assert_eq!(sf, sf2, "sender fault ledger not reproducible");
    assert_eq!(rf, rf2, "receiver fault ledger not reproducible");
    assert_eq!(sw, sw2, "sender ledger rows not reproducible");
    assert_eq!(rw, rw2, "receiver ledger rows not reproducible");

    // Cross-process determinism: check.sh runs this test twice and diffs
    // these lines.
    println!("fault-soak: napi receiver {rf:?}");
    println!("fault-soak: napi receiver work {rw:?}");
}

/// Rewrite rounds of the fileserver soak.  Clustered I/O moves a file
/// in a few 64 KiB requests, so the soak runs several cold-read and
/// rewrite passes to give every disk-fault class requests to land on.
const SOAK_REWRITES: u8 = 6;

/// The soak file's contents after rewrite round `round`.
fn soak_pattern(round: u8) -> Vec<u8> {
    (0..200_000)
        .map(|i| ((i + 37 * usize::from(round)) % 251) as u8)
        .collect()
}

fn write_all(f: &dyn File, data: &[u8]) {
    let mut off = 0;
    while off < data.len() {
        off += f.write_at(&data[off..], off as u64).unwrap();
    }
}

fn read_all(f: &dyn File, len: usize) -> Vec<u8> {
    let mut back = vec![0u8; len];
    assert_eq!(f.read_at(&mut back, 0).unwrap(), len);
    back
}

/// One faulted fileserver run: mkfs, write a 200 kB pattern, read it
/// back byte-exact, fsck clean.  Then [`SOAK_REWRITES`] rounds of:
/// remount cold and re-read (clustered cache fills under faults), then
/// overwrite with a new pattern and sync (clustered write-back under
/// faults), fsck clean.  A last cold remount re-reads the final pattern
/// byte-exact and must leave no cache block wired or held.  Returns the
/// machine's fault ledger and its work ledger rows.
fn fileserver_soak_once(seed: u64) -> (FaultSnapshot, Rows) {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("fault-soak").disk(8192).boot(&sim);
    kernel.machine.faults().install(fileserver_plan(seed));
    let k = Arc::clone(&kernel);
    sim.spawn("main", move || {
        let blkio = k.init_disks()[0].clone();
        FfsFileSystem::mkfs(&blkio).expect("mkfs under faults");
        let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("mount under faults");
        let root = fs.getroot().unwrap();
        let f = root.create("soak.dat", true, 0o644).unwrap();
        let data = soak_pattern(0);
        write_all(&*f, &data);
        let back = read_all(&*f, data.len());
        assert_eq!(back, data, "readback not byte-exact under faults");
        FileSystem::sync(&*fs).unwrap();
        assert!(fs.fsck().unwrap().is_empty(), "fsck dirty under faults");
        fs.unmount().unwrap();

        for round in 1..=SOAK_REWRITES {
            let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("remount under faults");
            let f = fs.getroot().unwrap().lookup("soak.dat").unwrap();
            let before = soak_pattern(round - 1);
            let back = read_all(&*f, before.len());
            assert_eq!(back, before, "cold re-read {round} not byte-exact");
            write_all(&*f, &soak_pattern(round));
            FileSystem::sync(&*fs).unwrap();
            assert!(
                fs.fsck().unwrap().is_empty(),
                "fsck dirty after rewrite {round}"
            );
            fs.unmount().unwrap();
        }

        let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("final remount");
        let f = fs.getroot().unwrap().lookup("soak.dat").unwrap();
        let last = soak_pattern(SOAK_REWRITES);
        assert_eq!(
            read_all(&*f, last.len()),
            last,
            "final re-read not byte-exact"
        );
        // No failed or retried cluster left a page wired or held.
        let cache = fs.buffer_cache();
        assert!(cache.resident() > 0, "final re-read bypassed the cache");
        assert_eq!(cache.pinned(), Vec::<u32>::new(), "cache pages left pinned");
        fs.unmount().unwrap();
    });
    sim.run();
    (
        kernel.machine.faults().stats(),
        rows(&kernel.machine.tracer().metrics()),
    )
}

#[test]
fn fileserver_survives_seeded_faults_deterministically() {
    let (fl, wk) = fileserver_soak_once(0x5EED_D15C);

    // Every scripted disk-fault class fired...
    assert!(fl.disk_errors > 0, "no transient disk errors: {fl:?}");
    assert!(fl.disk_spikes > 0, "no latency spikes: {fl:?}");
    assert!(fl.irqs_lost > 0, "no completion IRQs lost: {fl:?}");
    // ...and the block layer recovered every one in donor idiom: bounded
    // retries, lost completions picked up by the timeout poll, and not a
    // single error surfaced up the blkio chain.
    assert!(fl.blk_retries > 0, "driver never retried: {fl:?}");
    assert!(fl.blk_lost_irq_polls > 0, "driver never polled: {fl:?}");
    assert_eq!(fl.blk_hard_failures, 0, "retries exhausted: {fl:?}");

    // Replay determinism.
    let (fl2, wk2) = fileserver_soak_once(0x5EED_D15C);
    assert_eq!(fl, fl2, "fileserver fault ledger not reproducible");
    assert_eq!(wk, wk2, "fileserver ledger rows not reproducible");

    println!("fault-soak: fileserver {fl:?}");
    println!("fault-soak: fileserver seams {}", disk_seams(&wk));
}

/// One faulted cache-soak run: build a file, drop the cache (remount),
/// then read it twice.  The first pass *fills* the shared buffer cache
/// through the faulted disk — every fill that hits a transient error
/// must be retried by the block layer, not surfaced to the cache or
/// beyond.  The second pass must be served entirely from the cache: no
/// new misses, so no chance for the still-faulted disk to bite.
fn cache_soak_once(seed: u64) -> (FaultSnapshot, Rows) {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("cache-soak").disk(8192).boot(&sim);
    kernel.machine.faults().install(fileserver_plan(seed));
    let k = Arc::clone(&kernel);
    sim.spawn("main", move || {
        let blkio = k.init_disks()[0].clone();
        FfsFileSystem::mkfs(&blkio).expect("mkfs under faults");
        let data: Vec<u8> = (0..150_000).map(|i| (i % 241) as u8).collect();
        {
            let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("mount under faults");
            let root = fs.getroot().unwrap();
            let f = root.create("cached.dat", true, 0o644).unwrap();
            let mut off = 0;
            while off < data.len() {
                off += f.write_at(&data[off..], off as u64).unwrap();
            }
            fs.unmount().unwrap();
        }
        // Remount: a cold cache in front of a still-faulted disk.
        let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("remount under faults");
        let root = fs.getroot().unwrap();
        let f = root.lookup("cached.dat").unwrap();
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(&mut back, 0).unwrap(), data.len());
        assert_eq!(back, data, "cache fill not byte-exact under faults");
        let filled = k.machine.work();
        assert!(filled.cache_misses > 0, "cold pass never filled the cache");
        // The warm pass: same bytes, zero new fills.
        let mut again = vec![0u8; data.len()];
        assert_eq!(f.read_at(&mut again, 0).unwrap(), data.len());
        assert_eq!(again, data, "warm readback diverged");
        let warm = k.machine.work();
        assert_eq!(
            warm.cache_misses, filled.cache_misses,
            "warm pass missed: the cache re-read the faulted disk"
        );
        assert!(
            warm.cache_hits > filled.cache_hits,
            "warm pass bypassed the cache"
        );
        fs.unmount().unwrap();
    });
    sim.run();
    (
        kernel.machine.faults().stats(),
        rows(&kernel.machine.tracer().metrics()),
    )
}

#[test]
fn cache_fills_retry_under_disk_faults_and_hits_absorb_them() {
    let (fl, wk) = cache_soak_once(0xCAC4_E5EE);

    // The plan bit the fill path...
    assert!(fl.disk_errors > 0, "no transient disk errors: {fl:?}");
    // ...and the block layer under the cache absorbed every one.
    assert!(fl.blk_retries > 0, "cache fills never retried: {fl:?}");
    assert_eq!(fl.blk_hard_failures, 0, "a cache fill failed hard: {fl:?}");
    // The fills are whole-sector requests into the cache pages, retries
    // included: the glue never bounced a byte on the way in.
    let blk_read = row(&wk, "linux-dev", "blk_read");
    assert!(blk_read.crossings > 0, "the cache never read the disk");
    assert_eq!(blk_read.bytes_copied, 0, "a cache fill bounced in the glue");

    // Replay determinism: the cache must not perturb the fault schedule.
    let (fl2, wk2) = cache_soak_once(0xCAC4_E5EE);
    assert_eq!(fl, fl2, "cache-soak fault ledger not reproducible");
    assert_eq!(wk, wk2, "cache-soak ledger rows not reproducible");

    println!("fault-soak: cache {fl:?}");
    println!("fault-soak: cache seams {}", disk_seams(&wk));
}

/// With no plan installed, the consultation points are inert: a plain run
/// books an all-zero ledger (this is what keeps the default tables
/// byte-identical to the seed).
#[test]
fn no_plan_means_no_faults() {
    let r = ttcp_run_faulted(NetConfig::oskit(), NetConfig::freebsd(), 64, 4096, None);
    assert!(r.sender_faults.is_zero());
    assert!(r.receiver_faults.is_zero());
}
