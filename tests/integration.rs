//! Cross-component integration: the separability and composition claims
//! of paper §4, exercised across crate boundaries.

use oskit::clib::malloc::{simple_heap, KMalloc};
use oskit::com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit::com::interfaces::fs::FileSystem;
use oskit::com::interfaces::netio::{EtherAddr, EtherDev, FnNetIo, NetIo};
use oskit::com::{com_object, new_com, Query, SelfRef};
use oskit::diskpart::{format_mbr, ptype, read_partitions, PartitionBlkIo};
use oskit::memdebug::{MemDebug, MemStore, VecStore, Violation};
use oskit::netbsd_fs::FfsFileSystem;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// §4.2.2 "Separability Through Dynamic Binding": the file system runs on
/// *any* blkio — here a partition view over a RAM disk, bound at run time.
#[test]
fn filesystem_binds_to_any_blkio_at_runtime() {
    let disk = VecBufIo::with_len(4 * 1024 * 1024) as Arc<dyn BlkIo>;
    format_mbr(&disk, &[(ptype::LINUX, 64, 6000, false)]).unwrap();
    let parts = read_partitions(&disk).unwrap();
    let part = PartitionBlkIo::open(&disk, &parts[0]) as Arc<dyn BlkIo>;
    FfsFileSystem::mkfs(&part).unwrap();
    let fs = FfsFileSystem::mount_ram(&part).unwrap();
    let root = fs.getroot().unwrap();
    let f = root.create("on-a-partition", true, 0o644).unwrap();
    f.write_at(b"dynamic binding", 0).unwrap();
    FileSystem::sync(&*fs).unwrap();
    // The file system never learned it was on a partition; the first
    // bytes of the *disk* are still the MBR, not a superblock.
    let mut sig = [0u8; 2];
    disk.read(&mut sig, 510).unwrap();
    assert_eq!(sig, [0x55, 0xAA]);
    assert!(fs.fsck().unwrap().is_empty());
}

/// §3.5: the debugging allocator wraps the LMM-backed kernel malloc and
/// catches an overrun a plain run would silently corrupt.
#[test]
fn memdebug_wraps_kernel_malloc() {
    let heap = simple_heap(0, 1 << 20);
    let md = MemDebug::new(KMalloc::new(heap, 0), VecStore::new(1 << 20));
    let a = md.malloc(100, "packet").unwrap();
    md.store().write(a, &[0xEE; 101]); // One byte past the end.
    md.free(a);
    assert!(matches!(
        md.take_violations()[..],
        [Violation::Overrun { tag: "packet", .. }]
    ));
}

/// §4.4.2: interface extension discovered at run time across crates — a
/// blkio from one component queried for bufio support.
#[test]
fn interface_extension_across_components() {
    // VecBufIo (com crate) supports the extension; a partition view
    // (diskpart crate) deliberately does not.
    let ram = VecBufIo::with_len(1 << 20);
    let blk: Arc<dyn BlkIo> = ram.query::<dyn BlkIo>().unwrap();
    assert!(blk
        .query::<dyn oskit::com::interfaces::blkio::BufIo>()
        .is_some());
    format_mbr(&blk, &[(ptype::LINUX, 8, 100, false)]).unwrap();
    let parts = read_partitions(&blk).unwrap();
    let part = PartitionBlkIo::open(&blk, &parts[0]);
    let part_blk: Arc<dyn BlkIo> = part.query::<dyn BlkIo>().unwrap();
    assert!(part_blk
        .query::<dyn oskit::com::interfaces::blkio::BufIo>()
        .is_none());
}

/// The exec loader pulls a program out of a file system read by `fsread`
/// — the boot-loader composition.
#[test]
fn exec_image_from_fsread_volume() {
    use oskit::amm::{flags as amm_flags, Amm};
    use oskit::exec::{load, AmmPhysSink, ExecImage, Section};
    use oskit::fsread::FsRead;
    use oskit::machine::{Machine, Sim};

    // Author a volume holding an executable.
    let dev = VecBufIo::with_len(2 * 1024 * 1024) as Arc<dyn BlkIo>;
    FfsFileSystem::mkfs(&dev).unwrap();
    let image = ExecImage::build(
        0x10_0040,
        &[(
            Section {
                vaddr: 0x10_0000,
                file_off: 0,
                file_size: 5,
                mem_size: 0x1000,
                flags: oskit::exec::sflags::R | oskit::exec::sflags::X,
            },
            b"START".to_vec(),
        )],
    );
    {
        let fs = FfsFileSystem::mount_ram(&dev).unwrap();
        let root = fs.getroot().unwrap();
        let boot = root.mkdir("boot", 0o755).unwrap();
        let k = boot.create("app", true, 0o755).unwrap();
        k.write_at(&image, 0).unwrap();
        FileSystem::sync(&*fs).unwrap();
        fs.unmount().unwrap();
    }
    // The boot path: fsread (no caches, read-only) finds and loads it.
    let fsr = FsRead::open(&dev).unwrap();
    let bytes = fsr.read_whole("/boot/app").unwrap();
    let sim = Sim::new();
    let machine = Machine::new(&sim, "m", 2 << 20);
    let mut amm = Amm::new(0, 2 << 20, amm_flags::FREE);
    let entry = load(
        &bytes,
        &mut AmmPhysSink {
            amm: &mut amm,
            machine: &machine,
        },
    )
    .unwrap();
    assert_eq!(entry, 0x10_0040);
    let mut probe = [0u8; 5];
    machine.phys.read(0x10_0000, &mut probe);
    assert_eq!(&probe, b"START");
}

/// The GDB stub debugging a kernel machine over the simulated serial
/// line (§3.5's "full source-level kernel debugging environment").
#[test]
fn gdb_stub_over_kernel_uart() {
    use oskit::gdb::{
        encode_packet, GdbConn, GdbStub, GdbTarget, MachineTarget, Resume, StopReason,
    };
    use oskit::machine::{Machine, Sim, TrapFrame, Uart};

    let sim = Sim::new();
    let machine = Machine::new(&sim, "debuggee", 1 << 16);
    machine.phys.write(0x3000, &[0x90, 0x90, 0xCC, 0x90]);
    let uart = Uart::new(&machine);

    // The "remote GDB" types ahead on the serial line.
    for pkt in ["?", "m3000,4", "Z0,3003,1", "c"] {
        uart.host_inject(&encode_packet(pkt));
    }

    /// The stub's connection over the UART.
    struct UartConn(Arc<Uart>);
    impl GdbConn for UartConn {
        fn getc(&mut self) -> Option<u8> {
            self.0.getc()
        }
        fn put(&mut self, bytes: &[u8]) {
            self.0.write(bytes);
        }
    }

    let mut target = MachineTarget::new(&machine, TrapFrame::at(3, 0x3002));
    {
        let mut stub = GdbStub::new(&mut target);
        let resume = stub.run(&mut UartConn(Arc::clone(&uart)), StopReason::Trap);
        assert_eq!(resume, Resume::Continue);
    }
    let tx = String::from_utf8_lossy(&uart.host_drain()).into_owned();
    assert!(tx.contains("S05"), "stop reply missing: {tx}");
    assert!(tx.contains("9090cc90"), "memory read missing: {tx}");
    assert_eq!(target.breakpoints(), vec![0x3003]);
}

type Seen = Arc<Mutex<BTreeSet<oskit::com::Guid>>>;

/// Adds to `seen` every OSKit IID `obj` answers through `query_any`,
/// besides `IUnknown` (each OSKit IID is `oskit_iid(seq)`, `seq` < 256).
fn record<T: oskit::com::IUnknown + ?Sized>(seen: &Seen, obj: &T) {
    let iids = (0..=0xff).map(oskit::com::oskit_iid);
    seen.lock()
        .unwrap()
        .extend(iids.filter(|iid| obj.query_any(iid).is_some()));
}

/// An `oskit_etherdev` between the FreeBSD stack and the Linux driver that
/// records the netio and the packets each side hands the other.
struct Tap {
    me: SelfRef<Tap>,
    inner: Arc<dyn EtherDev>,
    stack: Seen,
    driver: Seen,
}

impl EtherDev for Tap {
    fn open(&self, rx: Arc<dyn NetIo>) -> oskit::com::Result<Arc<dyn NetIo>> {
        record(&self.stack, &*rx);
        let driver = Arc::clone(&self.driver);
        let tx = self.inner.open(FnNetIo::new(move |pkt| {
            record(&driver, &*pkt);
            rx.push(pkt)
        }))?;
        record(&self.driver, &*tx);
        let stack = Arc::clone(&self.stack);
        Ok(FnNetIo::new(move |pkt| {
            record(&stack, &*pkt);
            tx.push(pkt)
        }))
    }

    fn get_addr(&self) -> EtherAddr {
        self.inner.get_addr()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

com_object!(Tap, me, [EtherDev]);

/// Figure 1 from the declarations: for each component `fig1` prints, the
/// exported interfaces are exactly the ones its live objects answer.  One
/// kernel runs the §5 sequence with a [`Tap`] between stack and driver,
/// connects to a second kernel, and mounts FFS on its IDE disk.
#[test]
fn figure_1_exports_are_what_live_objects_answer() {
    use oskit::com::component::render_structure;
    use oskit::com::interfaces::socket::{Domain, SockAddr, SockType};
    use oskit::freebsd_net::{ifconfig, open_ether_if, oskit_freebsd_net_init};
    use oskit::machine::{Nic, Sim};
    use std::net::Ipv4Addr;
    let mask = Ipv4Addr::new(255, 255, 255, 0);
    let sim = Sim::new();
    let (a, nics_a, _) = oskit::KernelBuilder::new("a")
        .nic([2, 0, 0, 0, 0, 1])
        .disk(4096)
        .boot(&sim);
    let (b, nics_b, _) = oskit::KernelBuilder::new("b")
        .nic([2, 0, 0, 0, 0, 2])
        .boot(&sim);
    Nic::connect(&nics_a[0], &nics_b[0]);
    b.init_networking(Ipv4Addr::new(10, 0, 0, 2), mask);

    // In `FIGURE_1` order: linux_ethernet, freebsd_net, linux_ide, netbsd_fs.
    let live: [Seen; 4] = Default::default();
    oskit::linux_dev::fdev_linux_init_ethernet(&a.fdev);
    let disks = a.init_disks();
    let dev = Arc::clone(&a.fdev.ethernet_devices()[0]);
    record(&live[0], &*dev);
    let tap = Tap {
        me: SelfRef::new(),
        inner: dev,
        stack: Arc::clone(&live[1]),
        driver: Arc::clone(&live[0]),
    };
    let (net, sf) = oskit_freebsd_net_init(&a.env);
    let tap: Arc<dyn EtherDev> = new_com(tap, |o| &o.me);
    ifconfig(
        &open_ether_if(&net, &tap).unwrap(),
        Ipv4Addr::new(10, 0, 0, 1),
        mask,
    );
    let seen = live.clone();
    sim.spawn("client", move || {
        // Nothing listens: ARP and SYN go out, the ARP reply and RST come in.
        let s = sf.create(Domain::Inet, SockType::Stream).unwrap();
        let _ = s.connect(SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 5001));
        record(&seen[1], &*sf);
        record(&seen[1], &*s);
        let blk = &disks[0];
        record(&seen[2], &**blk);
        FfsFileSystem::mkfs(blk).unwrap();
        let fs = FfsFileSystem::mount_on(&a.env, blk).unwrap();
        let root = fs.getroot().unwrap();
        record(&seen[3], &*fs);
        record(&seen[3], &*root);
        record(&seen[3], &*root.create("f", true, 0o644).unwrap());
    });
    sim.run();

    let rendered = render_structure(oskit::FIGURE_1);
    let mut wrong = Vec::new();
    for (desc, live) in oskit::FIGURE_1.iter().zip(&live) {
        let exported = desc.exported();
        let printed: BTreeSet<_> = exported.iter().map(|&(_, iid)| iid).collect();
        if printed != *live.lock().unwrap() {
            wrong.push(desc.name);
        }
        let names: Vec<&str> = exported.iter().map(|&(name, _)| name).collect();
        let line = format!("    exports: {}\n", names.join(", "));
        assert!(rendered.contains(&line), "{line}not in\n{rendered}");
    }
    let names: Vec<&str> = oskit::FIGURE_1.iter().map(|d| d.name).collect();
    assert_eq!(
        names,
        ["linux_ethernet", "freebsd_net", "linux_ide", "netbsd_fs"]
    );
    assert!(
        wrong.is_empty(),
        "exports differ from what answers `query`: {wrong:?}"
    );
}

/// §6.2.8 "Library Structure": the minimal C library pieces work from a
/// host thread with no kernel at all — separability at its bluntest.
#[test]
fn clib_pieces_work_standalone() {
    use oskit::clib::{vformat, MinConsole};
    // printf with only a putchar, no machine, no sim.
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = Arc::clone(&out);
    let con = MinConsole::new();
    con.set_putchar(move |c| o2.lock().unwrap().push(c));
    con.printf("pi=%d.%02d\n", oskit::clib::fargs![3, 14]);
    assert_eq!(out.lock().unwrap().as_slice(), b"pi=3.14\n");
    // And the formatter alone.
    assert_eq!(vformat("%08x", oskit::clib::fargs![0xBEEFu32]), "0000beef");
}
