//! Cross-component integration: the separability and composition claims
//! of paper §4, exercised across crate boundaries.

use oskit::clib::malloc::{simple_heap, KMalloc};
use oskit::com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit::com::interfaces::fs::FileSystem;
use oskit::com::Query;
use oskit::diskpart::{format_mbr, ptype, read_partitions, PartitionBlkIo};
use oskit::memdebug::{MemDebug, MemStore, VecStore, Violation};
use oskit::netbsd_fs::FfsFileSystem;
use std::sync::Arc;

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

/// Figure 1: after a full kernel init, the component registry can render
/// the system structure, with donor provenance.
#[test]
fn component_registry_renders_figure_1() {
    use oskit::machine::Sim;
    use std::net::Ipv4Addr;
    let sim = Sim::new();
    let (kernel, _, _) = oskit::KernelBuilder::new("fig1")
        .nic([2, 0, 0, 0, 0, 9])
        .boot(&sim);
    kernel.init_networking(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(255, 255, 255, 0));
    let rendered = oskit::com::registry::render_structure();
    for needle in [
        "linux_ethernet",
        "encapsulated: Linux 2.0.29",
        "freebsd_net",
        "encapsulated: FreeBSD 2.1.5",
        "oskit_socket_factory",
        "oskit_etherdev",
    ] {
        assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
    }
}

/// §6.2.8 "Library Structure": the minimal C library pieces work from a
/// host thread with no kernel at all — separability at its bluntest.
#[test]
fn clib_pieces_work_standalone() {
    use oskit::clib::{vformat, MinConsole};
    use std::sync::Mutex;
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
