//! Boot-to-application paths: MultiBoot → base environment → boot-module
//! file system → program loading — the "tiny but complete kernels" of
//! paper §6.2.9.

use oskit::clib::{fargs, OpenFlags};
use oskit::machine::Sim;
use oskit::KernelBuilder;
use std::sync::Arc;

#[test]
fn twenty_line_kernel() {
    // The paper's e-mailed "twenty-line kernels": boot, greet, read a
    // module, exit.  Count the lines below — it fits.
    let sim = Sim::new();
    let (k, _, _) = KernelBuilder::new("tiny")
        .module("data", b"payload".to_vec())
        .boot(&sim);
    let k2 = Arc::clone(&k);
    sim.spawn("main", move || {
        k2.printf("tiny kernel up\n", fargs![]);
        let fd = k2.posix.open("/data", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 16];
        let n = k2.posix.read(fd, &mut buf).unwrap();
        k2.printf(
            "module says: %s\n",
            fargs![String::from_utf8_lossy(&buf[..n]).into_owned()],
        );
    });
    sim.run();
    let out = k.console_output();
    assert!(out.contains("tiny kernel up"));
    assert!(out.contains("module says: payload"));
}

#[test]
fn boot_modules_are_reserved_and_readable() {
    // §3.2: the kernel support library "automatically locates all of the
    // boot modules ... and reserves the physical memory in which they are
    // located."
    let sim = Sim::new();
    let big = vec![0xCD; 256 * 1024];
    let (k, _, _) = KernelBuilder::new("reserve")
        .module("big.img", big.clone())
        .boot(&sim);
    // The module's physical range never comes out of the allocator.
    let m = k.base.info.modules[0].clone();
    for _ in 0..500 {
        let Some(a) = k.base.phys_alloc(4096, 0) else {
            break;
        };
        assert!(
            a + 4096 <= m.start || a >= m.end,
            "allocator handed out module memory at {a:#x}"
        );
    }
    // And the bmod file system serves its contents.
    let k2 = Arc::clone(&k);
    sim.spawn("main", move || {
        let fd = k2.posix.open("/big.img", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = vec![0u8; 1024];
        let n = k2.posix.read(fd, &mut buf).unwrap();
        assert!(buf[..n].iter().all(|&b| b == 0xCD));
        let st = k2.posix.fstat(fd).unwrap();
        assert_eq!(st.size, 256 * 1024);
    });
    sim.run();
}

#[test]
fn exec_loads_an_app_from_a_boot_module() {
    // The Fluke pattern: the first user program ships as a boot module
    // and is loaded from the bmod root file system.
    use oskit::amm::{flags as amm_flags, Amm};
    use oskit::exec::{load, AmmPhysSink, ExecImage, Section};

    let app: Vec<u8> = ExecImage::build(
        0x80_0000,
        &[(
            Section {
                vaddr: 0x80_0000,
                file_off: 0,
                file_size: 4,
                mem_size: 0x2000,
                flags: oskit::exec::sflags::R | oskit::exec::sflags::X,
            },
            b"INIT".to_vec(),
        )],
    );
    let sim = Sim::new();
    let (k, _, _) = KernelBuilder::new("fluke-ish")
        .module("init", app.clone())
        .boot(&sim);
    let k2 = Arc::clone(&k);
    let entry_out = Arc::new(std::sync::Mutex::new(0u32));
    let e2 = Arc::clone(&entry_out);
    sim.spawn("main", move || {
        let fd = k2.posix.open("/init", OpenFlags::RDONLY, 0).unwrap();
        let size = k2.posix.fstat(fd).unwrap().size as usize;
        let mut image = vec![0u8; size];
        let mut got = 0;
        while got < size {
            got += k2.posix.read(fd, &mut image[got..]).unwrap();
        }
        let mut asp = Amm::new(0x40_0000, 0x100_0000, amm_flags::FREE);
        let entry = load(
            &image,
            &mut AmmPhysSink {
                amm: &mut asp,
                machine: &k2.machine,
            },
        )
        .unwrap();
        *e2.lock().unwrap() = entry;
    });
    sim.run();
    assert_eq!(*entry_out.lock().unwrap(), 0x80_0000);
    let mut probe = [0u8; 4];
    k.machine.phys.read(0x80_0000, &mut probe);
    assert_eq!(&probe, b"INIT");
}

#[test]
fn interrupts_traps_and_timer_work_after_boot() {
    // §3.2: "by default, the kernel support library automatically does
    // everything necessary to get the processor into a convenient
    // execution environment in which interrupts, traps, debugging, and
    // other standard facilities work as expected."
    use std::sync::atomic::{AtomicUsize, Ordering};
    let sim = Sim::new();
    let (k, _, _) = KernelBuilder::new("facilities").boot(&sim);
    assert!(k.machine.irq.enabled());

    let ticks = Arc::new(AtomicUsize::new(0));
    let t2 = Arc::clone(&ticks);
    k.machine.irq.install(k.base.timer.irq_line(), move |_| {
        t2.fetch_add(1, Ordering::SeqCst);
    });
    k.base.timer.arm(5_000_000);
    let k2 = Arc::clone(&k);
    sim.spawn("main", move || {
        let sl = k2.env.sleep_create();
        let _ = sl.sleep_timeout(52_000_000);
        k2.base.timer.disarm();
    });
    sim.run();
    assert_eq!(ticks.load(std::sync::atomic::Ordering::SeqCst), 10);

    // Traps: default handler is fatal for a GP fault, overridable.
    let mut frame = oskit::machine::TrapFrame::at(oskit::machine::trap::vectors::GP_FAULT, 0);
    assert_eq!(
        k.base.traps.deliver(&mut frame),
        oskit::kern::DefaultAction::Fatal
    );
}
