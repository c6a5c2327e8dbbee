//! Quickstart: the paper's "Hello World kernel is as simple as an ordinary
//! 'Hello World' application in C" claim (§3.2), then a short tour of the
//! base environment a freshly booted kernel gets for free.
//!
//! Run with: `cargo run --example quickstart`

use oskit::clib::fargs;
use oskit::machine::Sim;
use oskit::{Kernel, KernelBuilder};
use std::sync::Arc;

fn main() {
    let sim = Sim::new();

    // Boot a kernel with one boot module and a command line, exactly what
    // a MultiBoot loader would hand us.
    let (kernel, _nics, _disks) = KernelBuilder::new("quickstart")
        .cmdline("quickstart --banner")
        .module("motd.txt", b"Welcome to the OSKit reproduction.\n".to_vec())
        .boot(&sim);

    // Mirror the simulated serial console to the real terminal.
    kernel.base.uart.set_echo_to_host(true);

    let k: Arc<Kernel> = Arc::clone(&kernel);
    sim.spawn("main", move || kernel_main(&k));
    sim.run();
}

/// The client OS's `main`, "in the standard C style" — everything below
/// runs inside the simulated kernel.
fn kernel_main(k: &Kernel) {
    // 1. The headline: printf works out of the box, because the minimal C
    //    library's printf → puts → putchar chain was given a putchar.
    k.printf("Hello, World!\n", fargs![]);

    // 2. The boot loader's gifts: command-line arguments...
    k.printf("booted with %d args:", fargs![k.base.args.len()]);
    for a in &k.base.args {
        k.printf(" %s", fargs![a.as_str()]);
    }
    k.printf("\n", fargs![]);

    // ...and boot modules, visible as files through POSIX open/read
    // (§6.2.2's bmod file system).
    let fd = k
        .posix
        .open("/motd.txt", oskit::clib::OpenFlags::RDONLY, 0)
        .expect("boot module should be a file");
    let mut buf = [0u8; 128];
    let n = k.posix.read(fd, &mut buf).expect("read");
    k.printf(
        "motd.txt: %s",
        fargs![String::from_utf8_lossy(&buf[..n]).into_owned()],
    );
    k.posix.close(fd).expect("close");

    // 3. Physical memory through the LMM, with PC memory types: a
    //    DMA-reachable buffer for a would-be ISA device.
    let dma_buf = k
        .base
        .phys_alloc(4096, oskit::kern::memflags::M_16MB)
        .expect("DMA memory");
    k.printf(
        "allocated a DMA-safe page at phys %p\n",
        &[oskit::clib::Arg::Ptr(u64::from(dma_buf))],
    );
    k.base.phys_free(dma_buf, 4096);

    // 4. Real x86 page tables on simulated physical memory (§3.2's kernel
    //    support library, implementation exposed).
    let pt_region = k.base.phys_alloc(64 * 1024, 0).expect("page tables");
    let mut frames = oskit::kern::BumpFrames::new(pt_region, pt_region + 64 * 1024);
    let pdir = oskit::kern::PageDir::new(&k.machine.phys, &mut frames).expect("pdir");
    pdir.map_range(
        &k.machine.phys,
        &mut frames,
        0xC000_0000,
        0x0010_0000,
        0x4000,
        oskit::kern::MapFlags::KERNEL_RW,
    );
    let xlated = pdir
        .translate(&k.machine.phys, 0xC000_2ABC)
        .expect("mapped");
    k.printf(
        "virtual 0xC0002ABC -> phys %p\n",
        &[oskit::clib::Arg::Ptr(u64::from(xlated))],
    );

    // 5. The trap table with overridable handlers (§6.2.4): catch a
    //    divide-by-zero the way Java/PC caught null pointers.
    k.base
        .traps
        .install(oskit::machine::trap::vectors::DIVIDE, |frame| {
            frame.eip += 2; // Skip the faulting instruction.
            oskit::machine::TrapDisposition::Handled
        });
    let mut frame = oskit::machine::TrapFrame::at(oskit::machine::trap::vectors::DIVIDE, 0x1000);
    let action = k.base.traps.deliver(&mut frame);
    k.printf(
        "divide trap handled: %s (resumed at eip=%x)\n",
        fargs![
            if action == oskit::kern::DefaultAction::Continued {
                "yes"
            } else {
                "no"
            },
            frame.eip
        ],
    );

    k.printf("quickstart done.\n", fargs![]);
}
