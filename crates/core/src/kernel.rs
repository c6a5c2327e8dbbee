//! The kernel builder: the "twenty-line kernel" experience (paper §6.2.9).
//!
//! "These tiny (in source) but complete kernels were enabled by many
//! features of the OSKit, all working together: the bootstrap/kernel
//! support, the POSIX environment, the boot modules, and the component
//! separability."
//!
//! [`KernelBuilder`] stands a machine up, boots a MultiBoot image on it,
//! initializes the base environment, probes drivers, and wires the POSIX
//! layer — leaving the client exactly the "main function in the standard C
//! style" the paper promises.

use oskit_boot::loader::{load, make_image, BootModule};
use oskit_boot::BmodFs;
use oskit_clib::{Clock, MinConsole, PosixIo};
use oskit_com::interfaces::fs::FileSystem;
use oskit_com::interfaces::netio::EtherDev;
use oskit_com::interfaces::socket::SocketFactory;
use oskit_com::interfaces::stream::Stream;
use oskit_com::Query;
use oskit_fdev::{Bus, DeviceRegistry};
use oskit_freebsd_net::BsdNet;
use oskit_kern::{BaseEnv, Console, LmmOsenvMem};
use oskit_machine::{Disk, Machine, Nic, Sim};
use oskit_osenv::OsEnv;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A booted kernel: everything the base environment set up.
pub struct Kernel {
    /// The simulation.
    pub sim: Arc<Sim>,
    /// The machine we run on.
    pub machine: Arc<Machine>,
    /// The osenv handed to encapsulated components (LMM-backed memory).
    pub env: Arc<OsEnv>,
    /// The kernel support library's base environment.
    pub base: Arc<BaseEnv>,
    /// The device registry after probing.
    pub fdev: DeviceRegistry,
    /// The hardware bus.
    pub bus: Bus,
    /// The minimal C library console (printf chain wired to the UART).
    pub console: Arc<MinConsole>,
    /// The POSIX environment (stdio on fds 0-2; bmod root mounted).
    pub posix: Arc<PosixIo>,
    /// The clock (source: this machine's CPU time).
    pub clock: Arc<Clock>,
    /// The boot-module RAM-disk file system.
    pub bmod: Arc<BmodFs>,
}

/// Builds a [`Kernel`].
pub struct KernelBuilder {
    name: String,
    mem: usize,
    nic_macs: Vec<[u8; 6]>,
    disk_sectors: Vec<usize>,
    modules: Vec<BootModule>,
    cmdline: String,
}

impl KernelBuilder {
    /// Starts a kernel description.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            mem: 32 * 1024 * 1024,
            nic_macs: Vec::new(),
            disk_sectors: Vec::new(),
            modules: Vec::new(),
            cmdline: String::new(),
        }
    }

    /// Sets RAM size (default 32 MB).
    pub fn mem(mut self, bytes: usize) -> Self {
        self.mem = bytes;
        self
    }

    /// Adds an Ethernet NIC.
    pub fn nic(mut self, mac: [u8; 6]) -> Self {
        self.nic_macs.push(mac);
        self
    }

    /// Adds a disk of `sectors` 512-byte sectors.
    pub fn disk(mut self, sectors: usize) -> Self {
        self.disk_sectors.push(sectors);
        self
    }

    /// Adds a boot module.
    pub fn module(mut self, string: impl Into<String>, data: Vec<u8>) -> Self {
        self.modules.push(BootModule::new(string, data));
        self
    }

    /// Sets the kernel command line.
    pub fn cmdline(mut self, s: impl Into<String>) -> Self {
        self.cmdline = s.into();
        self
    }

    /// Boots: returns the kernel plus the raw hardware handles (for wiring
    /// NICs together across machines).
    pub fn boot(self, sim: &Arc<Sim>) -> (Arc<Kernel>, Vec<Arc<Nic>>, Vec<Arc<Disk>>) {
        let machine = Machine::new(sim, self.name, self.mem);
        // Hardware.
        let nics: Vec<Arc<Nic>> = self
            .nic_macs
            .iter()
            .map(|&mac| Nic::new(&machine, mac))
            .collect();
        let disks: Vec<Arc<Disk>> = self
            .disk_sectors
            .iter()
            .map(|&s| Disk::new(&machine, s))
            .collect();

        // Boot loader: a minimal image whose payload is unused; what
        // matters is the MultiBoot info and module placement.
        let image = make_image(0x100000, &[0u8; 64]);
        let loaded =
            load(&machine, &image, &self.cmdline, &self.modules).expect("kernel image load failed");
        let base = BaseEnv::init(&machine, &loaded);

        // The osenv for encapsulated components, with the client override
        // of §4.2.1: memory comes from the base environment's LMM.
        let env = OsEnv::new(&machine);
        env.set_mem_allocator(Box::new(LmmOsenvMem::new(&base)));

        // Device framework.
        let bus = Bus::new(nics.clone(), disks.clone());
        let fdev = DeviceRegistry::new();

        // Minimal C library console → the kernel console device.
        let console = Arc::new(MinConsole::new());
        let kcons: Arc<Console> = Arc::clone(&base.console);
        console.set_putchar(move |c| kcons.putchar(c));

        // POSIX: boot-module fs as root, console as stdio.
        let posix = PosixIo::new();
        let bmod = BmodFs::from_boot_modules(&machine, &base.info);
        posix.set_root(bmod.getroot().expect("bmod root"));
        let cons_stream: Arc<dyn Stream> =
            base.console.query::<dyn Stream>().expect("console stream");
        posix.install_stream(0, Arc::clone(&cons_stream));
        posix.install_stream(1, Arc::clone(&cons_stream));
        posix.install_stream(2, cons_stream);

        // Clock from this machine's CPU time (the getrusage of §5).
        let clock = Arc::new(Clock::new());
        let m2 = Arc::clone(&machine);
        clock.set_source(move || m2.cpu_now());

        let kernel = Arc::new(Kernel {
            sim: Arc::clone(sim),
            machine,
            env,
            base,
            fdev,
            bus,
            console,
            posix,
            clock,
            bmod,
        });
        (kernel, nics, disks)
    }
}

impl Kernel {
    /// The §5 initialization sequence, verbatim: registers the Linux
    /// Ethernet drivers, probes, opens the first Ethernet device with the
    /// FreeBSD stack, configures the interface, and registers the socket
    /// factory with the C library.
    ///
    /// ```c
    /// fdev_linux_init_ethernet();
    /// fdev_probe();
    /// oskit_freebsd_net_init(&sf);
    /// posix_set_socketcreator(sf);
    /// fdev_device_lookup(&fdev_ethernet_iid, &dev);
    /// oskit_freebsd_net_open_ether_if(dev[0], &eif);
    /// oskit_freebsd_net_ifconfig(eif, IPADDR, NETMASK);
    /// ```
    pub fn init_networking(&self, ip: Ipv4Addr, mask: Ipv4Addr) -> Arc<BsdNet> {
        oskit_linux_dev::fdev_linux_init_ethernet(&self.fdev);
        self.fdev.probe(&self.env, &self.bus);
        let (net, sf) = oskit_freebsd_net::oskit_freebsd_net_init(&self.env);
        self.posix
            .set_socket_creator(Arc::clone(&sf) as Arc<dyn SocketFactory>);
        let devs = self.fdev.ethernet_devices();
        let dev: &Arc<dyn EtherDev> = devs.first().expect("no ethernet device");
        let eif = oskit_freebsd_net::open_ether_if(&net, dev).expect("open_ether_if");
        oskit_freebsd_net::ifconfig(&eif, ip, mask);
        net
    }

    /// Registers the Linux IDE drivers and probes, returning the block
    /// devices.
    pub fn init_disks(&self) -> Vec<Arc<dyn oskit_com::interfaces::blkio::BlkIo>> {
        oskit_linux_dev::fdev_linux_init_ide(&self.fdev);
        self.fdev.probe(&self.env, &self.bus);
        self.fdev.block_devices()
    }

    /// `printf` through the minimal C library chain.
    pub fn printf(&self, fmt: &str, args: &[oskit_clib::Arg]) {
        self.console.printf(fmt, args);
    }

    /// Everything written to the console so far (host side).
    pub fn console_output(&self) -> String {
        String::from_utf8_lossy(&self.base.uart.host_peek()).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_clib::fargs;

    #[test]
    fn hello_world_kernel_is_tiny() {
        // Paper §3.2: "using the OSKit, a 'Hello World' kernel is as
        // simple as an ordinary 'Hello World' application in C."
        let sim = Sim::new();
        let (kernel, _, _) = KernelBuilder::new("hello").boot(&sim);
        let k = Arc::clone(&kernel);
        sim.spawn("main", move || {
            k.printf("Hello, World!\n", fargs![]);
        });
        sim.run();
        assert!(kernel.console_output().contains("Hello, World!"));
    }

    #[test]
    fn cmdline_becomes_args() {
        let sim = Sim::new();
        let (kernel, _, _) = KernelBuilder::new("argv")
            .cmdline("kernel -v --color=auto")
            .boot(&sim);
        assert_eq!(kernel.base.args, ["kernel", "-v", "--color=auto"]);
    }

    #[test]
    fn boot_modules_appear_in_posix_root() {
        let sim = Sim::new();
        let (kernel, _, _) = KernelBuilder::new("bmod")
            .module("config.txt", b"option=1\n".to_vec())
            .boot(&sim);
        let fd = kernel
            .posix
            .open("/config.txt", oskit_clib::OpenFlags::RDONLY, 0)
            .unwrap();
        let mut buf = [0u8; 32];
        let n = kernel.posix.read(fd, &mut buf).unwrap();
        assert_eq!(&buf[..n], b"option=1\n");
    }

    #[test]
    fn stdio_reaches_the_console() {
        let sim = Sim::new();
        let (kernel, _, _) = KernelBuilder::new("stdio").boot(&sim);
        kernel.posix.write(1, b"to stdout\n").unwrap();
        assert!(kernel.console_output().contains("to stdout"));
    }

    #[test]
    fn networking_end_to_end_through_posix_sockets() {
        // Two kernels, one wire, the §5 init on both, ttcp-style bytes
        // through the POSIX socket API.
        use oskit_com::interfaces::socket::{Domain, SockAddr, SockType};
        let sim = Sim::new();
        let (ka, nics_a, _) = KernelBuilder::new("a").nic([2, 0, 0, 0, 0, 1]).boot(&sim);
        let (kb, nics_b, _) = KernelBuilder::new("b").nic([2, 0, 0, 0, 0, 2]).boot(&sim);
        Nic::connect(&nics_a[0], &nics_b[0]);
        ka.init_networking(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(255, 255, 255, 0));
        kb.init_networking(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(255, 255, 255, 0));

        let server = Arc::clone(&kb);
        sim.spawn("server", move || {
            let p = &server.posix;
            let fd = p.socket(Domain::Inet, SockType::Stream).unwrap();
            p.bind(fd, SockAddr::any(5001)).unwrap();
            p.listen(fd, 5).unwrap();
            let (conn, peer) = p.accept(fd).unwrap();
            assert_eq!(peer.addr, Ipv4Addr::new(10, 0, 0, 1));
            let mut buf = [0u8; 4096];
            let mut total = 0;
            loop {
                let n = p.recv(conn, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                total += n;
            }
            assert_eq!(total, 50_000);
            p.shutdown(conn, oskit_com::interfaces::socket::Shutdown::Write)
                .unwrap();
        });
        let client = Arc::clone(&ka);
        sim.spawn("client", move || {
            let p = &client.posix;
            let fd = p.socket(Domain::Inet, SockType::Stream).unwrap();
            p.connect(fd, SockAddr::new(Ipv4Addr::new(10, 0, 0, 2), 5001))
                .unwrap();
            let chunk = [7u8; 5000];
            for _ in 0..10 {
                let mut sent = 0;
                while sent < chunk.len() {
                    sent += p.send(fd, &chunk[sent..]).unwrap();
                }
            }
            p.shutdown(fd, oskit_com::interfaces::socket::Shutdown::Write)
                .unwrap();
            let mut b = [0u8; 64];
            while p.recv(fd, &mut b).unwrap() != 0 {}
        });
        sim.run();
    }
}
