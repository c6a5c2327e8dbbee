//! File system end-to-end inside the simulated kernel: the encapsulated
//! NetBSD fs over the encapsulated Linux IDE driver, with real interrupt-
//! driven disk I/O and multiple process-level threads sharing the
//! component under its lock (paper §4.7.4).

use oskit::com::interfaces::fs::{Dir, FileSystem};
use oskit::com::Query;
use oskit::machine::Sim;
use oskit::netbsd_fs::FfsFileSystem;
use oskit::KernelBuilder;
use std::sync::Arc;

#[test]
fn mkfs_mount_use_over_ide_driver() {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("fs-kernel").disk(8192).boot(&sim);
    let k = Arc::clone(&kernel);
    sim.spawn("main", move || {
        let disks = k.init_disks();
        let blkio = disks[0].clone();
        FfsFileSystem::mkfs(&blkio).expect("mkfs");
        let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("mount");
        let root = fs.getroot().unwrap();
        let f = root.create("journal.log", true, 0o644).unwrap();
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let mut off = 0;
        while off < data.len() {
            off += f.write_at(&data[off..], off as u64).unwrap();
        }
        let mut back = vec![0u8; data.len()];
        assert_eq!(f.read_at(&mut back, 0).unwrap(), data.len());
        assert_eq!(back, data);
        FileSystem::sync(&*fs).unwrap();
        assert!(fs.fsck().unwrap().is_empty());
        fs.unmount().unwrap();
    });
    sim.run();
    // The writes really reached the (simulated) platters: interrupts fired.
    assert!(kernel.machine.work().irqs > 0);
}

#[test]
fn data_survives_remount_through_the_driver() {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("remount").disk(8192).boot(&sim);
    let k = Arc::clone(&kernel);
    sim.spawn("main", move || {
        let blkio = k.init_disks()[0].clone();
        FfsFileSystem::mkfs(&blkio).expect("mkfs");
        {
            let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("mount");
            let root = fs.getroot().unwrap();
            let f = root.create("persist", true, 0o600).unwrap();
            f.write_at(b"written before unmount", 0).unwrap();
            fs.unmount().unwrap();
        }
        let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("remount");
        let root = fs.getroot().unwrap();
        let f = root.lookup("persist").unwrap();
        let mut buf = [0u8; 64];
        let n = f.read_at(&mut buf, 0).unwrap();
        assert_eq!(&buf[..n], b"written before unmount");
        assert!(fs.fsck().unwrap().is_empty());
    });
    sim.run();
}

/// Several process-level threads hammer the component concurrently; the
/// component lock serializes them and the volume stays consistent.
#[test]
fn concurrent_threads_under_the_component_lock() {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("concurrent").disk(16384).boot(&sim);
    let k = Arc::clone(&kernel);
    let fs_slot: Arc<std::sync::Mutex<Option<Arc<FfsFileSystem>>>> =
        Arc::new(std::sync::Mutex::new(None));
    let fs2 = Arc::clone(&fs_slot);
    sim.spawn("setup", move || {
        let blkio = k.init_disks()[0].clone();
        FfsFileSystem::mkfs(&blkio).expect("mkfs");
        let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("mount");
        *fs2.lock().unwrap() = Some(fs);
    });
    sim.run();
    let fs = fs_slot.lock().unwrap().clone().unwrap();

    for t in 0..4 {
        let fs = Arc::clone(&fs);
        sim.spawn(format!("writer{t}"), move || {
            let root = fs.getroot().unwrap();
            let dir = root.mkdir(&format!("dir{t}"), 0o755).unwrap();
            for i in 0..8 {
                let f = dir.create(&format!("file{i}"), true, 0o644).unwrap();
                let payload = vec![t as u8 * 16 + i as u8; 3000];
                f.write_at(&payload, 0).unwrap();
            }
        });
    }
    sim.run();

    let fs2 = Arc::clone(&fs);
    sim.spawn("verify", move || {
        let root = fs2.getroot().unwrap();
        for t in 0..4u8 {
            let dir = root
                .lookup(&format!("dir{t}"))
                .unwrap()
                .query::<dyn Dir>()
                .unwrap();
            for i in 0..8u8 {
                let f = dir.lookup(&format!("file{i}")).unwrap();
                let mut buf = vec![0u8; 3000];
                assert_eq!(f.read_at(&mut buf, 0).unwrap(), 3000);
                assert!(buf.iter().all(|&b| b == t * 16 + i));
            }
        }
        FileSystem::sync(&*fs2).unwrap();
        assert!(fs2.fsck().unwrap().is_empty(), "volume inconsistent");
    });
    sim.run();
}
