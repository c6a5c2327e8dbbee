//! File system throughput on a RAM device: raw core ops plus the COM-glue
//! path, quantifying the §5 observation that glue costs are per-call.

use criterion::{criterion_group, criterion_main, Criterion};
use oskit::com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit::com::interfaces::fs::FileSystem;
use oskit::netbsd_fs::{FfsFileSystem, FsCore, BLOCK_SIZE};
use std::sync::Arc;

fn fresh_dev() -> Arc<dyn BlkIo> {
    let dev = VecBufIo::with_len(1024 * BLOCK_SIZE) as Arc<dyn BlkIo>;
    FsCore::mkfs(&dev).unwrap();
    dev
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ffs");
    g.sample_size(20);

    g.bench_function("write_read_64k_core", |b| {
        let dev = fresh_dev();
        let fs = FsCore::mount(&dev).unwrap();
        let ino = fs
            .ialloc(oskit::netbsd_fs::ffs::ondisk::mode::IFREG | 0o644)
            .unwrap();
        let data = vec![0x5Au8; 65536];
        let mut back = vec![0u8; 65536];
        b.iter(|| {
            fs.file_write(ino, &data, 0).unwrap();
            fs.file_read(ino, &mut back, 0).unwrap();
        })
    });

    g.bench_function("write_read_64k_com_glue", |b| {
        let dev = fresh_dev();
        let fs = FfsFileSystem::mount_ram(&dev).unwrap();
        let root = fs.getroot().unwrap();
        let f = root.create("bench", true, 0o644).unwrap();
        let data = vec![0x5Au8; 65536];
        let mut back = vec![0u8; 65536];
        b.iter(|| {
            f.write_at(&data, 0).unwrap();
            f.read_at(&mut back, 0).unwrap();
        })
    });

    g.bench_function("create_unlink", |b| {
        let dev = fresh_dev();
        let fs = FfsFileSystem::mount_ram(&dev).unwrap();
        let root = fs.getroot().unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let name = format!("f{i}");
            i += 1;
            root.create(&name, true, 0o644).unwrap();
            root.unlink(&name).unwrap();
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
