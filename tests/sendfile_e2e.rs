//! Zero-copy sendfile, end to end: FFS on an IDE disk through the shared
//! buffer cache, out through the FreeBSD TCP stack and the SG-capable
//! Linux driver, to a byte-verifying client — with the trace layer
//! asserting that not one payload byte was copied at the fs→socket or
//! driver→wire seam.  From a cold cache the disk→cache seam copies
//! nothing either: whole-sector requests land in the cache pages.
//!
//! The interface-discovery contract is exercised from both ends: when
//! the file exports `oskit_file_bufio` and the socket `oskit_socket_
//! send_bufio`, pinned cache pages ride as external mbufs; when either
//! side lacks its half, `File::send_on` silently degrades to the
//! read/write bounce loop and the bytes still arrive intact.

use oskit::com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit::com::interfaces::fs::{FileBufIo, FileSystem};
use oskit::com::interfaces::socket::SendBufIo;
use oskit::com::interfaces::stream::Stream;
use oskit::com::{com_object, new_com, Query, Result, SelfRef};
use oskit::netbsd_fs::FfsFileSystem;
use oskit::{fileserve_run, ServeMode};
use parking_lot::Mutex;
use std::sync::Arc;

#[test]
fn sendfile_copies_zero_bytes_at_every_glue_seam() {
    let r = fileserve_run(ServeMode::Sendfile, 512);
    // The harness's client asserted every byte of the payload, so a pass
    // here already proves the lent pages carried the right data.
    assert_eq!(r.bytes, 512 * 1024);
    assert!(r.elapsed_ns > 0);

    // The cache was pre-warmed and large enough: the transfer itself
    // never touched the disk, and the pages it lent were all hits.
    let work = r.server.total();
    assert_eq!(work.cache_misses, 0, "warm cache missed");
    assert!(work.cache_hits > 0, "sendfile bypassed the cache");
    assert_eq!(work.cache_evictions, 0, "cache thrashed");

    // Aggregate shape: the payload moved as gathers, not copies.  (The
    // few copied bytes are metadata sync, not payload: far below one
    // payload's worth.)
    assert!(work.bytes_gathered >= r.bytes, "payload was not gathered");
    assert!(
        work.bytes_copied < r.bytes / 8,
        "sendfile copied {} of {} bytes",
        work.bytes_copied,
        r.bytes
    );

    // The headline claim, pinned to the exact seams: zero bytes
    // copied where the file hands pages to the socket, and zero
    // where the driver hands fragments to the wire.
    let sockbuf = r.server.get("freebsd-net", "sockbuf").expect("sockbuf row");
    assert_eq!(sockbuf.bytes_copied, 0, "uiomove ran on the sendfile path");
    assert!(sockbuf.bytes_gathered >= r.bytes);
    let tx = r.server.get("linux-dev", "ether_tx").expect("ether_tx row");
    assert_eq!(tx.bytes_copied, 0, "driver flattened the fragments");
    assert!(tx.gathers > 0, "driver never gathered");
    // And the cache→caller copy-out seam never ran at all.
    if let Some(fsr) = r.server.get("netbsd-fs", "fs_read") {
        assert_eq!(fsr.bytes_copied, 0, "read_at bounce ran during sendfile");
    }
}

/// Platter to wire with no CPU copy: on a cold cache, `send_on` fills
/// each cache page by a whole-sector disk request, which lands in the
/// page itself, and then lends the page to the wire.
#[test]
fn cold_sendfile_moves_platter_to_wire_with_no_cpu_copy() {
    let r = fileserve_run(ServeMode::ColdSendfile, 512);
    // The harness's client byte-verified the payload.
    assert_eq!(r.bytes, 512 * 1024);
    assert!(r.server.total().cache_misses > 0, "the cache was not cold");
    let blk_read = r.server.get("linux-dev", "blk_read").expect("blk_read row");
    assert!(blk_read.crossings > 0, "the disk was never read");
    for (component, name) in [
        ("linux-dev", "blk_read"),
        ("netbsd-fs", "fs_read"),
        ("freebsd-net", "sockbuf"),
        ("linux-dev", "ether_tx"),
    ] {
        let copied = r.server.get(component, name).map_or(0, |b| b.bytes_copied);
        assert_eq!(copied, 0, "{component}::{name} copied {copied} bytes");
    }
}

#[test]
fn copying_modes_pay_the_copies_sendfile_avoids() {
    let r = fileserve_run(ServeMode::WarmCopy, 512);
    assert_eq!(r.bytes, 512 * 1024);
    // read_at pays cache→caller, send pays caller→mbuf, the non-SG
    // driver pays mbuf→wire: every payload byte at least twice (the
    // wire copy is charged on the ether seam of the same machine).
    let work = r.server.total();
    assert!(
        work.bytes_copied >= 2 * r.bytes,
        "copy mode only copied {} of 2x{} bytes",
        work.bytes_copied,
        r.bytes
    );
    assert_eq!(work.cache_misses, 0, "warm cache missed");
    for seam in [("netbsd-fs", "fs_read"), ("freebsd-net", "sockbuf")] {
        let b = r.server.get(seam.0, seam.1).expect("seam row");
        assert!(
            b.bytes_copied >= r.bytes,
            "{}::{} copied only {} bytes",
            seam.0,
            seam.1,
            b.bytes_copied
        );
    }
}

/// A byte sink that offers only `oskit_stream` — deliberately *not*
/// `oskit_socket_send_bufio` — so `send_on` must take the bounce path.
struct SinkStream {
    me: SelfRef<SinkStream>,
    got: Mutex<Vec<u8>>,
}

impl SinkStream {
    fn new() -> Arc<SinkStream> {
        new_com(
            SinkStream {
                me: SelfRef::new(),
                got: Mutex::new(Vec::new()),
            },
            |o| &o.me,
        )
    }
}

impl Stream for SinkStream {
    fn read(&self, _buf: &mut [u8]) -> Result<usize> {
        Ok(0)
    }

    fn write(&self, buf: &[u8]) -> Result<usize> {
        self.got.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
}

com_object!(SinkStream, me, [Stream]);

#[test]
fn send_on_falls_back_to_copying_when_the_sink_cannot_take_pages() {
    let dev = VecBufIo::with_len(2 * 1024 * 1024) as Arc<dyn BlkIo>;
    FfsFileSystem::mkfs(&dev).unwrap();
    let fs = FfsFileSystem::mount_ram(&dev).unwrap();
    let root = fs.getroot().unwrap();
    let f = root.create("payload", true, 0o644).unwrap();
    let data: Vec<u8> = (0..100_000).map(|i| (i % 253) as u8).collect();
    let mut off = 0;
    while off < data.len() {
        off += f.write_at(&data[off..], off as u64).unwrap();
    }

    // The file side of the zero-copy pact is present...
    assert!(
        f.query::<dyn FileBufIo>().is_some(),
        "FFS file lost FileBufIo"
    );
    let sink = SinkStream::new();
    // ...but the sink's is not, so discovery must choose the bounce leg.
    assert!(sink.query::<dyn SendBufIo>().is_none());

    let sent = f.send_on(&*sink, 0, u64::MAX).unwrap();
    assert_eq!(sent, data.len() as u64);
    assert_eq!(*sink.got.lock(), data, "fallback corrupted the payload");

    // Windowed resume: an interior range lands exactly, too.
    let sink2 = SinkStream::new();
    assert_eq!(f.send_on(&*sink2, 12_345, 4_321).unwrap(), 4_321);
    assert_eq!(*sink2.got.lock(), data[12_345..12_345 + 4_321]);

    // Past end-of-file: a clean zero, not an error.
    assert_eq!(f.send_on(&*SinkStream::new(), 1 << 30, 10).unwrap(), 0);
}
