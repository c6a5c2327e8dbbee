//! Property tests for the transmit glue's three dispatch modes.
//!
//! A random payload, fragmented into a random mbuf chain, goes through
//! the Linux ether glue as a foreign bufio under each driver mode —
//! copy ladder (default driver, discontiguous chain), fake-mapped
//! (default driver, contiguous packet), and scatter-gather
//! (`NETIF_F_SG` driver).  In every mode the bytes on the wire must
//! equal the payload exactly, and the sender's work meter must show the
//! mode's signature: one copy, no copies, or one gather respectively.

use oskit::com::interfaces::blkio::{bufio_to_vec, BlkIo, BufIo, VecBufIo};
use oskit::com::interfaces::netio::{EtherDev, FnNetIo, NetIo};
use oskit::com::{com_object, new_com, SelfRef};
use oskit::freebsd_net::bsd::mbuf::{Mbuf, MbufChain, MCLBYTES, MLEN};
use oskit::freebsd_net::glue::bufio::MbufBufIo;
use oskit::linux_dev::{LinuxEtherDev, NetDevice, NETIF_F_SG};
use oskit::machine::{Machine, Nic, Sim, SleepRecord, WorkSnapshot};
use oskit::osenv::OsEnv;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// An Ethernet frame addressed from machine a to machine b.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = vec![0u8; 14 + payload.len()];
    f[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
    f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
    f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    f[14..].copy_from_slice(payload);
    f
}

/// Fragments `data` into an mbuf chain at positions chosen by `cuts`,
/// mixing small mbufs and clusters (same scheme as the mbuf model
/// tests).
fn build_chain(data: &[u8], cuts: &[usize]) -> MbufChain {
    let mut chain = MbufChain::new();
    let mut at = 0;
    let mut cuts = cuts.to_vec();
    cuts.sort_unstable();
    for &cut in &cuts {
        let cut = cut % (data.len() + 1);
        if cut <= at {
            continue;
        }
        push_frag(&mut chain, &data[at..cut]);
        at = cut;
    }
    if at < data.len() {
        push_frag(&mut chain, &data[at..]);
    }
    chain
}

fn push_frag(chain: &mut MbufChain, mut frag: &[u8]) {
    while !frag.is_empty() {
        let n = frag.len().min(MCLBYTES);
        if n <= MLEN / 2 {
            chain.m_cat(MbufChain::from_mbuf(Mbuf::small(&frag[..n], 4)));
        } else {
            chain.m_cat(MbufChain::from_mbuf(Mbuf::cluster(&frag[..n])));
        }
        frag = &frag[n..];
    }
}

/// Boots a two-machine rig, transmits the packet `mk` builds through
/// machine a's ether glue, and returns (frames received by machine b,
/// machine a's work meter).
fn transmit(
    sg_driver: bool,
    mk: impl FnOnce() -> Arc<dyn BufIo> + Send + 'static,
) -> (Vec<Vec<u8>>, WorkSnapshot) {
    let sim = Sim::new();
    let ma = Machine::new(&sim, "a", 1 << 20);
    let mb = Machine::new(&sim, "b", 1 << 20);
    let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
    let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
    Nic::connect(&na, &nb);
    let ea = OsEnv::new(&ma);
    let eb = OsEnv::new(&mb);
    let da = NetDevice::new("eth0", &ea, na);
    if sg_driver {
        da.set_features(NETIF_F_SG);
    }
    let db = NetDevice::new("eth0", &eb, nb);
    let ca = LinuxEtherDev::new(&ea, &da);
    let cb = LinuxEtherDev::new(&eb, &db);
    let got = Arc::new(Mutex::new(Vec::new()));
    let g2 = Arc::clone(&got);
    let _tx_b = cb
        .open(FnNetIo::new(move |pkt| {
            g2.lock().unwrap().push(bufio_to_vec(&*pkt)?);
            Ok(())
        }) as Arc<dyn NetIo>)
        .unwrap();
    let tx_a = ca.open(FnNetIo::new(|_| Ok(())) as Arc<dyn NetIo>).unwrap();
    ma.irq.enable();
    mb.irq.enable();
    let s2 = Arc::clone(&sim);
    sim.spawn("tx", move || {
        tx_a.push(mk()).unwrap();
        let rec = Arc::new(SleepRecord::new());
        let _ = rec.wait_timeout(&s2, 10_000_000);
    });
    sim.run();
    let frames = got.lock().unwrap().clone();
    (frames, ma.work())
}

proptest! {
    /// Copy mode: default driver, mbuf chain.  Wire bytes equal the
    /// payload; a discontiguous chain costs exactly one copy of the
    /// whole frame, a chain that happens to be contiguous maps for
    /// free — and nothing ever gathers.
    #[test]
    fn copy_mode_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 47..1400),
        cuts in proptest::collection::vec(0usize..1500, 0..5),
    ) {
        let f = frame(&payload);
        let chain = build_chain(&f, &cuts);
        let contiguous = chain.is_contiguous();
        let (frames, m) = transmit(false, move || MbufBufIo::new(chain) as Arc<dyn BufIo>);
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &f);
        prop_assert_eq!(m.gathers, 0);
        prop_assert_eq!(m.bytes_gathered, 0);
        if contiguous {
            prop_assert_eq!(m.copies, 0);
            prop_assert_eq!(m.bytes_copied, 0);
        } else {
            prop_assert_eq!(m.copies, 1);
            prop_assert_eq!(m.bytes_copied, f.len() as u64);
        }
    }

    /// Fake-mapped mode: default driver, contiguous foreign packet.
    /// The probe mapping is the transmit mapping — zero copies, zero
    /// gathers, bytes intact.
    #[test]
    fn fake_mapped_mode_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 47..1400),
    ) {
        let f = frame(&payload);
        let f2 = f.clone();
        let (frames, m) = transmit(false, move || VecBufIo::from_vec(f2) as Arc<dyn BufIo>);
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &f);
        prop_assert_eq!(m.copies, 0);
        prop_assert_eq!(m.bytes_copied, 0);
        prop_assert_eq!(m.gathers, 0);
    }

    /// SG mode: `NETIF_F_SG` driver, mbuf chain.  However the chain is
    /// fragmented, the frame goes down as one gather of the whole
    /// frame and zero copies.
    #[test]
    fn sg_mode_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 47..1400),
        cuts in proptest::collection::vec(0usize..1500, 0..5),
    ) {
        let f = frame(&payload);
        let chain = build_chain(&f, &cuts);
        let (frames, m) = transmit(true, move || MbufBufIo::new(chain) as Arc<dyn BufIo>);
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &f);
        prop_assert_eq!(m.copies, 0);
        prop_assert_eq!(m.bytes_copied, 0);
        prop_assert_eq!(m.gathers, 1);
        prop_assert_eq!(m.bytes_gathered, f.len() as u64);
    }

    /// SG driver, externally-backed chain whose storage *is* mappable
    /// (the sendfile case: a lent buffer-cache page): the external mbuf
    /// contributes its bytes through `with_map`, so the whole frame
    /// still goes down as one gather with zero copies.
    #[test]
    fn sg_mode_gathers_mappable_external_storage(
        payload in proptest::collection::vec(any::<u8>(), 47..1400),
        split in 1usize..1400,
    ) {
        let f = frame(&payload);
        let split = 14 + split % payload.len();
        let head = f[..split].to_vec();
        let tail = f[split..].to_vec();
        let (frames, m) = transmit(true, move || {
            let mut chain = MbufChain::from_mbuf(Mbuf::cluster(&head));
            let foreign = VecBufIo::from_vec(tail.clone()) as Arc<dyn BufIo>;
            chain.m_cat(MbufChain::from_mbuf(Mbuf::ext(foreign, 0, tail.len())));
            MbufBufIo::new(chain) as Arc<dyn BufIo>
        });
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &f);
        prop_assert_eq!(m.copies, 0);
        prop_assert_eq!(m.bytes_copied, 0);
        prop_assert_eq!(m.gathers, 1);
        prop_assert_eq!(m.bytes_gathered, f.len() as u64);
    }

    /// SG driver, externally-backed chain whose storage *refuses* to map
    /// (device- or remote-resident bytes): the gather declines, so the
    /// glue falls back to the paper's copy ladder instead of failing.
    #[test]
    fn sg_mode_falls_back_to_copy_for_external_storage(
        payload in proptest::collection::vec(any::<u8>(), 47..1400),
        split in 1usize..1400,
    ) {
        let f = frame(&payload);
        let split = 14 + split % payload.len();
        let head = f[..split].to_vec();
        let tail = f[split..].to_vec();
        let (frames, m) = transmit(true, move || {
            let mut chain = MbufChain::from_mbuf(Mbuf::cluster(&head));
            let n = tail.len();
            let foreign = DeviceResident::wrap(tail) as Arc<dyn BufIo>;
            chain.m_cat(MbufChain::from_mbuf(Mbuf::ext(foreign, 0, n)));
            MbufBufIo::new(chain) as Arc<dyn BufIo>
        });
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &f);
        prop_assert_eq!(m.gathers, 0);
        prop_assert_eq!(m.copies, 1);
        prop_assert_eq!(m.bytes_copied, f.len() as u64);
    }
}

/// A buffer whose bytes are not in local memory — a device- or
/// remote-resident object that serves `read` but declines `with_map`,
/// forcing the SG glue onto its copy-ladder fallback.
struct DeviceResident {
    me: SelfRef<DeviceResident>,
    data: Vec<u8>,
}

impl DeviceResident {
    fn wrap(data: Vec<u8>) -> Arc<dyn BufIo> {
        new_com(
            DeviceResident {
                me: SelfRef::new(),
                data,
            },
            |o| &o.me,
        )
    }
}

impl BlkIo for DeviceResident {
    fn get_block_size(&self) -> usize {
        1
    }
    fn read(&self, buf: &mut [u8], offset: u64) -> oskit::com::Result<usize> {
        let off = offset as usize;
        let n = buf.len().min(self.data.len().saturating_sub(off));
        buf[..n].copy_from_slice(&self.data[off..off + n]);
        Ok(n)
    }
    fn write(&self, _buf: &[u8], _offset: u64) -> oskit::com::Result<usize> {
        Err(oskit::com::Error::NotImpl)
    }
    fn get_size(&self) -> oskit::com::Result<u64> {
        Ok(self.data.len() as u64)
    }
}

impl BufIo for DeviceResident {
    fn with_map(
        &self,
        _offset: usize,
        _len: usize,
        _f: &mut dyn FnMut(&[u8]),
    ) -> oskit::com::Result<()> {
        Err(oskit::com::Error::NotImpl)
    }
    fn with_map_mut(
        &self,
        _offset: usize,
        _len: usize,
        _f: &mut dyn FnMut(&mut [u8]),
    ) -> oskit::com::Result<()> {
        Err(oskit::com::Error::NotImpl)
    }
}

com_object!(DeviceResident, me, [BufIo]);
