//! The Ethernet glue: skbuff ↔ bufio (paper §4.7.3).
//!
//! Receive: "the Linux glue code can export the skbuff directly as a COM
//! bufio object without copying the data, merely by adding a bufio
//! interface to the skbuff structure itself."
//!
//! Transmit: "the Linux glue code can easily recognize 'foreign' bufio
//! objects ...; when it receives one, it first calls its map method to
//! obtain a direct pointer to the data ...  If it does, the Linux glue
//! code creates a 'fake' skbuff pointing directly to this data.
//! Otherwise, the glue code allocates a normal skbuff and calls the bufio
//! interface's read method to copy the data into the buffer."
//!
//! Here the "fake" skbuff of a contiguous foreign packet is the mapping
//! itself: the glue calls the driver's `xmit_frame` from inside the
//! bufio's `with_map`, so the hardware hand-off reads the mapped bytes
//! and no skbuff is built.  Only an `NETIF_F_SG` device gets a real fake
//! skbuff, a fragment list built by `SkBuff::fake_sg`.

use crate::linux::netdevice::{NetDevice, NETIF_F_SG};
use crate::linux::skbuff::SkBuff;
use oskit_com::interfaces::blkio::{BlkIo, BufIo, SgBufIo};
use oskit_com::interfaces::netio::{EtherAddr, EtherDev, NetIo};
use oskit_com::{
    com_interface_decl, com_object, new_com, oskit_iid, Error, IUnknown, Query, Result, SelfRef,
};
use oskit_machine::{boundary, EventKind};
use oskit_osenv::OsEnv;
use std::sync::Arc;

/// The private interface by which the glue recognizes its own skbuff-backed
/// bufio objects ("checking their function table pointer", §4.7.3).
pub trait SkbIo: IUnknown {
    /// Grants access to the underlying skbuff.
    fn with_skb(&self, f: &mut dyn FnMut(&SkBuff));
}
com_interface_decl!(SkbIo, oskit_iid(0xA0), "linux_skbio");

/// An skbuff exported as a COM bufio object: the receive-path zero-copy
/// wrapper.
pub struct SkbBufIo {
    me: SelfRef<SkbBufIo>,
    skb: SkBuff,
}

impl SkbBufIo {
    /// Wraps a received skbuff.
    pub fn new(skb: SkBuff) -> Arc<SkbBufIo> {
        new_com(
            SkbBufIo {
                me: SelfRef::new(),
                skb,
            },
            |o| &o.me,
        )
    }
}

impl BlkIo for SkbBufIo {
    fn get_block_size(&self) -> usize {
        1
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        self.skb.with_data(|d| {
            let off = offset as usize;
            if off >= d.len() {
                return Ok(0);
            }
            let n = buf.len().min(d.len() - off);
            buf[..n].copy_from_slice(&d[off..off + n]);
            Ok(n)
        })
    }

    fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
        // Received packets are immutable once exported.
        Err(Error::NotImpl)
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.skb.len() as u64)
    }
}

impl BufIo for SkbBufIo {
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        // The skbuff is contiguous by construction: mapping always
        // succeeds and costs nothing.
        self.skb.with_data(|d| {
            let end = offset.checked_add(len).ok_or(Error::Inval)?;
            if end > d.len() {
                return Err(Error::Inval);
            }
            f(&d[offset..end]);
            Ok(())
        })
    }

    fn with_map_mut(&self, _o: usize, _l: usize, _f: &mut dyn FnMut(&mut [u8])) -> Result<()> {
        Err(Error::NotImpl)
    }
}

impl SkbIo for SkbBufIo {
    fn with_skb(&self, f: &mut dyn FnMut(&SkBuff)) {
        f(&self.skb);
    }
}

// An skbuff is contiguous, so the provided single-fragment gather view
// suffices.
impl SgBufIo for SkbBufIo {}

com_object!(SkbBufIo, me, [BlkIo, BufIo, SgBufIo, SkbIo]);

/// The COM Ethernet device exported by the Linux driver glue.
pub struct LinuxEtherDev {
    me: SelfRef<LinuxEtherDev>,
    env: Arc<OsEnv>,
    dev: Arc<NetDevice>,
}

impl LinuxEtherDev {
    /// Wraps a Linux net device.
    pub fn new(env: &Arc<OsEnv>, dev: &Arc<NetDevice>) -> Arc<LinuxEtherDev> {
        new_com(
            LinuxEtherDev {
                me: SelfRef::new(),
                env: Arc::clone(env),
                dev: Arc::clone(dev),
            },
            |o| &o.me,
        )
    }
}

impl EtherDev for LinuxEtherDev {
    fn open(&self, rx: Arc<dyn NetIo>) -> Result<Arc<dyn NetIo>> {
        // Receive path: wrap each skbuff as a bufio and push it to the
        // client's netio.  One component-boundary crossing; zero copies.
        // A NAPI-mode device calls this back-to-back for a whole poll
        // batch — the per-frame contract is unchanged, so batching is
        // invisible here except that the frames share one irq+poll
        // dispatch instead of paying one interrupt each.
        let env = Arc::clone(&self.env);
        self.dev.set_rx_handler(move |skb| {
            let b = boundary!("linux-dev", "ether_rx");
            let _span = env.machine.span(b);
            env.machine.book(b, EventKind::Crossing);
            let _ = rx.push(SkbBufIo::new(skb) as Arc<dyn BufIo>);
        });
        self.dev.open();
        // Transmit path: hand back our send netio.
        Ok(new_com(
            LinuxTxNetIo {
                me: SelfRef::new(),
                env: Arc::clone(&self.env),
                dev: Arc::clone(&self.dev),
            },
            |o| &o.me,
        ) as Arc<dyn NetIo>)
    }

    fn get_addr(&self) -> EtherAddr {
        EtherAddr(self.dev.dev_addr)
    }

    fn describe(&self) -> String {
        format!("{}: Linux 2.0.29 encapsulated driver", self.dev.name)
    }
}

com_object!(LinuxEtherDev, me, [EtherDev]);

/// The transmit-side netio.
pub(crate) struct LinuxTxNetIo {
    me: SelfRef<LinuxTxNetIo>,
    env: Arc<OsEnv>,
    dev: Arc<NetDevice>,
}

impl NetIo for LinuxTxNetIo {
    fn push(&self, pkt: Arc<dyn BufIo>) -> Result<()> {
        let b = boundary!("linux-dev", "ether_tx");
        let _span = self.env.machine.span(b);
        self.env.machine.book(b, EventKind::Crossing);
        let len = pkt.get_size()? as usize;
        // An oversized packet from a foreign component is the caller's
        // bug, not grounds for taking the kernel down: reject it here
        // rather than tripping the driver's MTU assertion.
        if len > self.dev.mtu + crate::linux::netdevice::ETH_HLEN {
            return Err(Error::Inval);
        }

        // Native skbuff? Reuse it outright.
        if let Some(skbio) = pkt.query::<dyn SkbIo>() {
            let mut sent = false;
            skbio.with_skb(&mut |skb| {
                self.dev.hard_start_xmit(skb);
                sent = true;
            });
            debug_assert!(sent);
            return Ok(());
        }

        // SG-capable driver: a foreign packet that can expose its bytes
        // as local fragments goes down as a fragment-list "fake" skbuff —
        // no flattening, no copy.  This is the NETIF_F_SG path real Linux
        // later grew; the probe-map/copy ladder below remains the
        // paper-faithful default.
        if self.dev.has_feature(NETIF_F_SG) {
            if let Some(sg) = pkt.query::<dyn SgBufIo>() {
                match SkBuff::fake_sg(sg, len) {
                    Ok(skb) => {
                        self.dev.hard_start_xmit(&skb);
                        return Ok(());
                    }
                    // Fragments not locally mappable (e.g. external
                    // storage): fall through to the ladder.
                    Err(Error::NotImpl) => {}
                    Err(e) => return Err(e),
                }
            }
        }

        // Foreign but contiguous: transmit inside the mapping itself, so
        // the probe that proves mappability is also the map the hardware
        // hand-off reads through — one `with_map` per packet, no copy.
        let mut sent = false;
        match pkt.with_map(0, len, &mut |frame| {
            self.dev.xmit_frame(frame);
            sent = true;
        }) {
            Ok(()) => {
                debug_assert!(sent);
                Ok(())
            }
            Err(Error::NotImpl) => {
                // Discontiguous (e.g. an mbuf chain): allocate a normal
                // skbuff and *copy* — the send-path cost of Table 1.  The
                // allocation can fail under memory pressure; the donor
                // answer is to drop the packet (TCP retransmits it), never
                // to panic.
                if self.env.machine.faults().alloc_fail(false) {
                    self.env.machine.faults().note_pkt_alloc_drop();
                    return Ok(());
                }
                let mut skb = SkBuff::alloc(len);
                let dst = skb.put(len);
                let n = pkt.read(dst, 0)?;
                if n != len {
                    return Err(Error::Io);
                }
                self.env.machine.book(b, EventKind::Copy { bytes: len });
                self.dev.hard_start_xmit(&skb);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }
}

com_object!(LinuxTxNetIo, me, [NetIo]);

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;
    use oskit_com::interfaces::netio::FnNetIo;
    use oskit_machine::{Machine, Nic, Sim, SleepRecord};
    use parking_lot::Mutex;

    /// A deliberately unmappable bufio (simulating an mbuf chain).
    struct ChainBufIo {
        me: SelfRef<ChainBufIo>,
        parts: Vec<Vec<u8>>,
    }
    impl BlkIo for ChainBufIo {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
            let flat: Vec<u8> = self.parts.concat();
            let off = offset as usize;
            if off >= flat.len() {
                return Ok(0);
            }
            let n = buf.len().min(flat.len() - off);
            buf[..n].copy_from_slice(&flat[off..off + n]);
            Ok(n)
        }
        fn write(&self, _: &[u8], _: u64) -> Result<usize> {
            Err(Error::NotImpl)
        }
        fn get_size(&self) -> Result<u64> {
            Ok(self.parts.iter().map(Vec::len).sum::<usize>() as u64)
        }
    }
    impl BufIo for ChainBufIo {
        fn with_map(&self, _: usize, _: usize, _: &mut dyn FnMut(&[u8])) -> Result<()> {
            Err(Error::NotImpl) // Discontiguous.
        }
        fn with_map_mut(&self, _: usize, _: usize, _: &mut dyn FnMut(&mut [u8])) -> Result<()> {
            Err(Error::NotImpl)
        }
    }
    impl oskit_com::interfaces::blkio::SgBufIo for ChainBufIo {
        fn with_map_fragments(
            &self,
            mut offset: usize,
            mut len: usize,
            f: &mut dyn FnMut(&[oskit_com::interfaces::blkio::IoFragment<'_>]),
        ) -> Result<()> {
            let total: usize = self.parts.iter().map(Vec::len).sum();
            let end = offset.checked_add(len).ok_or(Error::Inval)?;
            if end > total {
                return Err(Error::Inval);
            }
            let mut frags = Vec::new();
            for p in &self.parts {
                if len == 0 {
                    break;
                }
                if offset >= p.len() {
                    offset -= p.len();
                    continue;
                }
                let take = (p.len() - offset).min(len);
                frags.push(oskit_com::interfaces::blkio::IoFragment {
                    data: &p[offset..offset + take],
                });
                len -= take;
                offset = 0;
            }
            f(&frags);
            Ok(())
        }
    }
    com_object!(ChainBufIo, me, [BlkIo, BufIo, SgBufIo]);

    type Keep = (Arc<LinuxEtherDev>, Arc<LinuxEtherDev>, Arc<dyn NetIo>);
    /// (sim, machine a, tx netio a, machine b, frames b received, keep-alives).
    type Rig = (
        Arc<Sim>,
        Arc<Machine>,
        Arc<dyn NetIo>,
        Arc<Machine>,
        Arc<Mutex<Vec<Vec<u8>>>>,
        Keep,
    );

    fn setup() -> Rig {
        setup_with(false)
    }

    fn setup_with(sg: bool) -> Rig {
        let sim = Sim::new();
        let ma = Machine::new(&sim, "a", 1 << 20);
        let mb = Machine::new(&sim, "b", 1 << 20);
        let na = Nic::new(&ma, [2, 0, 0, 0, 0, 1]);
        let nb = Nic::new(&mb, [2, 0, 0, 0, 0, 2]);
        Nic::connect(&na, &nb);
        let ea = OsEnv::new(&ma);
        let eb = OsEnv::new(&mb);
        let da = NetDevice::new("eth0", &ea, na);
        if sg {
            da.set_features(NETIF_F_SG);
        }
        let db = NetDevice::new("eth0", &eb, nb);
        let ca = LinuxEtherDev::new(&ea, &da);
        let cb = LinuxEtherDev::new(&eb, &db);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = Arc::clone(&got);
        let _tx_b = cb
            .open(FnNetIo::new(move |pkt| {
                g2.lock()
                    .push(oskit_com::interfaces::blkio::bufio_to_vec(&*pkt)?);
                Ok(())
            }) as Arc<dyn NetIo>)
            .unwrap();
        let tx_a = ca.open(FnNetIo::new(|_| Ok(())) as Arc<dyn NetIo>).unwrap();
        ma.irq.enable();
        mb.irq.enable();
        let keep = (ca, cb, Arc::clone(&_tx_b));
        (sim, ma, tx_a, mb, got, keep)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = vec![0u8; 14 + payload.len()];
        f[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
        f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        f[14..].copy_from_slice(payload);
        f
    }

    #[test]
    fn contiguous_foreign_packet_is_sent_without_copy() {
        let (sim, ma, tx_a, _mb, got, _keep) = setup();
        let f = frame(&[0x11; 200]);
        let s2 = Arc::clone(&sim);
        sim.spawn("tx", move || {
            let pkt = VecBufIo::from_vec(f);
            tx_a.push(pkt as Arc<dyn BufIo>).unwrap();
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        assert_eq!(got.lock().len(), 1);
        // The crucial claim: zero bytes copied on the mapped path.
        assert_eq!(ma.work().bytes_copied, 0);
    }

    #[test]
    fn discontiguous_foreign_packet_is_copied_once() {
        let (sim, ma, tx_a, _mb, got, _keep) = setup();
        let f = frame(&[0x22; 300]);
        let parts = vec![f[..100].to_vec(), f[100..].to_vec()];
        let s2 = Arc::clone(&sim);
        sim.spawn("tx", move || {
            let pkt = new_com(
                ChainBufIo {
                    me: SelfRef::new(),
                    parts,
                },
                |o| &o.me,
            );
            tx_a.push(pkt as Arc<dyn BufIo>).unwrap();
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        assert_eq!(got.lock().len(), 1);
        assert_eq!(got.lock()[0].len(), 314);
        // Exactly one copy of the whole frame (the paper's send-path
        // penalty).
        let m = ma.work();
        assert_eq!(m.copies, 1);
        assert_eq!(m.bytes_copied, 314);
    }

    #[test]
    fn sg_driver_gathers_discontiguous_packet_without_copy() {
        // The same chain that costs a copy on the default driver goes
        // down as a fragment list when NETIF_F_SG is on: zero copies,
        // one gather.
        let (sim, ma, tx_a, _mb, got, _keep) = setup_with(true);
        let f = frame(&[0x33; 300]);
        let parts = vec![f[..100].to_vec(), f[100..].to_vec()];
        let s2 = Arc::clone(&sim);
        sim.spawn("tx", move || {
            let pkt = new_com(
                ChainBufIo {
                    me: SelfRef::new(),
                    parts,
                },
                |o| &o.me,
            );
            tx_a.push(pkt as Arc<dyn BufIo>).unwrap();
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        assert_eq!(got.lock().len(), 1);
        assert_eq!(got.lock()[0].len(), 314);
        assert_eq!(&got.lock()[0][14..], &[0x33; 300]);
        let m = ma.work();
        assert_eq!(m.copies, 0);
        assert_eq!(m.bytes_copied, 0);
        assert_eq!(m.gathers, 1);
        assert_eq!(m.bytes_gathered, 314);
    }

    #[test]
    fn non_sg_driver_never_gathers() {
        // With the feature off, the SG interface is never even queried:
        // the copy ladder runs exactly as in the paper.
        let (sim, ma, tx_a, _mb, got, _keep) = setup();
        let f = frame(&[0x44; 300]);
        let parts = vec![f[..100].to_vec(), f[100..].to_vec()];
        let s2 = Arc::clone(&sim);
        sim.spawn("tx", move || {
            let pkt = new_com(
                ChainBufIo {
                    me: SelfRef::new(),
                    parts,
                },
                |o| &o.me,
            );
            tx_a.push(pkt as Arc<dyn BufIo>).unwrap();
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        assert_eq!(got.lock().len(), 1);
        let m = ma.work();
        assert_eq!(m.gathers, 0);
        assert_eq!(m.copies, 1);
        assert_eq!(m.bytes_copied, 314);
    }

    #[test]
    fn oversized_foreign_packet_is_rejected_not_panicked() {
        // A foreign component handing down a frame beyond MTU+header is a
        // caller bug, answered with Err(Inval) — not a kernel panic.
        let (sim, _ma, tx_a, _mb, got, _keep) = setup();
        sim.spawn("tx", move || {
            let pkt = VecBufIo::from_vec(vec![0u8; 3000]);
            assert!(matches!(
                tx_a.push(pkt as Arc<dyn BufIo>),
                Err(Error::Inval)
            ));
        });
        sim.run();
        assert_eq!(got.lock().len(), 0);
    }

    #[test]
    fn received_packets_arrive_as_mappable_bufio() {
        let (sim, _ma, tx_a, mb, got, _keep) = setup();
        let f = frame(b"zero-copy receive");
        let s2 = Arc::clone(&sim);
        sim.spawn("tx", move || {
            tx_a.push(VecBufIo::from_vec(f) as Arc<dyn BufIo>).unwrap();
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 10_000_000);
        });
        sim.run();
        let got = got.lock();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0][14..], b"zero-copy receive");
        // Receive side never copied: the skbuff was wrapped, not read.
        assert_eq!(mb.work().bytes_copied, 0);
        // But it did cross the component boundary exactly once.
        assert_eq!(mb.work().crossings, 1);
    }
}
