//! Pass-through COM objects for the two seams the benchmark does not call
//! itself (paper §4.4: a component is wrapped by handing its client an
//! object that exports the same interface and forwards every call).
//!
//! * [`TracedEtherDev`] stands between `freebsd-net` and `linux-dev`'s
//!   Ethernet glue.  Opening it wraps both netio callbacks, so every
//!   transmitted and received packet crosses a [`TracedNetIo`].
//! * [`TracedBlkIo`] stands between `linux-dev`'s IDE driver and
//!   `bufcache`/`netbsd-fs`.
//!
//! Each forwards the call unchanged, and the packet or buffer object
//! itself is never wrapped: the glue on the far side still recognizes its
//! own objects and still maps foreign ones, so the modelled machine does
//! exactly the same work with or without them.

use crate::probe::{Probe, Seam};
use oskit::com::interfaces::blkio::{BlkIo, BufIo};
use oskit::com::interfaces::netio::{EtherAddr, EtherDev, NetIo};
use oskit::com::{com_object, new_com, Result, SelfRef};
use oskit::machine::Machine;
use std::sync::Arc;

/// An `oskit_etherdev` that interposes on both netio directions.
pub struct TracedEtherDev {
    me: SelfRef<TracedEtherDev>,
    inner: Arc<dyn EtherDev>,
    probe: Arc<Probe>,
    machine: Arc<Machine>,
}

impl TracedEtherDev {
    /// Wraps `inner`, a device of `machine`.
    pub fn wrap(
        inner: Arc<dyn EtherDev>,
        probe: &Arc<Probe>,
        machine: &Arc<Machine>,
    ) -> Arc<dyn EtherDev> {
        new_com(
            TracedEtherDev {
                me: SelfRef::new(),
                inner,
                probe: Arc::clone(probe),
                machine: Arc::clone(machine),
            },
            |o| &o.me,
        ) as Arc<dyn EtherDev>
    }
}

impl EtherDev for TracedEtherDev {
    fn open(&self, rx: Arc<dyn NetIo>) -> Result<Arc<dyn NetIo>> {
        let rx = TracedNetIo::wrap(rx, Seam::NetRx, &self.probe, &self.machine);
        let tx = self.inner.open(rx)?;
        Ok(TracedNetIo::wrap(
            tx,
            Seam::NetTx,
            &self.probe,
            &self.machine,
        ))
    }

    fn get_addr(&self) -> EtherAddr {
        self.inner.get_addr()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

com_object!(TracedEtherDev, me, [EtherDev]);

/// One interposed netio direction.
pub struct TracedNetIo {
    me: SelfRef<TracedNetIo>,
    inner: Arc<dyn NetIo>,
    seam: Seam,
    probe: Arc<Probe>,
    machine: Arc<Machine>,
}

impl TracedNetIo {
    fn wrap(
        inner: Arc<dyn NetIo>,
        seam: Seam,
        probe: &Arc<Probe>,
        machine: &Arc<Machine>,
    ) -> Arc<dyn NetIo> {
        new_com(
            TracedNetIo {
                me: SelfRef::new(),
                inner,
                seam,
                probe: Arc::clone(probe),
                machine: Arc::clone(machine),
            },
            |o| &o.me,
        ) as Arc<dyn NetIo>
    }
}

impl NetIo for TracedNetIo {
    fn push(&self, pkt: Arc<dyn BufIo>) -> Result<()> {
        let len = pkt.get_size().unwrap_or(0);
        self.probe
            .call(self.seam, &self.machine, || self.inner.push(pkt), |_| len)
    }

    fn alloc_bufio(&self, size: usize) -> Result<Arc<dyn BufIo>> {
        self.inner.alloc_bufio(size)
    }
}

com_object!(TracedNetIo, me, [NetIo]);

/// An interposed `oskit_blkio`.
pub struct TracedBlkIo {
    me: SelfRef<TracedBlkIo>,
    inner: Arc<dyn BlkIo>,
    probe: Arc<Probe>,
    machine: Arc<Machine>,
}

impl TracedBlkIo {
    /// Wraps `inner`, a disk of `machine`.
    pub fn wrap(
        inner: Arc<dyn BlkIo>,
        probe: &Arc<Probe>,
        machine: &Arc<Machine>,
    ) -> Arc<dyn BlkIo> {
        new_com(
            TracedBlkIo {
                me: SelfRef::new(),
                inner,
                probe: Arc::clone(probe),
                machine: Arc::clone(machine),
            },
            |o| &o.me,
        ) as Arc<dyn BlkIo>
    }
}

fn moved(r: &Result<usize>) -> u64 {
    r.as_ref().map_or(0, |&n| n as u64)
}

impl BlkIo for TracedBlkIo {
    fn get_block_size(&self) -> usize {
        self.inner.get_block_size()
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        self.probe.call(
            Seam::BlkRead,
            &self.machine,
            || self.inner.read(buf, offset),
            moved,
        )
    }

    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        self.probe.call(
            Seam::BlkWrite,
            &self.machine,
            || self.inner.write(buf, offset),
            moved,
        )
    }

    fn get_size(&self) -> Result<u64> {
        self.inner.get_size()
    }

    fn set_size(&self, new_size: u64) -> Result<()> {
        self.inner.set_size(new_size)
    }
}

com_object!(TracedBlkIo, me, [BlkIo]);
