//! The block-device glue: `oskit_blkio` over the Linux request queue.
//!
//! Exports the paper's Figure 2 interface.  Byte-granularity requests are
//! honored with read-modify-write of partial sectors, as the original
//! glue's `blkio` wrappers did.

use crate::linux::blkdev::{Cmd, IdeDrive};
use oskit_com::interfaces::blkio::BlkIo;
use oskit_com::{com_object, new_com, Error, Result, SelfRef};
use oskit_machine::{boundary, EventKind, SECTOR_SIZE};
use oskit_osenv::OsEnv;
use std::sync::Arc;

/// The COM block device over an encapsulated Linux IDE drive.
pub struct LinuxBlkIo {
    me: SelfRef<LinuxBlkIo>,
    env: Arc<OsEnv>,
    drive: Arc<IdeDrive>,
}

impl LinuxBlkIo {
    /// Wraps a drive.
    pub fn new(env: &Arc<OsEnv>, drive: &Arc<IdeDrive>) -> Arc<LinuxBlkIo> {
        new_com(
            LinuxBlkIo {
                me: SelfRef::new(),
                env: Arc::clone(env),
                drive: Arc::clone(drive),
            },
            |o| &o.me,
        )
    }

    /// Reads whole sectors covering `[offset, offset+len)`.
    fn read_covering(&self, offset: u64, len: usize) -> Result<(u64, Vec<u8>)> {
        let first = offset / SECTOR_SIZE as u64;
        let last = (offset + len as u64).div_ceil(SECTOR_SIZE as u64);
        let count = (last - first) as usize;
        let data = self
            .drive
            .rw_blocking(Cmd::Read, first, count, None)
            .map_err(|()| Error::Io)?
            .ok_or(Error::Io)?;
        Ok((first, data))
    }
}

impl BlkIo for LinuxBlkIo {
    fn get_block_size(&self) -> usize {
        SECTOR_SIZE
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        let b = boundary!("linux-dev", "blk_read");
        let _span = self.env.machine.span(b);
        self.env.machine.book(b, EventKind::Crossing);
        let size = self.get_size()?;
        if offset >= size {
            return Ok(0);
        }
        let len = buf.len().min((size - offset) as usize);
        if len == 0 {
            return Ok(0);
        }
        let (first, data) = self.read_covering(offset, len)?;
        let skew = (offset - first * SECTOR_SIZE as u64) as usize;
        buf[..len].copy_from_slice(&data[skew..skew + len]);
        self.env.machine.book(b, EventKind::Copy { bytes: len });
        Ok(len)
    }

    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        let b = boundary!("linux-dev", "blk_write");
        let _span = self.env.machine.span(b);
        self.env.machine.book(b, EventKind::Crossing);
        let size = self.get_size()?;
        if offset >= size {
            return Err(Error::Inval);
        }
        let len = buf.len().min((size - offset) as usize);
        if len == 0 {
            return Ok(0);
        }
        let sector_sz = SECTOR_SIZE as u64;
        let aligned = offset.is_multiple_of(sector_sz) && len.is_multiple_of(SECTOR_SIZE);
        let (first, mut data) = if aligned {
            (offset / sector_sz, buf[..len].to_vec())
        } else {
            // Read-modify-write the covering sectors.
            let (first, mut data) = self.read_covering(offset, len)?;
            let skew = (offset - first * sector_sz) as usize;
            data[skew..skew + len].copy_from_slice(&buf[..len]);
            (first, data)
        };
        self.env.machine.book(b, EventKind::Copy { bytes: len });
        // Pad up to a whole sector (cannot happen when aligned).
        let rem = data.len() % SECTOR_SIZE;
        if rem != 0 {
            data.extend(std::iter::repeat_n(0u8, SECTOR_SIZE - rem));
        }
        self.drive
            .rw_blocking(Cmd::Write, first, data.len() / SECTOR_SIZE, Some(data))
            .map_err(|()| Error::Io)?;
        Ok(len)
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.drive.capacity() * SECTOR_SIZE as u64)
    }
}

com_object!(LinuxBlkIo, me, [BlkIo]);

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::{Disk, Machine, Sim};

    fn setup() -> (Arc<Sim>, Arc<Disk>, Arc<LinuxBlkIo>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 1 << 20);
        let disk = Disk::new(&m, 64);
        let env = OsEnv::new(&m);
        let drive = IdeDrive::new("hda", &env, Arc::clone(&disk));
        m.irq.enable();
        (sim, disk, LinuxBlkIo::new(&env, &drive))
    }

    #[test]
    fn figure2_interface_round_trip() {
        let (sim, _, blk) = setup();
        let b2 = Arc::clone(&blk);
        sim.spawn("io", move || {
            assert_eq!(b2.get_block_size(), SECTOR_SIZE);
            assert_eq!(b2.get_size().unwrap(), 64 * SECTOR_SIZE as u64);
            let data = vec![0xC3u8; SECTOR_SIZE];
            assert_eq!(b2.write(&data, 0).unwrap(), SECTOR_SIZE);
            let mut back = vec![0u8; SECTOR_SIZE];
            assert_eq!(b2.read(&mut back, 0).unwrap(), SECTOR_SIZE);
            assert_eq!(back, data);
        });
        sim.run();
    }

    #[test]
    fn unaligned_write_preserves_neighbours() {
        let (sim, _, blk) = setup();
        let b2 = Arc::clone(&blk);
        sim.spawn("io", move || {
            // Lay down a known pattern across two sectors.
            let pattern: Vec<u8> = (0..SECTOR_SIZE * 2).map(|i| (i % 256) as u8).collect();
            b2.write(&pattern, 0).unwrap();
            // Overwrite 10 bytes straddling the sector boundary.
            b2.write(&[0xFF; 10], SECTOR_SIZE as u64 - 5).unwrap();
            let mut back = vec![0u8; SECTOR_SIZE * 2];
            b2.read(&mut back, 0).unwrap();
            for (i, &b) in back.iter().enumerate() {
                let in_patch = (SECTOR_SIZE - 5..SECTOR_SIZE + 5).contains(&i);
                if in_patch {
                    assert_eq!(b, 0xFF, "patch byte {i}");
                } else {
                    assert_eq!(b, (i % 256) as u8, "preserved byte {i}");
                }
            }
        });
        sim.run();
    }

    #[test]
    fn read_past_end_returns_zero() {
        let (sim, _, blk) = setup();
        let b2 = Arc::clone(&blk);
        sim.spawn("io", move || {
            let mut buf = [0u8; 16];
            assert_eq!(b2.read(&mut buf, 1 << 30).unwrap(), 0);
        });
        sim.run();
    }

    #[test]
    fn short_read_at_device_end() {
        let (sim, _, blk) = setup();
        let b2 = Arc::clone(&blk);
        sim.spawn("io", move || {
            let end = b2.get_size().unwrap();
            let mut buf = vec![0u8; 100];
            assert_eq!(b2.read(&mut buf, end - 30).unwrap(), 30);
        });
        sim.run();
    }

    /// Two processes share one device: while A sleeps on the disk in a
    /// multi-sector read, B enters the glue, writes its own range and
    /// reads it back.
    #[test]
    fn second_process_enters_while_first_sleeps_on_the_disk() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        let (sim, disk, blk) = setup();
        let image: Vec<u8> = (0..SECTOR_SIZE * 8).map(|i| (i * 7 % 251) as u8).collect();
        disk.load_image(0, &image);
        let a_done = Arc::new(AtomicBool::new(false));
        let (b1, done1) = (Arc::clone(&blk), Arc::clone(&a_done));
        sim.spawn("a", move || {
            let mut back = vec![0u8; image.len()];
            assert_eq!(b1.read(&mut back, 0).unwrap(), image.len());
            assert_eq!(back, image);
            done1.store(true, SeqCst);
        });
        let (b2, done2) = (Arc::clone(&blk), Arc::clone(&a_done));
        sim.spawn("b", move || {
            assert!(!done2.load(SeqCst), "A is not asleep on the disk");
            let data = vec![0x5Au8; SECTOR_SIZE * 2];
            let at = 32 * SECTOR_SIZE as u64;
            assert_eq!(b2.write(&data, at).unwrap(), data.len());
            let mut back = vec![0u8; data.len()];
            assert_eq!(b2.read(&mut back, at).unwrap(), data.len());
            assert_eq!(back, data);
        });
        sim.run();
        assert!(a_done.load(SeqCst));
        let report = blk.env.machine.tracer().metrics();
        let crossings = |name| report.get("linux-dev", name).unwrap().crossings;
        assert_eq!((crossings("blk_read"), crossings("blk_write")), (2, 1));
    }
}
