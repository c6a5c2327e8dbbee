//! The block-device glue: `oskit_blkio` over the Linux request queue.
//!
//! Exports the paper's Figure 2 interface and splits each transfer as
//! the donor glue's `rdwr_full` and `rdwr_partial` do.  A transfer of
//! whole sectors builds its request over the caller's memory: a read's
//! completed sectors are the caller's data, a write carries the caller's
//! bytes, and the glue copies nothing.  Any other byte range bounces
//! through the sectors that cover it (read-modify-write for a write),
//! and the glue books that copy.

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

/// The sectors covering `[offset, offset+len)`: the first one, how many,
/// and where `offset` falls in the first.  A whole-sector range has a
/// skew of 0 and exactly `len` bytes of sectors.
fn covering(offset: u64, len: usize) -> (u64, usize, usize) {
    let sector = SECTOR_SIZE as u64;
    let first = offset / sector;
    let last = (offset + len as u64).div_ceil(sector);
    (first, (last - first) as usize, (offset % sector) as usize)
}

/// Whether `[offset, offset+len)` is whole sectors, the `rdwr_full`
/// case.
fn whole_sectors(offset: u64, len: usize) -> bool {
    offset.is_multiple_of(SECTOR_SIZE as u64) && len.is_multiple_of(SECTOR_SIZE)
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

    /// Reads `count` sectors from `first` on.
    fn read_sectors(&self, first: u64, count: usize) -> Result<Vec<u8>> {
        self.drive
            .rw_blocking(Cmd::Read, first, count, None)
            .map_err(|()| Error::Io)?
            .ok_or(Error::Io)
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
        let (first, count, skew) = covering(offset, len);
        let data = self.read_sectors(first, count)?;
        // In `rdwr_full` the request's sectors are the caller's buffer:
        // this slice copy is the drive's transfer, priced as disk time.
        // In `rdwr_partial` it is the glue's bounce out of the covering
        // sectors, a CPU copy.
        buf[..len].copy_from_slice(&data[skew..skew + len]);
        if !whole_sectors(offset, len) {
            self.env.machine.book(b, EventKind::Copy { bytes: len });
        }
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
        let (first, count, skew) = covering(offset, len);
        let data: Arc<[u8]> = if whole_sectors(offset, len) {
            // rdwr_full: the request carries the caller's bytes.
            buf[..len].into()
        } else {
            // rdwr_partial: read-modify-write the covering sectors.
            let mut data = self.read_sectors(first, count)?;
            data[skew..skew + len].copy_from_slice(&buf[..len]);
            self.env.machine.book(b, EventKind::Copy { bytes: len });
            data.into()
        };
        self.drive
            .rw_blocking(Cmd::Write, first, count, Some(data))
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

    /// `(crossings, bytes_copied)` booked at `linux-dev::{name}`.
    fn booked(blk: &LinuxBlkIo, name: &str) -> (u64, u64) {
        let report = blk.env.machine.tracer().metrics();
        report
            .get("linux-dev", name)
            .map_or((0, 0), |b| (b.crossings, b.bytes_copied))
    }

    #[test]
    fn whole_sector_transfers_copy_nothing_in_the_glue() {
        let (sim, _, blk) = setup();
        let b2 = Arc::clone(&blk);
        sim.spawn("io", move || {
            let data: Vec<u8> = (0..SECTOR_SIZE * 3).map(|i| (i % 253) as u8).collect();
            let at = 5 * SECTOR_SIZE as u64;
            assert_eq!(b2.write(&data, at).unwrap(), data.len());
            let mut back = vec![0u8; data.len()];
            assert_eq!(b2.read(&mut back, at).unwrap(), data.len());
            assert_eq!(back, data);
        });
        sim.run();
        assert_eq!(booked(&blk, "blk_write"), (1, 0));
        assert_eq!(booked(&blk, "blk_read"), (1, 0));
    }

    #[test]
    fn unaligned_read_bounces_exactly_its_bytes() {
        let (sim, disk, blk) = setup();
        let image: Vec<u8> = (0..SECTOR_SIZE * 2).map(|i| (i % 249) as u8).collect();
        disk.load_image(0, &image);
        let b2 = Arc::clone(&blk);
        sim.spawn("io", move || {
            let mut back = vec![0u8; 700];
            assert_eq!(b2.read(&mut back, 100).unwrap(), 700);
            assert_eq!(back, image[100..800]);
        });
        sim.run();
        assert_eq!(booked(&blk, "blk_read"), (1, 700));
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
        // Only the read-modify-write bounced, and exactly its 10 bytes.
        assert_eq!(booked(&blk, "blk_write"), (2, 10));
        assert_eq!(booked(&blk, "blk_read"), (1, 0));
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
        assert_eq!(booked(&blk, "blk_read"), (2, 0));
        assert_eq!(booked(&blk, "blk_write"), (1, 0));
    }
}
