//! `oskit-diskpart` — disk partition interpretation (paper Table 3's
//! `diskpart` library).
//!
//! Parses PC MBR partition tables (including extended/logical chains) and
//! BSD disklabels found inside BSD slices, and exports each partition as
//! its own `oskit_blkio` object — a windowed view onto the underlying
//! device, so file systems mount partitions exactly as they mount disks.

use oskit_com::interfaces::blkio::BlkIo;
use oskit_com::{com_object, new_com, Error, Result, SelfRef};
use std::sync::Arc;

/// Sector size assumed by PC partitioning.
pub const SECTOR: u64 = 512;

/// MBR signature offset/values.
const MBR_SIG_OFF: usize = 510;

/// Partition type ids worth naming.
pub mod ptype {
    /// Empty slot.
    pub const EMPTY: u8 = 0x00;
    /// FAT16.
    pub const FAT16: u8 = 0x06;
    /// Extended partition (CHS).
    pub const EXTENDED: u8 = 0x05;
    /// Extended partition (LBA).
    pub const EXTENDED_LBA: u8 = 0x0F;
    /// Linux native.
    pub const LINUX: u8 = 0x83;
    /// BSD slice (FreeBSD/NetBSD, contains a disklabel).
    pub const BSD: u8 = 0xA5;
}

/// One partition found on the disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Name in the kit's convention: "s1", "s2", ... for MBR slices,
    /// "s1a".."s1h" for disklabel partitions within a slice, "s5"+ for
    /// logicals.
    pub name: String,
    /// Partition type byte (MBR) or fstype (disklabel).
    pub ptype: u8,
    /// Start sector (absolute).
    pub start: u64,
    /// Size in sectors.
    pub sectors: u64,
    /// Bootable flag (MBR active bit).
    pub active: bool,
}

/// Reads and decodes the full partition picture of a disk.
///
/// Returns primary MBR slices, logical partitions inside extended slices,
/// and disklabel partitions inside BSD slices — the search order the
/// OSKit's `diskpart_get_partition` used.
pub fn read_partitions(dev: &Arc<dyn BlkIo>) -> Result<Vec<Partition>> {
    let mut out = Vec::new();
    let mbr = read_sector(dev, 0)?;
    if mbr[MBR_SIG_OFF] != 0x55 || mbr[MBR_SIG_OFF + 1] != 0xAA {
        return Ok(out); // Unpartitioned media.
    }
    let mut logical_index = 5;
    for slot in 0..4 {
        let e = decode_mbr_entry(&mbr, slot);
        if e.ptype == ptype::EMPTY || e.sectors == 0 {
            continue;
        }
        let name = format!("s{}", slot + 1);
        match e.ptype {
            ptype::EXTENDED | ptype::EXTENDED_LBA => {
                out.push(Partition {
                    name: name.clone(),
                    ..e.clone()
                });
                walk_extended(dev, e.start, e.start, &mut out, &mut logical_index)?;
            }
            ptype::BSD => {
                out.push(Partition {
                    name: name.clone(),
                    ..e.clone()
                });
                read_disklabel(dev, e.start, &name, &mut out)?;
            }
            _ => out.push(Partition { name, ..e }),
        }
    }
    Ok(out)
}

/// Finds a partition by the kit's naming convention.
pub fn lookup<'a>(parts: &'a [Partition], name: &str) -> Option<&'a Partition> {
    parts.iter().find(|p| p.name == name)
}

fn decode_mbr_entry(sector: &[u8], slot: usize) -> Partition {
    let off = 446 + slot * 16;
    let e = &sector[off..off + 16];
    Partition {
        name: String::new(),
        active: e[0] & 0x80 != 0,
        ptype: e[4],
        start: u64::from(u32::from_le_bytes([e[8], e[9], e[10], e[11]])),
        sectors: u64::from(u32::from_le_bytes([e[12], e[13], e[14], e[15]])),
    }
}

fn walk_extended(
    dev: &Arc<dyn BlkIo>,
    ext_base: u64,
    ebr_at: u64,
    out: &mut Vec<Partition>,
    index: &mut u32,
) -> Result<()> {
    // Bounded walk: a corrupt chain must not loop forever.
    let mut at = ebr_at;
    for _ in 0..64 {
        let ebr = read_sector(dev, at)?;
        if ebr[MBR_SIG_OFF] != 0x55 || ebr[MBR_SIG_OFF + 1] != 0xAA {
            return Ok(());
        }
        let part = decode_mbr_entry(&ebr, 0);
        if part.ptype != ptype::EMPTY && part.sectors > 0 {
            out.push(Partition {
                name: format!("s{}", *index),
                ptype: part.ptype,
                start: at + part.start,
                sectors: part.sectors,
                active: false,
            });
            *index += 1;
        }
        let link = decode_mbr_entry(&ebr, 1);
        if link.ptype == ptype::EMPTY || link.sectors == 0 {
            return Ok(());
        }
        at = ext_base + link.start;
    }
    Ok(())
}

/// BSD disklabel constants.
const DISKLABEL_SECTOR: u64 = 1;
const DISKLABEL_MAGIC: u32 = 0x8256_4557;

fn read_disklabel(
    dev: &Arc<dyn BlkIo>,
    slice_start: u64,
    slice_name: &str,
    out: &mut Vec<Partition>,
) -> Result<()> {
    let lbl = read_sector(dev, slice_start + DISKLABEL_SECTOR)?;
    let magic = u32::from_le_bytes([lbl[0], lbl[1], lbl[2], lbl[3]]);
    let magic2 = u32::from_le_bytes([lbl[132], lbl[133], lbl[134], lbl[135]]);
    if magic != DISKLABEL_MAGIC || magic2 != DISKLABEL_MAGIC {
        return Ok(()); // No label.
    }
    let npartitions = u16::from_le_bytes([lbl[138], lbl[139]]) as usize;
    for i in 0..npartitions.min(8) {
        let off = 148 + i * 16;
        let size = u64::from(u32::from_le_bytes([
            lbl[off],
            lbl[off + 1],
            lbl[off + 2],
            lbl[off + 3],
        ]));
        let start = u64::from(u32::from_le_bytes([
            lbl[off + 4],
            lbl[off + 5],
            lbl[off + 6],
            lbl[off + 7],
        ]));
        let fstype = lbl[off + 12];
        if size == 0 {
            continue;
        }
        out.push(Partition {
            name: format!("{}{}", slice_name, (b'a' + i as u8) as char),
            ptype: fstype,
            start,
            sectors: size,
            active: false,
        });
    }
    Ok(())
}

fn read_sector(dev: &Arc<dyn BlkIo>, sector: u64) -> Result<Vec<u8>> {
    let mut buf = vec![0u8; SECTOR as usize];
    let n = dev.read(&mut buf, sector * SECTOR)?;
    if n != SECTOR as usize {
        return Err(Error::Io);
    }
    Ok(buf)
}

/// A partition exported as its own block device: a windowed view.
pub struct PartitionBlkIo {
    me: SelfRef<PartitionBlkIo>,
    dev: Arc<dyn BlkIo>,
    byte_start: u64,
    byte_len: u64,
}

impl PartitionBlkIo {
    /// Opens a window onto `part` of `dev`.
    pub fn open(dev: &Arc<dyn BlkIo>, part: &Partition) -> Arc<PartitionBlkIo> {
        new_com(
            PartitionBlkIo {
                me: SelfRef::new(),
                dev: Arc::clone(dev),
                byte_start: part.start * SECTOR,
                byte_len: part.sectors * SECTOR,
            },
            |o| &o.me,
        )
    }
}

impl BlkIo for PartitionBlkIo {
    fn get_block_size(&self) -> usize {
        self.dev.get_block_size()
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        if offset >= self.byte_len {
            return Ok(0);
        }
        let n = (buf.len() as u64).min(self.byte_len - offset) as usize;
        self.dev.read(&mut buf[..n], self.byte_start + offset)
    }

    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        if offset >= self.byte_len {
            return Err(Error::Inval);
        }
        let n = (buf.len() as u64).min(self.byte_len - offset) as usize;
        self.dev.write(&buf[..n], self.byte_start + offset)
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.byte_len)
    }
}

com_object!(PartitionBlkIo, me, [BlkIo]);

/// Host-side helper: writes an MBR with up to four primary entries
/// (`(ptype, start_sector, sectors, active)`), for tests and examples.
pub fn format_mbr(dev: &Arc<dyn BlkIo>, entries: &[(u8, u64, u64, bool)]) -> Result<()> {
    assert!(entries.len() <= 4);
    let mut mbr = vec![0u8; SECTOR as usize];
    for (i, &(ptype, start, sectors, active)) in entries.iter().enumerate() {
        let off = 446 + i * 16;
        mbr[off] = if active { 0x80 } else { 0 };
        mbr[off + 4] = ptype;
        mbr[off + 8..off + 12].copy_from_slice(&(start as u32).to_le_bytes());
        mbr[off + 12..off + 16].copy_from_slice(&(sectors as u32).to_le_bytes());
    }
    mbr[MBR_SIG_OFF] = 0x55;
    mbr[MBR_SIG_OFF + 1] = 0xAA;
    dev.write(&mbr, 0)?;
    Ok(())
}

/// Host-side helper: writes a BSD disklabel into a slice.
pub fn format_disklabel(
    dev: &Arc<dyn BlkIo>,
    slice_start: u64,
    parts: &[(u8, u64, u64)],
) -> Result<()> {
    assert!(parts.len() <= 8);
    let mut lbl = vec![0u8; SECTOR as usize];
    lbl[0..4].copy_from_slice(&DISKLABEL_MAGIC.to_le_bytes());
    lbl[132..136].copy_from_slice(&DISKLABEL_MAGIC.to_le_bytes());
    lbl[138..140].copy_from_slice(&(parts.len() as u16).to_le_bytes());
    for (i, &(fstype, start, size)) in parts.iter().enumerate() {
        let off = 148 + i * 16;
        lbl[off..off + 4].copy_from_slice(&(size as u32).to_le_bytes());
        lbl[off + 4..off + 8].copy_from_slice(&(start as u32).to_le_bytes());
        lbl[off + 12] = fstype;
    }
    dev.write(&lbl, (slice_start + DISKLABEL_SECTOR) * SECTOR)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;

    fn ram_disk(sectors: u64) -> Arc<dyn BlkIo> {
        VecBufIo::with_len((sectors * SECTOR) as usize) as Arc<dyn BlkIo>
    }

    #[test]
    fn unpartitioned_disk_reports_nothing() {
        let dev = ram_disk(128);
        assert!(read_partitions(&dev).unwrap().is_empty());
    }

    #[test]
    fn primary_partitions_round_trip() {
        let dev = ram_disk(10_000);
        format_mbr(
            &dev,
            &[
                (ptype::LINUX, 63, 4000, true),
                (ptype::FAT16, 4063, 2000, false),
            ],
        )
        .unwrap();
        let parts = read_partitions(&dev).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].name, "s1");
        assert_eq!(parts[0].ptype, ptype::LINUX);
        assert_eq!(parts[0].start, 63);
        assert_eq!(parts[0].sectors, 4000);
        assert!(parts[0].active);
        assert_eq!(parts[1].name, "s2");
        assert!(!parts[1].active);
    }

    #[test]
    fn extended_partition_chain() {
        let dev = ram_disk(50_000);
        format_mbr(
            &dev,
            &[
                (ptype::LINUX, 63, 1000, false),
                (ptype::EXTENDED, 2000, 40_000, false),
            ],
        )
        .unwrap();
        // First EBR at 2000: logical at +63 of 5000 sectors, link to +6000.
        let mut ebr1 = vec![0u8; SECTOR as usize];
        ebr1[446 + 4] = ptype::LINUX;
        ebr1[446 + 8..446 + 12].copy_from_slice(&63u32.to_le_bytes());
        ebr1[446 + 12..446 + 16].copy_from_slice(&5000u32.to_le_bytes());
        ebr1[462 + 4] = ptype::EXTENDED;
        ebr1[462 + 8..462 + 12].copy_from_slice(&6000u32.to_le_bytes());
        ebr1[462 + 12..462 + 16].copy_from_slice(&6000u32.to_le_bytes());
        ebr1[510] = 0x55;
        ebr1[511] = 0xAA;
        dev.write(&ebr1, 2000 * SECTOR).unwrap();
        // Second EBR at 8000: logical of 3000 sectors, end of chain.
        let mut ebr2 = vec![0u8; SECTOR as usize];
        ebr2[446 + 4] = ptype::LINUX;
        ebr2[446 + 8..446 + 12].copy_from_slice(&63u32.to_le_bytes());
        ebr2[446 + 12..446 + 16].copy_from_slice(&3000u32.to_le_bytes());
        ebr2[510] = 0x55;
        ebr2[511] = 0xAA;
        dev.write(&ebr2, 8000 * SECTOR).unwrap();

        let parts = read_partitions(&dev).unwrap();
        let names: Vec<_> = parts.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["s1", "s2", "s5", "s6"]);
        let s5 = lookup(&parts, "s5").unwrap();
        assert_eq!(s5.start, 2063);
        assert_eq!(s5.sectors, 5000);
        let s6 = lookup(&parts, "s6").unwrap();
        assert_eq!(s6.start, 8063);
    }

    #[test]
    fn bsd_slice_with_disklabel() {
        let dev = ram_disk(50_000);
        format_mbr(&dev, &[(ptype::BSD, 1000, 30_000, true)]).unwrap();
        format_disklabel(
            &dev,
            1000,
            &[
                (7, 1000, 10_000),  // a: 4.2BSD.
                (1, 11_000, 5_000), // b: swap.
            ],
        )
        .unwrap();
        let parts = read_partitions(&dev).unwrap();
        let names: Vec<_> = parts.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["s1", "s1a", "s1b"]);
        let a = lookup(&parts, "s1a").unwrap();
        assert_eq!(a.start, 1000);
        assert_eq!(a.sectors, 10_000);
    }

    #[test]
    fn partition_blkio_windows_the_device() {
        let dev = ram_disk(10_000);
        format_mbr(&dev, &[(ptype::LINUX, 100, 50, false)]).unwrap();
        let parts = read_partitions(&dev).unwrap();
        let view = PartitionBlkIo::open(&dev, &parts[0]);
        assert_eq!(view.get_size().unwrap(), 50 * SECTOR);
        view.write(b"inside", 0).unwrap();
        // The write landed at the partition's absolute offset.
        let mut probe = [0u8; 6];
        dev.read(&mut probe, 100 * SECTOR).unwrap();
        assert_eq!(&probe, b"inside");
        // Reads beyond the window are clipped.
        let mut big = vec![0u8; 100];
        assert_eq!(view.read(&mut big, 50 * SECTOR - 10).unwrap(), 10);
        assert_eq!(view.read(&mut big, 50 * SECTOR).unwrap(), 0);
        assert!(view.write(&big, 50 * SECTOR).is_err());
    }

    #[test]
    fn corrupt_extended_chain_terminates() {
        let dev = ram_disk(50_000);
        format_mbr(&dev, &[(ptype::EXTENDED, 2000, 40_000, false)]).unwrap();
        // EBR that links to itself.
        let mut ebr = vec![0u8; SECTOR as usize];
        ebr[462 + 4] = ptype::EXTENDED;
        ebr[462 + 8..462 + 12].copy_from_slice(&0u32.to_le_bytes());
        ebr[462 + 12..462 + 16].copy_from_slice(&100u32.to_le_bytes());
        ebr[510] = 0x55;
        ebr[511] = 0xAA;
        dev.write(&ebr, 2000 * SECTOR).unwrap();
        // Must return, not loop.
        let parts = read_partitions(&dev).unwrap();
        assert_eq!(parts.len(), 1);
    }
}
