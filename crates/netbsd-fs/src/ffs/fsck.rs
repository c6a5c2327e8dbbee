//! `fsck` — an offline consistency checker for OFFS volumes.
//!
//! Phase structure follows the classic: walk the inode table, map every
//! reachable block, compare against the allocation bitmaps, then walk the
//! directory tree verifying entries and link counts.

use super::fs::FsCore;
use super::ondisk::{Dinode, BLOCK_SIZE, NINDIR, ROOT_INO};
use oskit_com::Result;
use std::collections::HashMap;

/// One inconsistency found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// A block is referenced by two different owners.
    DuplicateBlock {
        /// The block.
        blk: u32,
    },
    /// A block is referenced but marked free in the bitmap.
    UsedButFree {
        /// The block.
        blk: u32,
    },
    /// A block is marked allocated but referenced by nothing.
    AllocatedButUnreferenced {
        /// The block.
        blk: u32,
    },
    /// A directory entry names a free or out-of-range inode.
    BadDirent {
        /// The directory inode.
        dir: u32,
        /// The entry name.
        name: String,
    },
    /// An inode's link count disagrees with the directory tree.
    WrongLinkCount {
        /// The inode.
        ino: u32,
        /// Count stored in the inode.
        stored: u16,
        /// Count found by walking directories.
        found: u16,
    },
    /// An allocated inode is unreachable from the root.
    OrphanInode {
        /// The inode.
        ino: u32,
    },
    /// A file's last block holds non-zero bytes past the file's size,
    /// which a later grow or a write past EOF would bring back.
    DataPastEof {
        /// The inode.
        ino: u32,
    },
    /// The superblock free-block count is wrong.
    FreeCountMismatch {
        /// Superblock value.
        stored: u32,
        /// Actual value from the bitmap.
        actual: u32,
    },
}

/// Checks the volume, returning every inconsistency found (empty = clean).
pub fn fsck(fs: &FsCore) -> Result<Vec<Finding>> {
    let sb = fs.superblock();
    let mut findings = Vec::new();

    // Phase 1: map blocks referenced by allocated inodes.
    let mut owner: HashMap<u32, u32> = HashMap::new();
    let mut claim = |blk: u32, ino: u32, findings: &mut Vec<Finding>| {
        if blk == 0 {
            return;
        }
        if owner.insert(blk, ino).is_some() {
            findings.push(Finding::DuplicateBlock { blk });
        }
    };
    let mut allocated_inodes = Vec::new();
    for ino in 1..sb.ninodes {
        let d = fs.read_inode(ino)?;
        if d.nlink == 0 && d.mode == 0 {
            continue;
        }
        allocated_inodes.push(ino);
        for &b in &d.direct {
            claim(b, ino, &mut findings);
        }
        if d.indirect != 0 {
            claim(d.indirect, ino, &mut findings);
            for e in read_indir(fs, d.indirect)? {
                claim(e, ino, &mut findings);
            }
        }
        if d.double_indirect != 0 {
            claim(d.double_indirect, ino, &mut findings);
            for l1 in read_indir(fs, d.double_indirect)? {
                if l1 != 0 {
                    claim(l1, ino, &mut findings);
                    for e in read_indir(fs, l1)? {
                        claim(e, ino, &mut findings);
                    }
                }
            }
        }
        if data_past_eof(fs, &d)? {
            findings.push(Finding::DataPastEof { ino });
        }
    }

    // Phase 2: compare against the block bitmap.
    let mut actually_free = 0;
    for rel in 0..(sb.nblocks - sb.data_start) {
        let blk = sb.data_start + rel;
        let bit_blk = sb.bbmap_start + rel / (BLOCK_SIZE * 8) as u32;
        let within = rel % (BLOCK_SIZE * 8) as u32;
        let marked = fs.cache().bread_with(bit_blk, |b| {
            b[(within / 8) as usize] & (1 << (within % 8)) != 0
        })?;
        let referenced = owner.contains_key(&blk);
        match (marked, referenced) {
            (false, true) => findings.push(Finding::UsedButFree { blk }),
            (true, false) => findings.push(Finding::AllocatedButUnreferenced { blk }),
            _ => {}
        }
        if !marked {
            actually_free += 1;
        }
    }
    if actually_free != sb.free_blocks {
        findings.push(Finding::FreeCountMismatch {
            stored: sb.free_blocks,
            actual: actually_free,
        });
    }

    // Phase 3: walk the directory tree from the root, counting links.
    let mut link_counts: HashMap<u32, u16> = HashMap::new();
    let mut reached: Vec<u32> = Vec::new();
    let mut stack = vec![ROOT_INO];
    let mut visited = std::collections::HashSet::new();
    while let Some(dino) = stack.pop() {
        if !visited.insert(dino) {
            continue;
        }
        reached.push(dino);
        for e in fs.dir_list(dino)? {
            let valid = e.ino != 0 && e.ino < sb.ninodes && {
                let t = fs.read_inode(e.ino)?;
                t.nlink > 0 || t.mode != 0
            };
            if !valid {
                findings.push(Finding::BadDirent {
                    dir: dino,
                    name: e.name.clone(),
                });
                continue;
            }
            *link_counts.entry(e.ino).or_insert(0) += 1;
            let t = fs.read_inode(e.ino)?;
            if t.is_dir() && e.name != "." && e.name != ".." {
                stack.push(e.ino);
            }
        }
    }

    // Phase 4: link counts and orphans.
    for &ino in &allocated_inodes {
        let d = fs.read_inode(ino)?;
        let found = link_counts.get(&ino).copied().unwrap_or(0);
        if found == 0 && ino != ROOT_INO {
            findings.push(Finding::OrphanInode { ino });
            continue;
        }
        if d.nlink != found {
            findings.push(Finding::WrongLinkCount {
                ino,
                stored: d.nlink,
                found,
            });
        }
    }
    Ok(findings)
}

/// Whether the last block of the file `d` holds a non-zero byte past
/// its size.
fn data_past_eof(fs: &FsCore, d: &Dinode) -> Result<bool> {
    let tail = (d.size % BLOCK_SIZE as u64) as usize;
    if tail == 0 {
        return Ok(false);
    }
    let (blk, _) = fs.bmap(&mut d.clone(), (d.size / BLOCK_SIZE as u64) as u32, false)?;
    if blk == 0 {
        return Ok(false);
    }
    fs.cache()
        .bread_with(blk, |b| b[tail..].iter().any(|&x| x != 0))
}

fn read_indir(fs: &FsCore, iblk: u32) -> Result<Vec<u32>> {
    fs.cache().bread_with(iblk, |b| {
        (0..NINDIR)
            .map(|i| u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]))
            .filter(|&e| e != 0)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ffs::ondisk::mode;
    use oskit_com::interfaces::blkio::{BlkIo, VecBufIo};
    use std::sync::Arc;

    fn fresh() -> (Arc<dyn BlkIo>, Arc<FsCore>) {
        let dev = VecBufIo::with_len(512 * BLOCK_SIZE) as Arc<dyn BlkIo>;
        FsCore::mkfs(&dev).unwrap();
        (Arc::clone(&dev), FsCore::mount(&dev, None).unwrap())
    }

    #[test]
    fn fresh_volume_is_clean() {
        let (_dev, fs) = fresh();
        assert_eq!(fsck(&fs).unwrap(), vec![]);
    }

    #[test]
    fn populated_volume_is_clean() {
        let (_dev, fs) = fresh();
        let f = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.file_write(f, &vec![9u8; 100_000], 0).unwrap();
        let mut d = fs.read_inode(f).unwrap();
        d.nlink = 1;
        fs.write_inode(f, &d).unwrap();
        fs.dir_enter(ROOT_INO, "big.bin", f).unwrap();
        fs.sync().unwrap();
        assert_eq!(fsck(&fs).unwrap(), vec![]);
    }

    #[test]
    fn detects_wrong_link_count() {
        let (_dev, fs) = fresh();
        let f = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let mut d = fs.read_inode(f).unwrap();
        d.nlink = 5; // Lies.
        fs.write_inode(f, &d).unwrap();
        fs.dir_enter(ROOT_INO, "liar", f).unwrap();
        let findings = fsck(&fs).unwrap();
        assert!(findings.iter().any(|f| matches!(
            f,
            Finding::WrongLinkCount {
                stored: 5,
                found: 1,
                ..
            }
        )));
    }

    #[test]
    fn detects_orphan_inode() {
        let (_dev, fs) = fresh();
        let f = fs.ialloc(mode::IFREG | 0o644).unwrap();
        let mut d = fs.read_inode(f).unwrap();
        d.nlink = 1;
        fs.write_inode(f, &d).unwrap();
        // Never entered into any directory.
        let findings = fsck(&fs).unwrap();
        assert!(findings
            .iter()
            .any(|x| matches!(x, Finding::OrphanInode { ino } if *ino == f)));
    }

    #[test]
    fn detects_bad_dirent() {
        let (_dev, fs) = fresh();
        fs.dir_enter(ROOT_INO, "ghost", 9999).unwrap();
        let findings = fsck(&fs).unwrap();
        assert!(findings
            .iter()
            .any(|x| matches!(x, Finding::BadDirent { name, .. } if name == "ghost")));
    }

    #[test]
    fn detects_data_past_eof() {
        let (_dev, fs) = fresh();
        let f = fs.ialloc(mode::IFREG | 0o644).unwrap();
        fs.file_write(f, &[0xAB; 8000], 0).unwrap();
        fs.dir_enter(ROOT_INO, "tail", f).unwrap();
        let mut d = fs.read_inode(f).unwrap();
        d.nlink = 1;
        fs.write_inode(f, &d).unwrap();
        assert_eq!(fsck(&fs).unwrap(), vec![]);
        // Shrink the size field alone, leaving the old bytes of the last
        // block in place.
        d.size = 5000;
        fs.write_inode(f, &d).unwrap();
        assert_eq!(fsck(&fs).unwrap(), vec![Finding::DataPastEof { ino: f }]);
        // A truncate zeroes the tail.
        d.size = 8000;
        fs.write_inode(f, &d).unwrap();
        fs.itrunc(f, 5000).unwrap();
        assert_eq!(fsck(&fs).unwrap(), vec![]);
    }

    #[test]
    fn detects_free_count_drift() {
        let (_dev, fs) = fresh();
        // Steal a block directly without updating anything else.
        let _leaked = fs.balloc().unwrap();
        let findings = fsck(&fs).unwrap();
        assert!(findings
            .iter()
            .any(|x| matches!(x, Finding::AllocatedButUnreferenced { .. })));
    }
}
