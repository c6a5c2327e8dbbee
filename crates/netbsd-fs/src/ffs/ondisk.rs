//! The on-disk format: an FFS-shaped file system ("OFFS").
//!
//! NetBSD's FFS proper spreads metadata across cylinder groups for
//! geometry reasons that a simulated disk does not reproduce; OFFS keeps
//! FFS's essential structure — superblock, allocation bitmaps, an inode
//! table, and inodes with direct/indirect/double-indirect block pointers —
//! in a flat layout.  All integers are little-endian.

/// File system block size.
pub const BLOCK_SIZE: usize = 4096;

/// Superblock magic ("OFS1").
pub const MAGIC: u32 = 0x4F46_5331;

/// Bytes per on-disk inode.
pub const INODE_SIZE: usize = 128;

/// Inodes per block.
pub const INODES_PER_BLOCK: usize = BLOCK_SIZE / INODE_SIZE;

/// Direct block pointers per inode.
pub const NDADDR: usize = 12;

/// Block pointers per indirect block.
pub const NINDIR: usize = BLOCK_SIZE / 4;

/// The root directory's inode number.
pub const ROOT_INO: u32 = 1;

/// Bytes per directory entry (fixed-size entries).
pub const DIRENT_SIZE: usize = 64;

/// Maximum file name length.
pub const MAX_NAME: usize = 58;

/// File-type bits in `mode` (upper nibble mirrors POSIX `S_IFMT`).
pub mod mode {
    /// Regular file.
    pub const IFREG: u16 = 0x8000;
    /// Directory.
    pub const IFDIR: u16 = 0x4000;
    /// Type mask.
    pub const IFMT: u16 = 0xF000;
}

/// The superblock (block 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Superblock {
    /// Must equal [`MAGIC`].
    pub magic: u32,
    /// Total blocks on the volume.
    pub nblocks: u32,
    /// Total inodes.
    pub ninodes: u32,
    /// First block of the inode allocation bitmap.
    pub ibmap_start: u32,
    /// Blocks of inode bitmap.
    pub ibmap_blocks: u32,
    /// First block of the data-block bitmap.
    pub bbmap_start: u32,
    /// Blocks of block bitmap.
    pub bbmap_blocks: u32,
    /// First block of the inode table.
    pub itable_start: u32,
    /// Blocks of inode table.
    pub itable_blocks: u32,
    /// First data block.
    pub data_start: u32,
    /// Free data blocks (maintained on the fly; verified by fsck).
    pub free_blocks: u32,
    /// Free inodes.
    pub free_inodes: u32,
    /// Cleanly unmounted.
    pub clean: bool,
}

impl Superblock {
    /// Serializes into a block-sized buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = vec![0u8; BLOCK_SIZE];
        let words = [
            self.magic,
            self.nblocks,
            self.ninodes,
            self.ibmap_start,
            self.ibmap_blocks,
            self.bbmap_start,
            self.bbmap_blocks,
            self.itable_start,
            self.itable_blocks,
            self.data_start,
            self.free_blocks,
            self.free_inodes,
            u32::from(self.clean),
        ];
        for (i, w) in words.iter().enumerate() {
            b[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        b
    }

    /// Parses from a block; `None` on bad magic.
    pub fn decode(b: &[u8]) -> Option<Superblock> {
        let w = |i: usize| u32::from_le_bytes([b[i * 4], b[i * 4 + 1], b[i * 4 + 2], b[i * 4 + 3]]);
        if w(0) != MAGIC {
            return None;
        }
        Some(Superblock {
            magic: w(0),
            nblocks: w(1),
            ninodes: w(2),
            ibmap_start: w(3),
            ibmap_blocks: w(4),
            bbmap_start: w(5),
            bbmap_blocks: w(6),
            itable_start: w(7),
            itable_blocks: w(8),
            data_start: w(9),
            free_blocks: w(10),
            free_inodes: w(11),
            clean: w(12) != 0,
        })
    }
}

/// An on-disk inode (`struct dinode`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dinode {
    /// Type and permission bits.
    pub mode: u16,
    /// Hard-link count (0 = free inode).
    pub nlink: u16,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// File size in bytes.
    pub size: u64,
    /// Modification time.
    pub mtime: u64,
    /// Direct block pointers (0 = hole).
    pub direct: [u32; NDADDR],
    /// Single-indirect block pointer.
    pub indirect: u32,
    /// Double-indirect block pointer.
    pub double_indirect: u32,
}

impl Default for Dinode {
    fn default() -> Self {
        Dinode {
            mode: 0,
            nlink: 0,
            uid: 0,
            gid: 0,
            size: 0,
            mtime: 0,
            direct: [0; NDADDR],
            indirect: 0,
            double_indirect: 0,
        }
    }
}

impl Dinode {
    /// True for directories.
    pub fn is_dir(&self) -> bool {
        self.mode & mode::IFMT == mode::IFDIR
    }

    /// True for regular files.
    pub fn is_reg(&self) -> bool {
        self.mode & mode::IFMT == mode::IFREG
    }

    /// Serializes to [`INODE_SIZE`] bytes.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        let mut b = [0u8; INODE_SIZE];
        b[0..2].copy_from_slice(&self.mode.to_le_bytes());
        b[2..4].copy_from_slice(&self.nlink.to_le_bytes());
        b[4..8].copy_from_slice(&self.uid.to_le_bytes());
        b[8..12].copy_from_slice(&self.gid.to_le_bytes());
        b[12..20].copy_from_slice(&self.size.to_le_bytes());
        b[20..28].copy_from_slice(&self.mtime.to_le_bytes());
        for (i, d) in self.direct.iter().enumerate() {
            b[28 + i * 4..32 + i * 4].copy_from_slice(&d.to_le_bytes());
        }
        b[76..80].copy_from_slice(&self.indirect.to_le_bytes());
        b[80..84].copy_from_slice(&self.double_indirect.to_le_bytes());
        b
    }

    /// Deserializes from [`INODE_SIZE`] bytes.
    pub fn decode(b: &[u8]) -> Dinode {
        let mut direct = [0u32; NDADDR];
        for (i, d) in direct.iter_mut().enumerate() {
            *d = u32::from_le_bytes([b[28 + i * 4], b[29 + i * 4], b[30 + i * 4], b[31 + i * 4]]);
        }
        Dinode {
            mode: u16::from_le_bytes([b[0], b[1]]),
            nlink: u16::from_le_bytes([b[2], b[3]]),
            uid: u32::from_le_bytes([b[4], b[5], b[6], b[7]]),
            gid: u32::from_le_bytes([b[8], b[9], b[10], b[11]]),
            size: u64::from_le_bytes(b[12..20].try_into().expect("sized")),
            mtime: u64::from_le_bytes(b[20..28].try_into().expect("sized")),
            direct,
            indirect: u32::from_le_bytes([b[76], b[77], b[78], b[79]]),
            double_indirect: u32::from_le_bytes([b[80], b[81], b[82], b[83]]),
        }
    }
}

/// A directory entry (fixed [`DIRENT_SIZE`]-byte slots).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiskDirent {
    /// Referenced inode (0 = empty slot).
    pub ino: u32,
    /// Component name.
    pub name: String,
}

impl DiskDirent {
    /// Serializes to a slot.
    pub fn encode(&self) -> [u8; DIRENT_SIZE] {
        let mut b = [0u8; DIRENT_SIZE];
        b[0..4].copy_from_slice(&self.ino.to_le_bytes());
        let name = self.name.as_bytes();
        assert!(name.len() <= MAX_NAME, "name too long");
        b[4] = name.len() as u8;
        b[5..5 + name.len()].copy_from_slice(name);
        b
    }

    /// Deserializes a slot; `None` for empty slots.
    pub fn decode(b: &[u8]) -> Option<DiskDirent> {
        let ino = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        if ino == 0 {
            return None;
        }
        let len = usize::from(b[4]).min(MAX_NAME);
        Some(DiskDirent {
            ino,
            name: String::from_utf8_lossy(&b[5..5 + len]).into_owned(),
        })
    }
}

/// Computes the volume layout for a disk of `nblocks` blocks.
pub fn layout(nblocks: u32) -> Superblock {
    // One inode per 4 data blocks, at least 16.
    let ninodes = (nblocks / 4).max(16);
    let ibmap_blocks = ninodes.div_ceil((BLOCK_SIZE * 8) as u32).max(1);
    let bbmap_blocks = nblocks.div_ceil((BLOCK_SIZE * 8) as u32).max(1);
    let itable_blocks = ninodes.div_ceil(INODES_PER_BLOCK as u32);
    let ibmap_start = 1;
    let bbmap_start = ibmap_start + ibmap_blocks;
    let itable_start = bbmap_start + bbmap_blocks;
    let data_start = itable_start + itable_blocks;
    assert!(data_start < nblocks, "volume too small");
    Superblock {
        magic: MAGIC,
        nblocks,
        ninodes,
        ibmap_start,
        ibmap_blocks,
        bbmap_start,
        bbmap_blocks,
        itable_start,
        itable_blocks,
        data_start,
        free_blocks: nblocks - data_start,
        free_inodes: ninodes - 2, // Inode 0 reserved, 1 is the root.
        clean: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_round_trip() {
        let sb = layout(10_000);
        let enc = sb.encode();
        assert_eq!(Superblock::decode(&enc), Some(sb));
        // Bad magic rejected.
        let mut bad = enc.clone();
        bad[0] ^= 1;
        assert_eq!(Superblock::decode(&bad), None);
    }

    #[test]
    fn dinode_round_trip() {
        let mut d = Dinode {
            mode: mode::IFREG | 0o644,
            nlink: 2,
            uid: 1000,
            gid: 100,
            size: 123_456_789,
            mtime: 42,
            ..Dinode::default()
        };
        d.direct[0] = 100;
        d.direct[11] = 111;
        d.indirect = 200;
        d.double_indirect = 300;
        assert_eq!(Dinode::decode(&d.encode()), d);
        assert!(d.is_reg());
        assert!(!d.is_dir());
    }

    #[test]
    fn dirent_round_trip_and_empty() {
        let e = DiskDirent {
            ino: 7,
            name: "kernel.img".into(),
        };
        assert_eq!(DiskDirent::decode(&e.encode()), Some(e));
        assert_eq!(DiskDirent::decode(&[0u8; DIRENT_SIZE]), None);
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        for n in [100u32, 1000, 100_000] {
            let sb = layout(n);
            assert!(sb.ibmap_start >= 1);
            assert!(sb.bbmap_start >= sb.ibmap_start + sb.ibmap_blocks);
            assert!(sb.itable_start >= sb.bbmap_start + sb.bbmap_blocks);
            assert!(sb.data_start >= sb.itable_start + sb.itable_blocks);
            assert!(sb.data_start < sb.nblocks);
            assert_eq!(sb.free_blocks, sb.nblocks - sb.data_start);
        }
    }
}
