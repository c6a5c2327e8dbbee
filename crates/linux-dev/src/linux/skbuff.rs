//! `sk_buff` — the Linux network packet buffer, in donor idiom.
//!
//! This module is "encapsulated legacy code" in the sense of paper §4.7:
//! it keeps Linux 2.0's names and semantics (`alloc_skb`, `skb_reserve`,
//! `skb_put`, `skb_push`, `skb_pull`, the head/data/tail/end layout) so
//! the glue around it has something real to encapsulate.  The one Rust
//! twist is [`SkbStorage::SgMapped`]: a read-only fragment-list "fake
//! skbuff" aliasing a foreign scatter-gather `bufio`, used only on the
//! `NETIF_F_SG` transmit hand-off.  A foreign packet that maps
//! contiguously needs no skbuff at all: the glue hands the driver the
//! mapped bytes from inside the `bufio`'s `with_map` (§4.7.3).

use oskit_com::interfaces::blkio::{IoFragment, SgBufIo};
use oskit_com::{Error, Result};
use std::sync::Arc;

/// Where an skbuff's bytes live.
pub enum SkbStorage {
    /// The normal case: one contiguous owned buffer.
    Owned(Vec<u8>),
    /// A fragment-list "fake" skbuff aliasing a foreign scatter-gather
    /// buffer (zero copy), mirroring Linux's `skb_shinfo->frags` page
    /// list.
    SgMapped(Arc<dyn SgBufIo>),
}

/// The Linux packet buffer.
///
/// Layout invariant (as in Linux): `0 <= data <= tail <= end`, with the
/// packet's live bytes in `[data, tail)`.  `skb_reserve` opens headroom,
/// `skb_push`/`skb_pull` move the data edge for header processing, and
/// `skb_put` appends at the tail.
pub struct SkBuff {
    storage: SkbStorage,
    /// Offset of the first live byte.
    data: usize,
    /// Offset one past the last live byte.
    tail: usize,
    /// Total buffer capacity (`end`).
    end: usize,
    /// Receiving/transmitting device index, recorded by drivers.
    pub dev: Option<usize>,
    /// Ethernet protocol id (host order), set by `eth_type_trans`.
    pub protocol: u16,
}

impl SkBuff {
    /// `alloc_skb(size)`: an empty buffer of capacity `size`.
    pub fn alloc(size: usize) -> SkBuff {
        SkBuff {
            storage: SkbStorage::Owned(vec![0; size]),
            data: 0,
            tail: 0,
            end: size,
            dev: None,
            protocol: 0,
        }
    }

    /// Builds an skbuff that owns `bytes` outright (the DMA-filled
    /// receive case: the NIC deposited a complete frame).
    pub fn from_vec(bytes: Vec<u8>) -> SkBuff {
        let len = bytes.len();
        SkBuff {
            storage: SkbStorage::Owned(bytes),
            data: 0,
            tail: len,
            end: len,
            dev: None,
            protocol: 0,
        }
    }

    /// Builds a read-only fragment-list "fake skbuff" aliasing a foreign
    /// scatter-gather buffer (§4.7.3's "fake skbuff pointing directly to
    /// this data", for an `NETIF_F_SG` device), with the fragment list
    /// standing in for `skb_shinfo->frags`.
    ///
    /// Construction probes the fragment mapping once (as Linux fills the
    /// frag descriptors when the skb is built): a buffer that cannot
    /// expose its range as local fragments fails with
    /// [`Error::NotImpl`] so the caller can fall back to the
    /// contiguous-map/copy ladder, and a too-short buffer fails with
    /// [`Error::Inval`] — rejected here, not papered over by growing
    /// `end` past the storage it aliases.
    pub fn fake_sg(sg: Arc<dyn SgBufIo>, len: usize) -> Result<SkBuff> {
        let size = sg.get_size()? as usize;
        if len > size {
            return Err(Error::Inval);
        }
        sg.with_map_fragments(0, len, &mut |_| {})?;
        Ok(SkBuff {
            storage: SkbStorage::SgMapped(sg),
            data: 0,
            tail: len,
            end: size,
            dev: None,
            protocol: 0,
        })
    }

    /// Whether this is a fragment-list (scatter-gather) skbuff, which
    /// only an `NETIF_F_SG`-capable device can transmit.
    pub fn is_sg(&self) -> bool {
        matches!(self.storage, SkbStorage::SgMapped(_))
    }

    /// `skb->len`: live byte count.
    pub fn len(&self) -> usize {
        self.tail - self.data
    }

    /// True when no live bytes are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `skb_headroom()`.
    pub fn headroom(&self) -> usize {
        self.data
    }

    /// `skb_tailroom()`.
    pub fn tailroom(&self) -> usize {
        self.end - self.tail
    }

    /// `skb_reserve(len)`: opens headroom on an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if data is already present (as the kernel's would corrupt).
    pub fn reserve(&mut self, len: usize) {
        assert_eq!(self.len(), 0, "skb_reserve on non-empty skb");
        assert!(self.tail + len <= self.end, "skb_reserve beyond end");
        self.data += len;
        self.tail += len;
    }

    /// `skb_put(len)`: appends `len` bytes of space at the tail, returning
    /// a mutable slice of the new region.
    ///
    /// # Panics
    ///
    /// Panics if the buffer would overrun (`skb_over_panic`).
    pub fn put(&mut self, len: usize) -> &mut [u8] {
        assert!(self.tail + len <= self.end, "skb_over_panic");
        let start = self.tail;
        self.tail += len;
        match &mut self.storage {
            SkbStorage::Owned(v) => &mut v[start..start + len],
            SkbStorage::SgMapped(_) => panic!("skb_put on mapped skb"),
        }
    }

    /// `skb_push(len)`: prepends `len` bytes (header space), returning the
    /// new front region.
    ///
    /// # Panics
    ///
    /// Panics on headroom underrun (`skb_under_panic`).
    pub fn push(&mut self, len: usize) -> &mut [u8] {
        assert!(self.data >= len, "skb_under_panic");
        self.data -= len;
        let start = self.data;
        match &mut self.storage {
            SkbStorage::Owned(v) => &mut v[start..start + len],
            SkbStorage::SgMapped(_) => panic!("skb_push on mapped skb"),
        }
    }

    /// `skb_pull(len)`: strips `len` bytes from the front.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `len` bytes are live.
    pub fn pull(&mut self, len: usize) {
        assert!(self.len() >= len, "skb_pull beyond len");
        self.data += len;
    }

    /// `skb_trim(len)`: truncates to `len` live bytes.
    pub fn trim(&mut self, len: usize) {
        assert!(len <= self.len(), "skb_trim grows skb");
        self.tail = self.data + len;
    }

    /// Runs `f` over the live bytes of an owned skbuff.
    ///
    /// # Panics
    ///
    /// Panics on a fragment-list skbuff: its bytes are not one contiguous
    /// run — an SG-capable driver must use [`SkBuff::with_frags`].
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match &self.storage {
            SkbStorage::Owned(v) => f(&v[self.data..self.tail]),
            SkbStorage::SgMapped(_) => panic!("with_data on sg skb"),
        }
    }

    /// Runs `f` over the live bytes as a fragment list — the
    /// `skb_shinfo->frags` walk an SG driver performs.  An owned skbuff
    /// presents a single fragment, so a driver written against this
    /// interface handles every storage kind.
    pub fn with_frags<R>(&self, f: impl FnOnce(&[IoFragment<'_>]) -> R) -> R {
        match &self.storage {
            SkbStorage::Owned(v) => f(&[IoFragment {
                data: &v[self.data..self.tail],
            }]),
            SkbStorage::SgMapped(b) => {
                let mut out = None;
                let mut f = Some(f);
                b.with_map_fragments(self.data, self.tail - self.data, &mut |frags| {
                    if let Some(f) = f.take() {
                        out = Some(f(frags));
                    }
                })
                .expect("sg skb lost its mapping");
                out.expect("with_map_fragments did not call back")
            }
        }
    }

    /// Mutable access to the live bytes (owned storage only).
    pub fn data_mut(&mut self) -> &mut [u8] {
        match &mut self.storage {
            SkbStorage::Owned(v) => &mut v[self.data..self.tail],
            SkbStorage::SgMapped(_) => panic!("data_mut on mapped skb"),
        }
    }

    /// Copies the live bytes out (diagnostics/tests).
    pub fn to_vec(&self) -> Vec<u8> {
        self.with_frags(|frags| {
            let mut v = Vec::with_capacity(self.len());
            for fr in frags {
                v.extend_from_slice(fr.data);
            }
            v
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;

    #[test]
    fn reserve_put_push_pull_lifecycle() {
        // The canonical driver TX pattern: reserve header room, write
        // payload, push headers on the front.
        let mut skb = SkBuff::alloc(1536);
        skb.reserve(14); // Ethernet header room.
        skb.put(100).copy_from_slice(&[0xAA; 100]);
        assert_eq!(skb.len(), 100);
        skb.push(14).copy_from_slice(&[0xEE; 14]);
        assert_eq!(skb.len(), 114);
        assert_eq!(skb.headroom(), 0);
        skb.with_data(|d| {
            assert_eq!(&d[..14], &[0xEE; 14]);
            assert_eq!(&d[14..], &[0xAA; 100]);
        });
        // RX-side processing strips the header again.
        skb.pull(14);
        assert_eq!(skb.len(), 100);
    }

    #[test]
    #[should_panic(expected = "skb_over_panic")]
    fn put_overrun_panics() {
        let mut skb = SkBuff::alloc(8);
        skb.put(9);
    }

    #[test]
    #[should_panic(expected = "skb_under_panic")]
    fn push_without_headroom_panics() {
        let mut skb = SkBuff::alloc(8);
        skb.push(1);
    }

    #[test]
    fn trim_truncates() {
        let mut skb = SkBuff::from_vec(vec![1, 2, 3, 4, 5]);
        skb.trim(3);
        assert_eq!(skb.to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn sg_skb_walks_fragments() {
        // A contiguous SgBufIo presents one fragment; the walk matches
        // the bytes exactly.
        let b = VecBufIo::from_vec((0..40).collect());
        let skb = SkBuff::fake_sg(b, 40).unwrap();
        assert!(skb.is_sg());
        let n = skb.with_frags(|frags| frags.len());
        assert_eq!(n, 1);
        assert_eq!(skb.to_vec(), (0..40).collect::<Vec<u8>>());
    }

    #[test]
    fn fake_sg_rejects_short_bufio() {
        let b = VecBufIo::from_vec(vec![0u8; 10]);
        assert!(matches!(SkBuff::fake_sg(b, 11), Err(Error::Inval)));
    }

    #[test]
    #[should_panic(expected = "with_data on sg skb")]
    fn sg_skb_refuses_contiguous_access() {
        let b = VecBufIo::from_vec(vec![0u8; 8]);
        let skb = SkBuff::fake_sg(b, 8).unwrap();
        skb.with_data(|_| ());
    }

    #[test]
    fn owned_skb_presents_one_fragment() {
        let mut skb = SkBuff::alloc(32);
        skb.put(5).copy_from_slice(&[1, 2, 3, 4, 5]);
        skb.with_frags(|frags| {
            assert_eq!(frags.len(), 1);
            assert_eq!(frags[0].data, &[1, 2, 3, 4, 5]);
        });
    }

    #[test]
    fn tailroom_accounting() {
        let mut skb = SkBuff::alloc(100);
        assert_eq!(skb.tailroom(), 100);
        skb.reserve(10);
        assert_eq!(skb.tailroom(), 90);
        skb.put(20);
        assert_eq!(skb.tailroom(), 70);
        assert_eq!(skb.headroom(), 10);
    }
}
