//! BSD mbufs, in donor idiom.
//!
//! The 4.4BSD packet representation: a packet is a *chain* of mbufs, each
//! either a small 128-byte buffer, a shared 2048-byte cluster, or (the
//! OSKit addition) an external buffer referencing a wrapped `bufio`
//! packet — how "these skbuffs are passed directly to the FreeBSD TCP/IP
//! component as COM bufio objects, which the FreeBSD glue code internally
//! repackages as mbufs for the benefit of its imported FreeBSD code"
//! (paper §5) with no copy.
//!
//! Chains are what make BSD output *discontiguous*: headers live in small
//! leading mbufs, payload in shared clusters — and that discontiguity is
//! exactly what forces the copy on the OSKit send path (Table 1).

use oskit_com::interfaces::blkio::BufIo;
use std::sync::Arc;

/// Data capacity of a small mbuf (`MLEN`).
pub const MLEN: usize = 128;

/// Size of an mbuf cluster (`MCLBYTES`).
pub const MCLBYTES: usize = 2048;

/// Where an mbuf's bytes live.
#[derive(Clone)]
pub enum MbufData {
    /// A small internal buffer (capacity [`MLEN`]).
    Small(Arc<Vec<u8>>),
    /// A shared cluster (capacity [`MCLBYTES`]); sharing is what lets the
    /// send buffer and a retransmission reference the same bytes.
    Cluster(Arc<Vec<u8>>),
    /// External storage: a wrapped receive packet (`MEXTADD` in spirit).
    Ext(Arc<dyn BufIo>),
}

/// One mbuf: a window `[off, off+len)` onto its storage.
#[derive(Clone)]
pub struct Mbuf {
    data: MbufData,
    off: usize,
    len: usize,
}

impl Mbuf {
    /// `m_get` + data: a small mbuf holding `bytes` with `leading` free
    /// space before them (room for headers to be prepended).
    pub fn small(bytes: &[u8], leading: usize) -> Mbuf {
        assert!(leading + bytes.len() <= MLEN, "small mbuf overflow");
        let mut v = vec![0u8; MLEN];
        v[leading..leading + bytes.len()].copy_from_slice(bytes);
        Mbuf {
            data: MbufData::Small(Arc::new(v)),
            off: leading,
            len: bytes.len(),
        }
    }

    /// `MCLGET` + data: a cluster mbuf holding `bytes`.
    pub fn cluster(bytes: &[u8]) -> Mbuf {
        assert!(bytes.len() <= MCLBYTES, "cluster overflow");
        let mut v = bytes.to_vec();
        v.resize(v.len().max(bytes.len()), 0);
        Mbuf {
            data: MbufData::Cluster(Arc::new(v)),
            off: 0,
            len: bytes.len(),
        }
    }

    /// An external mbuf referencing `len` bytes of a foreign buffer
    /// (zero copy).
    pub fn ext(bufio: Arc<dyn BufIo>, off: usize, len: usize) -> Mbuf {
        Mbuf {
            data: MbufData::Ext(bufio),
            off,
            len,
        }
    }

    /// Live byte count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mbuf holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Runs `f` over the live bytes.
    pub fn with_data<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        match &self.data {
            MbufData::Small(v) | MbufData::Cluster(v) => f(&v[self.off..self.off + self.len]),
            MbufData::Ext(b) => {
                let mut out = None;
                let mut f = Some(f);
                let mapped = b.with_map(self.off, self.len, &mut |s| {
                    if let Some(f) = f.take() {
                        out = Some(f(s));
                    }
                });
                if let Some(r) = out {
                    return r;
                }
                // The foreign buffer reneged on the mapping it granted at
                // wrap time (or never called back).  That's the peer
                // component's bug, but a received packet must never take
                // the stack down: degrade to a copy, and if even the read
                // fails, present zeroes — the checksum will reject the
                // packet, which is exactly how a truncated frame dies.
                let mut flat = vec![0u8; self.len];
                if mapped.is_err() {
                    let _ = b.read(&mut flat, self.off as u64);
                }
                f.take().expect("with_data closure consumed")(&flat)
            }
        }
    }

    /// The live bytes as a direct borrow, when the storage is local (a
    /// small mbuf or a cluster); `None` for external storage, whose bytes
    /// are only reachable through the foreign bufio's own map protocol.
    pub fn local_data(&self) -> Option<&[u8]> {
        match &self.data {
            MbufData::Small(v) | MbufData::Cluster(v) => {
                Some(&v[self.off..self.off + self.len])
            }
            MbufData::Ext(_) => None,
        }
    }

    /// Trims `n` bytes from the front.
    fn adj_front(&mut self, n: usize) {
        assert!(n <= self.len);
        self.off += n;
        self.len -= n;
    }

    /// Trims `n` bytes from the back.
    fn adj_back(&mut self, n: usize) {
        assert!(n <= self.len);
        self.len -= n;
    }
}

/// The recursive heart of [`MbufChain::with_fragments`]: accumulates
/// borrowed slices mbuf by mbuf and calls `done` once the window is
/// covered.  Continuation-passing style because an external mbuf's bytes
/// only exist *inside* its bufio's `with_map` callback — recursing within
/// that callback keeps every borrow alive until `done` runs, with no
/// lifetime laundering.  Returns `false` if a foreign buffer
/// declined to map.
fn walk_fragments(
    bufs: &[Mbuf],
    off: usize,
    len: usize,
    acc: &[&[u8]],
    done: &mut dyn FnMut(&[&[u8]]),
) -> bool {
    if len == 0 {
        done(acc);
        return true;
    }
    let m = &bufs[0];
    if off >= m.len() {
        return walk_fragments(&bufs[1..], off - m.len(), len, acc, done);
    }
    let take = (m.len() - off).min(len);
    match &m.data {
        MbufData::Small(v) | MbufData::Cluster(v) => {
            let d = &v[m.off + off..m.off + off + take];
            let mut acc2: Vec<&[u8]> = acc.to_vec();
            acc2.push(d);
            walk_fragments(&bufs[1..], 0, len - take, &acc2, done)
        }
        MbufData::Ext(b) => {
            let mut inner_ok = false;
            let mapped = b.with_map(m.off + off, take, &mut |s| {
                let mut acc2: Vec<&[u8]> = acc.to_vec();
                acc2.push(s);
                inner_ok = walk_fragments(&bufs[1..], 0, len - take, &acc2, done);
            });
            mapped.is_ok() && inner_ok
        }
    }
}

/// A packet: a chain of mbufs (`m_pkthdr` implied on the chain itself).
#[derive(Clone, Default)]
pub struct MbufChain {
    bufs: Vec<Mbuf>,
}

impl MbufChain {
    /// An empty chain.
    pub fn new() -> MbufChain {
        MbufChain::default()
    }

    /// Builds a chain from contiguous data, fragmenting into clusters —
    /// what `sosend`'s uiomove loop produces for bulk data.
    pub fn from_slice(mut data: &[u8]) -> MbufChain {
        let mut chain = MbufChain::new();
        while !data.is_empty() {
            let n = data.len().min(MCLBYTES);
            chain.bufs.push(Mbuf::cluster(&data[..n]));
            data = &data[n..];
        }
        chain
    }

    /// Wraps one mbuf as a chain.
    pub fn from_mbuf(m: Mbuf) -> MbufChain {
        MbufChain { bufs: vec![m] }
    }

    /// `m_pkthdr.len`: total bytes.
    pub fn pkt_len(&self) -> usize {
        self.bufs.iter().map(Mbuf::len).sum()
    }

    /// Number of mbufs in the chain.
    pub fn num_bufs(&self) -> usize {
        self.bufs.len()
    }

    /// True when the chain carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.pkt_len() == 0
    }

    /// Whether the whole packet is one contiguous run (a single mbuf) —
    /// the condition under which the driver glue can map it without a
    /// copy.
    pub fn is_contiguous(&self) -> bool {
        self.bufs.len() == 1
    }

    /// `M_PREPEND`: puts `bytes` in front of the packet.  Uses leading
    /// space in the first mbuf when available, else prepends a new small
    /// mbuf — making the chain discontiguous, as in BSD.
    pub fn m_prepend(&mut self, bytes: &[u8]) {
        if let Some(first) = self.bufs.first_mut() {
            if let MbufData::Small(v) = &mut first.data {
                if first.off >= bytes.len() {
                    if let Some(v) = Arc::get_mut(v) {
                        let new_off = first.off - bytes.len();
                        v[new_off..first.off].copy_from_slice(bytes);
                        first.off = new_off;
                        first.len += bytes.len();
                        return;
                    }
                }
            }
        }
        self.bufs.insert(0, Mbuf::small(bytes, MLEN - bytes.len().min(MLEN)));
    }

    /// `m_adj(+n)`: trims `n` bytes from the front of the packet.
    pub fn m_adj(&mut self, mut n: usize) {
        assert!(n <= self.pkt_len(), "m_adj beyond packet");
        while n > 0 {
            let first = &mut self.bufs[0];
            let take = n.min(first.len());
            first.adj_front(take);
            n -= take;
            if first.is_empty() {
                self.bufs.remove(0);
            }
        }
        self.bufs.retain(|m| !m.is_empty());
    }

    /// `m_adj(-n)`: trims `n` bytes from the tail.
    pub fn m_adj_tail(&mut self, mut n: usize) {
        assert!(n <= self.pkt_len(), "m_adj beyond packet");
        while n > 0 {
            let last = self.bufs.last_mut().expect("empty chain");
            let take = n.min(last.len());
            last.adj_back(take);
            n -= take;
            if last.is_empty() {
                self.bufs.pop();
            }
        }
    }

    /// `m_copydata`: copies `len` bytes at `off` into `out`.
    pub fn m_copydata(&self, mut off: usize, out: &mut [u8]) {
        let mut copied = 0;
        for m in &self.bufs {
            if copied == out.len() {
                break;
            }
            if off >= m.len() {
                off -= m.len();
                continue;
            }
            let avail = m.len() - off;
            let n = avail.min(out.len() - copied);
            m.with_data(|d| out[copied..copied + n].copy_from_slice(&d[off..off + n]));
            copied += n;
            off = 0;
        }
        assert_eq!(copied, out.len(), "m_copydata beyond packet");
    }

    /// `m_copym`: a new chain referencing bytes `[off, off+len)` without
    /// copying cluster/ext contents (storage is shared via `Arc`, as BSD
    /// shares clusters by reference count).
    pub fn m_copym(&self, mut off: usize, mut len: usize) -> MbufChain {
        let mut out = MbufChain::new();
        for m in &self.bufs {
            if len == 0 {
                break;
            }
            if off >= m.len() {
                off -= m.len();
                continue;
            }
            let take = (m.len() - off).min(len);
            let mut part = m.clone();
            part.adj_front(off);
            part.adj_back(part.len() - take);
            out.bufs.push(part);
            len -= take;
            off = 0;
        }
        assert_eq!(len, 0, "m_copym beyond packet");
        out
    }

    /// `m_cat`: appends another chain, coalescing at the seam in the
    /// `sbcompress` spirit.  Two adjacent external mbufs lending
    /// *contiguous* ranges of the *same* foreign buffer merge into one.
    /// Besides keeping chains short, this is load-bearing for sendfile:
    /// a window of one cache page arrives as several appends, and a
    /// TCP segment spanning two of them would otherwise present the
    /// same page as two fragments — whose nested `with_map` calls would
    /// re-enter the page lock.  Merged, a segment touches each page at
    /// most once.
    pub fn m_cat(&mut self, mut other: MbufChain) {
        if let (Some(tail), Some(head)) = (self.bufs.last_mut(), other.bufs.first()) {
            if let (MbufData::Ext(a), MbufData::Ext(b)) = (&tail.data, &head.data) {
                if Arc::ptr_eq(a, b) && tail.off + tail.len == head.off {
                    tail.len += head.len;
                    other.bufs.remove(0);
                }
            }
        }
        self.bufs.append(&mut other.bufs);
    }

    /// `m_pullup(n)`: makes the first `n` bytes contiguous, copying into a
    /// fresh small mbuf if they are not already.  Returns how many bytes
    /// were copied (0 on the fast path) so callers can charge the work.
    pub fn m_pullup(&mut self, n: usize) -> usize {
        assert!(n <= MLEN, "m_pullup beyond MLEN");
        assert!(n <= self.pkt_len(), "m_pullup beyond packet");
        if self.bufs.first().is_some_and(|m| m.len() >= n) {
            return 0;
        }
        let mut head = vec![0u8; n];
        self.m_copydata(0, &mut head);
        self.m_adj(n);
        self.bufs.insert(0, Mbuf::small(&head, 0));
        n
    }

    /// Runs `f` over the first `n` bytes if they are contiguous; returns
    /// `None` otherwise (callers then `m_pullup`).
    pub fn with_contig<R>(&self, n: usize, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let first = self.bufs.first()?;
        if first.len() < n {
            return None;
        }
        Some(first.with_data(|d| f(&d[..n])))
    }

    /// Runs `f` over bytes `[off, off+len)` as an ordered list of
    /// contiguous slices, one per mbuf touched, without flattening the
    /// chain.  External mbufs contribute their storage through the
    /// foreign bufio's own map protocol — still zero-copy — so a chain
    /// carrying lent buffer-cache pages (the `sendfile` path) gathers
    /// like any other.  Returns `None` only when a foreign buffer
    /// declines to map (the caller then falls back to a copy).
    pub fn with_fragments<R>(
        &self,
        off: usize,
        len: usize,
        f: impl FnOnce(&[&[u8]]) -> R,
    ) -> Option<R> {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.pkt_len()),
            "with_fragments beyond packet"
        );
        let mut out = None;
        let mut f = Some(f);
        let ok = walk_fragments(&self.bufs, off, len, &[], &mut |frags| {
            if let Some(f) = f.take() {
                out = Some(f(frags));
            }
        });
        if ok {
            out
        } else {
            None
        }
    }

    /// Flattens to a `Vec` (tests, diagnostics).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.pkt_len()];
        self.m_copydata(0, &mut out);
        out
    }

    /// Iterates over the mbufs.
    pub fn iter(&self) -> impl Iterator<Item = &Mbuf> {
        self.bufs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::blkio::VecBufIo;

    #[test]
    fn from_slice_fragments_into_clusters() {
        let data: Vec<u8> = (0..5000).map(|i| (i % 256) as u8).collect();
        let chain = MbufChain::from_slice(&data);
        assert_eq!(chain.pkt_len(), 5000);
        assert_eq!(chain.num_bufs(), 3); // 2048+2048+904.
        assert_eq!(chain.to_vec(), data);
        assert!(!chain.is_contiguous());
    }

    #[test]
    fn prepend_uses_leading_space_then_new_mbuf() {
        // A small mbuf with leading space absorbs one header...
        let mut chain = MbufChain::from_mbuf(Mbuf::small(b"payload", 40));
        chain.m_prepend(b"TCPHDR--------------");
        assert_eq!(chain.num_bufs(), 1);
        // ...a cluster-first chain needs a new header mbuf (discontiguous).
        let mut chain2 = MbufChain::from_slice(&[0xAA; 1460]);
        chain2.m_prepend(&[0xBB; 20]);
        assert_eq!(chain2.num_bufs(), 2);
        assert!(!chain2.is_contiguous());
        let v = chain2.to_vec();
        assert_eq!(&v[..20], &[0xBB; 20]);
        assert_eq!(&v[20..], &[0xAA; 1460]);
    }

    #[test]
    fn m_adj_front_and_tail() {
        let mut chain = MbufChain::from_slice(&(0..100).collect::<Vec<u8>>());
        chain.m_adj(10);
        chain.m_adj_tail(5);
        let v = chain.to_vec();
        assert_eq!(v.len(), 85);
        assert_eq!(v[0], 10);
        assert_eq!(*v.last().unwrap(), 94);
    }

    #[test]
    fn m_adj_across_mbufs() {
        let mut chain = MbufChain::from_slice(&[1u8; 2048]);
        chain.m_cat(MbufChain::from_slice(&[2u8; 100]));
        chain.m_adj(2049); // Eats the whole first cluster plus one byte.
        assert_eq!(chain.pkt_len(), 99);
        assert!(chain.to_vec().iter().all(|&b| b == 2));
    }

    #[test]
    fn m_copym_shares_storage() {
        let chain = MbufChain::from_slice(&[7u8; 4096]);
        let copy = chain.m_copym(100, 2000);
        assert_eq!(copy.pkt_len(), 2000);
        assert!(copy.to_vec().iter().all(|&b| b == 7));
        // Storage is shared, not duplicated: the clone added references,
        // not bytes.
        match (&chain.bufs[0].data, &copy.bufs[0].data) {
            (MbufData::Cluster(a), MbufData::Cluster(b)) => {
                assert!(Arc::ptr_eq(a, b), "cluster was copied");
            }
            _ => panic!("expected clusters"),
        }
    }

    #[test]
    fn m_copydata_spanning_chain() {
        let mut chain = MbufChain::from_slice(&[1u8; 2048]);
        chain.m_cat(MbufChain::from_slice(&[2u8; 2048]));
        let mut buf = [0u8; 100];
        chain.m_copydata(2000, &mut buf);
        assert!(buf[..48].iter().all(|&b| b == 1));
        assert!(buf[48..].iter().all(|&b| b == 2));
    }

    #[test]
    fn m_pullup_makes_headers_contiguous() {
        // Simulate a packet whose 20-byte header straddles two mbufs.
        let mut chain = MbufChain::from_mbuf(Mbuf::small(&[0x11; 10], 0));
        chain.m_cat(MbufChain::from_slice(&[0x22; 50]));
        assert!(chain.with_contig(20, |_| ()).is_none());
        let copied = chain.m_pullup(20);
        assert_eq!(copied, 20);
        chain
            .with_contig(20, |h| {
                assert_eq!(&h[..10], &[0x11; 10]);
                assert_eq!(&h[10..], &[0x22; 10]);
            })
            .unwrap();
        assert_eq!(chain.pkt_len(), 60);
        // Already-contiguous pullup is free.
        assert_eq!(chain.m_pullup(20), 0);
    }

    #[test]
    fn m_cat_coalesces_adjacent_ext_lends() {
        use oskit_com::interfaces::blkio::VecBufIo;
        let page = VecBufIo::from_vec((0..100).collect());
        let other = VecBufIo::from_vec(vec![9; 100]);
        // Contiguous ranges of the same foreign buffer merge...
        let mut chain = MbufChain::from_mbuf(Mbuf::ext(Arc::clone(&page) as _, 10, 20));
        chain.m_cat(MbufChain::from_mbuf(Mbuf::ext(Arc::clone(&page) as _, 30, 40)));
        assert_eq!(chain.num_bufs(), 1);
        assert_eq!(chain.pkt_len(), 60);
        assert_eq!(chain.to_vec(), (10..70).collect::<Vec<u8>>());
        // ...so a window spanning the seam maps as ONE fragment: the
        // nested same-page map a segment straddling two appends would
        // otherwise attempt (and deadlock on) cannot arise.
        let mut frags = 0;
        assert!(chain.with_fragments(0, 60, |parts| frags = parts.len()).is_some());
        assert_eq!(frags, 1);
        // Discontiguous ranges and different buffers stay separate.
        chain.m_cat(MbufChain::from_mbuf(Mbuf::ext(Arc::clone(&page) as _, 80, 10)));
        assert_eq!(chain.num_bufs(), 2);
        chain.m_cat(MbufChain::from_mbuf(Mbuf::ext(other, 90, 10)));
        assert_eq!(chain.num_bufs(), 3);
    }

    #[test]
    fn ext_mbuf_is_zero_copy() {
        let b = VecBufIo::from_vec((0..100).collect());
        let m = Mbuf::ext(b, 10, 50);
        m.with_data(|d| {
            assert_eq!(d.len(), 50);
            assert_eq!(d[0], 10);
            assert_eq!(d[49], 59);
        });
        let chain = MbufChain::from_mbuf(m);
        assert!(chain.is_contiguous());
    }

    #[test]
    fn fragments_walk_the_chain_without_flattening() {
        // Header mbuf + two clusters: the bulk-data shape TCP output makes.
        let mut chain = MbufChain::from_slice(&[0xAA; 3000]);
        chain.m_prepend(&[0xBB; 54]);
        assert_eq!(chain.num_bufs(), 3);
        let (n, total, first) = chain
            .with_fragments(0, chain.pkt_len(), |fs| {
                (fs.len(), fs.iter().map(|f| f.len()).sum::<usize>(), fs[0].to_vec())
            })
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(total, 3054);
        assert_eq!(first, vec![0xBB; 54]);
        // Windowing: a sub-range skips and trims mbufs.
        let lens = chain
            .with_fragments(50, 2100, |fs| fs.iter().map(|f| f.len()).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(lens, vec![4, 2048, 48]);
    }

    #[test]
    fn fragments_walk_into_external_storage() {
        // Header mbuf + lent foreign buffer: the sendfile segment shape.
        // The deep walk borrows the ext bytes through the foreign map
        // protocol — zero-copy — and presents one fragment per mbuf.
        let b = VecBufIo::from_vec((0..100).collect());
        let mut chain = MbufChain::from_mbuf(Mbuf::ext(b, 20, 60));
        chain.m_prepend(&[2; 14]);
        let frags = chain
            .with_fragments(0, 74, |fs| fs.iter().map(|f| f.to_vec()).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0], vec![2; 14]);
        assert_eq!(frags[1], (20..80).collect::<Vec<u8>>());
        // Windowing into the ext mbuf honors its base offset.
        chain
            .with_fragments(16, 10, |fs| {
                assert_eq!(fs.len(), 1);
                assert_eq!(fs[0], &(22..32).collect::<Vec<u8>>()[..]);
            })
            .unwrap();
    }

    /// A buffer object that refuses to map — a remote or device-resident
    /// buffer whose bytes are not in local memory.
    struct Unmappable {
        me: oskit_com::SelfRef<Unmappable>,
    }
    impl oskit_com::interfaces::blkio::BlkIo for Unmappable {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, buf: &mut [u8], _offset: u64) -> oskit_com::Result<usize> {
            buf.fill(9);
            Ok(buf.len())
        }
        fn write(&self, _buf: &[u8], _offset: u64) -> oskit_com::Result<usize> {
            Err(oskit_com::Error::NotImpl)
        }
        fn get_size(&self) -> oskit_com::Result<u64> {
            Ok(100)
        }
    }
    impl BufIo for Unmappable {
        fn with_map(
            &self,
            _o: usize,
            _l: usize,
            _f: &mut dyn FnMut(&[u8]),
        ) -> oskit_com::Result<()> {
            Err(oskit_com::Error::NotImpl)
        }
        fn with_map_mut(
            &self,
            _o: usize,
            _l: usize,
            _f: &mut dyn FnMut(&mut [u8]),
        ) -> oskit_com::Result<()> {
            Err(oskit_com::Error::NotImpl)
        }
    }
    oskit_com::com_object!(Unmappable, me, [BufIo]);

    #[test]
    fn fragments_refuse_unmappable_external_storage() {
        let b = oskit_com::new_com(
            Unmappable {
                me: oskit_com::SelfRef::new(),
            },
            |o| &o.me,
        );
        let mut chain = MbufChain::from_mbuf(Mbuf::ext(b, 0, 100));
        chain.m_prepend(&[2; 14]);
        // The foreign buffer declines to map: the gather fails and the
        // caller must fall back to a copy.
        assert!(chain.with_fragments(0, 114, |_| ()).is_none());
        // A window that avoids the ext mbuf still works.
        assert!(chain.with_fragments(0, 14, |fs| assert_eq!(fs.len(), 1)).is_some());
    }

    #[test]
    #[should_panic(expected = "with_fragments beyond packet")]
    fn fragments_out_of_range_panics() {
        MbufChain::from_slice(&[0u8; 10]).with_fragments(0, 11, |_| ());
    }

    #[test]
    #[should_panic(expected = "m_copydata beyond packet")]
    fn copydata_out_of_range_panics() {
        let chain = MbufChain::from_slice(&[0u8; 10]);
        let mut buf = [0u8; 11];
        chain.m_copydata(0, &mut buf);
    }
}
