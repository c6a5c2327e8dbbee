//! Block and buffer I/O interfaces (paper Figure 2 and §4.4.2).

use crate::error::Result;
use crate::guid::Guid;
use crate::iunknown::IUnknown;
use crate::{com_interface_decl, Error};
use std::sync::Arc;

/// The `blkio` interface identifier from paper Figure 2.
pub const BLKIO_IID: Guid = Guid::new(
    0x4aa7_df81,
    0x7c74,
    0x11cf,
    0xb5,
    0x00,
    0x08,
    0x00,
    0x09,
    0x53,
    0xad,
    0xc2,
);

/// Absolute block/byte I/O — the OSKit's `oskit_blkio` (paper Figure 2).
///
/// "Implemented by each of the OSKit's disk device drivers as well as by
/// other components."  Offsets are byte offsets; implementations with a
/// block size greater than one may require offset and length to be
/// block-aligned.
pub trait BlkIo: IUnknown {
    /// Returns the natural block size of the object in bytes.
    ///
    /// Reads and writes should be multiples of this size; byte-grained
    /// objects return 1.
    fn get_block_size(&self) -> usize;

    /// Reads up to `buf.len()` bytes starting at byte `offset`.
    ///
    /// Returns the number of bytes actually read, which is less than
    /// requested only at end-of-object.
    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize>;

    /// Writes `buf` starting at byte `offset`, returning the number of
    /// bytes actually written.
    fn write(&self, buf: &[u8], offset: u64) -> Result<usize>;

    /// Returns the current size of the object in bytes.
    fn get_size(&self) -> Result<u64>;

    /// Resizes the object, if the implementation supports it.
    ///
    /// Fixed-size devices (disks, partitions) return [`Error::NotImpl`].
    fn set_size(&self, new_size: u64) -> Result<()> {
        let _ = new_size;
        Err(Error::NotImpl)
    }
}
com_interface_decl!(BlkIo, BLKIO_IID, "oskit_blkio");

/// Buffer I/O: `oskit_bufio`, the extension of [`BlkIo`] described in paper
/// §4.4.2.
///
/// "Adds methods to allow direct pointer-based access to the data stored in
/// the object in the common case in which this data happens to be in local
/// memory."  Network packets are passed between drivers and protocol stacks
/// as `bufio` objects (§4.7.3); mapping succeeds only when the implementor
/// stores the requested range contiguously, so callers fall back on
/// [`BlkIo::read`]/[`BlkIo::write`] when [`BufIo::with_map`] fails.
///
/// Rust reproduction note: C OSKit `map`/`unmap` hand out raw pointers; we
/// use scoped closures so the borrow is visible to the compiler, while
/// preserving the crucial property that a successful map is *zero-copy*.
pub trait BufIo: BlkIo {
    /// Calls `f` with a direct reference to bytes `[offset, offset+len)` if
    /// they are stored contiguously in local memory.
    ///
    /// Returns [`Error::NotImpl`] when the range is not mappable (e.g. it
    /// spans discontiguous mbufs); the caller must then copy via `read`.
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()>;

    /// Mutable counterpart of [`BufIo::with_map`].
    fn with_map_mut(&self, offset: usize, len: usize, f: &mut dyn FnMut(&mut [u8])) -> Result<()>;

    /// Wires the buffer for DMA, returning a simulated physical address.
    ///
    /// Drivers use this before handing buffers to hardware; the default
    /// declines, forcing a copy into driver-owned storage.
    fn wire(&self) -> Result<u64> {
        Err(Error::NotImpl)
    }

    /// Releases a [`BufIo::wire`] pin.
    fn unwire(&self) {}
}
com_interface_decl!(BufIo, crate::guid::oskit_iid(0x82), "oskit_bufio");

/// One contiguous piece of a scatter-gather view of a buffer object.
///
/// A fragment borrows the implementor's storage directly — exposing a
/// fragment is zero-copy by construction, exactly like a successful
/// [`BufIo::with_map`].
#[derive(Clone, Copy, Debug)]
pub struct IoFragment<'a> {
    /// The fragment's bytes.
    pub data: &'a [u8],
}

/// Scatter-gather buffer I/O: the vectored extension of [`BufIo`].
///
/// [`BufIo::with_map`] answers "is the range *contiguous* in local
/// memory?"; this interface relaxes the question to "is the range *in*
/// local memory?", exposing it as an ordered list of contiguous
/// fragments.  A chained packet (headers in one buffer, payload in
/// another) that `with_map` must refuse can still be handed to
/// scatter-gather-capable hardware without flattening — which is how the
/// Table 1 send-path copy becomes avoidable when the driver supports it.
///
/// Contiguous implementors get the interface for free: the provided
/// method presents the mapped range as a single fragment.
pub trait SgBufIo: BufIo {
    /// Calls `f` with bytes `[offset, offset+len)` as an ordered fragment
    /// list, borrowed zero-copy from local storage.
    ///
    /// Returns [`Error::NotImpl`] when some part of the range does not
    /// reside in local memory (the caller falls back to `with_map`/`read`)
    /// and [`Error::Inval`] when the range exceeds the object.
    fn with_map_fragments(
        &self,
        offset: usize,
        len: usize,
        f: &mut dyn FnMut(&[IoFragment<'_>]),
    ) -> Result<()> {
        self.with_map(offset, len, &mut |d| f(&[IoFragment { data: d }]))
    }
}
com_interface_decl!(SgBufIo, crate::guid::oskit_iid(0x8d), "oskit_bufio_sg");

/// A simple heap-backed [`BufIo`], used when packets must be manufactured
/// from scratch (and by tests).
pub struct VecBufIo {
    me: crate::SelfRef<VecBufIo>,
    data: std::sync::Mutex<Vec<u8>>,
}

impl VecBufIo {
    /// Creates a buffer object of `len` zero bytes.
    pub fn with_len(len: usize) -> Arc<VecBufIo> {
        Self::from_vec(vec![0; len])
    }

    /// Creates a buffer object owning `data`.
    pub fn from_vec(data: Vec<u8>) -> Arc<VecBufIo> {
        crate::new_com(
            VecBufIo {
                me: crate::SelfRef::new(),
                data: std::sync::Mutex::new(data),
            },
            |o| &o.me,
        )
    }
}

impl BlkIo for VecBufIo {
    fn get_block_size(&self) -> usize {
        1
    }

    fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        let data = self.data.lock().expect("poisoned");
        let off = offset as usize;
        if off >= data.len() {
            return Ok(0);
        }
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        Ok(n)
    }

    fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        let mut data = self.data.lock().expect("poisoned");
        let off = offset as usize;
        if off >= data.len() {
            return Err(Error::Inval);
        }
        let n = buf.len().min(data.len() - off);
        data[off..off + n].copy_from_slice(&buf[..n]);
        Ok(n)
    }

    fn get_size(&self) -> Result<u64> {
        Ok(self.data.lock().expect("poisoned").len() as u64)
    }

    fn set_size(&self, new_size: u64) -> Result<()> {
        self.data
            .lock()
            .expect("poisoned")
            .resize(new_size as usize, 0);
        Ok(())
    }
}

impl BufIo for VecBufIo {
    fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
        let data = self.data.lock().expect("poisoned");
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > data.len() {
            return Err(Error::Inval);
        }
        f(&data[offset..end]);
        Ok(())
    }

    fn with_map_mut(&self, offset: usize, len: usize, f: &mut dyn FnMut(&mut [u8])) -> Result<()> {
        let mut data = self.data.lock().expect("poisoned");
        let end = offset.checked_add(len).ok_or(Error::Inval)?;
        if end > data.len() {
            return Err(Error::Inval);
        }
        f(&mut data[offset..end]);
        Ok(())
    }
}

impl SgBufIo for VecBufIo {}

crate::com_object!(VecBufIo, me, [BlkIo, BufIo, SgBufIo]);

/// The buffer-I/O interface lattice, as seen by [`crate::Query`]:
/// `SgBufIo` ⊂ `BufIo` ⊂ `BlkIo`.
///
/// `query_any` only answers the interfaces an object explicitly
/// registered; this fallback makes a query for a *supertype* succeed
/// through any registered subtype, so `BufIo` is a true subtype of
/// `BlkIo` at the COM level — a `BUFIO_IID` object always answers
/// `BLKIO_IID`, and an `SgBufIo` object always answers `BUFIO_IID` —
/// regardless of how its `com_object!` list was spelled.
pub(crate) fn upcast_query(obj: &(impl IUnknown + ?Sized), iid: &Guid) -> Option<crate::AnyRef> {
    use crate::ComInterface;
    if *iid == <dyn BlkIo as ComInterface>::IID {
        let b = bufio_leg(obj)?;
        return Some(crate::AnyRef::new::<dyn BlkIo>(b as Arc<dyn BlkIo>));
    }
    if *iid == <dyn BufIo as ComInterface>::IID {
        let sg = obj
            .query_any(&<dyn SgBufIo as ComInterface>::IID)?
            .downcast::<dyn SgBufIo>()?;
        return Some(crate::AnyRef::new::<dyn BufIo>(sg as Arc<dyn BufIo>));
    }
    None
}

/// Finds *some* buffer-I/O view of `obj`: directly as `BufIo`, or through
/// the `SgBufIo` leg of the lattice.
fn bufio_leg(obj: &(impl IUnknown + ?Sized)) -> Option<Arc<dyn BufIo>> {
    use crate::ComInterface;
    if let Some(b) = obj
        .query_any(&<dyn BufIo as ComInterface>::IID)
        .and_then(|r| r.downcast::<dyn BufIo>())
    {
        return Some(b);
    }
    let sg = obj
        .query_any(&<dyn SgBufIo as ComInterface>::IID)?
        .downcast::<dyn SgBufIo>()?;
    Some(sg as Arc<dyn BufIo>)
}

/// Copies the full contents of a [`BufIo`] into a fresh `Vec`.
///
/// Prefers the zero-copy views in cheapness order — the fragment list if
/// the object is scatter-gather capable, then the contiguous map — and
/// falls back on `read`, exactly like the driver glue in paper §4.7.3.
/// An object whose mapped bytes disagree with its declared size is
/// malformed: that is reported as [`Error::Inval`], never truncated
/// silently.
pub fn bufio_to_vec(b: &dyn BufIo) -> Result<Vec<u8>> {
    let len = b.get_size()? as usize;
    let mut out = Vec::with_capacity(len);
    // Fragment view first: honors chained storage without flattening
    // assumptions about contiguity.
    if let Some(sg) = crate::Query::query::<dyn SgBufIo>(b) {
        match sg.with_map_fragments(0, len, &mut |fs| {
            for frag in fs {
                out.extend_from_slice(frag.data);
            }
        }) {
            Ok(()) => {
                return if out.len() == len {
                    Ok(out)
                } else {
                    Err(Error::Inval)
                };
            }
            Err(Error::NotImpl) => out.clear(),
            Err(e) => return Err(e),
        }
    }
    match b.with_map(0, len, &mut |s| out.extend_from_slice(s)) {
        Ok(()) => {
            if out.len() == len {
                Ok(out)
            } else {
                Err(Error::Inval)
            }
        }
        Err(Error::NotImpl) => {
            let mut copy = vec![0u8; len];
            let n = b.read(&mut copy, 0)?;
            copy.truncate(n);
            Ok(copy)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;

    #[test]
    fn vec_bufio_read_write() {
        let b = VecBufIo::with_len(8);
        assert_eq!(b.write(&[1, 2, 3], 2).unwrap(), 3);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf, 0).unwrap(), 8);
        assert_eq!(buf, [0, 0, 1, 2, 3, 0, 0, 0]);
    }

    #[test]
    fn read_past_end_returns_zero() {
        let b = VecBufIo::with_len(4);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf, 100).unwrap(), 0);
    }

    #[test]
    fn short_read_at_end() {
        let b = VecBufIo::from_vec(vec![9; 10]);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf, 6).unwrap(), 4);
    }

    #[test]
    fn map_is_bounds_checked() {
        let b = VecBufIo::with_len(4);
        assert_eq!(
            b.with_map(2, 3, &mut |_| panic!("must not run"))
                .unwrap_err(),
            Error::Inval
        );
        assert_eq!(
            b.with_map(usize::MAX, 2, &mut |_| ()).unwrap_err(),
            Error::Inval
        );
    }

    #[test]
    fn blkio_queries_to_bufio() {
        // Paper §4.4.2: a RAM-backed object supports the extended bufio
        // interface; a client holding blkio can discover it.
        let b = VecBufIo::with_len(4);
        let blk: Arc<dyn BlkIo> = b.query::<dyn BlkIo>().unwrap();
        let buf = blk.query::<dyn BufIo>().unwrap();
        buf.with_map(0, 4, &mut |s| assert_eq!(s.len(), 4)).unwrap();
    }

    #[test]
    fn bufio_to_vec_uses_map() {
        let b = VecBufIo::from_vec(vec![5, 6, 7]);
        assert_eq!(bufio_to_vec(&*b).unwrap(), vec![5, 6, 7]);
    }

    #[test]
    fn contiguous_bufio_maps_as_one_fragment() {
        // The provided SgBufIo method: a contiguous object is a trivial
        // one-fragment gather list.
        let b = VecBufIo::from_vec((0..50).collect());
        let mut frags = Vec::new();
        b.with_map_fragments(10, 30, &mut |fs| {
            frags = fs.iter().map(|f| f.data.to_vec()).collect();
        })
        .unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], (10..40).collect::<Vec<u8>>());
        // Bounds violations surface exactly as with_map's.
        assert_eq!(
            b.with_map_fragments(40, 11, &mut |_| panic!("must not run"))
                .unwrap_err(),
            Error::Inval
        );
    }

    #[test]
    fn bufio_queries_to_sg_bufio() {
        // A client holding plain bufio can discover the scatter-gather
        // extension, same discovery dance as blkio→bufio.
        let b = VecBufIo::from_vec(vec![3; 8]);
        let buf: Arc<dyn BufIo> = b.query::<dyn BufIo>().unwrap();
        let sg = buf.query::<dyn SgBufIo>().unwrap();
        sg.with_map_fragments(0, 8, &mut |fs| assert_eq!(fs[0].data.len(), 8))
            .unwrap();
    }

    #[test]
    fn set_size_resizes() {
        let b = VecBufIo::with_len(2);
        b.set_size(5).unwrap();
        assert_eq!(b.get_size().unwrap(), 5);
    }

    /// A buffer object that (wrongly, but legally pre-lattice) registers
    /// only the leaf interface of its inheritance chain.
    struct LeafOnly {
        me: crate::SelfRef<LeafOnly>,
        data: Vec<u8>,
    }
    impl BlkIo for LeafOnly {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
            let off = offset as usize;
            if off >= self.data.len() {
                return Ok(0);
            }
            let n = buf.len().min(self.data.len() - off);
            buf[..n].copy_from_slice(&self.data[off..off + n]);
            Ok(n)
        }
        fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
            Err(Error::NotImpl)
        }
        fn get_size(&self) -> Result<u64> {
            Ok(self.data.len() as u64)
        }
    }
    impl BufIo for LeafOnly {
        fn with_map(&self, offset: usize, len: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
            let end = offset.checked_add(len).ok_or(Error::Inval)?;
            if end > self.data.len() {
                return Err(Error::Inval);
            }
            f(&self.data[offset..end]);
            Ok(())
        }
        fn with_map_mut(
            &self,
            _offset: usize,
            _len: usize,
            _f: &mut dyn FnMut(&mut [u8]),
        ) -> Result<()> {
            Err(Error::NotImpl)
        }
    }
    impl SgBufIo for LeafOnly {}
    crate::com_object!(LeafOnly, me, [SgBufIo]);

    #[test]
    fn bufio_upcasts_to_blkio_on_every_bufio_object() {
        // The lattice makes BufIo a *true subtype* of BlkIo: the upcast
        // works even when the object's com_object! list never mentioned
        // the supertype.
        let b = crate::new_com(
            LeafOnly {
                me: crate::SelfRef::new(),
                data: vec![42; 6],
            },
            |o| &o.me,
        );
        let sg: Arc<dyn SgBufIo> = b.query::<dyn SgBufIo>().unwrap();
        let buf: Arc<dyn BufIo> = sg.query::<dyn BufIo>().expect("SgBufIo → BufIo upcast");
        let blk: Arc<dyn BlkIo> = buf.query::<dyn BlkIo>().expect("BufIo → BlkIo upcast");
        let mut probe = [0u8; 6];
        assert_eq!(blk.read(&mut probe, 0).unwrap(), 6);
        assert_eq!(probe, [42; 6]);
        // And in one hop from the leaf.
        assert!(sg.query::<dyn BlkIo>().is_some());
    }

    #[test]
    fn fully_registered_objects_upcast_too() {
        let b = VecBufIo::with_len(4);
        let sg = b.query::<dyn SgBufIo>().unwrap();
        assert!(sg.query::<dyn BufIo>().is_some());
        assert!(sg.query::<dyn BlkIo>().is_some());
        let buf = b.query::<dyn BufIo>().unwrap();
        assert!(buf.query::<dyn BlkIo>().is_some());
    }

    /// A two-fragment buffer: `with_map` refuses (discontiguous), the
    /// fragment view succeeds — the mbuf-chain shape.
    struct TwoFrags {
        me: crate::SelfRef<TwoFrags>,
        a: Vec<u8>,
        b: Vec<u8>,
    }
    impl BlkIo for TwoFrags {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
            let all: Vec<u8> = self.a.iter().chain(self.b.iter()).copied().collect();
            let off = offset as usize;
            if off >= all.len() {
                return Ok(0);
            }
            let n = buf.len().min(all.len() - off);
            buf[..n].copy_from_slice(&all[off..off + n]);
            Ok(n)
        }
        fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
            Err(Error::NotImpl)
        }
        fn get_size(&self) -> Result<u64> {
            Ok((self.a.len() + self.b.len()) as u64)
        }
    }
    impl BufIo for TwoFrags {
        fn with_map(&self, _o: usize, _l: usize, _f: &mut dyn FnMut(&[u8])) -> Result<()> {
            Err(Error::NotImpl)
        }
        fn with_map_mut(&self, _o: usize, _l: usize, _f: &mut dyn FnMut(&mut [u8])) -> Result<()> {
            Err(Error::NotImpl)
        }
    }
    impl SgBufIo for TwoFrags {
        fn with_map_fragments(
            &self,
            offset: usize,
            len: usize,
            f: &mut dyn FnMut(&[IoFragment<'_>]),
        ) -> Result<()> {
            if offset != 0 || len != self.a.len() + self.b.len() {
                return Err(Error::NotImpl);
            }
            f(&[IoFragment { data: &self.a }, IoFragment { data: &self.b }]);
            Ok(())
        }
    }
    crate::com_object!(TwoFrags, me, [BlkIo, BufIo, SgBufIo]);

    #[test]
    fn bufio_to_vec_honors_fragment_lists() {
        let b = crate::new_com(
            TwoFrags {
                me: crate::SelfRef::new(),
                a: vec![1, 2, 3],
                b: vec![4, 5],
            },
            |o| &o.me,
        );
        assert_eq!(bufio_to_vec(&*b).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    /// An object whose declared size disagrees with its mapped bytes.
    struct Liar {
        me: crate::SelfRef<Liar>,
    }
    impl BlkIo for Liar {
        fn get_block_size(&self) -> usize {
            1
        }
        fn read(&self, _buf: &mut [u8], _offset: u64) -> Result<usize> {
            Ok(0)
        }
        fn write(&self, _buf: &[u8], _offset: u64) -> Result<usize> {
            Err(Error::NotImpl)
        }
        fn get_size(&self) -> Result<u64> {
            Ok(10) // Claims 10 bytes...
        }
    }
    impl BufIo for Liar {
        fn with_map(&self, _o: usize, _l: usize, f: &mut dyn FnMut(&[u8])) -> Result<()> {
            f(&[7; 4]); // ...maps only 4.
            Ok(())
        }
        fn with_map_mut(&self, _o: usize, _l: usize, _f: &mut dyn FnMut(&mut [u8])) -> Result<()> {
            Err(Error::NotImpl)
        }
    }
    crate::com_object!(Liar, me, [BlkIo, BufIo]);

    #[test]
    fn bufio_to_vec_rejects_length_mismatch() {
        let b = crate::new_com(
            Liar {
                me: crate::SelfRef::new(),
            },
            |o| &o.me,
        );
        assert_eq!(bufio_to_vec(&*b).unwrap_err(), Error::Inval);
    }
}
