//! `oskit-memdebug` — the memory allocation debugging library (paper §3.5).
//!
//! "The OSKit also provides a memory allocation debugging library, which
//! tracks memory allocations and detects common errors such as buffer
//! overruns and freeing already-freed memory.  This library provides
//! similar functionality to many popular application debugging utilities,
//! except that it runs in the minimal kernel environment provided by the
//! OSKit."
//!
//! The wrapper interposes on any [`Malloc`] implementation and any byte
//! store (machine physical memory, a plain buffer): each block is
//! surrounded by fence words, poisoned on free, and tracked in a live
//! table.  `mark`/`check_since` reproduce the `memdebug_mark` /
//! `memdebug_check` leak-bracketing calls.

use oskit_clib::malloc::Malloc;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes of fence on each side of every allocation.
pub const FENCE: u64 = 8;

/// The fence fill pattern.
pub const FENCE_BYTE_HEAD: u8 = 0xDE;
/// The trailing fence pattern (distinct, so reports identify the side).
pub const FENCE_BYTE_TAIL: u8 = 0xAD;
/// Bytes written over freed memory.
pub const POISON: u8 = 0xF5;

/// Access to the bytes the allocator's addresses refer to.
pub trait MemStore: Send + Sync {
    /// Reads `buf.len()` bytes at `addr`.
    fn read(&self, addr: u64, buf: &mut [u8]);

    /// Writes `buf` at `addr`.
    fn write(&self, addr: u64, buf: &[u8]);
}

/// A `Vec`-backed store for tests and user-level use.
pub struct VecStore(Mutex<Vec<u8>>);

impl VecStore {
    /// A zeroed store of `size` bytes.
    pub fn new(size: usize) -> VecStore {
        VecStore(Mutex::new(vec![0; size]))
    }
}

impl MemStore for VecStore {
    fn read(&self, addr: u64, buf: &mut [u8]) {
        let v = self.0.lock();
        let a = addr as usize;
        buf.copy_from_slice(&v[a..a + buf.len()]);
    }

    fn write(&self, addr: u64, buf: &[u8]) {
        let mut v = self.0.lock();
        let a = addr as usize;
        v[a..a + buf.len()].copy_from_slice(buf);
    }
}

/// What went wrong, as reported by checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Bytes before the block were overwritten.
    Underrun {
        /// The user address of the damaged block.
        addr: u64,
        /// The allocation tag.
        tag: &'static str,
    },
    /// Bytes after the block were overwritten.
    Overrun {
        /// The user address of the damaged block.
        addr: u64,
        /// The allocation tag.
        tag: &'static str,
    },
    /// `free` of an address that is not a live allocation (wild or
    /// already freed).
    BadFree {
        /// The offending address.
        addr: u64,
    },
}

/// A live allocation record.
#[derive(Clone, Debug)]
pub struct Record {
    /// User-visible address.
    pub addr: u64,
    /// Requested size.
    pub size: u64,
    /// Caller-supplied tag (the C version records caller EIPs; tags are
    /// the Rust-friendly equivalent).
    pub tag: &'static str,
    /// Allocation sequence number (compared against marks).
    pub seq: u64,
}

/// The debugging allocator.
pub struct MemDebug<M: Malloc, S: MemStore> {
    inner: M,
    store: S,
    live: Mutex<HashMap<u64, Record>>,
    seq: AtomicU64,
    violations: Mutex<Vec<Violation>>,
}

impl<M: Malloc, S: MemStore> MemDebug<M, S> {
    /// Wraps an allocator and the store its addresses point into.
    pub fn new(inner: M, store: S) -> Self {
        MemDebug {
            inner,
            store,
            live: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// Allocates `size` bytes with fences, recording `tag`.
    pub fn malloc(&self, size: u64, tag: &'static str) -> Option<u64> {
        let raw = self.inner.malloc(size + 2 * FENCE)?;
        let user = raw + FENCE;
        self.store.write(raw, &[FENCE_BYTE_HEAD; FENCE as usize]);
        self.store
            .write(user + size, &[FENCE_BYTE_TAIL; FENCE as usize]);
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        self.live.lock().insert(
            user,
            Record {
                addr: user,
                size,
                tag,
                seq,
            },
        );
        Some(user)
    }

    /// Frees a block: verifies fences, poisons the contents, and removes
    /// the record.  Violations are recorded rather than panicking, so a
    /// kernel can log and continue — fetch them with
    /// [`MemDebug::take_violations`].
    pub fn free(&self, addr: u64) {
        let rec = self.live.lock().remove(&addr);
        let Some(rec) = rec else {
            self.violations.lock().push(Violation::BadFree { addr });
            return;
        };
        self.check_record(&rec);
        // Poison user bytes so use-after-free reads are recognizable.
        let poison = vec![POISON; rec.size as usize];
        self.store.write(addr, &poison);
        self.inner.free(addr - FENCE);
    }

    fn check_record(&self, rec: &Record) {
        let mut head = [0u8; FENCE as usize];
        self.store.read(rec.addr - FENCE, &mut head);
        if head != [FENCE_BYTE_HEAD; FENCE as usize] {
            self.violations.lock().push(Violation::Underrun {
                addr: rec.addr,
                tag: rec.tag,
            });
        }
        let mut tail = [0u8; FENCE as usize];
        self.store.read(rec.addr + rec.size, &mut tail);
        if tail != [FENCE_BYTE_TAIL; FENCE as usize] {
            self.violations.lock().push(Violation::Overrun {
                addr: rec.addr,
                tag: rec.tag,
            });
        }
    }

    /// Sweeps every live allocation's fences (`memdebug_sweep`): catches
    /// corruption before the block is ever freed.
    pub fn sweep(&self) -> usize {
        let live: Vec<Record> = self.live.lock().values().cloned().collect();
        let before = self.violations.lock().len();
        for rec in &live {
            self.check_record(rec);
        }
        self.violations.lock().len() - before
    }

    /// Takes and clears the recorded violations.
    pub fn take_violations(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.violations.lock())
    }

    /// Returns a leak-bracketing mark (`memdebug_mark`).
    pub fn mark(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Returns the allocations made since `mark` that are still live
    /// (`memdebug_check`): the leak report.
    pub fn leaks_since(&self, mark: u64) -> Vec<Record> {
        let mut v: Vec<Record> = self
            .live
            .lock()
            .values()
            .filter(|r| r.seq >= mark)
            .cloned()
            .collect();
        v.sort_by_key(|r| r.seq);
        v
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.lock().len()
    }

    /// Byte-level access to an allocation, for clients (bounds-unchecked
    /// beyond the store itself — that is the point of the fences).
    pub fn store(&self) -> &S {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_clib::malloc::{simple_heap, KMalloc};

    fn debug_heap() -> MemDebug<KMalloc, VecStore> {
        let heap = simple_heap(0, 0x10000);
        MemDebug::new(KMalloc::new(heap, 0), VecStore::new(0x10000))
    }

    #[test]
    fn clean_alloc_free_has_no_violations() {
        let md = debug_heap();
        let a = md.malloc(100, "clean").unwrap();
        md.store().write(a, &[1u8; 100]); // Fill exactly the block.
        md.free(a);
        assert!(md.take_violations().is_empty());
        assert_eq!(md.live_count(), 0);
    }

    #[test]
    fn overrun_is_detected_on_free() {
        let md = debug_heap();
        let a = md.malloc(64, "overrunner").unwrap();
        md.store().write(a, &[0u8; 65]); // One byte too many.
        md.free(a);
        assert_eq!(
            md.take_violations(),
            vec![Violation::Overrun {
                addr: a,
                tag: "overrunner"
            }]
        );
    }

    #[test]
    fn underrun_is_detected() {
        let md = debug_heap();
        let a = md.malloc(64, "underrunner").unwrap();
        md.store().write(a - 1, &[0xFF]);
        md.free(a);
        assert_eq!(
            md.take_violations(),
            vec![Violation::Underrun {
                addr: a,
                tag: "underrunner"
            }]
        );
    }

    #[test]
    fn double_free_is_detected() {
        let md = debug_heap();
        let a = md.malloc(32, "df").unwrap();
        md.free(a);
        md.free(a);
        assert_eq!(md.take_violations(), vec![Violation::BadFree { addr: a }]);
    }

    #[test]
    fn wild_free_is_detected() {
        let md = debug_heap();
        md.free(0x4242);
        assert_eq!(
            md.take_violations(),
            vec![Violation::BadFree { addr: 0x4242 }]
        );
    }

    #[test]
    fn sweep_catches_live_corruption() {
        let md = debug_heap();
        let a = md.malloc(16, "live").unwrap();
        assert_eq!(md.sweep(), 0);
        md.store().write(a + 16, &[0u8; 4]); // Stomp the tail fence.
        assert_eq!(md.sweep(), 1);
        assert!(matches!(
            md.take_violations()[0],
            Violation::Overrun { tag: "live", .. }
        ));
    }

    #[test]
    fn free_poisons_memory() {
        let md = debug_heap();
        let a = md.malloc(8, "p").unwrap();
        md.store().write(a, b"ABCDEFGH");
        md.free(a);
        let mut buf = [0u8; 8];
        md.store().read(a, &mut buf);
        assert_eq!(buf, [POISON; 8]);
    }

    #[test]
    fn mark_and_leaks_since() {
        let md = debug_heap();
        let _before = md.malloc(8, "before").unwrap();
        let mark = md.mark();
        let l1 = md.malloc(8, "leak1").unwrap();
        let l2 = md.malloc(8, "leak2").unwrap();
        let tmp = md.malloc(8, "tmp").unwrap();
        md.free(tmp);
        let leaks = md.leaks_since(mark);
        let tags: Vec<_> = leaks.iter().map(|r| r.tag).collect();
        assert_eq!(tags, ["leak1", "leak2"]);
        assert_eq!(leaks[0].addr, l1);
        assert_eq!(leaks[1].addr, l2);
    }

    #[test]
    fn adjacent_allocations_do_not_interfere() {
        let md = debug_heap();
        let a = md.malloc(16, "a").unwrap();
        let b = md.malloc(16, "b").unwrap();
        md.store().write(a, &[7u8; 16]);
        md.store().write(b, &[9u8; 16]);
        md.free(a);
        md.free(b);
        assert!(md.take_violations().is_empty());
    }
}
