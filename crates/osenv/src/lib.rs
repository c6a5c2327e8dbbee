//! `oskit-osenv` — the execution environment OSKit components depend on.
//!
//! Paper §4.5: "To achieve full OSKit component separability, it is
//! necessary to define and document not only the interface implemented by
//! a component, but also all of the interfaces the component itself uses
//! and the execution environment on which it depends: in other words, each
//! component must be described not only 'in front' but 'all around.'"
//!
//! This crate is that "all around": the `osenv` services every encapsulated
//! component consumes —
//!
//! * **memory** ([`OsEnv::mem_alloc`]) with typed constraints (DMA-reachable,
//!   below 1 MB) and a *client-overridable* implementation, reproducing the
//!   `fdev_mem_alloc` overridable-default pattern of §4.2.1;
//! * **interrupt control** ([`OsEnv::intr_guard`]) mapping to the machine's
//!   `cli`/`sti`;
//! * **sleep/wakeup** ([`OsenvSleep`]) — the minimal one-waiter sleep record
//!   of §4.7.6 on which each donor OS's native mechanism is emulated;
//! * **timers** ([`OsEnv::timer_register`]) for driver timeouts;
//! * **logging and panic** with an overridable sink;
//! * the **component lock** ([`ProcessLock`]) recipe of §4.7.4 for hosting
//!   nonpreemptive donor code in multithreaded clients.

use oskit_machine::{IrqGuard, Machine, Ns, PhysAddr, Sim, SleepRecord, WakeReason, DMA_LIMIT};
use oskit_trace::{boundary, EventKind};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

#[cfg(test)]
mod tests_extra;

/// Constraints on an osenv memory allocation (paper §3.3: "device drivers
/// often need to allocate memory of specific 'types'").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemFlags {
    /// Must be reachable by the ISA DMA controller (below 16 MB).
    pub dma: bool,
    /// Must lie below 1 MB (real-mode / bounce buffers).
    pub below_1m: bool,
    /// Must not cross a 64 KB boundary (ISA DMA counter wrap).
    pub no_64k_cross: bool,
    /// Requested at interrupt level (the donor kernels' `GFP_ATOMIC` /
    /// `M_NOWAIT`): the caller cannot sleep or reclaim, so under memory
    /// pressure — scripted or real — these requests fail first.
    pub atomic: bool,
}

/// The overridable memory service.
///
/// The default implementation is a simple first-fit allocator over the
/// machine's physical memory; a client OS that manages physical memory
/// itself (e.g. through the LMM) installs its own with
/// [`OsEnv::set_mem_allocator`] — "this default can easily be overridden by
/// the client OS if it uses its own method of managing physical memory"
/// (§4.2.1).
pub trait OsenvMem: Send {
    /// Allocates `size` bytes with `align`-byte alignment under `flags`.
    fn alloc(&mut self, size: usize, align: usize, flags: MemFlags) -> Option<PhysAddr>;

    /// Frees an allocation made by [`OsenvMem::alloc`] (same size).
    fn free(&mut self, addr: PhysAddr, size: usize);

    /// Total bytes currently available (diagnostic).
    fn avail(&self) -> usize;
}

/// The default first-fit physical allocator.
struct FirstFit {
    /// Sorted, disjoint free ranges `(start, len)`.
    free: Vec<(u32, u32)>,
}

impl FirstFit {
    fn new(mem_size: usize) -> FirstFit {
        // Leave the first 4 KB unused so address 0 never escapes (a null
        // physical address is almost always a bug).
        FirstFit {
            free: vec![(0x1000, mem_size as u32 - 0x1000)],
        }
    }
}

impl OsenvMem for FirstFit {
    fn alloc(&mut self, size: usize, align: usize, flags: MemFlags) -> Option<PhysAddr> {
        let size = (size.max(1)) as u32;
        let align = (align.max(1)) as u32;
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let limit = if flags.below_1m {
            0x10_0000
        } else if flags.dma {
            DMA_LIMIT
        } else {
            u32::MAX
        };
        for i in 0..self.free.len() {
            let (start, len) = self.free[i];
            let mut candidate = (start + align - 1) & !(align - 1);
            if flags.no_64k_cross && (candidate >> 16) != ((candidate + size - 1) >> 16) {
                // Skip to the next 64 KB boundary.
                candidate = (candidate | 0xFFFF) + 1;
                candidate = (candidate + align - 1) & !(align - 1);
            }
            let Some(end) = candidate.checked_add(size) else {
                continue;
            };
            if end > start + len || end > limit {
                continue;
            }
            // Carve [candidate, end) out of the block.
            let mut replacement = Vec::new();
            if candidate > start {
                replacement.push((start, candidate - start));
            }
            if end < start + len {
                replacement.push((end, start + len - end));
            }
            self.free.splice(i..=i, replacement);
            return Some(candidate);
        }
        None
    }

    fn free(&mut self, addr: PhysAddr, size: usize) {
        let size = size.max(1) as u32;
        let pos = self.free.partition_point(|&(s, _)| s < addr);
        self.free.insert(pos, (addr, size));
        // Coalesce neighbours.
        let mut i = pos.saturating_sub(1);
        while i + 1 < self.free.len() {
            let (s0, l0) = self.free[i];
            let (s1, l1) = self.free[i + 1];
            assert!(
                s0 + l0 <= s1,
                "double free or overlapping free at {addr:#x}"
            );
            if s0 + l0 == s1 {
                self.free[i] = (s0, l0 + l1);
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    fn avail(&self) -> usize {
        self.free.iter().map(|&(_, l)| l as usize).sum()
    }
}

/// Severity for [`OsEnv::log`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LogLevel {
    /// Debug chatter.
    Debug,
    /// Informational.
    Info,
    /// Something is wrong but recoverable.
    Warn,
    /// Component giving up on an operation.
    Err,
}

type LogSink = Box<dyn Fn(LogLevel, &str) + Send + Sync>;

/// A registered osenv timer (driver timeout); dropping it unregisters.
pub struct TimerHandle {
    stop: Arc<std::sync::atomic::AtomicBool>,
}

impl Drop for TimerHandle {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

/// The execution environment handed to every component.
pub struct OsEnv {
    /// The machine this environment runs on.
    pub machine: Arc<Machine>,
    mem: Mutex<Box<dyn OsenvMem>>,
    log_sink: Mutex<LogSink>,
}

impl OsEnv {
    /// Builds an environment with the default memory allocator and a
    /// stderr log sink.
    pub fn new(machine: &Arc<Machine>) -> Arc<OsEnv> {
        let mem_size = machine.phys.size();
        Arc::new(OsEnv {
            machine: Arc::clone(machine),
            mem: Mutex::new(Box::new(FirstFit::new(mem_size))),
            log_sink: Mutex::new(Box::new(|lvl, msg| {
                eprintln!("[osenv {lvl:?}] {msg}");
            })),
        })
    }

    /// The simulation this environment's machine belongs to.
    pub fn sim(&self) -> &Arc<Sim> {
        &self.machine.sim
    }

    /// Current virtual time for this machine's CPU.
    pub fn now(&self) -> Ns {
        self.machine.cpu_now()
    }

    // --- Memory (overridable; paper §4.2.1) ---

    /// Replaces the memory allocator — the client OS "can obtain full
    /// control over memory allocation and other services when needed".
    pub fn set_mem_allocator(&self, alloc: Box<dyn OsenvMem>) {
        *self.mem.lock() = alloc;
    }

    /// Allocates physical memory under `flags`.
    ///
    /// Returns `None` when the pool is exhausted — or when the machine's
    /// fault plan scripts a failure (`GFP_ATOMIC` requests fail first).
    /// Either way the failure is counted on the `osenv::mem` boundary and
    /// logged at [`LogLevel::Warn`]; components must degrade, not panic.
    pub fn mem_alloc(&self, size: usize, align: usize, flags: MemFlags) -> Option<PhysAddr> {
        if self.machine.faults().alloc_fail(flags.atomic) {
            self.note_alloc_failure(size, flags);
            return None;
        }
        let got = self.mem.lock().alloc(size, align, flags);
        match got {
            Some(_) => self
                .machine
                .book(boundary!("osenv", "mem"), EventKind::Alloc { bytes: size }),
            None => self.note_alloc_failure(size, flags),
        }
        got
    }

    /// Books one allocation failure: a trace event on the `osenv::mem`
    /// boundary plus a warning through the log sink.
    fn note_alloc_failure(&self, size: usize, flags: MemFlags) {
        self.machine.book(
            boundary!("osenv", "mem"),
            EventKind::AllocFailed { bytes: size },
        );
        let ctx = if flags.atomic { " (GFP_ATOMIC)" } else { "" };
        self.log(
            LogLevel::Warn,
            &format!("mem_alloc: {size} bytes unavailable{ctx}"),
        );
    }

    /// Frees an allocation.
    pub fn mem_free(&self, addr: PhysAddr, size: usize) {
        self.mem.lock().free(addr, size);
    }

    /// Bytes currently available from the allocator.
    pub fn mem_avail(&self) -> usize {
        self.mem.lock().avail()
    }

    // --- Interrupt control ---

    /// Disables interrupts until the returned guard drops
    /// (`osenv_intr_disable` / `osenv_intr_enable`).
    pub fn intr_guard(&self) -> IrqGuard {
        IrqGuard::new(&self.machine.irq)
    }

    // --- Sleep/wakeup (paper §4.7.6) ---

    /// Creates a sleep record bound to this environment.
    pub fn sleep_create(self: &Arc<Self>) -> OsenvSleep {
        OsenvSleep {
            env: Arc::clone(self),
            rec: Arc::new(SleepRecord::new()),
        }
    }

    // --- Timers ---

    /// Registers `f` to run at interrupt level every `period` ns until the
    /// handle is dropped (the donor kernels' `add_timer`/`timeout`).
    pub fn timer_register(
        self: &Arc<Self>,
        period: Ns,
        f: impl FnMut() + Send + 'static,
    ) -> TimerHandle {
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        schedule_periodic(self.sim(), period, stop.clone(), Box::new(f));
        TimerHandle { stop }
    }

    // --- Logging ---

    /// Replaces the log sink.
    pub fn set_log_sink(&self, sink: impl Fn(LogLevel, &str) + Send + Sync + 'static) {
        *self.log_sink.lock() = Box::new(sink);
    }

    /// Logs a message (`osenv_log`).
    pub fn log(&self, level: LogLevel, msg: &str) {
        (self.log_sink.lock())(level, msg);
    }

    /// Unrecoverable component failure (`osenv_panic`).
    pub fn panic(&self, msg: &str) -> ! {
        self.log(LogLevel::Err, msg);
        panic!("osenv_panic: {msg}");
    }
}

fn schedule_periodic(
    sim: &Arc<Sim>,
    period: Ns,
    stop: Arc<std::sync::atomic::AtomicBool>,
    mut f: Box<dyn FnMut() + Send>,
) {
    let sim2 = Arc::clone(sim);
    sim.at(period, move || {
        if stop.load(std::sync::atomic::Ordering::SeqCst) {
            return;
        }
        f();
        schedule_periodic(&sim2.clone(), period, stop, f);
    });
}

/// A sleep record bound to an environment: the object behind
/// `osenv_sleep`/`osenv_wakeup`.
///
/// Clonable and shareable; the wakeup side is typically invoked from an
/// interrupt handler.
#[derive(Clone)]
pub struct OsenvSleep {
    env: Arc<OsEnv>,
    rec: Arc<SleepRecord>,
}

impl OsenvSleep {
    /// Blocks the calling process thread until [`OsenvSleep::wakeup`].
    pub fn sleep(&self) {
        self.env
            .machine
            .book(boundary!("osenv", "sleep"), EventKind::Sleep);
        self.rec.wait(self.env.sim());
    }

    /// Blocks with a timeout; returns how the sleep ended.
    pub fn sleep_timeout(&self, timeout: Ns) -> WakeReason {
        self.env
            .machine
            .book(boundary!("osenv", "sleep"), EventKind::Sleep);
        self.rec.wait_timeout(self.env.sim(), timeout)
    }

    /// Wakes the sleeper (callable from interrupt level).
    pub fn wakeup(&self) {
        self.env
            .machine
            .book(boundary!("osenv", "sleep"), EventKind::Wakeup);
        self.rec.signal(self.env.sim());
    }
}

/// The component-wide lock of paper §4.7.4: "they can easily be used in
/// multiprocessor or multithreaded environments by taking a component-wide
/// lock just before entering the component, and releasing it after the
/// component returns and during any 'blocking' calls the component makes
/// back to the client OS."
pub struct ProcessLock {
    name: &'static str,
    state: Mutex<LockState>,
}

struct LockState {
    holder: Option<oskit_machine::Tid>,
    waiters: VecDeque<Arc<SleepRecord>>,
}

impl ProcessLock {
    /// Creates an unheld lock.
    pub fn new(name: &'static str) -> ProcessLock {
        ProcessLock {
            name,
            state: Mutex::new(LockState {
                holder: None,
                waiters: VecDeque::new(),
            }),
        }
    }

    /// Acquires the lock, blocking at process level if another thread is
    /// inside the component.
    ///
    /// # Panics
    ///
    /// Panics on re-entry by the holder: the donor code is nonpreemptive
    /// and never re-enters itself from process level.
    pub fn enter(&self, sim: &Arc<Sim>) {
        let me = Sim::current_tid().expect("ProcessLock outside sim thread");
        loop {
            let rec = {
                let mut st = self.state.lock();
                match st.holder {
                    None => {
                        st.holder = Some(me);
                        return;
                    }
                    Some(h) if h == me => {
                        panic!("component lock '{}' re-entered", self.name)
                    }
                    Some(_) => {
                        let rec = Arc::new(SleepRecord::new());
                        st.waiters.push_back(Arc::clone(&rec));
                        rec
                    }
                }
            };
            rec.wait(sim);
        }
    }

    /// Releases the lock, waking the next waiter.
    ///
    /// # Panics
    ///
    /// Panics if the caller is not the holder.
    pub fn exit(&self, sim: &Arc<Sim>) {
        let me = Sim::current_tid().expect("ProcessLock outside sim thread");
        let next = {
            let mut st = self.state.lock();
            assert_eq!(
                st.holder,
                Some(me),
                "component lock '{}' released by non-holder",
                self.name
            );
            st.holder = None;
            st.waiters.pop_front()
        };
        if let Some(rec) = next {
            rec.signal(sim);
        }
    }

    /// Runs `f` with the lock released — the pattern for "blocking calls
    /// the component makes back to the client OS".
    pub fn unlocked<R>(&self, sim: &Arc<Sim>, f: impl FnOnce() -> R) -> R {
        self.exit(sim);
        let r = f();
        self.enter(sim);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn env() -> (Arc<Sim>, Arc<OsEnv>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 32 * 1024 * 1024);
        (sim, OsEnv::new(&m))
    }

    #[test]
    fn default_allocator_respects_dma_limit() {
        let (_sim, env) = env();
        let a = env
            .mem_alloc(
                4096,
                4096,
                MemFlags {
                    dma: true,
                    ..MemFlags::default()
                },
            )
            .unwrap();
        assert!(a + 4096 <= DMA_LIMIT);
        assert_eq!(a % 4096, 0);
    }

    #[test]
    fn below_1m_constraint() {
        let (_sim, env) = env();
        let a = env
            .mem_alloc(
                512,
                16,
                MemFlags {
                    below_1m: true,
                    ..MemFlags::default()
                },
            )
            .unwrap();
        assert!(a + 512 <= 0x10_0000);
    }

    #[test]
    fn no_64k_cross_constraint() {
        let (_sim, env) = env();
        for _ in 0..100 {
            let a = env
                .mem_alloc(
                    0x3000,
                    1,
                    MemFlags {
                        no_64k_cross: true,
                        ..MemFlags::default()
                    },
                )
                .unwrap();
            assert_eq!(a >> 16, (a + 0x2FFF) >> 16, "crossed 64K at {a:#x}");
        }
    }

    #[test]
    fn alloc_free_restores_avail() {
        let (_sim, env) = env();
        let before = env.mem_avail();
        let a = env.mem_alloc(10_000, 8, MemFlags::default()).unwrap();
        assert!(env.mem_avail() < before);
        env.mem_free(a, 10_000);
        assert_eq!(env.mem_avail(), before);
    }

    #[test]
    fn allocator_is_overridable() {
        // Paper §4.2.1: the client OS replaces the default service.
        struct Fixed;
        impl OsenvMem for Fixed {
            fn alloc(&mut self, _: usize, _: usize, _: MemFlags) -> Option<PhysAddr> {
                Some(0xBEEF000)
            }
            fn free(&mut self, _: PhysAddr, _: usize) {}
            fn avail(&self) -> usize {
                42
            }
        }
        let (_sim, env) = env();
        env.set_mem_allocator(Box::new(Fixed));
        assert_eq!(env.mem_alloc(1, 1, MemFlags::default()), Some(0xBEEF000));
        assert_eq!(env.mem_avail(), 42);
    }

    #[test]
    fn sleep_wakeup_from_interrupt_level() {
        let (sim, env) = env();
        let woken = Arc::new(AtomicUsize::new(0));
        let w2 = Arc::clone(&woken);
        let env2 = Arc::clone(&env);
        let s2 = Arc::clone(&sim);
        sim.spawn("sleeper", move || {
            let sl = env2.sleep_create();
            let sl2 = sl.clone();
            s2.at(1_000, move || sl2.wakeup());
            sl.sleep();
            w2.store(1, Ordering::SeqCst);
        });
        sim.run();
        assert_eq!(woken.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn timer_fires_until_dropped() {
        let (sim, env) = env();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let env2 = Arc::clone(&env);
        sim.spawn("t", move || {
            let handle = env2.timer_register(100, move || {
                h2.fetch_add(1, Ordering::SeqCst);
            });
            let sl = env2.sleep_create();
            let _ = sl.sleep_timeout(1_050);
            drop(handle);
            let _ = sl.sleep_timeout(1_000);
        });
        sim.run();
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn process_lock_serializes_component_entry() {
        let (sim, env) = env();
        let lock = Arc::new(ProcessLock::new("test"));
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let (l, s, e, ins, mx) = (
                Arc::clone(&lock),
                Arc::clone(&sim),
                Arc::clone(&env),
                Arc::clone(&inside),
                Arc::clone(&max_inside),
            );
            sim.spawn(format!("w{i}"), move || {
                for _ in 0..10 {
                    l.enter(&s);
                    let n = ins.fetch_add(1, Ordering::SeqCst) + 1;
                    mx.fetch_max(n, Ordering::SeqCst);
                    // Block inside the component, as donor code does:
                    // the lock is released across the blocking call, so
                    // the "inside" count must drop around it.
                    let sl = e.sleep_create();
                    let sl2 = sl.clone();
                    s.at(10, move || sl2.wakeup());
                    ins.fetch_sub(1, Ordering::SeqCst);
                    l.unlocked(&s, || sl.sleep());
                    let n = ins.fetch_add(1, Ordering::SeqCst) + 1;
                    mx.fetch_max(n, Ordering::SeqCst);
                    ins.fetch_sub(1, Ordering::SeqCst);
                    l.exit(&s);
                }
            });
        }
        sim.run();
        assert_eq!(max_inside.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "re-entered")]
    fn process_lock_reentry_panics() {
        let (sim, _env) = env();
        let lock = Arc::new(ProcessLock::new("re"));
        let (l, s) = (Arc::clone(&lock), Arc::clone(&sim));
        sim.spawn("t", move || {
            l.enter(&s);
            l.enter(&s);
        });
        sim.run();
    }

    #[test]
    fn log_sink_is_overridable() {
        let (_sim, env) = env();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&lines);
        env.set_log_sink(move |lvl, msg| {
            l2.lock().push(format!("{lvl:?}: {msg}"));
        });
        env.log(LogLevel::Warn, "carrier lost");
        assert_eq!(lines.lock().as_slice(), ["Warn: carrier lost"]);
    }
}
