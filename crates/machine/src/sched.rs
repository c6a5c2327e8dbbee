//! The co-simulation scheduler: virtual time, events, and process threads.
//!
//! The OSKit's encapsulated components assume the classic two-level
//! execution model (paper §4.7.4): "There can be many process-level threads
//! of control using separate stacks, but only one can run at a time and
//! context switches only occur at well-defined 'blocking' points;
//! interrupt-level activities can run any time interrupts are enabled and
//! always run to completion without blocking."
//!
//! This scheduler *enforces* that model while running components as real
//! host threads:
//!
//! * **Process level** — host threads spawned with [`Sim::spawn`] share a
//!   single run token; exactly one executes at a time, and the token only
//!   changes hands at blocking points ([`Sim::block_current`], used by
//!   osenv sleep records) or explicit yields.
//! * **Interrupt level** — scheduled [`Sim::at`] events run to completion
//!   on a borrowed stack whenever a process thread blocks; an event that
//!   tries to block panics, catching model violations at test time.
//! * **Virtual time** — a global event clock plus per-machine CPU clocks
//!   (see [`crate::Machine`]) drive all timing; no wall-clock sleeps occur
//!   anywhere.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Virtual nanoseconds since simulation start.
pub type Ns = u64;

/// Identifies a process-level thread within a [`Sim`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Tid(usize);

/// Identifies a scheduled event, for cancellation: its sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct EventId(u64);

type Action = Box<dyn FnOnce() + Send>;

struct Event {
    time: Ns,
    /// Scheduling order, which breaks ties between equal times; also the
    /// event's [`EventId`].
    seq: u64,
    action: Action,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // with FIFO order among equal timestamps.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    /// Holds the run token.
    Running,
    /// In the ready queue, waiting for the token.
    Ready,
    /// Blocked at a sleep point.
    Blocked,
    /// Exited.
    Dead,
}

struct Slot {
    name: String,
    state: ThreadState,
    /// Where this thread parks until it holds the token; waited on with
    /// the scheduler mutex, notified only when the token reaches it.
    cv: Arc<Condvar>,
    /// The host thread, joined by [`Sim::shutdown`] once it has exited.
    thread: Option<JoinHandle<()>>,
}

struct Inner {
    time: Ns,
    seq: u64,
    events: BinaryHeap<Event>,
    cancelled: std::collections::HashSet<u64>,
    ready: VecDeque<Tid>,
    slots: Vec<Slot>,
    /// Process threads that have not exited (excludes the harness slot 0).
    alive: usize,
    /// Set when any thread or event panicked, or on deadlock.
    failure: Option<String>,
    /// True while an event action is executing (interrupt level).
    in_event: bool,
    /// Virtual-time runaway guard.
    time_limit: Ns,
}

/// The simulation kernel shared by all machines of one experiment.
pub struct Sim {
    inner: Mutex<Inner>,
}

thread_local! {
    static CURRENT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

impl Sim {
    /// Creates a simulation with a default virtual-time limit of 1000
    /// virtual seconds (a runaway guard; see [`Sim::set_time_limit`]).
    pub fn new() -> Arc<Sim> {
        Arc::new(Sim {
            inner: Mutex::new(Inner {
                time: 0,
                seq: 0,
                events: BinaryHeap::new(),
                cancelled: std::collections::HashSet::new(),
                ready: VecDeque::new(),
                // Slot 0 is the harness thread that calls `run`.
                slots: vec![Slot {
                    name: "harness".into(),
                    state: ThreadState::Running,
                    cv: Arc::new(Condvar::new()),
                    thread: None,
                }],
                alive: 0,
                failure: None,
                in_event: false,
                time_limit: 1_000_000_000_000,
            }),
        })
    }

    /// Raises or lowers the virtual-time runaway guard.
    pub fn set_time_limit(&self, limit: Ns) {
        self.lock().time_limit = limit;
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock()
    }

    /// Returns the global event clock.
    ///
    /// Per-machine CPU clocks (which include charged processing costs) are
    /// kept by [`crate::Machine`]; this is the floor established by
    /// dispatched events.
    pub fn now(&self) -> Ns {
        self.lock().time
    }

    /// Returns the calling thread's [`Tid`], if it is a sim thread.
    pub fn current_tid() -> Option<Tid> {
        CURRENT.with(|c| c.get().map(Tid))
    }

    /// Spawns a process-level thread.
    ///
    /// The thread starts in the ready queue and first runs when the token
    /// reaches it (i.e. once [`Sim::run`] is underway or a running thread
    /// blocks).
    pub fn spawn(
        self: &Arc<Self>,
        name: impl Into<String>,
        f: impl FnOnce() + Send + 'static,
    ) -> Tid {
        let name = name.into();
        let tid = {
            let mut inner = self.lock();
            let tid = Tid(inner.slots.len());
            inner.slots.push(Slot {
                name: name.clone(),
                state: ThreadState::Ready,
                cv: Arc::new(Condvar::new()),
                thread: None,
            });
            inner.ready.push_back(tid);
            inner.alive += 1;
            tid
        };
        let sim = Arc::clone(self);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || sim.thread_main(tid, f))
            .expect("spawn failed");
        self.lock().slots[tid.0].thread = Some(thread);
        tid
    }

    fn thread_main(self: Arc<Self>, tid: Tid, f: impl FnOnce() + Send) {
        CURRENT.with(|c| c.set(Some(tid.0)));
        // Wait for the token before running the body.
        {
            let inner = self.lock();
            if self.park_until_running(inner, tid).is_err() {
                return; // Simulation failed before we first ran.
            }
        }
        let result = catch_unwind(AssertUnwindSafe(f));
        let mut inner = self.lock();
        inner.alive -= 1;
        if let Err(p) = result {
            let msg = panic_message(p.as_ref());
            if inner.failure.is_none() {
                inner.failure = Some(format!(
                    "thread '{}' panicked: {msg}",
                    inner.slots[tid.0].name
                ));
            }
            self.fail_all(&mut inner);
        }
        inner.slots[tid.0].state = ThreadState::Dead;
        if inner.alive == 0 {
            // Wake the harness.
            Self::make_ready(&mut inner, Tid(0));
        }
        self.pass_token(inner);
    }

    /// Runs the simulation to completion: returns when every spawned
    /// process thread has exited.
    ///
    /// Must be called from the thread that created the `Sim` (the harness),
    /// which logically holds the token between `spawn` calls.
    ///
    /// # Panics
    ///
    /// Propagates the first panic from any process thread or event, and
    /// panics on deadlock (all threads blocked with no pending events) or
    /// when virtual time exceeds the configured limit.
    pub fn run(&self) {
        let mut inner = self.lock();
        if inner.alive == 0 && inner.failure.is_none() {
            return;
        }
        inner.slots[0].state = ThreadState::Blocked;
        drop(inner);
        self.pass_token(self.lock());
        let inner = self.lock();
        let _ = self.park_until_running(inner, Tid(0));
        let mut inner = self.lock();
        if let Some(msg) = inner.failure.take() {
            drop(inner);
            panic!("simulation failed: {msg}");
        }
    }

    /// Frees a finished simulation: drops the pending events (an armed
    /// timer holds its machine, and a machine holds the `Sim`) and joins
    /// the exited process threads (each holds the `Sim` until it has
    /// passed the token on).  Called by the harness once it has collected
    /// its results; [`Sim::run`] tears nothing down, so one `Sim` may be
    /// run several times before this.
    pub fn shutdown(&self) {
        let (events, threads) = {
            let mut inner = self.lock();
            inner.cancelled.clear();
            let threads: Vec<_> = inner
                .slots
                .iter_mut()
                .filter(|s| s.state == ThreadState::Dead)
                .filter_map(|s| s.thread.take())
                .collect();
            (std::mem::take(&mut inner.events), threads)
        };
        // Outside the lock: an event's captures may call back into the
        // scheduler as they drop.
        drop(events);
        for t in threads {
            // A body's panic was caught and reported by `run`.
            t.join().expect("sim thread panicked outside its body");
        }
    }

    /// Schedules `action` to run at interrupt level `delay` ns after the
    /// current event clock.
    pub fn at(&self, delay: Ns, action: impl FnOnce() + Send + 'static) -> EventId {
        self.at_abs_time(None, delay, action)
    }

    /// Schedules `action` at the absolute virtual time `time` (clamped to
    /// the current event clock if already past).
    pub fn at_abs(&self, time: Ns, action: impl FnOnce() + Send + 'static) -> EventId {
        self.at_abs_time(Some(time), 0, action)
    }

    fn at_abs_time(
        &self,
        abs: Option<Ns>,
        delay: Ns,
        action: impl FnOnce() + Send + 'static,
    ) -> EventId {
        let mut inner = self.lock();
        let time = match abs {
            Some(t) => t.max(inner.time),
            None => inner.time + delay,
        };
        inner.seq += 1;
        let seq = inner.seq;
        inner.events.push(Event {
            time,
            seq,
            action: Box::new(action),
        });
        EventId(seq)
    }

    /// Cancels a scheduled event.  A no-op if it already ran.
    pub fn cancel(&self, id: EventId) {
        self.lock().cancelled.insert(id.0);
    }

    /// Blocks the calling process thread until another context calls
    /// [`Sim::wake`] on it.
    ///
    /// This is the single well-defined blocking point of the execution
    /// model; osenv sleep records are built on it.
    ///
    /// # Panics
    ///
    /// Panics when called from interrupt level (inside an event action) —
    /// interrupt-level activities "always run to completion without
    /// blocking" (paper §4.7.4).
    pub fn block_current(&self) {
        let tid = Tid(CURRENT.with(|c| c.get()).expect("block outside sim thread"));
        let mut inner = self.lock();
        assert!(
            !inner.in_event,
            "execution-model violation: blocking at interrupt level"
        );
        inner.slots[tid.0].state = ThreadState::Blocked;
        drop(inner);
        self.pass_token(self.lock());
        let inner = self.lock();
        if self.park_until_running(inner, tid).is_err() {
            panic!("simulation failed while blocked");
        }
    }

    /// Marks `tid` runnable.  Control does *not* transfer immediately; the
    /// thread runs when the token next reaches it.
    pub fn wake(&self, tid: Tid) {
        let mut inner = self.lock();
        Self::make_ready(&mut inner, tid);
    }

    /// Pops and runs the earliest non-cancelled event, advancing virtual
    /// time.  Returns whether an event ran.  On event panic or time-limit
    /// overrun, records a failure.
    fn dispatch_one_event<'a>(
        &'a self,
        mut inner: MutexGuard<'a, Inner>,
    ) -> (MutexGuard<'a, Inner>, bool) {
        let ev = loop {
            match inner.events.pop() {
                Some(ev) if inner.cancelled.remove(&ev.seq) => continue,
                other => break other,
            }
        };
        let Some(ev) = ev else {
            return (inner, false);
        };
        inner.time = inner.time.max(ev.time);
        if inner.time > inner.time_limit {
            if inner.failure.is_none() {
                inner.failure = Some(format!("virtual time limit exceeded at {} ns", inner.time));
            }
            self.fail_all(&mut inner);
            return (inner, true);
        }
        inner.in_event = true;
        drop(inner);
        let result = catch_unwind(AssertUnwindSafe(ev.action));
        let mut inner = self.lock();
        inner.in_event = false;
        if let Err(p) = result {
            let msg = panic_message(p.as_ref());
            if inner.failure.is_none() {
                inner.failure = Some(format!("event panicked: {msg}"));
            }
            self.fail_all(&mut inner);
        }
        (inner, true)
    }

    /// Runs pending work while the caller spins: dispatches the earliest
    /// event or lets another ready thread run.
    ///
    /// Used by polling loops such as the single-threaded sleep
    /// implementation of paper §4.7.6 ("sleeping is implemented simply as a
    /// busy loop that spins on a one-bit field in the sleep record").
    pub fn relax(&self) {
        let tid = Tid(CURRENT.with(|c| c.get()).expect("yield outside sim thread"));
        let mut inner = self.lock();
        assert!(!inner.in_event, "yield at interrupt level");
        if !inner.ready.is_empty() {
            inner.slots[tid.0].state = ThreadState::Blocked;
            Self::make_ready(&mut inner, tid);
            drop(inner);
            self.pass_token(self.lock());
            let inner = self.lock();
            if self.park_until_running(inner, tid).is_err() {
                panic!("simulation failed while yielding");
            }
        } else if !inner.events.is_empty() {
            // No other thread wants the token: advance time by dispatching
            // the earliest event inline instead of spinning forever.
            let (inner, _) = self.dispatch_one_event(inner);
            if inner.failure.is_some() {
                drop(inner);
                panic!("simulation failed while yielding");
            }
        }
    }

    fn make_ready(inner: &mut Inner, tid: Tid) {
        if inner.slots[tid.0].state == ThreadState::Blocked {
            inner.slots[tid.0].state = ThreadState::Ready;
            inner.ready.push_back(tid);
        }
    }

    /// Hands the run token to the next ready thread, dispatching events
    /// until one becomes ready, and wakes that thread alone (nobody, when
    /// the token comes straight back to the caller).  The caller must have
    /// already moved itself out of `Running`.
    fn pass_token<'a>(&'a self, mut inner: MutexGuard<'a, Inner>) {
        loop {
            if inner.failure.is_some() {
                self.fail_all(&mut inner);
                return;
            }
            if let Some(next) = inner.ready.pop_front() {
                inner.slots[next.0].state = ThreadState::Running;
                // The harness (slot 0) is the one caller outside any sim
                // thread.
                let me = CURRENT.with(|c| c.get()).unwrap_or(0);
                let cv = (next.0 != me).then(|| Arc::clone(&inner.slots[next.0].cv));
                drop(inner);
                if let Some(cv) = cv {
                    cv.notify_one();
                }
                return;
            }
            // No thread is ready: advance virtual time to the next event.
            let (guard, ran) = self.dispatch_one_event(inner);
            inner = guard;
            if ran {
                continue;
            }
            if inner.alive == 0 {
                // Normal completion: nothing left to run but the harness.
                if inner.slots[0].state != ThreadState::Blocked {
                    // The harness is not inside `run`; it conceptually
                    // holds the token already.
                    return;
                }
                Self::make_ready(&mut inner, Tid(0));
                continue;
            }
            let stuck: Vec<_> = inner
                .slots
                .iter()
                .filter(|s| s.state == ThreadState::Blocked)
                .map(|s| s.name.clone())
                .collect();
            inner.failure = Some(format!(
                "deadlock: all threads blocked with no pending events: {stuck:?}"
            ));
        }
    }

    /// Parks until this thread holds the token.  Returns `Err` if the
    /// simulation failed instead.
    fn park_until_running(&self, mut inner: MutexGuard<'_, Inner>, tid: Tid) -> Result<(), ()> {
        let cv = Arc::clone(&inner.slots[tid.0].cv);
        loop {
            if inner.failure.is_some() {
                return Err(());
            }
            if inner.slots[tid.0].state == ThreadState::Running {
                return Ok(());
            }
            cv.wait(&mut inner);
        }
    }

    /// Wakes every parked thread so they can observe the failure and exit.
    fn fail_all(&self, inner: &mut Inner) {
        for slot in &inner.slots {
            slot.cv.notify_all();
        }
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic".to_string()
    }
}

/// A one-waiter wakeup channel: the OSKit's *sleep record* (paper §4.7.6).
///
/// "A 'sleep record' ... is like a condition variable except that only one
/// thread of control can wait on it at a time."  Signals are sticky: a
/// signal delivered before the wait completes is not lost.
pub struct SleepRecord {
    state: Mutex<SleepState>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SleepState {
    Idle,
    Waiting(Tid),
    Signaled,
}

/// Why a [`SleepRecord::wait_timeout`] returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeReason {
    /// The record was signaled.
    Signaled,
    /// The timeout expired first.
    TimedOut,
}

impl Default for SleepRecord {
    fn default() -> Self {
        Self::new()
    }
}

impl SleepRecord {
    /// Creates an unsignaled sleep record.
    pub fn new() -> Self {
        SleepRecord {
            state: Mutex::new(SleepState::Idle),
        }
    }

    /// Blocks the calling process thread until [`SleepRecord::signal`].
    ///
    /// # Panics
    ///
    /// Panics if another thread is already waiting (one waiter only), or if
    /// called at interrupt level.
    pub fn wait(&self, sim: &Sim) {
        let me = Sim::current_tid().expect("sleep outside sim thread");
        {
            let mut st = self.state.lock();
            match *st {
                SleepState::Signaled => {
                    *st = SleepState::Idle;
                    return;
                }
                SleepState::Idle => *st = SleepState::Waiting(me),
                SleepState::Waiting(_) => panic!("sleep record already has a waiter"),
            }
        }
        sim.block_current();
        let mut st = self.state.lock();
        debug_assert_eq!(*st, SleepState::Signaled);
        *st = SleepState::Idle;
    }

    /// Like [`SleepRecord::wait`] but gives up after `timeout` ns.
    pub fn wait_timeout(self: &Arc<Self>, sim: &Arc<Sim>, timeout: Ns) -> WakeReason {
        let me = Sim::current_tid().expect("sleep outside sim thread");
        {
            let mut st = self.state.lock();
            match *st {
                SleepState::Signaled => {
                    *st = SleepState::Idle;
                    return WakeReason::Signaled;
                }
                SleepState::Idle => *st = SleepState::Waiting(me),
                SleepState::Waiting(_) => panic!("sleep record already has a waiter"),
            }
        }
        let rec = Arc::clone(self);
        let sim2 = Arc::clone(sim);
        let ev = sim.at(timeout, move || {
            let st = rec.state.lock();
            if *st == SleepState::Waiting(me) {
                // Leave the state as-is; the waiter distinguishes timeout
                // from signal by inspecting it after waking.
                sim2.wake(me);
            }
        });
        sim.block_current();
        let mut st = self.state.lock();
        match *st {
            SleepState::Signaled => {
                *st = SleepState::Idle;
                sim.cancel(ev);
                WakeReason::Signaled
            }
            SleepState::Waiting(t) if t == me => {
                *st = SleepState::Idle;
                WakeReason::TimedOut
            }
            other => panic!("sleep record in unexpected state {other:?}"),
        }
    }

    /// Signals the record, waking the waiter if present; otherwise the
    /// signal is remembered for the next wait.
    pub fn signal(&self, sim: &Sim) {
        let mut st = self.state.lock();
        match *st {
            SleepState::Waiting(tid) => {
                *st = SleepState::Signaled;
                drop(st);
                sim.wake(tid);
            }
            SleepState::Idle => *st = SleepState::Signaled,
            SleepState::Signaled => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (delay, tag) in [(30u64, 3), (10, 1), (20, 2)] {
            let order = Arc::clone(&order);
            sim.at(delay, move || order.lock().push(tag));
        }
        let o2 = Arc::clone(&order);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            // Block until all three events have fired.
            let rec = Arc::new(SleepRecord::new());
            let r2 = Arc::clone(&rec);
            let s3 = Arc::clone(&s2);
            s2.at(40, move || r2.signal(&s3));
            rec.wait(&s2);
            assert_eq!(*o2.lock(), vec![1, 2, 3]);
        });
        sim.run();
        assert!(sim.now() >= 40);
    }

    #[test]
    fn equal_times_run_fifo() {
        let sim = Sim::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        for tag in 0..8 {
            let order = Arc::clone(&order);
            sim.at(5, move || order.lock().push(tag));
        }
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let r2 = Arc::clone(&rec);
            let s3 = Arc::clone(&s2);
            s2.at(6, move || r2.signal(&s3));
            rec.wait(&s2);
        });
        sim.run();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sleep_record_signal_before_wait_is_sticky() {
        let sim = Sim::new();
        let rec = Arc::new(SleepRecord::new());
        rec.signal(&sim);
        let s2 = Arc::clone(&sim);
        let r2 = Arc::clone(&rec);
        sim.spawn("t", move || {
            r2.wait(&s2); // Must not block: signal was remembered.
        });
        sim.run();
    }

    #[test]
    fn two_threads_ping_pong() {
        let sim = Sim::new();
        let a = Arc::new(SleepRecord::new());
        let b = Arc::new(SleepRecord::new());
        let count = Arc::new(AtomicUsize::new(0));

        let (s1, a1, b1, c1) = (sim.clone(), a.clone(), b.clone(), count.clone());
        sim.spawn("ping", move || {
            for _ in 0..100 {
                b1.signal(&s1);
                a1.wait(&s1);
                c1.fetch_add(1, Ordering::SeqCst);
            }
            b1.signal(&s1);
        });
        let (s2, a2, b2, c2) = (sim.clone(), a.clone(), b.clone(), count.clone());
        sim.spawn("pong", move || {
            for _ in 0..100 {
                b2.wait(&s2);
                a2.signal(&s2);
                c2.fetch_add(1, Ordering::SeqCst);
            }
        });
        sim.run();
        assert_eq!(count.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn wait_timeout_times_out() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let why = rec.wait_timeout(&s2, 1_000);
            assert_eq!(why, WakeReason::TimedOut);
            assert!(s2.now() >= 1_000);
        });
        sim.run();
    }

    #[test]
    fn wait_timeout_signal_wins() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let r2 = Arc::clone(&rec);
            let s3 = Arc::clone(&s2);
            s2.at(10, move || r2.signal(&s3));
            let why = rec.wait_timeout(&s2, 1_000_000);
            assert_eq!(why, WakeReason::Signaled);
            assert!(s2.now() < 1_000_000);
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        sim.spawn("stuck", move || {
            let rec = Arc::new(SleepRecord::new());
            rec.wait(&s2); // Nobody will ever signal.
        });
        sim.run();
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn thread_panic_propagates_to_run() {
        let sim = Sim::new();
        sim.spawn("bad", || panic!("boom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "blocking at interrupt level")]
    fn blocking_in_event_is_a_model_violation() {
        let sim = Sim::new();
        let s2 = Arc::clone(&sim);
        let s3 = Arc::clone(&sim);
        sim.at(1, move || {
            s3.block_current();
        });
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 100);
        });
        sim.run();
    }

    #[test]
    fn cancelled_events_do_not_run() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = Arc::clone(&hits);
        let ev = sim.at(10, move || {
            h2.fetch_add(1, Ordering::SeqCst);
        });
        sim.cancel(ev);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let rec = Arc::new(SleepRecord::new());
            let _ = rec.wait_timeout(&s2, 100);
        });
        sim.run();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn yield_lets_events_and_threads_run() {
        let sim = Sim::new();
        let progressed = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&progressed);
        sim.at(5, move || {
            p2.store(1, Ordering::SeqCst);
        });
        let s2 = Arc::clone(&sim);
        let p3 = Arc::clone(&progressed);
        sim.spawn("spinner", move || {
            while p3.load(Ordering::SeqCst) == 0 {
                s2.relax();
            }
        });
        sim.run();
        assert_eq!(progressed.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "virtual time limit")]
    fn runaway_time_is_caught() {
        let sim = Sim::new();
        sim.set_time_limit(1_000);
        // A self-rearming event with a blocked thread: time runs away.
        fn rearm(sim: Arc<Sim>) {
            let s2 = Arc::clone(&sim);
            sim.at(100, move || rearm(s2));
        }
        rearm(Arc::clone(&sim));
        let s2 = Arc::clone(&sim);
        sim.spawn("stuck", move || {
            let rec = Arc::new(SleepRecord::new());
            rec.wait(&s2);
        });
        sim.run();
    }

    #[test]
    fn shutdown_frees_pending_events_and_threads() {
        let sim = Sim::new();
        let weak = Arc::downgrade(&sim);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            // A timer that outlives the run holds the Sim.
            let s3 = Arc::clone(&s2);
            s2.at(1_000, move || drop(s3));
        });
        sim.run();
        sim.shutdown();
        drop(sim);
        assert!(
            weak.upgrade().is_none(),
            "a finished Sim outlived its harness"
        );
    }

    #[test]
    fn run_with_no_threads_returns_immediately() {
        let sim = Sim::new();
        sim.at(10, || {});
        sim.run();
        assert_eq!(sim.now(), 0); // Events without threads never run.
    }
}
