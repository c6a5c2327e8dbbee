//! Linux-style wait queues — the donor-environment service the glue
//! emulates (paper §4.7.6).
//!
//! The donor-style driver and protocol code uses the wait queues exactly
//! as Linux code would (`sleep_on`, `wake_up`), and each sleeper is
//! bridged to an osenv sleep record.  The paper's other process
//! emulation, a manufactured `current` (§4.7.5), is left out: no donor
//! code in this tree reads `current`.

use oskit_machine::WakeReason;
use oskit_osenv::{OsEnv, OsenvSleep};
use parking_lot::Mutex;
use std::sync::Arc;

/// A Linux wait queue (`struct wait_queue *`), emulated over the osenv
/// sleep record (§4.7.6): each sleeper gets its own record; `wake_up`
/// signals them all.
pub struct WaitQueue {
    sleepers: Mutex<Vec<Arc<OsenvSleep>>>,
}

impl Default for WaitQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl WaitQueue {
    /// An empty queue.
    pub fn new() -> WaitQueue {
        WaitQueue {
            sleepers: Mutex::new(Vec::new()),
        }
    }

    /// Queues a fresh sleep record for the calling process.
    fn enqueue(&self, env: &Arc<OsEnv>) -> Arc<OsenvSleep> {
        let sl = Arc::new(env.sleep_create());
        self.sleepers.lock().push(Arc::clone(&sl));
        sl
    }

    /// `sleep_on(&wq)`: blocks the calling process until `wake_up`.
    ///
    /// The caller must not hold spinlocks (i.e. interrupt guards); the
    /// environment enforces that blocking only happens at process level.
    pub fn sleep_on(&self, env: &Arc<OsEnv>) {
        self.enqueue(env).sleep();
    }

    /// `sleep_on` with a timeout in nanoseconds; returns true if woken,
    /// false on timeout (`interruptible_sleep_on_timeout`).
    ///
    /// As Linux 2.0's `__sleep_on` does on return, a timed-out sleeper
    /// takes its own record off the queue, so a later `wake_up` signals
    /// no one on its behalf.
    pub fn sleep_on_timeout(&self, env: &Arc<OsEnv>, timeout_ns: u64) -> bool {
        let sl = self.enqueue(env);
        match sl.sleep_timeout(timeout_ns) {
            WakeReason::Signaled => true,
            WakeReason::TimedOut => {
                self.sleepers.lock().retain(|s| !Arc::ptr_eq(s, &sl));
                false
            }
        }
    }

    /// `wake_up(&wq)`: wakes every sleeper (callable from interrupt
    /// level).
    pub fn wake_up(&self) {
        for sl in self.sleepers.lock().drain(..) {
            sl.wakeup();
        }
    }

    /// Number of waiting processes.
    pub fn waiting(&self) -> usize {
        self.sleepers.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::{Machine, Sim};

    fn env() -> (Arc<Sim>, Arc<OsEnv>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 1 << 20);
        (sim, OsEnv::new(&m))
    }

    #[test]
    fn wake_up_releases_all_sleepers() {
        let (sim, env) = env();
        let wq = Arc::new(WaitQueue::new());
        let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        for i in 0..3 {
            let (w, e, d) = (Arc::clone(&wq), Arc::clone(&env), Arc::clone(&done));
            sim.spawn(format!("sleeper{i}"), move || {
                w.sleep_on(&e);
                d.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        let w2 = Arc::clone(&wq);
        let s2 = Arc::clone(&sim);
        sim.spawn("waker", move || {
            // Let the sleepers go to sleep first.
            let e = Arc::new(oskit_machine::SleepRecord::new());
            let _ = e.wait_timeout(&s2, 1_000);
            assert_eq!(w2.waiting(), 3);
            w2.wake_up();
        });
        sim.run();
        assert_eq!(done.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn sleep_timeout_expires() {
        let (sim, env) = env();
        let wq = Arc::new(WaitQueue::new());
        let (w, e) = (Arc::clone(&wq), Arc::clone(&env));
        sim.spawn("t", move || {
            assert!(!w.sleep_on_timeout(&e, 5_000));
            assert_eq!(w.waiting(), 0);
            // Nobody sleeps, so nobody is woken.
            w.wake_up();
        });
        sim.run();
        let report = env.machine.tracer().metrics();
        let sleep = report.get("osenv", "sleep").unwrap();
        assert_eq!((sleep.sleeps, sleep.wakeups), (1, 0));
    }
}
