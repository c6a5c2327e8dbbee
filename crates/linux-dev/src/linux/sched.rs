//! Linux-style `current`, wait queues and jiffies — the donor-environment
//! services the glue must emulate (paper §4.7.5, §4.7.6).
//!
//! "The imported legacy code is generally riddled with code that makes
//! assumptions about processes and often accesses the 'current process'
//! structure directly (e.g., through ... Linux's `current` pointer)."
//!
//! The donor-style driver and protocol code *uses* the wait queues
//! exactly as Linux code would (`sleep_on`, `wake_up`).  The glue
//! manufactures a `current` task at every entry and parks it around
//! blocking calls (`glue::curproc`), but no donor code in this tree reads
//! it: only this module's and the glue's tests call `current()`.

use oskit_osenv::{OsEnv, OsenvSleep};
use parking_lot::Mutex;
use std::sync::Arc;

/// A minimal `struct task_struct`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskStruct {
    /// Process id; glue-manufactured tasks use a synthetic pid.
    pub pid: i32,
    /// Command name.
    pub comm: &'static str,
}

/// The component-wide `current` pointer.
///
/// In Linux this is a per-CPU global; within the encapsulated component it
/// is component-wide state that the glue saves and restores around
/// blocking calls (paper §4.7.5: "the glue code must also intercept these
/// calls and save the `curproc` pointer ... to prevent it from getting
/// trashed by other concurrent activities").
pub struct CurrentPtr {
    task: Mutex<Option<TaskStruct>>,
}

impl Default for CurrentPtr {
    fn default() -> Self {
        Self::new()
    }
}

impl CurrentPtr {
    /// An unset pointer: donor code that runs before the glue sets it
    /// would crash, as in the real system.
    pub fn new() -> CurrentPtr {
        CurrentPtr {
            task: Mutex::new(None),
        }
    }

    /// `current->...`: reads the current task.
    ///
    /// # Panics
    ///
    /// Panics if no task is set — a glue bug, loudly surfaced.
    pub fn current(&self) -> TaskStruct {
        self.task
            .lock()
            .clone()
            .expect("linux code entered without a current task (glue bug)")
    }

    /// Glue: installs `task` and returns the previous value for restore.
    pub fn set(&self, task: Option<TaskStruct>) -> Option<TaskStruct> {
        std::mem::replace(&mut *self.task.lock(), task)
    }

    /// Whether a task is currently installed.
    pub fn is_set(&self) -> bool {
        self.task.lock().is_some()
    }
}

/// A Linux wait queue (`struct wait_queue *`), emulated over the osenv
/// sleep record (§4.7.6): each sleeper gets its own record; `wake_up`
/// signals them all.
pub struct WaitQueue {
    sleepers: Mutex<Vec<OsenvSleep>>,
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

    /// `sleep_on(&wq)`: blocks the calling process until `wake_up`.
    ///
    /// The caller must not hold spinlocks (i.e. interrupt guards); the
    /// environment enforces that blocking only happens at process level.
    pub fn sleep_on(&self, env: &Arc<OsEnv>) {
        let sl = env.sleep_create();
        self.sleepers.lock().push(sl.clone());
        sl.sleep();
    }

    /// `sleep_on` with a timeout in nanoseconds; returns true if woken,
    /// false on timeout (`interruptible_sleep_on_timeout`).
    pub fn sleep_on_timeout(&self, env: &Arc<OsEnv>, timeout_ns: u64) -> bool {
        let sl = env.sleep_create();
        self.sleepers.lock().push(sl.clone());
        matches!(
            sl.sleep_timeout(timeout_ns),
            oskit_machine::WakeReason::Signaled
        )
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

/// The `jiffies` clock: 100 Hz ticks derived from the environment clock.
pub fn jiffies(env: &OsEnv) -> u64 {
    env.now() / 10_000_000
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
    #[should_panic(expected = "without a current task")]
    fn current_without_task_is_a_glue_bug() {
        let c = CurrentPtr::new();
        c.current();
    }

    #[test]
    fn set_and_restore_current() {
        let c = CurrentPtr::new();
        let prev = c.set(Some(TaskStruct {
            pid: -1,
            comm: "glue",
        }));
        assert!(prev.is_none());
        assert_eq!(c.current().comm, "glue");
        let prev = c.set(None);
        assert_eq!(prev.unwrap().pid, -1);
        assert!(!c.is_set());
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
        });
        sim.run();
    }

    #[test]
    fn jiffies_track_virtual_time() {
        let (_sim, env) = env();
        assert_eq!(jiffies(&env), 0);
        env.machine.advance(25_000_000); // 25 ms.
        assert_eq!(jiffies(&env), 2);
    }
}
