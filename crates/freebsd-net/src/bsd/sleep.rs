//! BSD `sleep`/`wakeup` over the osenv sleep record (paper §4.7.6).
//!
//! "The BSD sleep/wakeup mechanism uses a global hash table of 'events,'
//! where an event is just an arbitrary 32-bit value; when wakeup is called
//! on a particular event, all processes waiting on that particular value
//! are woken.  In the encapsulated BSD-based OSKit components, we retain
//! BSD's original event hash table management code; however, the hash
//! table is now only used within that particular component ... and instead
//! of all the scheduling-related fields in the emulated proc structure
//! there is now only a sleep record."

use oskit_osenv::OsEnv;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A wait channel: in BSD this is the address of the object slept on; any
/// unique 64-bit value works.
pub type WChan = u64;

/// The component-wide event hash.
pub struct BsdSleep {
    table: Mutex<HashMap<WChan, Vec<oskit_osenv::OsenvSleep>>>,
}

impl Default for BsdSleep {
    fn default() -> Self {
        Self::new()
    }
}

impl BsdSleep {
    /// An empty table.
    pub fn new() -> BsdSleep {
        BsdSleep {
            table: Mutex::new(HashMap::new()),
        }
    }

    /// `tsleep(chan)`: blocks the current process until `wakeup(chan)`.
    pub fn tsleep(&self, env: &Arc<OsEnv>, chan: WChan) {
        let rec = env.sleep_create();
        self.table.lock().entry(chan).or_default().push(rec.clone());
        rec.sleep();
    }

    /// `wakeup(chan)`: wakes every process sleeping on `chan` (callable
    /// from interrupt level).
    pub fn wakeup(&self, chan: WChan) {
        let sleepers = self.table.lock().remove(&chan);
        if let Some(sleepers) = sleepers {
            for s in sleepers {
                s.wakeup();
            }
        }
    }

    /// Number of processes sleeping on `chan` (diagnostics).
    pub fn sleeping_on(&self, chan: WChan) -> usize {
        self.table.lock().get(&chan).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::{Machine, Sim};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (Arc<Sim>, Arc<OsEnv>, Arc<BsdSleep>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 1 << 20);
        (sim, OsEnv::new(&m), Arc::new(BsdSleep::new()))
    }

    #[test]
    fn wakeup_wakes_only_matching_channel() {
        let (sim, env, sl) = setup();
        let a = Arc::new(AtomicUsize::new(0));
        let b = Arc::new(AtomicUsize::new(0));
        for (chan, ctr) in [(100u64, Arc::clone(&a)), (200u64, Arc::clone(&b))] {
            let (e, s) = (Arc::clone(&env), Arc::clone(&sl));
            sim.spawn(format!("w{chan}"), move || {
                s.tsleep(&e, chan);
                ctr.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (s2, sl2, e2) = (Arc::clone(&sim), Arc::clone(&sl), Arc::clone(&env));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        sim.spawn("waker", move || {
            let pause = e2.sleep_create();
            let _ = pause.sleep_timeout(1_000);
            sl2.wakeup(100);
            let _ = pause.sleep_timeout(1_000);
            assert_eq!(a2.load(Ordering::SeqCst), 1);
            assert_eq!(b2.load(Ordering::SeqCst), 0);
            sl2.wakeup(200);
            let _ = s2;
        });
        sim.run();
        assert_eq!(b.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wakeup_wakes_all_sleepers_on_channel() {
        let (sim, env, sl) = setup();
        let count = Arc::new(AtomicUsize::new(0));
        for i in 0..4 {
            let (e, s, c) = (Arc::clone(&env), Arc::clone(&sl), Arc::clone(&count));
            sim.spawn(format!("w{i}"), move || {
                s.tsleep(&e, 42);
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let (sl2, e2) = (Arc::clone(&sl), Arc::clone(&env));
        sim.spawn("waker", move || {
            let pause = e2.sleep_create();
            let _ = pause.sleep_timeout(1_000);
            assert_eq!(sl2.sleeping_on(42), 4);
            sl2.wakeup(42);
        });
        sim.run();
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn wakeup_with_no_sleepers_is_a_noop() {
        let (_sim, _env, sl) = setup();
        sl.wakeup(999);
        assert_eq!(sl.sleeping_on(999), 0);
    }
}
