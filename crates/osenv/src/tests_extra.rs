//! Additional execution-model conformance tests: the §4.7.4 recipes under
//! adversarial interleavings.

use crate::{MemFlags, OsEnv, ProcessLock};
use oskit_machine::{Machine, Sim};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn setup() -> (Arc<Sim>, Arc<OsEnv>) {
    let sim = Sim::new();
    let m = Machine::new(&sim, "m", 32 * 1024 * 1024);
    (sim, OsEnv::new(&m))
}

/// Interrupt-level code can allocate through osenv (drivers' GFP_ATOMIC
/// path): the default allocator never blocks.
#[test]
fn interrupt_level_allocation_is_legal() {
    let (sim, env) = setup();
    let got = Arc::new(AtomicUsize::new(0));
    let g2 = Arc::clone(&got);
    let env2 = Arc::clone(&env);
    sim.at(10, move || {
        // Interrupt level: no blocking allowed, but mem_alloc is fine.
        let a = env2.mem_alloc(256, 16, MemFlags::default()).unwrap();
        g2.store(a as usize, Ordering::SeqCst);
        env2.mem_free(a, 256);
    });
    let s2 = Arc::clone(&sim);
    sim.spawn("t", move || {
        let rec = Arc::new(oskit_machine::SleepRecord::new());
        let _ = rec.wait_timeout(&s2, 100);
    });
    sim.run();
    assert_ne!(got.load(Ordering::SeqCst), 0);
}

/// The component-lock recipe is FIFO-fair enough that no entrant starves
/// while others cycle through.
#[test]
fn component_lock_admits_every_waiter() {
    let (sim, env) = setup();
    let lock = Arc::new(ProcessLock::new("fifo"));
    let admitted = Arc::new(AtomicUsize::new(0));
    for i in 0..8 {
        let (l, s, e, a) = (
            Arc::clone(&lock),
            Arc::clone(&sim),
            Arc::clone(&env),
            Arc::clone(&admitted),
        );
        sim.spawn(format!("w{i}"), move || {
            l.enter(&s);
            // Hold across a blocking call, per the recipe.
            let sl = e.sleep_create();
            let sl2 = sl.clone();
            s.at(50, move || sl2.wakeup());
            l.unlocked(&s, || sl.sleep());
            a.fetch_add(1, Ordering::SeqCst);
            l.exit(&s);
        });
    }
    sim.run();
    assert_eq!(admitted.load(Ordering::SeqCst), 8);
}

/// Timer callbacks and sleep timeouts interleave correctly: a timeout
/// armed inside a timer-driven wakeup chain still fires.
#[test]
fn nested_timing_machinery() {
    let (sim, env) = setup();
    let stages = Arc::new(AtomicUsize::new(0));
    let (e2, st2) = (Arc::clone(&env), Arc::clone(&stages));
    sim.spawn("t", move || {
        let sl = e2.sleep_create();
        let sl2 = sl.clone();
        let _e3 = Arc::clone(&e2);
        let st3 = Arc::clone(&st2);
        // A periodic timer wakes the sleeper once, then disarms itself by
        // handle drop at end of scope.
        let handle = e2.timer_register(1_000, move || {
            if st3.fetch_add(1, Ordering::SeqCst) == 0 {
                sl2.wakeup();
            }
        });
        sl.sleep();
        drop(handle);
        // Now a plain timeout still works after the periodic timer died.
        let sl = e2.sleep_create();
        assert_eq!(sl.sleep_timeout(5_000), oskit_machine::WakeReason::TimedOut);
        st2.fetch_add(100, Ordering::SeqCst);
    });
    sim.run();
    assert!(stages.load(Ordering::SeqCst) >= 101);
}

/// Allocation pressure: the default allocator fails cleanly at
/// exhaustion and recovers after frees (no fragmentation collapse for
/// same-size blocks).
#[test]
fn allocator_exhaustion_and_recovery() {
    let sim = Sim::new();
    let m = Machine::new(&sim, "small", 1 << 20);
    let env = OsEnv::new(&m);
    let mut held = Vec::new();
    while let Some(a) = env.mem_alloc(64 * 1024, 1, MemFlags::default()) {
        held.push(a);
        assert!(held.len() < 64, "allocator never exhausts");
    }
    assert!(!held.is_empty());
    let n = held.len();
    for a in held {
        env.mem_free(a, 64 * 1024);
    }
    // Full recovery.
    let mut again = Vec::new();
    while let Some(a) = env.mem_alloc(64 * 1024, 1, MemFlags::default()) {
        again.push(a);
    }
    assert_eq!(again.len(), n);
}
