//! The programmable interval timer (8253/8254-style).
//!
//! Provides the periodic tick the donor-OS components expect (BSD's 100 Hz
//! softclock, Linux jiffies) and the timer support the language runtimes
//! of §6 used for preemptive green-thread scheduling.

use crate::irq::lines;
use crate::machine::Machine;
use crate::sched::Ns;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The interval timer device.
pub struct Timer {
    machine: Weak<Machine>,
    /// Current generation: bumped on every disarm/re-arm so stale tick
    /// events from an earlier arming cancel themselves.
    generation: AtomicU64,
    period: Mutex<Option<Ns>>,
    ticks: AtomicU64,
}

impl Timer {
    /// Attaches a timer on IRQ 0, initially disarmed.
    pub fn new(machine: &Arc<Machine>) -> Arc<Timer> {
        Arc::new(Timer {
            machine: Arc::downgrade(machine),
            generation: AtomicU64::new(0),
            period: Mutex::new(None),
            ticks: AtomicU64::new(0),
        })
    }

    /// The IRQ line the timer ticks on.
    pub fn irq_line(&self) -> u8 {
        lines::TIMER
    }

    /// Total ticks delivered since creation.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Arms the timer to raise IRQ 0 every `period` ns.
    ///
    /// Re-arming replaces the previous period.
    pub fn arm(self: &Arc<Self>, period: Ns) {
        assert!(period > 0, "timer period must be positive");
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        *self.period.lock() = Some(period);
        self.schedule_tick(generation, period);
    }

    /// Disarms the timer; no further ticks fire.
    pub fn disarm(&self) {
        self.generation.fetch_add(1, Ordering::SeqCst);
        *self.period.lock() = None;
    }

    fn schedule_tick(self: &Arc<Self>, generation: u64, period: Ns) {
        let Some(machine) = self.machine.upgrade() else {
            return;
        };
        let timer = Arc::clone(self);
        machine.sim.at(period, move || {
            if timer.generation.load(Ordering::SeqCst) != generation {
                return; // Disarmed or re-armed since this tick was set.
            }
            timer.ticks.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = timer.machine.upgrade() {
                m.observe(m.sim.now());
                m.irq.raise(lines::TIMER);
            }
            timer.schedule_tick(generation, period);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Sim, SleepRecord};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn periodic_ticks_fire_while_armed() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let timer = Timer::new(&m);
        let ticks = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&ticks);
        m.irq.install(timer.irq_line(), move |_| {
            t2.fetch_add(1, Ordering::SeqCst);
        });
        m.irq.enable();
        timer.arm(10_000_000); // 10 ms → 100 Hz.
        let s2 = Arc::clone(&sim);
        let timer2 = Arc::clone(&timer);
        sim.spawn("t", move || {
            let done = Arc::new(SleepRecord::new());
            let d2 = Arc::clone(&done);
            let s3 = Arc::clone(&s2);
            s2.at(105_000_000, move || d2.signal(&s3));
            done.wait(&s2);
            timer2.disarm();
        });
        sim.run();
        assert_eq!(ticks.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn disarm_stops_ticks() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let timer = Timer::new(&m);
        m.irq.enable();
        timer.arm(1_000);
        timer.disarm();
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 10_000);
        });
        sim.run();
        assert_eq!(timer.ticks(), 0);
    }

    #[test]
    fn rearm_changes_period() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let timer = Timer::new(&m);
        m.irq.enable();
        timer.arm(1_000_000);
        timer.arm(100_000); // Replaces: ten times faster.
        let s2 = Arc::clone(&sim);
        let timer2 = Arc::clone(&timer);
        sim.spawn("t", move || {
            let done = Arc::new(SleepRecord::new());
            let _ = done.wait_timeout(&s2, 1_050_000);
            timer2.disarm();
        });
        sim.run();
        assert_eq!(timer.ticks(), 10);
    }
}
