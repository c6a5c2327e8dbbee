//! The IDE-style disk model.
//!
//! What the driver sees: submit a sector request, get a completion
//! interrupt later, drain completions at interrupt level.  Timing models a
//! mid-90s drive: fixed per-request overhead (command + average
//! positioning) plus media transfer at a configurable rate, with requests
//! completing strictly in submission order (no tagged queueing).

use crate::irq::lines;
use crate::machine::Machine;
use crate::sched::Ns;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Bytes per sector.
pub const SECTOR_SIZE: usize = 512;

/// Disk timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiskConfig {
    /// Fixed per-request cost (command + average seek + rotation), ns.
    pub overhead_ns: Ns,
    /// Media transfer rate, bytes per second.
    pub bytes_per_sec: u64,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            overhead_ns: 9_000_000,   // ~9 ms average positioning.
            bytes_per_sec: 5_000_000, // ~5 MB/s media rate.
        }
    }
}

/// The result of a completed request.
#[derive(Debug)]
pub struct Completion {
    /// The id returned at submission.
    pub id: u64,
    /// Read data (reads only; `None` for writes).
    pub data: Option<Vec<u8>>,
    /// Whether the request succeeded (out-of-range requests fail).
    pub ok: bool,
}

/// The disk device.
pub struct Disk {
    machine: Weak<Machine>,
    config: DiskConfig,
    irq_line: u8,
    media: Mutex<Vec<u8>>,
    completed: Mutex<VecDeque<Completion>>,
    next_id: AtomicU64,
    busy_until: Mutex<Ns>,
}

impl Disk {
    /// Attaches a disk of `sectors` sectors on IRQ 14.
    pub fn new(machine: &Arc<Machine>, sectors: usize) -> Arc<Disk> {
        Arc::new(Disk {
            machine: Arc::downgrade(machine),
            config: DiskConfig::default(),
            irq_line: lines::IDE,
            media: Mutex::new(vec![0; sectors * SECTOR_SIZE]),
            completed: Mutex::new(VecDeque::new()),
            next_id: AtomicU64::new(1),
            busy_until: Mutex::new(0),
        })
    }

    /// Number of sectors on the media.
    pub fn num_sectors(&self) -> u64 {
        (self.media.lock().len() / SECTOR_SIZE) as u64
    }

    /// The completion IRQ line.
    pub fn irq_line(&self) -> u8 {
        self.irq_line
    }

    /// Host-side helper: writes `data` onto the media immediately (no
    /// timing, no interrupt) — how test images are prepared.
    pub fn load_image(&self, start_sector: u64, data: &[u8]) {
        let mut media = self.media.lock();
        let off = start_sector as usize * SECTOR_SIZE;
        assert!(off + data.len() <= media.len(), "image beyond media");
        media[off..off + data.len()].copy_from_slice(data);
    }

    /// Host-side helper: reads the media directly (no timing).
    pub fn peek(&self, start_sector: u64, sectors: usize) -> Vec<u8> {
        let media = self.media.lock();
        let off = start_sector as usize * SECTOR_SIZE;
        media[off..off + sectors * SECTOR_SIZE].to_vec()
    }

    /// Submits a read of `count` sectors starting at `sector`.
    ///
    /// Returns the request id; a [`Completion`] with that id appears later
    /// and the completion IRQ fires.
    pub fn submit_read(self: &Arc<Self>, sector: u64, count: usize) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = count * SECTOR_SIZE;
        let fault = self.fault_verdict();
        let ok = self.in_range(sector, count) && !fault.error;
        let disk = Arc::clone(self);
        self.schedule(bytes, fault.extra_ns, move || {
            let data = ok.then(|| {
                let media = disk.media.lock();
                let off = sector as usize * SECTOR_SIZE;
                media[off..off + count * SECTOR_SIZE].to_vec()
            });
            disk.complete(Completion { id, ok, data });
        });
        id
    }

    /// Submits a write of `data` (a whole number of sectors) at `sector`.
    /// The completion shares `data` with the caller, who may keep it to
    /// reissue the write.
    pub fn submit_write(self: &Arc<Self>, sector: u64, data: Arc<[u8]>) -> u64 {
        assert_eq!(data.len() % SECTOR_SIZE, 0, "partial-sector write");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let count = data.len() / SECTOR_SIZE;
        let fault = self.fault_verdict();
        let ok = self.in_range(sector, count) && !fault.error;
        let disk = Arc::clone(self);
        let bytes = data.len();
        self.schedule(bytes, fault.extra_ns, move || {
            if ok {
                let mut media = disk.media.lock();
                let off = sector as usize * SECTOR_SIZE;
                media[off..off + data.len()].copy_from_slice(&data);
            }
            disk.complete(Completion { id, ok, data: None });
        });
        id
    }

    /// Drains the next completion, if any (driver, at interrupt level).
    pub fn take_completion(&self) -> Option<Completion> {
        self.completed.lock().pop_front()
    }

    fn in_range(&self, sector: u64, count: usize) -> bool {
        sector
            .checked_add(count as u64)
            .is_some_and(|end| end <= self.num_sectors())
    }

    /// Consults the machine's fault plan for one request: a transient
    /// media error (`Completion::ok == false`), a latency spike, both, or
    /// — almost always — neither.
    fn fault_verdict(&self) -> oskit_fault::DiskFault {
        self.machine
            .upgrade()
            .map(|m| m.faults().disk_fault())
            .unwrap_or_default()
    }

    fn schedule(&self, bytes: usize, extra_ns: Ns, work: impl FnOnce() + Send + 'static) {
        let Some(machine) = self.machine.upgrade() else {
            return;
        };
        let duration = self.config.overhead_ns
            + extra_ns
            + bytes as u64 * 1_000_000_000 / self.config.bytes_per_sec.max(1);
        let done = {
            let mut busy = self.busy_until.lock();
            let start = (*busy).max(machine.cpu_now());
            *busy = start + duration;
            *busy
        };
        machine.sim.at_abs(done, work);
    }

    fn complete(&self, c: Completion) {
        self.completed.lock().push_back(c);
        if let Some(machine) = self.machine.upgrade() {
            machine.observe(machine.sim.now());
            // A lost completion interrupt strands the completion in the
            // queue; the driver must poll for it or ride the next edge.
            if machine.faults().irq_lost(self.irq_line) {
                return;
            }
            machine.irq.raise(self.irq_line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Sim, SleepRecord};

    fn setup() -> (Arc<Sim>, Arc<Machine>, Arc<Disk>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let d = Disk::new(&m, 128);
        (sim, m, d)
    }

    /// Runs `body` on a sim process thread and waits for it.
    fn in_sim(sim: &Arc<Sim>, body: impl FnOnce() + Send + 'static) {
        sim.spawn("test", body);
        sim.run();
    }

    #[test]
    fn write_then_read_round_trips() {
        let (sim, m, d) = setup();
        let done = Arc::new(Mutex::new(None));
        let d2 = Arc::clone(&d);
        let done2 = Arc::clone(&done);
        let rec = Arc::new(SleepRecord::new());
        let (rec2, m2) = (Arc::clone(&rec), Arc::clone(&m));
        m.irq.install(d.irq_line(), move |_| {
            while let Some(c) = d2.take_completion() {
                if let Some(data) = c.data {
                    *done2.lock() = Some(data);
                    rec2.signal(&m2.sim);
                }
            }
        });
        m.irq.enable();
        let (s2, d3) = (Arc::clone(&sim), Arc::clone(&d));
        in_sim(&sim, move || {
            d3.submit_write(5, vec![0x5A; SECTOR_SIZE].into());
            d3.submit_read(5, 1);
            rec.wait(&s2);
        });
        assert_eq!(done.lock().take().unwrap(), vec![0x5A; SECTOR_SIZE]);
    }

    #[test]
    fn requests_complete_in_order() {
        let (sim, m, d) = setup();
        let order = Arc::new(Mutex::new(Vec::new()));
        let rec = Arc::new(SleepRecord::new());
        let (d2, o2, rec2, m2) = (
            Arc::clone(&d),
            Arc::clone(&order),
            Arc::clone(&rec),
            Arc::clone(&m),
        );
        m.irq.install(d.irq_line(), move |_| {
            while let Some(c) = d2.take_completion() {
                let mut o = o2.lock();
                o.push(c.id);
                if o.len() == 3 {
                    rec2.signal(&m2.sim);
                }
            }
        });
        m.irq.enable();
        let (s2, d3) = (Arc::clone(&sim), Arc::clone(&d));
        let ids = Arc::new(Mutex::new(Vec::new()));
        let ids2 = Arc::clone(&ids);
        in_sim(&sim, move || {
            let a = d3.submit_read(0, 1);
            let b = d3.submit_read(64, 8);
            let c = d3.submit_read(2, 1);
            *ids2.lock() = vec![a, b, c];
            rec.wait(&s2);
        });
        assert_eq!(*order.lock(), *ids.lock());
    }

    #[test]
    fn out_of_range_fails_cleanly() {
        let (sim, m, d) = setup();
        let status = Arc::new(Mutex::new(None));
        let (d2, s2c) = (Arc::clone(&d), Arc::clone(&status));
        let rec = Arc::new(SleepRecord::new());
        let (rec2, m2) = (Arc::clone(&rec), Arc::clone(&m));
        m.irq.install(d.irq_line(), move |_| {
            while let Some(c) = d2.take_completion() {
                *s2c.lock() = Some(c.ok);
                rec2.signal(&m2.sim);
            }
        });
        m.irq.enable();
        let (s2, d3) = (Arc::clone(&sim), Arc::clone(&d));
        in_sim(&sim, move || {
            d3.submit_read(1000, 1); // Disk has 128 sectors.
            rec.wait(&s2);
        });
        assert_eq!(status.lock().take(), Some(false));
    }

    #[test]
    fn timing_includes_overhead_and_transfer() {
        let cfg = DiskConfig::default();
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let d = Disk::new(&m, 128);
        let when = Arc::new(Mutex::new(0u64));
        let (d2, w2, m2) = (Arc::clone(&d), Arc::clone(&when), Arc::clone(&m));
        let rec = Arc::new(SleepRecord::new());
        let rec2 = Arc::clone(&rec);
        m.irq.install(d.irq_line(), move |_| {
            while d2.take_completion().is_some() {
                *w2.lock() = m2.sim.now();
                rec2.signal(&m2.sim);
            }
        });
        m.irq.enable();
        let (s2, d3) = (Arc::clone(&sim), Arc::clone(&d));
        sim.spawn("t", move || {
            d3.submit_read(0, 8); // 4096 bytes.
            rec.wait(&s2);
        });
        sim.run();
        let expected = cfg.overhead_ns + 4096 * 1_000_000_000 / cfg.bytes_per_sec;
        assert_eq!(*when.lock(), expected);
    }

    #[test]
    fn load_image_and_peek_bypass_timing() {
        let (_sim, _m, d) = setup();
        d.load_image(3, &[7u8; SECTOR_SIZE * 2]);
        assert_eq!(d.peek(3, 2), vec![7u8; SECTOR_SIZE * 2]);
        assert_eq!(d.peek(5, 1), vec![0u8; SECTOR_SIZE]);
    }
}
