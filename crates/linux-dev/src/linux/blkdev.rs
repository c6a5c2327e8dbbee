//! The Linux 2.0 block layer in donor idiom: a request queue with the
//! elevator, `ll_rw_block`-style submission, and interrupt-driven
//! completion.
//!
//! Process-level callers enqueue a `Request` and `sleep_on` its wait
//! queue; the interrupt handler completes requests and dispatches the
//! next, keeping one command outstanding at the drive (no tagged
//! queueing, as befits 1997 IDE).

// Donor idiom: block requests complete with success or a bare error
// flag, as Linux 2.0's buffer-head uptodate bit does.
#![allow(clippy::result_unit_err)]

use super::sched::WaitQueue;
use oskit_machine::{boundary, Disk, EventKind, SECTOR_SIZE};
use oskit_osenv::OsEnv;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, Weak};

/// What a completed request yields: the sectors read (`Some` for
/// reads, `None` for writes) or a bare error flag.
pub type BlkResult = Result<Option<Vec<u8>>, ()>;

/// How many times a failed request is reissued before the error goes up
/// the chain — Linux 2.0's `MAX_ERRORS` bound on IDE retries.
pub const BLK_MAX_RETRIES: u32 = 5;

/// Backoff before the first retry; doubles per attempt (so the total
/// in-drive dwell of a doomed request stays bounded at ~31 ms).
const BLK_RETRY_BASE_NS: u64 = 1_000_000;

/// How long a process-level waiter sleeps before suspecting a lost
/// completion interrupt and polling the controller directly.  Far beyond
/// any legitimate service time (even with injected latency spikes).
const BLK_IRQ_TIMEOUT_NS: u64 = 50_000_000;

/// Request direction (`READ`/`WRITE`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cmd {
    /// Read sectors.
    Read,
    /// Write sectors.
    Write,
}

/// One block I/O request (`struct request`).
pub struct Request {
    /// Direction.
    pub cmd: Cmd,
    /// Starting sector.
    pub sector: u64,
    /// Sector count.
    pub nr_sectors: usize,
    /// Write payload (writes only), shared with the disk while the
    /// write is in flight and kept here for a retry.
    pub data: Option<Arc<[u8]>>,
    /// Completion notification.
    pub wq: Arc<WaitQueue>,
    /// Completion result: read data or error flag.
    pub result: Arc<Mutex<Option<BlkResult>>>,
    /// Times this request has already been reissued after a transient
    /// error (bounded by [`BLK_MAX_RETRIES`]).
    pub retries: u32,
}

struct QueueState {
    /// Pending requests, elevator-sorted.
    queue: VecDeque<Request>,
    /// The request at the drive, keyed by the hardware request id.
    in_flight: Option<(u64, Request)>,
    /// Elevator head position (last dispatched sector).
    head_pos: u64,
}

/// An IDE-style drive with its request queue.
pub struct IdeDrive {
    /// Drive name ("hda").
    pub name: String,
    env: Arc<OsEnv>,
    hw: Arc<Disk>,
    state: Mutex<QueueState>,
}

impl IdeDrive {
    /// Probes the drive and hooks its completion interrupt.
    pub fn new(name: impl Into<String>, env: &Arc<OsEnv>, hw: Arc<Disk>) -> Arc<IdeDrive> {
        let drive = Arc::new(IdeDrive {
            name: name.into(),
            env: Arc::clone(env),
            hw: Arc::clone(&hw),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                in_flight: None,
                head_pos: 0,
            }),
        });
        // Weak: the machine owns its interrupt controller, so a strong
        // reference from a handler would keep the machine alive forever.
        let weak: Weak<IdeDrive> = Arc::downgrade(&drive);
        let machine = Arc::downgrade(&env.machine);
        env.machine.irq.install(hw.irq_line(), move |_| {
            let (Some(d), Some(machine)) = (weak.upgrade(), machine.upgrade()) else {
                return;
            };
            machine.book(boundary!("linux-dev", "blk_intr"), EventKind::Irq);
            d.intr();
        });
        drive
    }

    /// Capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.hw.num_sectors()
    }

    /// `ll_rw_block`: enqueues a request; the caller then blocks on
    /// `req.wq` (see [`IdeDrive::rw_blocking`] for the usual pattern).
    pub fn submit(&self, req: Request) {
        let mut st = self.state.lock();
        // The elevator: insert in ascending-sector order past the current
        // head position (one-way scan, wrapping).
        let head = st.head_pos;
        let key = |s: u64| if s >= head { (0, s) } else { (1, s) };
        let pos = st
            .queue
            .iter()
            .position(|r| key(req.sector) < key(r.sector))
            .unwrap_or(st.queue.len());
        st.queue.insert(pos, req);
        if st.in_flight.is_none() {
            self.dispatch(&mut st);
        }
    }

    /// Convenience: submit and sleep until completion, donor style.
    ///
    /// Sleeps with a generous timeout: if it expires the completion
    /// interrupt was probably lost, so the driver polls the controller
    /// directly — the classic IDE fallback — rather than hanging forever.
    pub fn rw_blocking(
        self: &Arc<Self>,
        cmd: Cmd,
        sector: u64,
        nr_sectors: usize,
        data: Option<Arc<[u8]>>,
    ) -> BlkResult {
        let wq = Arc::new(WaitQueue::new());
        let result = Arc::new(Mutex::new(None));
        self.submit(Request {
            cmd,
            sector,
            nr_sectors,
            data,
            wq: Arc::clone(&wq),
            result: Arc::clone(&result),
            retries: 0,
        });
        loop {
            if let Some(r) = result.lock().take() {
                return r;
            }
            if !wq.sleep_on_timeout(&self.env, BLK_IRQ_TIMEOUT_NS) && self.intr() > 0 {
                // Timed out and a completion really was stranded on the
                // controller: its interrupt never arrived.
                self.env.machine.faults().note_blk_lost_irq_poll();
            }
        }
    }

    /// Starts the next queued request at the drive.  Caller holds the
    /// queue lock.
    fn dispatch(&self, st: &mut QueueState) {
        let Some(req) = st.queue.pop_front() else {
            return;
        };
        st.head_pos = req.sector + req.nr_sectors as u64;
        let id = match req.cmd {
            Cmd::Read => self.hw.submit_read(req.sector, req.nr_sectors),
            Cmd::Write => {
                let data = Arc::clone(req.data.as_ref().expect("write without data"));
                assert_eq!(data.len(), req.nr_sectors * SECTOR_SIZE);
                self.hw.submit_write(req.sector, data)
            }
        };
        st.in_flight = Some((id, req));
    }

    /// The completion interrupt (`ide_intr`).  Returns how many requests
    /// it retired (so a timed-out waiter polling the controller can tell
    /// whether a completion really was stranded).
    ///
    /// A request that completed with an error is reissued after an
    /// exponential backoff, up to [`BLK_MAX_RETRIES`] times; only then
    /// does the error go up the chain — Linux 2.0's `MAX_ERRORS` policy.
    fn intr(self: &Arc<Self>) -> usize {
        let mut retired = 0;
        loop {
            let Some(done) = self.hw.take_completion() else {
                return retired;
            };
            let mut st = self.state.lock();
            let Some((id, mut req)) = st.in_flight.take() else {
                // Spurious completion; drop it.
                continue;
            };
            assert_eq!(id, done.id, "completion out of order");
            if !done.ok && req.retries < BLK_MAX_RETRIES {
                // Transient error: back off and reissue, letting the rest
                // of the queue run meanwhile.
                req.retries += 1;
                let delay = BLK_RETRY_BASE_NS << (req.retries - 1);
                self.env.machine.faults().note_blk_retry();
                let drive = Arc::clone(self);
                self.env.machine.at_cpu(delay, move |_| drive.requeue(req));
                self.dispatch(&mut st);
                continue;
            }
            let result = if done.ok {
                Ok(done.data)
            } else {
                // Retries exhausted: the error goes up the blkio chain.
                self.env.machine.faults().note_blk_hard_failure();
                Err(())
            };
            *req.result.lock() = Some(result);
            retired += 1;
            self.dispatch(&mut st);
            drop(st);
            req.wq.wake_up();
        }
    }

    /// Puts a backed-off request back at the head of the queue and kicks
    /// the drive if it went idle while the request was cooling down.
    fn requeue(self: &Arc<Self>, req: Request) {
        let mut st = self.state.lock();
        st.queue.push_front(req);
        if st.in_flight.is_none() {
            self.dispatch(&mut st);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_machine::{Machine, Sim};

    fn drive() -> (Arc<Sim>, Arc<IdeDrive>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 1 << 20);
        let disk = Disk::new(&m, 256);
        let env = OsEnv::new(&m);
        let d = IdeDrive::new("hda", &env, disk);
        m.irq.enable();
        (sim, d)
    }

    #[test]
    fn blocking_write_then_read() {
        let (sim, d) = drive();
        let d2 = Arc::clone(&d);
        sim.spawn("io", move || {
            let payload = vec![0x77u8; SECTOR_SIZE * 2];
            d2.rw_blocking(Cmd::Write, 10, 2, Some(payload[..].into()))
                .unwrap();
            let got = d2.rw_blocking(Cmd::Read, 10, 2, None).unwrap().unwrap();
            assert_eq!(got, payload);
        });
        sim.run();
    }

    #[test]
    fn out_of_range_returns_error() {
        // An out-of-range request is a *persistent* error: it burns its
        // retries (in virtual time) and then fails hard up the chain.
        let (sim, d) = drive();
        let d2 = Arc::clone(&d);
        sim.spawn("io", move || {
            assert!(d2.rw_blocking(Cmd::Read, 1_000_000, 1, None).is_err());
        });
        sim.run();
    }

    #[test]
    fn concurrent_requests_all_complete() {
        let (sim, d) = drive();
        for i in 0..8u64 {
            let d2 = Arc::clone(&d);
            sim.spawn(format!("io{i}"), move || {
                let sector = (i * 13) % 200;
                let data = vec![i as u8; SECTOR_SIZE];
                d2.rw_blocking(Cmd::Write, sector, 1, Some(data[..].into()))
                    .unwrap();
                let got = d2.rw_blocking(Cmd::Read, sector, 1, None).unwrap().unwrap();
                assert_eq!(got, data);
            });
        }
        sim.run();
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        use oskit_machine::{DiskFaults, FaultPlan, IrqFaults};
        let (sim, d) = drive();
        // Aggressive plan: 20% transient errors, latency spikes, and one
        // in twenty completion interrupts lost.
        d.env.machine.faults().install(
            FaultPlan::new(7)
                .disk(DiskFaults {
                    error_per_mille: 200,
                    spike_per_mille: 100,
                    spike_ns: 2_000_000,
                })
                .irq(IrqFaults { lose_per_mille: 50 }),
        );
        let d2 = Arc::clone(&d);
        sim.spawn("io", move || {
            for i in 0..32u64 {
                let payload = vec![i as u8; SECTOR_SIZE];
                d2.rw_blocking(Cmd::Write, i, 1, Some(payload[..].into()))
                    .unwrap();
                let got = d2.rw_blocking(Cmd::Read, i, 1, None).unwrap().unwrap();
                assert_eq!(got, payload, "sector {i} corrupted under faults");
            }
        });
        sim.run();
        let st = d.env.machine.faults().stats();
        assert!(st.disk_errors > 0, "no errors injected: {st:?}");
        assert!(st.blk_retries >= st.disk_errors, "unretried errors: {st:?}");
        assert_eq!(st.blk_hard_failures, 0, "retries exhausted: {st:?}");
    }

    #[test]
    fn elevator_orders_queued_requests() {
        // Submit scattered requests while the drive is busy; they must be
        // dispatched in ascending sector order (one-way scan).
        let (sim, d) = drive();
        let d2 = Arc::clone(&d);
        sim.spawn("io", move || {
            // First request occupies the drive.
            let wq0 = Arc::new(WaitQueue::new());
            let r0 = Arc::new(Mutex::new(None));
            d2.submit(Request {
                cmd: Cmd::Read,
                sector: 0,
                nr_sectors: 1,
                data: None,
                wq: Arc::clone(&wq0),
                result: Arc::clone(&r0),
                retries: 0,
            });
            // Now queue out-of-order requests.
            let mut handles = Vec::new();
            for sector in [90u64, 30, 60] {
                let wq = Arc::new(WaitQueue::new());
                let res = Arc::new(Mutex::new(None));
                d2.submit(Request {
                    cmd: Cmd::Read,
                    sector,
                    nr_sectors: 1,
                    data: None,
                    wq: Arc::clone(&wq),
                    result: Arc::clone(&res),
                    retries: 0,
                });
                handles.push((sector, wq, res));
            }
            {
                let st = d2.state.lock();
                let order: Vec<u64> = st.queue.iter().map(|r| r.sector).collect();
                assert_eq!(order, vec![30, 60, 90], "elevator did not sort");
            }
            // Wait for everything.
            while r0.lock().is_none() {
                wq0.sleep_on(&d2.env);
            }
            for (_, wq, res) in handles {
                while res.lock().is_none() {
                    wq.sleep_on(&d2.env);
                }
            }
        });
        sim.run();
    }
}
