//! The flight recorder: the most recent trace events, kept in a bounded
//! ring that overwrites its oldest entry when full.
//!
//! A post-mortem wants the events leading up to the moment it looks, so
//! the newest [`RECORDER_CAPACITY`] events survive and every overwritten
//! one is counted — overflow is never silent.  The recorder is plain
//! data: the [`Tracer`](crate::Tracer) keeps it under the same lock as
//! the per-boundary counters.

use crate::boundary::BoundaryId;
use crate::event::{EventKind, TraceEvent};
use std::collections::VecDeque;

/// How many events a tracer's flight recorder retains.
pub const RECORDER_CAPACITY: usize = 4096;

/// The newest [`RECORDER_CAPACITY`] events plus the sequence and
/// overwrite counters.
#[derive(Default)]
pub(crate) struct FlightRecorder {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    overwritten: u64,
}

impl FlightRecorder {
    /// Appends an event stamped with the next sequence number, evicting
    /// (and counting) the oldest one if the recorder is full.
    pub(crate) fn record(&mut self, boundary: BoundaryId, kind: EventKind, vtime_ns: u64) {
        if self.events.len() == RECORDER_CAPACITY {
            self.events.pop_front();
            self.overwritten += 1;
        }
        self.events.push_back(TraceEvent {
            seq: self.next_seq,
            vtime_ns,
            boundary,
            kind,
        });
        self.next_seq += 1;
    }

    /// Removes and returns the retained events, oldest first.
    pub(crate) fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }

    /// Events evicted to make room for newer ones.
    pub(crate) fn overwritten(&self) -> u64 {
        self.overwritten
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn seqs(r: &mut FlightRecorder) -> Vec<u64> {
        r.drain().iter().map(|e| e.seq).collect()
    }

    fn push(r: &mut FlightRecorder, n: u64) {
        let b = crate::boundary!("ring-test", "seam");
        for i in 0..n {
            r.record(b, EventKind::Crossing, i * 10);
        }
    }

    #[test]
    fn fifo_order() {
        let mut r = FlightRecorder::default();
        push(&mut r, 5);
        assert_eq!(seqs(&mut r), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_are_counted_not_silent() {
        let mut r = FlightRecorder::default();
        push(&mut r, RECORDER_CAPACITY as u64 + 12);
        assert_eq!(r.overwritten(), 12);
        // The *newest* events are retained.
        let got = seqs(&mut r);
        assert_eq!(got.len(), RECORDER_CAPACITY);
        assert_eq!(got[0], 12);
        // After draining, capacity is available again and overwrites stop.
        push(&mut r, 1);
        assert_eq!(r.overwritten(), 12);
    }

    #[test]
    fn wraparound_many_laps() {
        let mut r = FlightRecorder::default();
        let laps = 3 * RECORDER_CAPACITY as u64 + 7;
        push(&mut r, laps);
        let got = seqs(&mut r);
        let first = laps - RECORDER_CAPACITY as u64;
        assert!(got.iter().copied().eq(first..laps));
        assert_eq!(r.overwritten(), first);
    }

    #[test]
    fn concurrent_producers_lose_nothing_uncounted() {
        let t = Tracer::new();
        let b = crate::boundary!("ring-test", "concurrent");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..2000 {
                        t.record(b, EventKind::Crossing, i);
                    }
                })
            })
            .collect();
        // A concurrent consumer drains while producers run.
        let mut consumed = 0;
        for _ in 0..100 {
            consumed += t.drain_events().len() as u64;
        }
        for h in threads {
            h.join().unwrap();
        }
        let remaining = t.drain_events().len() as u64;
        // Conservation: every event was drained, is still buffered, or
        // was counted as overwritten.
        assert_eq!(consumed + remaining + t.overwritten(), 8000);
    }
}
