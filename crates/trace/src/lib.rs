//! `oskit-trace` — the OSKit observability substrate.
//!
//! The paper's central measurement story (§5, Tables 1–3) is about
//! *attributing* overhead: how many control transfers and payload copies
//! does each layer of glue code add between encapsulated donor-OS
//! components?  This crate holds the answer, and it is the machine's
//! only ledger: every charge a component makes is booked on a named
//! boundary, and aggregate counts are sums over boundaries.
//!
//! * **Boundaries** ([`BoundaryId`], [`register_boundary`], the
//!   [`boundary!`] macro) — interned names for the glue seams between
//!   components, e.g. `("linux-dev", "ether_tx")` where the FreeBSD
//!   network stack hands a packet to the encapsulated Linux driver.
//! * **Events** ([`TraceEvent`], [`EventKind`]) — structured
//!   observations: crossings, copies (with byte counts), allocations,
//!   sleeps, wakeups and IRQs, each stamped with the machine's
//!   *virtual* cost-model timestamp.
//! * **The tracer** ([`Tracer`]) — a cloneable handle to one ledger:
//!   per-boundary counters ([`BoundaryMetrics`]) plus a flight recorder
//!   holding the newest [`RECORDER_CAPACITY`] events (older ones are
//!   overwritten and counted), all under one plain `Mutex`.
//! * **The COM export** ([`Trace`], [`TraceObj`],
//!   [`register_com_object`]) — the OSKit way of exposing a service:
//!   an interface with its own IID (`oskit_iid(0xC0)`), reachable via
//!   `query_interface` on an object published in the component
//!   registry.
//!
//! # Usage
//!
//! ```
//! use oskit_trace::{boundary, EventKind, Tracer};
//!
//! let tracer = Tracer::new();
//! let seam = boundary!("freebsd-net", "rx_ether");
//! tracer.record(seam, EventKind::Crossing, 1_000);
//! tracer.record(seam, EventKind::Copy { bytes: 1460 }, 2_500);
//!
//! let report = tracer.metrics();
//! let m = report.get("freebsd-net", "rx_ether").unwrap();
//! assert_eq!(m.crossings, 1);
//! assert_eq!(m.bytes_copied, 1460);
//! ```
//!
//! The cost-model integration lives in `oskit-machine`
//! (`Machine::charge_copy_at` and friends); every machine owns a
//! `Tracer` and the bench harnesses render [`TraceReport`]s as
//! per-boundary breakdown tables (`table1 --boundaries`).

#![warn(missing_docs)]

mod boundary;
mod com;
mod event;
mod ring;
mod tracer;

pub use boundary::{boundary_info, register_boundary, BoundaryId, MAX_BOUNDARIES};
pub use com::{global, instrument_com_dispatch, register_com_object, Trace, TraceObj, TRACE_IID};
pub use event::{EventKind, TraceEvent};
pub use ring::RECORDER_CAPACITY;
pub use tracer::{BoundaryMetrics, TraceReport, Tracer};

#[cfg(test)]
mod tests {
    mod enabled {
        use crate::*;

        #[test]
        fn counters_and_ring_agree() {
            let t = Tracer::new();
            let a = crate::boundary!("en", "seam_a");
            let b = crate::boundary!("en", "seam_b");
            t.record(a, EventKind::Crossing, 1);
            t.record(a, EventKind::Copy { bytes: 100 }, 2);
            t.record(b, EventKind::Sleep, 3);
            t.record(b, EventKind::Wakeup, 4);
            t.record(b, EventKind::Irq, 5);
            t.record(b, EventKind::Alloc { bytes: 32 }, 6);

            let r = t.metrics();
            let ma = r.get("en", "seam_a").unwrap();
            assert_eq!((ma.crossings, ma.copies, ma.bytes_copied), (1, 1, 100));
            let mb = r.get("en", "seam_b").unwrap();
            assert_eq!(
                (
                    mb.sleeps,
                    mb.wakeups,
                    mb.irqs,
                    mb.allocs,
                    mb.bytes_allocated
                ),
                (1, 1, 1, 1, 32)
            );

            let events = t.drain_events();
            assert_eq!(events.len(), 6);
            // Sequence numbers are dense and vtime is preserved.
            for (i, ev) in events.iter().enumerate() {
                assert_eq!(ev.seq, i as u64);
                assert_eq!(ev.vtime_ns, i as u64 + 1);
            }
        }

        /// A metrics snapshot taken while writer threads are recording
        /// must be internally consistent — every counter a value that was
        /// actually reached, and the final snapshot exact.
        #[test]
        fn snapshot_determinism_under_concurrent_writers() {
            const WRITERS: usize = 4;
            const PER_WRITER: u64 = 5_000;
            let t = Tracer::new();
            let seam = crate::boundary!("en", "concurrent_seam");

            let handles: Vec<_> = (0..WRITERS)
                .map(|_| {
                    let t = t.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_WRITER {
                            t.record(seam, EventKind::Copy { bytes: 10 }, i);
                        }
                    })
                })
                .collect();

            // Interleave snapshots with the writers: each observed value
            // must be monotone and within range.
            let mut last = 0;
            for _ in 0..50 {
                let m = *t.metrics().get("en", "concurrent_seam").unwrap();
                assert!(m.copies >= last);
                assert!(m.copies <= WRITERS as u64 * PER_WRITER);
                assert_eq!(m.bytes_copied, m.copies * 10);
                last = m.copies;
            }
            for h in handles {
                h.join().unwrap();
            }

            let m = *t.metrics().get("en", "concurrent_seam").unwrap();
            assert_eq!(m.copies, WRITERS as u64 * PER_WRITER);
            assert_eq!(m.bytes_copied, WRITERS as u64 * PER_WRITER * 10);
            // Recorder accounting is conservative: drained + overwritten
            // = recorded.
            assert_eq!(
                t.drain_events().len() as u64 + t.overwritten(),
                WRITERS as u64 * PER_WRITER
            );
        }

        #[test]
        fn clear_resets_everything() {
            let t = Tracer::new();
            let seam = crate::boundary!("en", "clear_seam");
            for i in 0..RECORDER_CAPACITY as u64 + 6 {
                t.record(seam, EventKind::Crossing, i);
            }
            assert!(t.overwritten() > 0);
            t.clear();
            assert!(t.drain_events().is_empty());
            assert!(t.metrics().get("en", "clear_seam").unwrap().is_zero());
        }

        #[test]
        fn clones_share_a_core() {
            let t = Tracer::new();
            let t2 = t.clone();
            let seam = crate::boundary!("en", "shared_seam");
            t.record(seam, EventKind::Crossing, 0);
            assert_eq!(t2.metrics().get("en", "shared_seam").unwrap().crossings, 1);
        }

        #[test]
        fn report_display_renders_rows() {
            let t = Tracer::new();
            let seam = crate::boundary!("en", "display_seam");
            t.record(seam, EventKind::Copy { bytes: 7 }, 0);
            let text = t.metrics().to_string();
            assert!(text.contains("en::display_seam"));
            assert!(text.contains("boundary"));
        }

        #[test]
        fn report_order_is_independent_of_registration_order() {
            // Interned late-before-early: ids run opposite to names.
            let zeta = register_boundary("order", "zeta");
            let alpha = register_boundary("order", "alpha");
            assert!(zeta < alpha);
            let t = Tracer::new();
            t.record(zeta, EventKind::Crossing, 0);
            t.record(alpha, EventKind::Copy { bytes: 3 }, 0);
            let rows: Vec<_> = t
                .metrics()
                .nonzero()
                .map(|b| (b.component, b.name))
                .collect();
            assert_eq!(rows, [("order", "alpha"), ("order", "zeta")]);

            // Two processes that registered the same seams in opposite
            // orders hand over their rows in opposite orders; the
            // reports print identically.
            let report = t.metrics();
            let forward: TraceReport = report.boundaries.iter().copied().collect();
            let backward: TraceReport = report.boundaries.iter().rev().copied().collect();
            assert_eq!(forward.to_string(), backward.to_string());
            assert_eq!(forward.to_string(), report.to_string());
        }
    }

    mod proptests {
        use crate::*;
        use proptest::prelude::*;

        proptest! {
            /// The flight recorder keeps exactly the newest events, in
            /// order, and counts every one it overwrote.
            #[test]
            fn recorder_keeps_the_newest(n in 0u64..3 * RECORDER_CAPACITY as u64) {
                let t = Tracer::new();
                let seam = crate::boundary!("en", "recorder_seam");
                for i in 0..n {
                    t.record(seam, EventKind::Crossing, i);
                }
                let kept = n.min(RECORDER_CAPACITY as u64);
                let seqs: Vec<u64> = t.drain_events().iter().map(|e| e.seq).collect();
                prop_assert!(seqs.iter().copied().eq(n - kept..n));
                prop_assert_eq!(t.overwritten(), n.saturating_sub(RECORDER_CAPACITY as u64));
            }
        }
    }
}
