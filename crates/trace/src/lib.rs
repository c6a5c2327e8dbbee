//! `oskit-trace` — the OSKit observability substrate.
//!
//! The paper's central measurement story (§5, Tables 1–3) is about
//! *attributing* overhead: how many control transfers and payload copies
//! does each layer of glue code add between encapsulated donor-OS
//! components?  This crate holds the answer, and it is the machine's
//! only ledger: every event a component books lands on a named
//! boundary, and aggregate counts are sums over boundaries.
//!
//! * **Boundaries** ([`BoundaryId`], [`register_boundary`], the
//!   [`boundary!`] macro) — interned names for the glue seams between
//!   components, e.g. `("linux-dev", "ether_tx")` where the FreeBSD
//!   network stack hands a packet to the encapsulated Linux driver.
//! * **Event kinds** ([`EventKind`]) — what a booking records: crossings,
//!   copies (with byte counts), allocations, sleeps, wakeups, IRQs and
//!   so on.
//! * **The tracer** ([`Tracer`]) — one ledger: per-boundary counters
//!   ([`BoundaryMetrics`]) under one plain `Mutex`.
//!
//! # Usage
//!
//! ```
//! use oskit_trace::{boundary, EventKind, Tracer};
//!
//! let tracer = Tracer::new();
//! let seam = boundary!("freebsd-net", "rx_ether");
//! tracer.record(seam, EventKind::Crossing);
//! tracer.record(seam, EventKind::Copy { bytes: 1460 });
//!
//! let report = tracer.metrics();
//! let m = report.get("freebsd-net", "rx_ether").unwrap();
//! assert_eq!(m.crossings, 1);
//! assert_eq!(m.bytes_copied, 1460);
//! ```
//!
//! The cost model lives in `oskit-machine`: `Machine::book` prices each
//! kind and records it here.  Every machine owns a `Tracer`, and the
//! bench harnesses render [`TraceReport`]s as per-boundary breakdown
//! tables (`table1 --boundaries`).

#![warn(missing_docs)]

mod boundary;
mod event;
mod tracer;

pub use boundary::{register_boundary, BoundaryId, MAX_BOUNDARIES};
pub use event::EventKind;
pub use tracer::{BoundaryMetrics, TraceReport, Tracer};

#[cfg(test)]
mod tests {
    mod enabled {
        use crate::*;

        /// Each event kind bumps exactly the counters listed for it.
        #[test]
        fn counters_follow_event_kinds() {
            type Bump = fn(&mut BoundaryMetrics);
            let table: [(EventKind, Bump); 16] = [
                (EventKind::Crossing, |m| m.crossings = 1),
                (EventKind::Copy { bytes: 100 }, |m| {
                    (m.copies, m.bytes_copied) = (1, 100)
                }),
                (EventKind::Alloc { bytes: 32 }, |m| {
                    (m.allocs, m.bytes_allocated) = (1, 32)
                }),
                (EventKind::Sleep, |m| m.sleeps = 1),
                (EventKind::Wakeup, |m| m.wakeups = 1),
                (EventKind::Irq, |m| m.irqs = 1),
                (EventKind::RxIrq, |m| (m.irqs, m.rx_irqs) = (1, 1)),
                (EventKind::Poll { frames: 7 }, |m| {
                    (m.polls, m.poll_frames) = (1, 7)
                }),
                (
                    EventKind::Gather {
                        bytes: 1500,
                        fragments: 2,
                    },
                    |m| (m.gathers, m.bytes_gathered) = (1, 1500),
                ),
                (EventKind::AllocFailed { bytes: 64 }, |m| m.alloc_failed = 1),
                (EventKind::CacheHit, |m| m.cache_hits = 1),
                (EventKind::CacheMiss, |m| m.cache_misses = 1),
                (EventKind::CacheEvict, |m| m.cache_evictions = 1),
                (EventKind::Layer, |m| m.layers = 1),
                (EventKind::Checksum { bytes: 40 }, |m| {
                    (m.checksums, m.bytes_checksummed) = (1, 40)
                }),
                (EventKind::PacketReceived, |m| m.packets_received = 1),
            ];
            let seam = crate::boundary!("en", "kind_seam");
            // Every kind plus span time at two seams: `total()` is the
            // row one seam gets from the same work done twice, and that
            // row has no zero counter, so a counter left out of the sum
            // fails here.
            let (two_seams, twice) = (Tracer::new(), Tracer::new());
            let other = crate::boundary!("en", "kind_seam_2");
            for (kind, _) in table {
                for s in [seam, other] {
                    two_seams.record(s, kind);
                    twice.record(seam, kind);
                }
            }
            for s in [seam, other] {
                two_seams.add_vtime(s, 5);
                twice.add_vtime(seam, 5);
            }
            let doubled = *twice.metrics().get("en", "kind_seam").unwrap();
            let debug = format!("{doubled:?}");
            assert!(
                !debug.contains(": 0,") && !debug.contains(": 0 }"),
                "{debug}"
            );
            assert_eq!(
                two_seams.metrics().total(),
                BoundaryMetrics {
                    component: "",
                    name: "",
                    ..doubled
                }
            );
            for (kind, bump) in table {
                let t = Tracer::new();
                t.record(seam, kind);
                let mut want = BoundaryMetrics {
                    component: "en",
                    name: "kind_seam",
                    ..BoundaryMetrics::default()
                };
                bump(&mut want);
                let got = *t.metrics().get("en", "kind_seam").unwrap();
                assert_eq!(got, want, "{kind:?}");
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

            std::thread::scope(|s| {
                for _ in 0..WRITERS {
                    s.spawn(|| {
                        for _ in 0..PER_WRITER {
                            t.record(seam, EventKind::Copy { bytes: 10 });
                        }
                    });
                }

                // Interleave snapshots with the writers: each observed
                // value must be monotone and within range.
                let mut last = 0;
                for _ in 0..50 {
                    let m = *t.metrics().get("en", "concurrent_seam").unwrap();
                    assert!(m.copies >= last);
                    assert!(m.copies <= WRITERS as u64 * PER_WRITER);
                    assert_eq!(m.bytes_copied, m.copies * 10);
                    last = m.copies;
                }
            });

            let m = *t.metrics().get("en", "concurrent_seam").unwrap();
            assert_eq!(m.copies, WRITERS as u64 * PER_WRITER);
            assert_eq!(m.bytes_copied, WRITERS as u64 * PER_WRITER * 10);
        }

        #[test]
        fn clear_resets_everything() {
            let t = Tracer::new();
            let seam = crate::boundary!("en", "clear_seam");
            t.record(seam, EventKind::Crossing);
            t.add_vtime(seam, 5);
            t.clear();
            assert!(t.metrics().get("en", "clear_seam").unwrap().is_zero());
        }

        #[test]
        fn report_display_renders_rows() {
            let t = Tracer::new();
            let seam = crate::boundary!("en", "display_seam");
            t.record(seam, EventKind::Copy { bytes: 7 });
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
            t.record(zeta, EventKind::Crossing);
            t.record(alpha, EventKind::Copy { bytes: 3 });
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
}
