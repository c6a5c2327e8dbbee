//! The benchmark's steadiness self-checks, at reduced sizes.

use oskit_perfbench::probe::Seam;
use oskit_perfbench::stats::median;
use oskit_perfbench::{run_round, Params, Workload};

const SMALL: Params = Params {
    stream_min: 512 << 10,
    stream_extra: 64 << 10,
    rpc_exchanges: 300,
    files: 48,
    fs_requests: 150,
};

#[test]
fn same_seed_repeats_virtual_time_and_counters_exactly() {
    for w in Workload::ALL {
        let a = run_round(w, 11, false, &SMALL);
        let b = run_round(w, 11, false, &SMALL);
        assert!(a.errors.is_empty(), "{}: {:?}", w.name(), a.errors);
        assert_eq!(a.vt.failed, 0, "{}", w.name());
        assert!(a.vt.attempted > 0);
        assert_eq!(
            a.vt,
            b.vt,
            "{}: virtual time differs between runs",
            w.name()
        );
        assert_eq!(
            a.counts,
            b.counts,
            "{}: per-boundary counts differ",
            w.name()
        );
        assert!(!a.counts.is_empty());
    }
}

#[test]
fn traced_and_untraced_rounds_agree() {
    for w in Workload::ALL {
        let plain = run_round(w, 5, false, &SMALL);
        let traced = run_round(w, 5, true, &SMALL);
        assert!(
            traced.errors.is_empty(),
            "{}: {:?}",
            w.name(),
            traced.errors
        );
        assert_eq!(
            plain.vt,
            traced.vt,
            "{}: interposition changed virtual time",
            w.name()
        );
        assert_eq!(
            plain.counts,
            traced.counts,
            "{}: interposition changed the program's counters",
            w.name()
        );
        assert!(plain.spans.is_empty());
        assert!(traced.spans.iter().any(|s| s.name == "exchange"));
        let calls = |s: Seam| traced.seams[s as usize].calls;
        assert!(
            calls(Seam::NetTx) > 0 && calls(Seam::NetRx) > 0,
            "{}",
            w.name()
        );
        let disk = w == Workload::FileServe;
        assert_eq!(calls(Seam::BlkRead) > 0, disk, "{}", w.name());
        assert_eq!(calls(Seam::FileGet) > 0, disk, "{}", w.name());
        // Every seam span points at a root span of its exchange, or at
        // none when no exchange was in flight.
        let roots: std::collections::BTreeSet<u64> = traced
            .spans
            .iter()
            .filter(|s| s.name == "exchange")
            .map(|s| s.id)
            .collect();
        assert!(traced
            .spans
            .iter()
            .all(|s| s.parent == 0 || roots.contains(&s.parent)));
    }
}

#[test]
fn another_seed_draws_other_inputs_and_passes_the_oracle() {
    for w in Workload::ALL {
        let a = run_round(w, 11, false, &SMALL);
        let b = run_round(w, 12, false, &SMALL);
        assert!(b.errors.is_empty(), "{}: {:?}", w.name(), b.errors);
        assert_eq!(b.vt.failed, 0, "{}", w.name());
        assert_ne!(
            a.vt.lat_ns,
            b.vt.lat_ns,
            "{}: the seed changed nothing",
            w.name()
        );
    }
}

#[test]
fn host_time_spread_over_repeated_rounds() {
    // Recorded, not asserted: the host clock depends on the machine.
    for w in Workload::ALL {
        let host: Vec<f64> = (0..5)
            .map(|_| run_round(w, 3, false, &SMALL).host_s)
            .collect();
        let (lo, hi) = host
            .iter()
            .fold((f64::MAX, 0.0f64), |(l, h), &v| (l.min(v), h.max(v)));
        let med = median(&host);
        eprintln!(
            "{}: host_s median {med:.4} s, range {:.1}% of median over 5 rounds",
            w.name(),
            (hi - lo) / med * 100.0
        );
        assert!(med > 0.0);
    }
}
