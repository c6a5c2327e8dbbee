//! Order statistics and the process's own resource usage.

/// The `p`-quantile (0 < p ≤ 1) of `sorted` by the nearest-rank rule.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The p99 of `sorted`, reported only where at least ten samples lie
/// beyond it.
pub fn p99(sorted: &[u64]) -> Option<u64> {
    let rank = (0.99 * sorted.len() as f64).ceil() as usize;
    (sorted.len().saturating_sub(rank) >= 10).then(|| nearest_rank(sorted, 0.99))
}

/// The median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The process's resource usage (`getrusage(RUSAGE_SELF)`), which covers
/// every thread it has run, live or exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    /// Voluntary context switches.
    pub nvcsw: u64,
    /// Peak resident set size, KiB.
    pub maxrss_kib: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s from `ru_maxrss` to `ru_nivcsw`.
    #[repr(C)]
    pub struct RawRusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub longs: [i64; 14],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    }
}

impl Rusage {
    /// Reads the current usage; all zero where the call is unavailable.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Rusage {
        const RUSAGE_SELF: i32 = 0;
        let mut raw = sys::RawRusage {
            utime: [0; 2],
            stime: [0; 2],
            longs: [0; 14],
        };
        // SAFETY: `raw` is a live, writable value laid out as the kernel's
        // 64-bit `struct rusage` (144 bytes), which is all `getrusage`
        // writes; the call retains no pointer.
        let rc = unsafe { sys::getrusage(RUSAGE_SELF, &mut raw) };
        if rc != 0 {
            return Rusage::default();
        }
        Rusage {
            maxrss_kib: raw.longs[0].max(0) as u64,
            nvcsw: raw.longs[12].max(0) as u64,
        }
    }

    /// Reads the current usage; all zero where the call is unavailable.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Rusage {
        Rusage::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(p99(&v), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(p99(&v), Some(990));
        assert_eq!(nearest_rank(&v, 0.5), 500);
    }

    #[test]
    fn rusage_reports_this_process() {
        let r = Rusage::now();
        assert!(r.maxrss_kib > 0);
    }
}
