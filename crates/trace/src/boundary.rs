//! Boundary-name interning.
//!
//! A *boundary* is a named glue seam between two components — the exact
//! places the OSKit paper charges glue-code overhead to (e.g. the
//! `linux-dev` ether driver hand-off into the `freebsd-net` stack).
//! Boundaries are registered once per process and referred to everywhere
//! else by a small dense [`BoundaryId`], so per-boundary counters can
//! live in a plain vector indexed by id.

use std::sync::{Mutex, PoisonError};

/// Maximum number of distinct boundaries a process may register.
///
/// Per-boundary counters are vectors indexed by [`BoundaryId`], so this
/// caps their footprint.  The whole OSKit tree registers about 40
/// static boundaries; 128 leaves headroom.
pub const MAX_BOUNDARIES: usize = 128;

/// A small dense handle to an interned (component, boundary-name) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoundaryId(u16);

impl BoundaryId {
    /// The dense index of this boundary, `< MAX_BOUNDARIES`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The interning table: slot i holds the (component, name) of
/// `BoundaryId(i)`.
static TABLE: Mutex<Vec<(&'static str, &'static str)>> = Mutex::new(Vec::new());

fn with_table<R>(f: impl FnOnce(&mut Vec<(&'static str, &'static str)>) -> R) -> R {
    f(&mut TABLE.lock().unwrap_or_else(PoisonError::into_inner))
}

/// Interns `(component, name)` and returns its id.  Idempotent: the same
/// pair always maps to the same id.
///
/// # Panics
///
/// Panics if more than [`MAX_BOUNDARIES`] distinct boundaries are
/// registered — that indicates boundary names are being generated
/// dynamically, which defeats the fixed-cost design.
pub fn register_boundary(component: &'static str, name: &'static str) -> BoundaryId {
    with_table(|t| {
        if let Some(i) = t.iter().position(|&(c, n)| c == component && n == name) {
            return BoundaryId(i as u16);
        }
        assert!(
            t.len() < MAX_BOUNDARIES,
            "more than {MAX_BOUNDARIES} trace boundaries registered; \
             boundary names must be a small static set"
        );
        t.push((component, name));
        BoundaryId((t.len() - 1) as u16)
    })
}

/// Every registered (component, name) pair, in id order (ids are dense,
/// so entry `i` is `BoundaryId(i)`).
pub(crate) fn boundary_names() -> Vec<(&'static str, &'static str)> {
    with_table(|t| t.clone())
}

/// Interns a boundary once per call site and caches the id in a hidden
/// `static`, so hot paths pay one atomic load after the first hit.
///
/// ```
/// let b = oskit_trace::boundary!("linux-dev", "ether_tx");
/// assert_eq!(b, oskit_trace::boundary!("linux-dev", "ether_tx"));
/// ```
#[macro_export]
macro_rules! boundary {
    ($component:expr, $name:expr $(,)?) => {{
        static CACHED: ::std::sync::OnceLock<$crate::BoundaryId> = ::std::sync::OnceLock::new();
        *CACHED.get_or_init(|| $crate::register_boundary($component, $name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = register_boundary("testcomp", "seam_a");
        let b = register_boundary("testcomp", "seam_b");
        assert_ne!(a, b);
        assert_eq!(a, register_boundary("testcomp", "seam_a"));
        assert_eq!(boundary_names()[a.index()], ("testcomp", "seam_a"));
    }

    #[test]
    fn boundary_macro_caches() {
        let x = crate::boundary!("testcomp", "macro_seam");
        let y = crate::boundary!("testcomp", "macro_seam");
        assert_eq!(x, y);
    }
}
