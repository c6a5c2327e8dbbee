//! Manufacturing the "current process" on demand (paper §4.7.5).
//!
//! "To emulate the current process, at every entrypoint into the component
//! from the 'outside,' the glue code creates and initializes a minimal
//! temporary process structure on the stack, and initializes the global
//! (component-wide) `curproc` pointer to point to it.  This structure then
//! represents the 'current process' ... for the duration of this call, and
//! automatically disappears when the call completes."

use crate::linux::sched::{CurrentPtr, TaskStruct};

/// RAII scope that installs a manufactured task as `current` and restores
/// the previous value on exit — including around blocking calls back to
/// the client, where another thread's glue entry may install its own.
pub struct GlueEntry<'a> {
    cur: &'a CurrentPtr,
    saved: Option<TaskStruct>,
}

impl<'a> GlueEntry<'a> {
    /// Enters the component: manufactures a process.
    pub fn new(cur: &'a CurrentPtr, comm: &'static str) -> GlueEntry<'a> {
        let saved = cur.set(Some(TaskStruct { pid: -1, comm }));
        GlueEntry { cur, saved }
    }

    /// Runs a blocking call back to the client OS with `current` parked:
    /// "the glue code must also intercept these calls and save the
    /// `curproc` pointer on the local per-thread stack for their duration
    /// in order to prevent it from getting trashed by other concurrent
    /// activities."
    pub fn blocking<R>(&self, f: impl FnOnce() -> R) -> R {
        let mine = self.cur.set(None);
        let r = f();
        let other = self.cur.set(mine);
        debug_assert!(
            other.is_none(),
            "another glue entry left its current installed"
        );
        r
    }
}

impl Drop for GlueEntry<'_> {
    fn drop(&mut self) {
        self.cur.set(self.saved.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_installs_and_restores() {
        let cur = CurrentPtr::new();
        assert!(!cur.is_set());
        {
            let _e = GlueEntry::new(&cur, "oskit_glue");
            assert_eq!(cur.current().pid, -1);
            assert_eq!(cur.current().comm, "oskit_glue");
        }
        assert!(!cur.is_set());
    }

    #[test]
    fn nested_entries_restore_in_order() {
        let cur = CurrentPtr::new();
        let a = GlueEntry::new(&cur, "a");
        {
            let _b = GlueEntry::new(&cur, "b");
            assert_eq!(cur.current().comm, "b");
        }
        assert_eq!(cur.current().comm, "a");
        drop(a);
        assert!(!cur.is_set());
    }

    #[test]
    fn blocking_parks_current_so_others_can_enter() {
        let cur = CurrentPtr::new();
        let e = GlueEntry::new(&cur, "first");
        e.blocking(|| {
            // While "first" blocks back into the client, another thread
            // enters the component with its own manufactured process.
            assert!(!cur.is_set());
            let _e2 = GlueEntry::new(&cur, "second");
            assert_eq!(cur.current().comm, "second");
        });
        assert_eq!(cur.current().comm, "first");
    }
}
