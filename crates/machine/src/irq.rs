//! The interrupt controller: a simulated 8259A PIC pair.
//!
//! Sixteen IRQ lines with per-line masking and a global interrupt-enable
//! flag (the x86 `IF` bit, controlled with `cli`/`sti`).  Interrupts raised
//! while disabled or masked stay pending and dispatch when re-enabled —
//! which is exactly the mechanism OSKit components rely on for their
//! "interrupt level" critical sections (paper §4.7.4).

use parking_lot::Mutex;
use std::sync::Arc;

/// Number of IRQ lines (two cascaded 8259As).
pub const NUM_IRQS: usize = 16;

/// Standard PC line assignments used by the simulated devices.
pub mod lines {
    /// Programmable interval timer.
    pub const TIMER: u8 = 0;
    /// Keyboard (unused by the kit but reserved, as on a PC).
    pub const KEYBOARD: u8 = 1;
    /// First serial port.
    pub const COM1: u8 = 4;
    /// Ethernet NIC (a typical ISA/PCI assignment).
    pub const ETHER: u8 = 10;
    /// IDE disk controller.
    pub const IDE: u8 = 14;
}

type Handler = Box<dyn FnMut(u8) + Send>;

struct State {
    /// Interrupt-enable depth (the `IF` flag with nesting): interrupts are
    /// deliverable when positive.  Starts at 0 (disabled), as on a real
    /// CPU out of reset; may go negative under nested `cli`.
    enable_depth: i64,
    /// Per-line mask bits (1 = masked).
    mask: u16,
    /// Pending lines awaiting dispatch.
    pending: u16,
    /// True while a handler is running (no nesting, like a PC with a
    /// single priority level).
    in_service: bool,
    handlers: Vec<Option<Handler>>,
}

/// The interrupt controller.
pub struct IrqController {
    state: Mutex<State>,
}

impl Default for IrqController {
    fn default() -> Self {
        Self::new()
    }
}

impl IrqController {
    /// Creates a controller with interrupts disabled and all lines masked.
    pub fn new() -> IrqController {
        IrqController {
            state: Mutex::new(State {
                enable_depth: 0,
                mask: 0xffff,
                pending: 0,
                in_service: false,
                handlers: (0..NUM_IRQS).map(|_| None).collect(),
            }),
        }
    }

    /// Installs `handler` on `line` and unmasks the line, dispatching any
    /// interrupt already pending there.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range or already claimed — sharing a
    /// line requires the owner to demultiplex, as in the donor kernels.
    pub fn install(&self, line: u8, handler: impl FnMut(u8) + Send + 'static) {
        let mut st = self.state.lock();
        let l = line as usize;
        assert!(l < NUM_IRQS, "bad irq line {line}");
        assert!(st.handlers[l].is_none(), "irq line {line} already claimed");
        st.handlers[l] = Some(Box::new(handler));
        st.mask &= !(1 << l);
        drop(st);
        self.dispatch_pending();
    }

    /// Removes the handler from `line` and masks it.
    pub fn uninstall(&self, line: u8) {
        let mut st = self.state.lock();
        let l = line as usize;
        st.handlers[l] = None;
        st.mask |= 1 << l;
    }

    /// Masks `line` without removing its handler.
    pub fn mask_line(&self, line: u8) {
        self.state.lock().mask |= 1 << (line as usize);
    }

    /// Unmasks `line`, dispatching any pending interrupt.
    pub fn unmask_line(&self, line: u8) {
        self.state.lock().mask &= !(1 << (line as usize));
        self.dispatch_pending();
    }

    /// Disables interrupt delivery (`cli`).  Nests: each `disable` must be
    /// balanced by an [`IrqController::enable`].
    pub fn disable(&self) {
        self.state.lock().enable_depth -= 1;
    }

    /// Enables interrupt delivery (`sti`), dispatching pending interrupts
    /// once the outermost enable is reached.
    pub fn enable(&self) {
        self.state.lock().enable_depth += 1;
        self.dispatch_pending();
    }

    /// Returns whether interrupts are currently deliverable.
    pub fn enabled(&self) -> bool {
        self.state.lock().enable_depth > 0
    }

    /// Raises `line`.  If deliverable, the handler runs immediately on the
    /// caller's stack (interrupt level); otherwise the line goes pending.
    pub fn raise(&self, line: u8) {
        {
            let mut st = self.state.lock();
            st.pending |= 1 << (line as usize);
        }
        self.dispatch_pending();
    }

    /// Delivers pending, unmasked interrupts while enabled.
    fn dispatch_pending(&self) {
        loop {
            let (line, mut handler) = {
                let mut st = self.state.lock();
                if st.enable_depth <= 0 || st.in_service {
                    return;
                }
                let deliverable = st.pending & !st.mask;
                if deliverable == 0 {
                    return;
                }
                let line = deliverable.trailing_zeros() as usize;
                st.pending &= !(1 << line);
                // Take the handler out so it can run without the lock; a
                // handler may itself raise or mask lines.
                match st.handlers[line].take() {
                    Some(h) => {
                        st.in_service = true;
                        (line, h)
                    }
                    None => continue, // Spurious: unmasked line with no handler.
                }
            };
            handler(line as u8);
            let mut st = self.state.lock();
            st.in_service = false;
            if st.handlers[line].is_none() {
                st.handlers[line] = Some(handler);
            }
        }
    }
}

/// RAII interrupt-disable guard: the osenv `intr_disable`/`intr_enable`
/// pattern with automatic restore.
pub struct IrqGuard {
    ctl: Arc<IrqController>,
}

impl IrqGuard {
    /// Disables interrupts until the guard drops.
    pub fn new(ctl: &Arc<IrqController>) -> IrqGuard {
        ctl.disable();
        IrqGuard {
            ctl: Arc::clone(ctl),
        }
    }
}

impl Drop for IrqGuard {
    fn drop(&mut self) {
        self.ctl.enable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counting(ctl: &Arc<IrqController>, line: u8) -> Arc<AtomicUsize> {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        ctl.install(line, move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        hits
    }

    #[test]
    fn raise_while_disabled_goes_pending() {
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 3);
        ctl.raise(3);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        ctl.enable();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn raise_while_enabled_dispatches_inline() {
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 5);
        ctl.enable();
        ctl.raise(5);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn masked_line_defers_until_unmask() {
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 7);
        ctl.enable();
        ctl.mask_line(7);
        ctl.raise(7);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        ctl.unmask_line(7);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pending_coalesces_multiple_raises() {
        // Like a real edge-triggered PIC: N raises while disabled deliver
        // one interrupt.
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 2);
        ctl.raise(2);
        ctl.raise(2);
        ctl.raise(2);
        ctl.enable();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_disable_requires_balanced_enable() {
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 1);
        ctl.enable(); // depth 1: enabled
        ctl.disable(); // depth 0
        ctl.raise(1);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        ctl.enable(); // depth 1 again
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn guard_restores_on_drop() {
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 4);
        ctl.enable();
        {
            let _g = IrqGuard::new(&ctl);
            ctl.raise(4);
            assert_eq!(hits.load(Ordering::SeqCst), 0);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_raising_own_line_does_not_recurse() {
        let ctl = Arc::new(IrqController::new());
        let depth = Arc::new(AtomicUsize::new(0));
        let max_depth = Arc::new(AtomicUsize::new(0));
        let (d, m) = (Arc::clone(&depth), Arc::clone(&max_depth));
        let ctl2 = Arc::new(IrqController::new());
        // Install on ctl; the handler raises its own line once.
        let raised = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&raised);
        let ctl_weak = Arc::downgrade(&ctl);
        ctl.install(6, move |_| {
            let cur = d.fetch_add(1, Ordering::SeqCst) + 1;
            m.fetch_max(cur, Ordering::SeqCst);
            if r2.fetch_add(1, Ordering::SeqCst) == 0 {
                if let Some(c) = ctl_weak.upgrade() {
                    c.raise(6); // Must be deferred, not nested.
                }
            }
            d.fetch_sub(1, Ordering::SeqCst);
        });
        drop(ctl2);
        ctl.enable();
        ctl.raise(6);
        assert_eq!(raised.load(Ordering::SeqCst), 2);
        assert_eq!(max_depth.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn double_install_panics() {
        let ctl = Arc::new(IrqController::new());
        ctl.install(9, |_| {});
        ctl.install(9, |_| {});
    }

    #[test]
    fn uninstall_masks_and_frees_line() {
        let ctl = Arc::new(IrqController::new());
        let hits = counting(&ctl, 11);
        ctl.enable();
        ctl.uninstall(11);
        ctl.raise(11);
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        // Line can be claimed again.
        ctl.install(11, |_| {});
    }
}
