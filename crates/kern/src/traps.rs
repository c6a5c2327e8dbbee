//! Trap dispatch with overridable default handlers (paper §3.2).
//!
//! "The kernel support library takes care of ... installing an interrupt
//! vector table, and providing default trap and interrupt handlers.
//! Naturally, the client OS can modify or override any of this behavior."
//!
//! Clients install handlers per vector; a handler may fully handle the
//! trap or chain to the default.  The Java/PC case study (§6.2.4) relied
//! on exactly this: "the OSKit also provided a simple way for it to
//! install its own custom trap handlers written in ordinary C, which can
//! still fall back to the default handler for traps that are of no
//! interest."

use oskit_machine::trap::{vectors, TrapDisposition, TrapFrame};
use parking_lot::Mutex;

/// Number of trap vectors (exceptions + mapped IRQs).
pub const NUM_VECTORS: usize = 48;

type TrapHandler = Box<dyn FnMut(&mut TrapFrame) -> TrapDisposition + Send>;

/// What the default handler did with an unhandled trap.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefaultAction {
    /// The trap was benign (e.g. a breakpoint with no debugger) and
    /// execution continues.
    Continued,
    /// The trap was fatal; the kernel would dump state and halt.
    Fatal,
}

/// The trap table.
pub struct TrapTable {
    handlers: Mutex<Vec<Option<TrapHandler>>>,
    /// Record of fatal traps, for tests and postmortem dumps.
    fatal_log: Mutex<Vec<TrapFrame>>,
}

impl Default for TrapTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TrapTable {
    /// Creates a table with only the default handlers.
    pub fn new() -> TrapTable {
        TrapTable {
            handlers: Mutex::new((0..NUM_VECTORS).map(|_| None).collect()),
            fatal_log: Mutex::new(Vec::new()),
        }
    }

    /// Installs `handler` on `vector`, replacing any previous one.
    /// Returning [`TrapDisposition::Chain`] falls through to the default.
    pub fn install(
        &self,
        vector: u8,
        handler: impl FnMut(&mut TrapFrame) -> TrapDisposition + Send + 'static,
    ) {
        self.handlers.lock()[vector as usize] = Some(Box::new(handler));
    }

    /// Removes the handler on `vector`, restoring the default.
    pub fn uninstall(&self, vector: u8) {
        self.handlers.lock()[vector as usize] = None;
    }

    /// Delivers a trap: runs the installed handler, then the default if it
    /// chained.  Returns what finally happened.
    pub fn deliver(&self, frame: &mut TrapFrame) -> DefaultAction {
        let vector = frame.trapno as usize;
        assert!(vector < NUM_VECTORS, "trap vector out of range");
        // Take the handler out so it can re-enter the table if it must.
        let handler = self.handlers.lock()[vector].take();
        let disposition = match handler {
            Some(mut h) => {
                let d = h(frame);
                let mut handlers = self.handlers.lock();
                if handlers[vector].is_none() {
                    handlers[vector] = Some(h);
                }
                d
            }
            None => TrapDisposition::Chain,
        };
        match disposition {
            TrapDisposition::Handled => DefaultAction::Continued,
            TrapDisposition::Chain => self.default_handler(frame),
        }
    }

    /// The default handler: breakpoints and debug traps continue,
    /// everything else is fatal (dump + halt in a real kernel).
    fn default_handler(&self, frame: &mut TrapFrame) -> DefaultAction {
        match frame.trapno {
            vectors::BREAKPOINT | vectors::DEBUG => DefaultAction::Continued,
            _ => {
                self.fatal_log.lock().push(*frame);
                DefaultAction::Fatal
            }
        }
    }

    /// Renders a trap frame the way the kit's `trap_dump` would.
    pub fn dump_frame(frame: &TrapFrame) -> String {
        format!(
            "trap {}: err={:#x} cr2={:#x}\n\
             eax={:08x} ebx={:08x} ecx={:08x} edx={:08x}\n\
             esi={:08x} edi={:08x} ebp={:08x} esp={:08x}\n\
             eip={:08x} eflags={:08x}",
            frame.trapno,
            frame.err,
            frame.cr2,
            frame.eax,
            frame.ebx,
            frame.ecx,
            frame.edx,
            frame.esi,
            frame.edi,
            frame.ebp,
            frame.esp,
            frame.eip,
            frame.eflags
        )
    }

    /// Fatal traps recorded so far.
    pub fn fatal_traps(&self) -> Vec<TrapFrame> {
        self.fatal_log.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn default_handler_is_fatal_for_gp_fault() {
        let t = TrapTable::new();
        let mut f = TrapFrame::at(vectors::GP_FAULT, 0x1000);
        assert_eq!(t.deliver(&mut f), DefaultAction::Fatal);
        assert_eq!(t.fatal_traps().len(), 1);
    }

    #[test]
    fn default_handler_continues_breakpoints() {
        let t = TrapTable::new();
        let mut f = TrapFrame::at(vectors::BREAKPOINT, 0x1000);
        assert_eq!(t.deliver(&mut f), DefaultAction::Continued);
        assert!(t.fatal_traps().is_empty());
    }

    #[test]
    fn custom_handler_can_fully_handle() {
        // The Java/PC null-pointer story: catch the fault, fix things up,
        // continue.
        let t = TrapTable::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        t.install(vectors::PAGE_FAULT, move |f| {
            h.fetch_add(1, Ordering::SeqCst);
            f.eip += 2; // Skip the faulting instruction.
            TrapDisposition::Handled
        });
        let mut f = TrapFrame::at(vectors::PAGE_FAULT, 0x2000);
        f.cr2 = 0; // Null dereference.
        assert_eq!(t.deliver(&mut f), DefaultAction::Continued);
        assert_eq!(f.eip, 0x2002);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert!(t.fatal_traps().is_empty());
    }

    #[test]
    fn custom_handler_can_chain_to_default() {
        // §6.2.4: "still fall back to the default handler for traps that
        // are of no interest."
        let t = TrapTable::new();
        t.install(vectors::PAGE_FAULT, |f| {
            if f.cr2 == 0 {
                TrapDisposition::Handled // Interesting: null pointer.
            } else {
                TrapDisposition::Chain // Not ours.
            }
        });
        let mut null = TrapFrame::at(vectors::PAGE_FAULT, 0x1000);
        null.cr2 = 0;
        assert_eq!(t.deliver(&mut null), DefaultAction::Continued);
        let mut wild = TrapFrame::at(vectors::PAGE_FAULT, 0x1000);
        wild.cr2 = 0xDEAD_BEEF;
        assert_eq!(t.deliver(&mut wild), DefaultAction::Fatal);
    }

    #[test]
    fn uninstall_restores_default() {
        let t = TrapTable::new();
        t.install(vectors::DIVIDE, |_| TrapDisposition::Handled);
        let mut f = TrapFrame::at(vectors::DIVIDE, 0);
        assert_eq!(t.deliver(&mut f), DefaultAction::Continued);
        t.uninstall(vectors::DIVIDE);
        assert_eq!(t.deliver(&mut f), DefaultAction::Fatal);
    }

    #[test]
    fn dump_contains_registers() {
        let mut f = TrapFrame::at(vectors::GP_FAULT, 0xCAFE);
        f.eax = 0x1234_5678;
        let d = TrapTable::dump_frame(&f);
        assert!(d.contains("trap 13"));
        assert!(d.contains("12345678"));
        assert!(d.contains("0000cafe"));
    }
}
