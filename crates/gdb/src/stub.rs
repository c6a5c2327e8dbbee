//! The stub proper: command dispatch while the client OS is stopped.

use crate::proto::{encode_packet, from_hex, to_hex, Decoded, PacketDecoder};
use crate::target::{GdbTarget, StopReason};
use oskit_machine::TrapFrame;

/// The byte connection the stub talks over (the serial line).
pub trait GdbConn {
    /// Blocking read of one byte; `None` when the line is gone.
    fn getc(&mut self) -> Option<u8>;

    /// Writes bytes.
    fn put(&mut self, bytes: &[u8]);
}

/// An in-memory connection for tests and loopback use.
pub struct VecConn {
    /// Bytes the "debugger" will send.
    pub rx: std::collections::VecDeque<u8>,
    /// Bytes the stub transmitted.
    pub tx: Vec<u8>,
}

impl VecConn {
    /// A connection preloaded with `incoming`.
    pub fn new(incoming: &[u8]) -> VecConn {
        VecConn {
            rx: incoming.iter().copied().collect(),
            tx: Vec::new(),
        }
    }
}

impl GdbConn for VecConn {
    fn getc(&mut self) -> Option<u8> {
        self.rx.pop_front()
    }

    fn put(&mut self, bytes: &[u8]) {
        self.tx.extend_from_slice(bytes);
    }
}

/// How the stub session ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resume {
    /// `c`: continue execution.
    Continue,
    /// `s`: single-step one instruction.
    Step,
    /// `k` or connection loss: detach.
    Kill,
}

/// The stub: entered on a trap, exited on a resume command.
pub struct GdbStub<'a> {
    target: &'a mut dyn GdbTarget,
}

impl<'a> GdbStub<'a> {
    /// Wraps a stopped target.
    pub fn new(target: &'a mut dyn GdbTarget) -> GdbStub<'a> {
        GdbStub { target }
    }

    /// Reports the stop and serves commands until GDB resumes the target.
    pub fn run(&mut self, conn: &mut dyn GdbConn, why: StopReason) -> Resume {
        conn.put(&encode_packet(&format!("S{:02x}", why.signal())));
        let mut decoder = PacketDecoder::default();
        loop {
            let Some(byte) = conn.getc() else {
                return Resume::Kill;
            };
            match decoder.push(byte) {
                Decoded::Pending => {}
                Decoded::Interrupt => {
                    conn.put(&encode_packet(&format!(
                        "S{:02x}",
                        StopReason::Int.signal()
                    )));
                }
                Decoded::BadChecksum => conn.put(b"-"),
                Decoded::Packet(p) => {
                    conn.put(b"+");
                    match self.dispatch(&p) {
                        Reply::Text(t) => conn.put(&encode_packet(&t)),
                        Reply::Resume(r) => return r,
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, packet: &str) -> Reply {
        let mut chars = packet.chars();
        match chars.next() {
            Some('?') => Reply::Text(format!("S{:02x}", StopReason::Trap.signal())),
            Some('g') => {
                let f = self.target.regs();
                let mut bytes = Vec::with_capacity(TrapFrame::GDB_NUM_REGS * 4);
                for i in 0..TrapFrame::GDB_NUM_REGS {
                    bytes.extend_from_slice(&f.gdb_reg(i).to_le_bytes());
                }
                Reply::Text(to_hex(&bytes))
            }
            Some('G') => {
                let Some(bytes) = from_hex(chars.as_str()) else {
                    return Reply::Text("E01".into());
                };
                if bytes.len() < TrapFrame::GDB_NUM_REGS * 4 {
                    return Reply::Text("E01".into());
                }
                let mut f = self.target.regs();
                for i in 0..TrapFrame::GDB_NUM_REGS {
                    let v = u32::from_le_bytes([
                        bytes[i * 4],
                        bytes[i * 4 + 1],
                        bytes[i * 4 + 2],
                        bytes[i * 4 + 3],
                    ]);
                    f.set_gdb_reg(i, v);
                }
                self.target.set_regs(f);
                Reply::Text("OK".into())
            }
            Some('p') => {
                let Ok(n) = usize::from_str_radix(chars.as_str(), 16) else {
                    return Reply::Text("E01".into());
                };
                Reply::Text(to_hex(&self.target.regs().gdb_reg(n).to_le_bytes()))
            }
            Some('P') => {
                let rest = chars.as_str();
                let Some((reg, val)) = rest.split_once('=') else {
                    return Reply::Text("E01".into());
                };
                let (Ok(n), Some(v)) = (usize::from_str_radix(reg, 16), from_hex(val)) else {
                    return Reply::Text("E01".into());
                };
                if v.len() != 4 {
                    return Reply::Text("E01".into());
                }
                let mut f = self.target.regs();
                f.set_gdb_reg(n, u32::from_le_bytes([v[0], v[1], v[2], v[3]]));
                self.target.set_regs(f);
                Reply::Text("OK".into())
            }
            Some('m') => {
                let Some((addr, len)) = parse_addr_len(chars.as_str()) else {
                    return Reply::Text("E01".into());
                };
                let mut buf = vec![0u8; len];
                if self.target.read_mem(addr, &mut buf) {
                    Reply::Text(to_hex(&buf))
                } else {
                    Reply::Text("E14".into()) // EFAULT.
                }
            }
            Some('M') => {
                let rest = chars.as_str();
                let Some((range, hex)) = rest.split_once(':') else {
                    return Reply::Text("E01".into());
                };
                let (Some((addr, len)), Some(data)) = (parse_addr_len(range), from_hex(hex)) else {
                    return Reply::Text("E01".into());
                };
                if data.len() != len {
                    return Reply::Text("E01".into());
                }
                if self.target.write_mem(addr, &data) {
                    Reply::Text("OK".into())
                } else {
                    Reply::Text("E14".into())
                }
            }
            Some('Z') | Some('z') => {
                let set = packet.starts_with('Z');
                let parts: Vec<&str> = chars.as_str().split(',').collect();
                if parts.len() < 2 || parts[0] != "0" {
                    return Reply::Text("".into()); // Unsupported kind.
                }
                let Ok(addr) = u32::from_str_radix(parts[1], 16) else {
                    return Reply::Text("E01".into());
                };
                let ok = if set {
                    self.target.set_breakpoint(addr)
                } else {
                    self.target.clear_breakpoint(addr)
                };
                Reply::Text(if ok { "OK".into() } else { "E01".into() })
            }
            Some('c') => {
                if let Ok(addr) = u32::from_str_radix(chars.as_str(), 16) {
                    let mut f = self.target.regs();
                    f.eip = addr;
                    self.target.set_regs(f);
                }
                Reply::Resume(Resume::Continue)
            }
            Some('s') => Reply::Resume(Resume::Step),
            Some('k') => Reply::Resume(Resume::Kill),
            Some('q') => {
                if packet.starts_with("qSupported") {
                    Reply::Text("PacketSize=4096".into())
                } else {
                    Reply::Text("".into())
                }
            }
            // Unknown commands get the empty response, per the protocol.
            _ => Reply::Text("".into()),
        }
    }
}

enum Reply {
    Text(String),
    Resume(Resume),
}

fn parse_addr_len(s: &str) -> Option<(u32, usize)> {
    let (a, l) = s.split_once(',')?;
    Some((
        u32::from_str_radix(a, 16).ok()?,
        usize::from_str_radix(l, 16).ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::MachineTarget;
    use oskit_machine::{Machine, Sim};

    /// Drives a full session: sends `packets`, returns the stub's framed
    /// replies (payloads only) and the resume verdict.
    fn session(target: &mut dyn GdbTarget, packets: &[&str]) -> (Vec<String>, Resume) {
        let mut bytes = Vec::new();
        for p in packets {
            bytes.extend_from_slice(&encode_packet(p));
        }
        let mut conn = VecConn::new(&bytes);
        let mut stub = GdbStub::new(target);
        let resume = stub.run(&mut conn, StopReason::Trap);
        // Parse replies out of the tx stream.
        let mut replies = Vec::new();
        let mut dec = PacketDecoder::default();
        for &b in &conn.tx {
            if let Decoded::Packet(p) = dec.push(b) {
                replies.push(p);
            }
        }
        (replies, resume)
    }

    fn target() -> MachineTarget {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 1 << 16);
        m.phys.write(0x2000, &[0xDE, 0xAD, 0xBE, 0xEF]);
        let mut f = TrapFrame::at(3, 0x2000);
        f.eax = 0x11223344;
        f.esp = 0x8000;
        MachineTarget::new(&m, f)
    }

    #[test]
    fn stop_reply_and_question() {
        let mut t = target();
        let (replies, resume) = session(&mut t, &["?", "c"]);
        assert_eq!(replies[0], "S05"); // Initial stop report.
        assert_eq!(replies[1], "S05"); // '?' answer.
        assert_eq!(resume, Resume::Continue);
    }

    #[test]
    fn read_registers() {
        let mut t = target();
        let (replies, _) = session(&mut t, &["g", "k"]);
        let regs = from_hex(&replies[1]).unwrap();
        // eax is register 0, little-endian.
        assert_eq!(&regs[0..4], &0x11223344u32.to_le_bytes());
        // eip is register 8.
        assert_eq!(&regs[32..36], &0x2000u32.to_le_bytes());
    }

    #[test]
    fn write_single_register() {
        let mut t = target();
        let (replies, _) = session(&mut t, &["P8=78560000", "k"]);
        assert_eq!(replies[1], "OK");
        assert_eq!(t.frame.eip, 0x5678);
    }

    #[test]
    fn memory_read_write() {
        let mut t = target();
        let (replies, _) = session(&mut t, &["m2000,4", "M2002,2:cafe", "m2000,4", "k"]);
        assert_eq!(replies[1], "deadbeef");
        assert_eq!(replies[2], "OK");
        assert_eq!(replies[3], "deadcafe");
    }

    #[test]
    fn bad_memory_access_reports_efault() {
        let mut t = target();
        let (replies, _) = session(&mut t, &["mffff0000,4", "k"]);
        assert_eq!(replies[1], "E14");
    }

    #[test]
    fn breakpoint_lifecycle() {
        let mut t = target();
        let (replies, _) = session(&mut t, &["Z0,2001,1", "m2000,4", "z0,2001,1", "k"]);
        assert_eq!(replies[1], "OK");
        // Read-back hides the int3 patch.
        assert_eq!(replies[2], "deadbeef");
        assert_eq!(replies[3], "OK");
        assert!(t.breakpoints().is_empty());
    }

    #[test]
    fn continue_at_address_sets_eip() {
        let mut t = target();
        let (_, resume) = session(&mut t, &["c3000"]);
        assert_eq!(resume, Resume::Continue);
        assert_eq!(t.frame.eip, 0x3000);
    }

    #[test]
    fn step_and_kill() {
        let mut t = target();
        let (_, resume) = session(&mut t, &["s"]);
        assert_eq!(resume, Resume::Step);
        let mut t = target();
        let (_, resume) = session(&mut t, &["k"]);
        assert_eq!(resume, Resume::Kill);
    }

    #[test]
    fn qsupported_and_unknown_commands() {
        let mut t = target();
        let (replies, _) = session(&mut t, &["qSupported:xmlRegisters=i386", "vMustReply", "k"]);
        assert_eq!(replies[1], "PacketSize=4096");
        assert_eq!(replies[2], "");
    }

    #[test]
    fn connection_loss_detaches() {
        let mut t = target();
        let mut conn = VecConn::new(b""); // Nothing to read.
        let mut stub = GdbStub::new(&mut t);
        assert_eq!(stub.run(&mut conn, StopReason::Segv), Resume::Kill);
        // The stop report still went out.
        assert_eq!(decode(&conn.tx)[0], "S0b");
    }

    fn decode(tx: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        let mut dec = PacketDecoder::default();
        for &b in tx {
            if let Decoded::Packet(p) = dec.push(b) {
                out.push(p);
            }
        }
        out
    }
}
