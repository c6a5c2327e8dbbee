//! The kernel console: a UART-backed character device.
//!
//! Exported both as plain `putchar`-level calls (the hook points the
//! minimal C library's `printf` chain bottoms out in, §4.3.1) and as a COM
//! [`CharDev`] for clients that want a device object.

use oskit_com::interfaces::stream::{AsyncIo, CharDev, IoReady, Stream};
use oskit_com::{com_object, new_com, Result, SelfRef};
use oskit_machine::uart::Uart;
use std::sync::Arc;

/// The console device.
pub struct Console {
    me: SelfRef<Console>,
    uart: Arc<Uart>,
}

impl Console {
    /// Wraps a UART as the console.
    pub fn new(uart: &Arc<Uart>) -> Arc<Console> {
        new_com(
            Console {
                me: SelfRef::new(),
                uart: Arc::clone(uart),
            },
            |o| &o.me,
        )
    }

    /// Writes one byte, translating `\n` to `\r\n` as serial consoles
    /// expect.
    pub fn putchar(&self, c: u8) {
        if c == b'\n' {
            self.uart.putc(b'\r');
        }
        self.uart.putc(c);
    }

    /// Writes a string via [`Console::putchar`].
    pub fn puts(&self, s: &str) {
        for b in s.bytes() {
            self.putchar(b);
        }
    }
}

impl Stream for Console {
    fn read(&self, buf: &mut [u8]) -> Result<usize> {
        let mut n = 0;
        while n < buf.len() {
            match self.uart.getc() {
                Some(b) => {
                    buf[n] = b;
                    n += 1;
                }
                None => break,
            }
        }
        Ok(n)
    }

    fn write(&self, buf: &[u8]) -> Result<usize> {
        for &b in buf {
            self.putchar(b);
        }
        Ok(buf.len())
    }
}

impl CharDev for Console {}

impl AsyncIo for Console {
    fn poll(&self) -> Result<IoReady> {
        Ok(IoReady {
            readable: self.uart.rx_ready(),
            writable: true,
            exception: false,
        })
    }
}

com_object!(Console, me, [Stream, CharDev, AsyncIo]);

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::Query;
    use oskit_machine::{Machine, Sim};

    fn console() -> (Arc<Uart>, Arc<Console>) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let uart = Uart::new(&m);
        let c = Console::new(&uart);
        (uart, c)
    }

    #[test]
    fn newline_becomes_crlf() {
        let (uart, c) = console();
        c.puts("hi\n");
        assert_eq!(uart.host_drain(), b"hi\r\n");
    }

    #[test]
    fn stream_write_and_read() {
        let (uart, c) = console();
        c.write(b"abc").unwrap();
        assert_eq!(uart.host_drain(), b"abc");
        uart.host_inject(b"xy");
        let mut buf = [0u8; 4];
        assert_eq!(c.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"xy");
    }

    #[test]
    fn poll_reports_rx() {
        let (uart, c) = console();
        assert!(!c.poll().unwrap().readable);
        uart.host_inject(b"!");
        assert!(c.poll().unwrap().readable);
    }

    #[test]
    fn queries_as_chardev() {
        let (_uart, c) = console();
        let cd = c.query::<dyn CharDev>().unwrap();
        cd.putchar(b'z').unwrap();
    }
}
