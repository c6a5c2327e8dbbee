//! The socket factory and socket COM objects (paper §5).
//!
//! "The OSKit's C library maps these functions directly to the methods of
//! the `oskit_socket` COM interface implemented by the FreeBSD networking
//! component, by associating file descriptors with references to COM
//! objects."

use crate::bsd::stack::BsdNet;
use crate::bsd::tcp::TcpSock;
use crate::bsd::udp::UdpSock;
use oskit_com::interfaces::blkio::BufIo;
use oskit_com::interfaces::socket::{
    Domain, SendBufIo, Shutdown, SockAddr, SockOpt, SockType, Socket, SocketFactory,
};
use oskit_com::interfaces::stream::{AsyncIo, IoReady, Stream};
use oskit_com::{com_object, new_com, Error, Result, SelfRef};
use oskit_machine::{boundary, EventKind};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Books one COM call's crossing into the FreeBSD socket layer, at the
/// `freebsd-net::socket` seam.
fn enter(net: &BsdNet) {
    net.env
        .machine
        .book(boundary!("freebsd-net", "socket"), EventKind::Crossing);
}

/// The factory handed back by `oskit_freebsd_net_init`.
pub struct BsdSocketFactory {
    me: SelfRef<BsdSocketFactory>,
    net: Arc<BsdNet>,
}

impl BsdSocketFactory {
    /// Wraps a stack instance.
    pub fn new(net: &Arc<BsdNet>) -> Arc<BsdSocketFactory> {
        new_com(
            BsdSocketFactory {
                me: SelfRef::new(),
                net: Arc::clone(net),
            },
            |o| &o.me,
        )
    }
}

impl SocketFactory for BsdSocketFactory {
    fn create(&self, domain: Domain, ty: SockType) -> Result<Arc<dyn Socket>> {
        let Domain::Inet = domain;
        enter(&self.net);
        Ok(match ty {
            SockType::Stream => new_com(
                BsdComSocket {
                    me: SelfRef::new(),
                    net: Arc::clone(&self.net),
                    inner: Inner::Tcp(TcpSock::new(&self.net)),
                },
                |o| &o.me,
            ) as Arc<dyn Socket>,
            SockType::Dgram => new_com(
                BsdComSocket {
                    me: SelfRef::new(),
                    net: Arc::clone(&self.net),
                    inner: Inner::Udp(UdpSock::new(&self.net)),
                },
                |o| &o.me,
            ) as Arc<dyn Socket>,
        })
    }
}

com_object!(BsdSocketFactory, me, [SocketFactory]);

enum Inner {
    Tcp(Arc<TcpSock>),
    Udp(Arc<UdpSock>),
}

/// A socket COM object over the BSD socket layer.
pub struct BsdComSocket {
    me: SelfRef<BsdComSocket>,
    net: Arc<BsdNet>,
    inner: Inner,
}

impl BsdComSocket {
    /// Wraps an already-connected TCP socket (for `accept`).
    fn from_tcp(net: &Arc<BsdNet>, sock: Arc<TcpSock>) -> Arc<BsdComSocket> {
        new_com(
            BsdComSocket {
                me: SelfRef::new(),
                net: Arc::clone(net),
                inner: Inner::Tcp(sock),
            },
            |o| &o.me,
        )
    }

    fn tcp(&self) -> Result<&Arc<TcpSock>> {
        match &self.inner {
            Inner::Tcp(t) => Ok(t),
            Inner::Udp(_) => Err(Error::OpNotSupp),
        }
    }

    fn udp(&self) -> Result<&Arc<UdpSock>> {
        match &self.inner {
            Inner::Udp(u) => Ok(u),
            Inner::Tcp(_) => Err(Error::OpNotSupp),
        }
    }
}

impl Socket for BsdComSocket {
    fn bind(&self, addr: SockAddr) -> Result<()> {
        enter(&self.net);
        match &self.inner {
            Inner::Tcp(t) => t.bind(addr.addr, addr.port),
            Inner::Udp(u) => u.bind(addr.addr, addr.port),
        }
    }

    fn connect(&self, addr: SockAddr) -> Result<()> {
        enter(&self.net);
        match &self.inner {
            Inner::Tcp(t) => t.connect(addr.addr, addr.port),
            Inner::Udp(u) => u.connect(addr.addr, addr.port),
        }
    }

    fn listen(&self, backlog: usize) -> Result<()> {
        enter(&self.net);
        self.tcp()?.listen(backlog)
    }

    fn accept(&self) -> Result<(Arc<dyn Socket>, SockAddr)> {
        enter(&self.net);
        let (child, (addr, port)) = self.tcp()?.accept()?;
        Ok((
            Self::from_tcp(&self.net, child) as Arc<dyn Socket>,
            SockAddr::new(addr, port),
        ))
    }

    fn send(&self, buf: &[u8]) -> Result<usize> {
        enter(&self.net);
        match &self.inner {
            Inner::Tcp(t) => t.send(buf),
            Inner::Udp(u) => u.send(buf),
        }
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        enter(&self.net);
        match &self.inner {
            Inner::Tcp(t) => t.recv(buf),
            Inner::Udp(u) => u.recvfrom(buf).map(|(n, _)| n),
        }
    }

    fn sendto(&self, buf: &[u8], addr: SockAddr) -> Result<usize> {
        enter(&self.net);
        self.udp()?.sendto(buf, addr.addr, addr.port)
    }

    fn recvfrom(&self, buf: &mut [u8]) -> Result<(usize, SockAddr)> {
        enter(&self.net);
        let (n, (addr, port)) = self.udp()?.recvfrom(buf)?;
        Ok((n, SockAddr::new(addr, port)))
    }

    fn getsockname(&self) -> Result<SockAddr> {
        let (addr, port) = match &self.inner {
            Inner::Tcp(t) => t.local_addr(),
            Inner::Udp(u) => u.local_addr(),
        };
        Ok(SockAddr::new(addr, port))
    }

    fn getpeername(&self) -> Result<SockAddr> {
        match &self.inner {
            Inner::Tcp(t) => {
                let (addr, port) = t.peer_addr();
                if addr == Ipv4Addr::UNSPECIFIED {
                    return Err(Error::NotConn);
                }
                Ok(SockAddr::new(addr, port))
            }
            Inner::Udp(u) => {
                let (addr, port) = u.peer_addr().ok_or(Error::NotConn)?;
                Ok(SockAddr::new(addr, port))
            }
        }
    }

    fn setsockopt(&self, opt: SockOpt) -> Result<()> {
        if let Inner::Tcp(t) = &self.inner {
            t.setsockopt(opt);
        }
        Ok(())
    }

    fn shutdown(&self, how: Shutdown) -> Result<()> {
        enter(&self.net);
        match how {
            Shutdown::Write | Shutdown::Both => {
                if let Inner::Tcp(t) = &self.inner {
                    t.close();
                }
                Ok(())
            }
            Shutdown::Read => Ok(()),
        }
    }
}

impl Stream for BsdComSocket {
    fn read(&self, buf: &mut [u8]) -> Result<usize> {
        self.recv(buf)
    }

    fn write(&self, buf: &[u8]) -> Result<usize> {
        self.send(buf)
    }
}

impl SendBufIo for BsdComSocket {
    fn send_bufio(&self, buf: &Arc<dyn BufIo>, off: usize, len: usize) -> Result<usize> {
        // The boundary crossing is charged like `send`, but the bytes are
        // *not*: the lent buffer rides the socket layer by reference.
        enter(&self.net);
        self.tcp()?.send_bufio(buf, off, len)
    }
}

impl AsyncIo for BsdComSocket {
    fn poll(&self) -> Result<IoReady> {
        Ok(match &self.inner {
            Inner::Tcp(t) => {
                let (readable, writable) = t.readiness();
                IoReady {
                    readable,
                    writable,
                    exception: false,
                }
            }
            Inner::Udp(u) => IoReady {
                readable: u.readable(),
                writable: true,
                exception: false,
            },
        })
    }
}

com_object!(BsdComSocket, me, [Socket, Stream, AsyncIo, SendBufIo]);
