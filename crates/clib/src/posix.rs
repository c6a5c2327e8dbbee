//! The minimal POSIX layer (paper §6.2.1).
//!
//! "All of the language implementations greatly benefited from the fairly
//! complete POSIX environment provided by the OSKit's minimal C library."
//!
//! A [`PosixIo`] maps file descriptors to COM objects: files and
//! directories from any `FileSystem` component, streams (console,
//! serial), and sockets from any [`SocketFactory`].  Multi-component path
//! traversal happens *here* — the file system components themselves only
//! ever see single pathname components (paper §3.8).
//!
//! The socket half reproduces §5 exactly: `posix_set_socketcreator`
//! registers a protocol stack's factory "so that its `socket` function
//! will work", and "this C library code can be used with any protocol
//! stack that provides these socket and socket factory interfaces."

use oskit_com::interfaces::fs::{Dir, Dirent, File, FileStat, StatChange};
use oskit_com::interfaces::socket::{Domain, SockAddr, SockType, Socket, SocketFactory};
use oskit_com::interfaces::stream::Stream;
use oskit_com::{Error, Query, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// Open flags for [`PosixIo::open`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if absent.
    pub create: bool,
    /// With `create`: fail if it exists.
    pub excl: bool,
    /// Truncate to zero length.
    pub trunc: bool,
    /// All writes go to end-of-file.
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        excl: false,
        trunc: false,
        append: false,
    };
    /// `O_RDWR`.
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        ..OpenFlags::RDONLY
    };
    /// `O_RDWR | O_CREAT`.
    pub const CREATE: OpenFlags = OpenFlags {
        create: true,
        ..OpenFlags::RDWR
    };
}

/// `lseek` origins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Whence {
    /// From the start.
    Set,
    /// From the current offset.
    Cur,
    /// From end-of-file.
    End,
}

/// The object behind a descriptor.
#[derive(Clone)]
enum FdObj {
    File(Arc<dyn File>),
    Dir(Arc<dyn Dir>),
    Stream(Arc<dyn Stream>),
    Socket(Arc<dyn Socket>),
}

struct Fd {
    obj: FdObj,
    offset: u64,
    flags: OpenFlags,
}

/// The per-"process" POSIX I/O state.
pub struct PosixIo {
    root: Mutex<Option<Arc<dyn Dir>>>,
    socket_factory: Mutex<Option<Arc<dyn SocketFactory>>>,
    fds: Mutex<Vec<Option<Fd>>>,
}

impl PosixIo {
    /// Creates an environment with no root file system, no socket factory,
    /// and descriptors 0–2 reserved (closed) for stdio.
    pub fn new() -> Arc<PosixIo> {
        Arc::new(PosixIo {
            root: Mutex::new(None),
            socket_factory: Mutex::new(None),
            fds: Mutex::new((0..3).map(|_| None).collect()),
        })
    }

    /// Mounts `dir` as the root file system (`posix_set_root`).
    pub fn set_root(&self, dir: Arc<dyn Dir>) {
        *self.root.lock() = Some(dir);
    }

    /// Registers the socket factory (`posix_set_socketcreator`, paper §5).
    pub fn set_socket_creator(&self, factory: Arc<dyn SocketFactory>) {
        *self.socket_factory.lock() = Some(factory);
    }

    /// Installs a stream (e.g. the console) on a specific descriptor,
    /// the way kernels wire up stdin/stdout/stderr.
    pub fn install_stream(&self, fd: i32, stream: Arc<dyn Stream>) {
        let mut fds = self.fds.lock();
        let slot = fd as usize;
        while fds.len() <= slot {
            fds.push(None);
        }
        fds[slot] = Some(Fd {
            obj: FdObj::Stream(stream),
            offset: 0,
            flags: OpenFlags::RDWR,
        });
    }

    /// Installs an already-open COM file on a fresh descriptor — the
    /// bridge for code that resolved a `File` through its own traversal
    /// (e.g. a security wrapper) and wants descriptor-based I/O on it.
    pub fn install_file(&self, file: &Arc<dyn File>) -> i32 {
        self.alloc_fd(Fd {
            obj: FdObj::File(Arc::clone(file)),
            offset: 0,
            flags: OpenFlags::RDWR,
        })
    }

    fn alloc_fd(&self, fd: Fd) -> i32 {
        let mut fds = self.fds.lock();
        // Descriptors 0-2 are only ever assigned via `install_stream`.
        for (i, slot) in fds.iter_mut().enumerate().skip(3) {
            if slot.is_none() {
                *slot = Some(fd);
                return i as i32;
            }
        }
        fds.push(Some(fd));
        (fds.len() - 1) as i32
    }

    fn with_fd<R>(&self, fd: i32, f: impl FnOnce(&mut Fd) -> Result<R>) -> Result<R> {
        let mut fds = self.fds.lock();
        let slot = fds
            .get_mut(fd as usize)
            .and_then(|s| s.as_mut())
            .ok_or(Error::BadF)?;
        f(slot)
    }

    /// Looks up the directory containing `path`'s last component,
    /// returning it and the final component.  This is where
    /// multi-component traversal happens; each `lookup` below passes a
    /// single component (paper §3.8).
    fn resolve_parent(&self, path: &str) -> Result<(Arc<dyn Dir>, String)> {
        let root = self.root.lock().clone().ok_or(Error::NoEnt)?;
        let mut components: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        let last = components.pop().map(str::to_string).unwrap_or_default();
        let mut dir = root;
        for comp in components {
            let f = dir.lookup(comp)?;
            dir = f.query::<dyn Dir>().ok_or(Error::NotDir)?;
        }
        Ok((dir, last))
    }

    /// Fully resolves `path` to a file object.
    fn resolve(&self, path: &str) -> Result<Arc<dyn File>> {
        let (dir, last) = self.resolve_parent(path)?;
        if last.is_empty() {
            // The root itself.
            return Ok(dir as Arc<dyn File>);
        }
        dir.lookup(&last)
    }

    // --- Files ---

    /// `open(2)`.
    pub fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> Result<i32> {
        let (dir, last) = self.resolve_parent(path)?;
        let file = if flags.create {
            if last.is_empty() {
                return Err(Error::IsDir);
            }
            dir.create(&last, flags.excl, mode)?
        } else if last.is_empty() {
            dir.clone() as Arc<dyn File>
        } else {
            dir.lookup(&last)?
        };
        if flags.trunc {
            file.setstat(&StatChange {
                size: Some(0),
                ..StatChange::default()
            })?;
        }
        let obj = match file.query::<dyn Dir>() {
            Some(d) => FdObj::Dir(d),
            None => FdObj::File(file),
        };
        Ok(self.alloc_fd(Fd {
            obj,
            offset: 0,
            flags,
        }))
    }

    /// `close(2)`.
    pub fn close(&self, fd: i32) -> Result<()> {
        let mut fds = self.fds.lock();
        let slot = fds.get_mut(fd as usize).ok_or(Error::BadF)?;
        if slot.take().is_none() {
            return Err(Error::BadF);
        }
        Ok(())
    }

    /// `read(2)` — advances the file offset.
    pub fn read(&self, fd: i32, buf: &mut [u8]) -> Result<usize> {
        self.with_fd(fd, |f| match &f.obj {
            FdObj::File(file) => {
                let n = file.read_at(buf, f.offset)?;
                f.offset += n as u64;
                Ok(n)
            }
            FdObj::Stream(s) => s.read(buf),
            FdObj::Socket(s) => s.recv(buf),
            FdObj::Dir(_) => Err(Error::IsDir),
        })
    }

    /// `write(2)` — advances the file offset (or appends under
    /// `O_APPEND`).
    pub fn write(&self, fd: i32, buf: &[u8]) -> Result<usize> {
        self.with_fd(fd, |f| match &f.obj {
            FdObj::File(file) => {
                if !f.flags.write {
                    return Err(Error::BadF);
                }
                if f.flags.append {
                    f.offset = file.getstat()?.size;
                }
                let n = file.write_at(buf, f.offset)?;
                f.offset += n as u64;
                Ok(n)
            }
            FdObj::Stream(s) => s.write(buf),
            FdObj::Socket(s) => s.send(buf),
            FdObj::Dir(_) => Err(Error::IsDir),
        })
    }

    /// `lseek(2)`.
    pub fn lseek(&self, fd: i32, offset: i64, whence: Whence) -> Result<u64> {
        self.with_fd(fd, |f| {
            let base = match whence {
                Whence::Set => 0,
                Whence::Cur => f.offset as i64,
                Whence::End => match &f.obj {
                    FdObj::File(file) => file.getstat()?.size as i64,
                    _ => return Err(Error::SPipe),
                },
            };
            let new = base.checked_add(offset).ok_or(Error::Inval)?;
            if new < 0 {
                return Err(Error::Inval);
            }
            if matches!(f.obj, FdObj::Stream(_) | FdObj::Socket(_)) {
                return Err(Error::SPipe);
            }
            f.offset = new as u64;
            Ok(f.offset)
        })
    }

    /// `fstat(2)`.
    pub fn fstat(&self, fd: i32) -> Result<FileStat> {
        self.with_fd(fd, |f| match &f.obj {
            FdObj::File(file) => file.getstat(),
            FdObj::Dir(d) => d.getstat(),
            _ => Err(Error::NotImpl),
        })
    }

    /// `stat(2)`.
    pub fn stat(&self, path: &str) -> Result<FileStat> {
        self.resolve(path)?.getstat()
    }

    /// `dup(2)`.
    pub fn dup(&self, fd: i32) -> Result<i32> {
        let cloned = self.with_fd(fd, |f| {
            Ok(Fd {
                obj: f.obj.clone(),
                offset: f.offset,
                flags: f.flags,
            })
        })?;
        Ok(self.alloc_fd(cloned))
    }

    /// `mkdir(2)`.
    pub fn mkdir(&self, path: &str, mode: u32) -> Result<()> {
        let (dir, last) = self.resolve_parent(path)?;
        if last.is_empty() {
            return Err(Error::Exist);
        }
        dir.mkdir(&last, mode).map(|_| ())
    }

    /// `rmdir(2)`.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let (dir, last) = self.resolve_parent(path)?;
        dir.rmdir(&last)
    }

    /// `unlink(2)`.
    pub fn unlink(&self, path: &str) -> Result<()> {
        let (dir, last) = self.resolve_parent(path)?;
        dir.unlink(&last)
    }

    /// `rename(2)`.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let (fdir, fname) = self.resolve_parent(from)?;
        let (tdir, tname) = self.resolve_parent(to)?;
        fdir.rename(&fname, &*tdir, &tname)
    }

    /// Reads all directory entries of `path`.
    pub fn readdir(&self, path: &str) -> Result<Vec<Dirent>> {
        let f = self.resolve(path)?;
        let d = f.query::<dyn Dir>().ok_or(Error::NotDir)?;
        let mut out = Vec::new();
        loop {
            let batch = d.readdir(out.len(), 64)?;
            if batch.is_empty() {
                return Ok(out);
            }
            out.extend(batch);
        }
    }

    // --- Sockets (paper §5) ---

    /// `socket(2)` — requires a registered socket factory.
    pub fn socket(&self, domain: Domain, ty: SockType) -> Result<i32> {
        let factory = self
            .socket_factory
            .lock()
            .clone()
            .ok_or(Error::AfNoSupport)?;
        let sock = factory.create(domain, ty)?;
        Ok(self.alloc_fd(Fd {
            obj: FdObj::Socket(sock),
            offset: 0,
            flags: OpenFlags::RDWR,
        }))
    }

    fn with_socket<R>(&self, fd: i32, f: impl FnOnce(&Arc<dyn Socket>) -> Result<R>) -> Result<R> {
        self.with_fd(fd, |e| match &e.obj {
            FdObj::Socket(s) => f(s),
            _ => Err(Error::NotSock),
        })
    }

    /// `bind(2)`.
    pub fn bind(&self, fd: i32, addr: SockAddr) -> Result<()> {
        self.with_socket(fd, |s| s.bind(addr))
    }

    /// `connect(2)`.
    pub fn connect(&self, fd: i32, addr: SockAddr) -> Result<()> {
        // Clone out so the fd table is not held across a blocking call.
        let s = self.with_socket(fd, |s| Ok(Arc::clone(s)))?;
        s.connect(addr)
    }

    /// `listen(2)`.
    pub fn listen(&self, fd: i32, backlog: usize) -> Result<()> {
        self.with_socket(fd, |s| s.listen(backlog))
    }

    /// `accept(2)` — blocks; returns the new descriptor and peer address.
    pub fn accept(&self, fd: i32) -> Result<(i32, SockAddr)> {
        let s = self.with_socket(fd, |s| Ok(Arc::clone(s)))?;
        let (conn, peer) = s.accept()?;
        let nfd = self.alloc_fd(Fd {
            obj: FdObj::Socket(conn),
            offset: 0,
            flags: OpenFlags::RDWR,
        });
        Ok((nfd, peer))
    }

    /// `send(2)` — blocks while the send buffer is full.
    pub fn send(&self, fd: i32, buf: &[u8]) -> Result<usize> {
        let s = self.with_socket(fd, |s| Ok(Arc::clone(s)))?;
        s.send(buf)
    }

    /// `recv(2)` — blocks until data, end-of-stream, or error.
    pub fn recv(&self, fd: i32, buf: &mut [u8]) -> Result<usize> {
        let s = self.with_socket(fd, |s| Ok(Arc::clone(s)))?;
        s.recv(buf)
    }

    /// `sendfile(2)`, offset-pointer form: transmits up to `len` bytes of
    /// `in_fd` (a file) starting at `offset` on `out_fd` (a socket or
    /// stream), without disturbing `in_fd`'s file offset.
    ///
    /// Delegates to [`File::send_on`], so the data path is negotiated by
    /// interface discovery: a file exporting `oskit_file_bufio` sending
    /// on a socket exporting `oskit_socket_send_bufio` lends its buffer
    /// cache pages to the wire with zero copies; any other pairing takes
    /// the ordinary read/write bounce loop.
    pub fn sendfile(&self, out_fd: i32, in_fd: i32, offset: u64, len: u64) -> Result<u64> {
        let file = self.with_fd(in_fd, |f| match &f.obj {
            FdObj::File(file) => Ok(Arc::clone(file)),
            FdObj::Dir(_) => Err(Error::IsDir),
            _ => Err(Error::BadF),
        })?;
        // Clone the sink out, then transmit without holding the fd table:
        // sendfile blocks for the whole transfer.
        let sink = self.with_fd(out_fd, |f| match &f.obj {
            FdObj::Socket(s) => Ok(Arc::clone(s) as Arc<dyn oskit_com::IUnknown>),
            FdObj::Stream(s) => Ok(Arc::clone(s) as Arc<dyn oskit_com::IUnknown>),
            _ => Err(Error::BadF),
        })?;
        file.send_on(&*sink, offset, len)
    }

    /// `getsockname(2)`.
    pub fn getsockname(&self, fd: i32) -> Result<SockAddr> {
        self.with_socket(fd, |s| s.getsockname())
    }

    /// `getpeername(2)`.
    pub fn getpeername(&self, fd: i32) -> Result<SockAddr> {
        self.with_socket(fd, |s| s.getpeername())
    }

    /// `setsockopt(2)`.
    pub fn setsockopt(&self, fd: i32, opt: oskit_com::interfaces::socket::SockOpt) -> Result<()> {
        self.with_socket(fd, |s| s.setsockopt(opt))
    }

    /// `shutdown(2)`.
    pub fn shutdown(&self, fd: i32, how: oskit_com::interfaces::socket::Shutdown) -> Result<()> {
        let s = self.with_socket(fd, |s| Ok(Arc::clone(s)))?;
        s.shutdown(how)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_boot::bmod::BmodFs;
    use oskit_com::interfaces::fs::FileSystem;

    fn with_root() -> Arc<PosixIo> {
        let p = PosixIo::new();
        let fs = BmodFs::empty();
        fs.add_file("hello.txt", b"Hello World".to_vec());
        p.set_root(fs.getroot().unwrap());
        p
    }

    #[test]
    fn open_read_close() {
        let p = with_root();
        let fd = p.open("/hello.txt", OpenFlags::RDONLY, 0).unwrap();
        assert!(fd >= 3, "0-2 reserved for stdio");
        let mut buf = [0u8; 5];
        assert_eq!(p.read(fd, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"Hello");
        assert_eq!(p.read(fd, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b" Worl");
        assert_eq!(p.read(fd, &mut buf).unwrap(), 1);
        p.close(fd).unwrap();
        assert!(matches!(p.read(fd, &mut buf), Err(Error::BadF)));
    }

    #[test]
    fn create_write_seek_read() {
        let p = with_root();
        let fd = p.open("/new.dat", OpenFlags::CREATE, 0o644).unwrap();
        p.write(fd, b"abcdef").unwrap();
        assert_eq!(p.lseek(fd, 2, Whence::Set).unwrap(), 2);
        let mut b = [0u8; 2];
        p.read(fd, &mut b).unwrap();
        assert_eq!(&b, b"cd");
        assert_eq!(p.lseek(fd, -2, Whence::End).unwrap(), 4);
        p.read(fd, &mut b).unwrap();
        assert_eq!(&b, b"ef");
    }

    #[test]
    fn append_mode_writes_at_end() {
        let p = with_root();
        let fd = p
            .open(
                "/hello.txt",
                OpenFlags {
                    append: true,
                    ..OpenFlags::RDWR
                },
                0,
            )
            .unwrap();
        p.write(fd, b"!").unwrap();
        assert_eq!(p.stat("/hello.txt").unwrap().size, 12);
    }

    #[test]
    fn trunc_zeroes_length() {
        let p = with_root();
        let fd = p
            .open(
                "/hello.txt",
                OpenFlags {
                    trunc: true,
                    ..OpenFlags::RDWR
                },
                0,
            )
            .unwrap();
        let _ = fd;
        assert_eq!(p.stat("/hello.txt").unwrap().size, 0);
    }

    #[test]
    fn missing_file_is_noent() {
        let p = with_root();
        assert!(matches!(
            p.open("/nope", OpenFlags::RDONLY, 0),
            Err(Error::NoEnt)
        ));
    }

    #[test]
    fn unlink_and_rename() {
        let p = with_root();
        p.rename("/hello.txt", "/hi.txt").unwrap();
        assert!(p.stat("/hello.txt").is_err());
        assert_eq!(p.stat("/hi.txt").unwrap().size, 11);
        p.unlink("/hi.txt").unwrap();
        assert!(p.stat("/hi.txt").is_err());
    }

    #[test]
    fn readdir_lists_files() {
        let p = with_root();
        let names: Vec<_> = p
            .readdir("/")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&"hello.txt".to_string()));
        assert!(names.contains(&".".to_string()));
    }

    #[test]
    fn dup_shares_object_not_offset() {
        let p = with_root();
        let fd = p.open("/hello.txt", OpenFlags::RDONLY, 0).unwrap();
        let mut b = [0u8; 6];
        p.read(fd, &mut b).unwrap();
        let fd2 = p.dup(fd).unwrap();
        // POSIX dup shares the offset through the open-file description;
        // this minimal layer copies it at dup time (documented).
        let mut c = [0u8; 5];
        p.read(fd2, &mut c).unwrap();
        assert_eq!(&c, b"World");
    }

    #[test]
    fn socket_without_factory_fails() {
        let p = PosixIo::new();
        assert!(matches!(
            p.socket(Domain::Inet, SockType::Stream),
            Err(Error::AfNoSupport)
        ));
    }

    #[test]
    fn stream_fd_for_console() {
        // Install a loopback stream as stdout and write through fd 1.
        use oskit_com::{com_object, new_com, SelfRef};
        struct Sink {
            me: SelfRef<Sink>,
            got: Mutex<Vec<u8>>,
        }
        impl Stream for Sink {
            fn read(&self, _: &mut [u8]) -> Result<usize> {
                Ok(0)
            }
            fn write(&self, buf: &[u8]) -> Result<usize> {
                self.got.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
        }
        com_object!(Sink, me, [Stream]);
        let sink = new_com(
            Sink {
                me: SelfRef::new(),
                got: Mutex::new(Vec::new()),
            },
            |o| &o.me,
        );
        let p = PosixIo::new();
        p.install_stream(1, Arc::clone(&sink) as Arc<dyn Stream>);
        p.write(1, b"to stdout").unwrap();
        assert_eq!(sink.got.lock().as_slice(), b"to stdout");
        // Seeking a stream is ESPIPE.
        assert!(matches!(p.lseek(1, 0, Whence::Cur), Err(Error::SPipe)));
    }

    #[test]
    fn path_traversal_uses_single_components() {
        // A counting Dir proxy proves lookup is called once per component.
        use oskit_com::{com_object, new_com, SelfRef};
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountingDir {
            me: SelfRef<CountingDir>,
            inner: Arc<dyn Dir>,
            lookups: Arc<AtomicUsize>,
        }
        impl File for CountingDir {
            fn read_at(&self, b: &mut [u8], o: u64) -> Result<usize> {
                self.inner.read_at(b, o)
            }
            fn write_at(&self, b: &[u8], o: u64) -> Result<usize> {
                self.inner.write_at(b, o)
            }
            fn getstat(&self) -> Result<FileStat> {
                self.inner.getstat()
            }
            fn setstat(&self, c: &StatChange) -> Result<()> {
                self.inner.setstat(c)
            }
            fn sync(&self) -> Result<()> {
                File::sync(&*self.inner)
            }
        }
        impl Dir for CountingDir {
            fn lookup(&self, name: &str) -> Result<Arc<dyn File>> {
                assert!(!name.contains('/'), "multi-component leak: {name}");
                self.lookups.fetch_add(1, Ordering::SeqCst);
                self.inner.lookup(name)
            }
            fn create(&self, n: &str, e: bool, m: u32) -> Result<Arc<dyn File>> {
                self.inner.create(n, e, m)
            }
            fn mkdir(&self, n: &str, m: u32) -> Result<Arc<dyn Dir>> {
                self.inner.mkdir(n, m)
            }
            fn unlink(&self, n: &str) -> Result<()> {
                self.inner.unlink(n)
            }
            fn rmdir(&self, n: &str) -> Result<()> {
                self.inner.rmdir(n)
            }
            fn rename(&self, o: &str, d: &dyn Dir, n: &str) -> Result<()> {
                self.inner.rename(o, d, n)
            }
            fn link(&self, n: &str, f: &dyn File) -> Result<()> {
                self.inner.link(n, f)
            }
            fn readdir(&self, s: usize, c: usize) -> Result<Vec<Dirent>> {
                self.inner.readdir(s, c)
            }
        }
        com_object!(CountingDir, me, [File, Dir]);

        let fs = BmodFs::empty();
        fs.add_file("leaf", b"x".to_vec());
        let lookups = Arc::new(AtomicUsize::new(0));
        let proxy = new_com(
            CountingDir {
                me: SelfRef::new(),
                inner: fs.getroot().unwrap(),
                lookups: Arc::clone(&lookups),
            },
            |o| &o.me,
        );
        let p = PosixIo::new();
        p.set_root(proxy as Arc<dyn Dir>);
        let _ = p.stat("/leaf").unwrap();
        assert_eq!(lookups.load(Ordering::SeqCst), 1);
    }
}
