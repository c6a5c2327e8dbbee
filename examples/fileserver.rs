//! fileserver — the "highly secure file server" of paper §3.8, end to end.
//!
//! "Our development of a highly secure file server using the OSKit's file
//! system provided an interesting experience ...  The OSKit interface
//! accepts only single pathname components, allowing the security wrapping
//! code to do appropriate permission checking.  The fileserver itself,
//! however, exports an interface accepting full pathnames, providing
//! efficiency where it matters, between processes."
//!
//! Two simulated machines: the server boots with an IDE disk (encapsulated
//! Linux driver → `oskit_blkio` → encapsulated NetBSD file system), wraps
//! the root directory in a security layer, and serves a full-pathname
//! protocol over TCP (FreeBSD stack over the Linux Ethernet driver).  The
//! client exercises it through plain POSIX sockets.
//!
//! Run with: `cargo run --release --example fileserver`

use oskit::clib::fargs;
use oskit::com::interfaces::fs::{Dir, Dirent, File, FileStat, FileSystem, StatChange};
use oskit::com::interfaces::socket::{Domain, SockAddr, SockType};
use oskit::com::{com_object, new_com, Error, Query, Result, SelfRef};
use oskit::machine::{Nic, Sim};
use oskit::netbsd_fs::FfsFileSystem;
use oskit::{Kernel, KernelBuilder};
use std::net::Ipv4Addr;
use std::sync::Arc;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

fn main() {
    let sim = Sim::new();
    let (server, nics_s, _) = KernelBuilder::new("fileserver")
        .nic([2, 0, 0, 0, 0, 2])
        .disk(4096) // 2 MB IDE disk.
        .boot(&sim);
    let (client, nics_c, _) = KernelBuilder::new("client")
        .nic([2, 0, 0, 0, 0, 1])
        .boot(&sim);
    Nic::connect(&nics_s[0], &nics_c[0]);
    server.base.uart.set_echo_to_host(true);
    client.base.uart.set_echo_to_host(true);

    let s = Arc::clone(&server);
    sim.spawn("server", move || server_main(&s));
    let c = Arc::clone(&client);
    sim.spawn("client", move || client_main(&c));
    sim.run();
}

// --- The server kernel ---

fn server_main(k: &Kernel) {
    k.printf("[server] booting file server\n", fargs![]);
    // Disk: encapsulated Linux IDE driver behind oskit_blkio.
    let disks = k.init_disks();
    let blkio = disks.first().expect("no disk").clone();
    // File system: newfs + mount the encapsulated NetBSD fs on it.
    FfsFileSystem::mkfs(&blkio).expect("mkfs");
    let fs = FfsFileSystem::mount_on(&k.env, &blkio).expect("mount");
    let root = fs.getroot().expect("root");
    // Populate.
    let pub_f = root.create("readme.txt", true, 0o644).expect("create");
    pub_f
        .write_at(b"The OSKit file server says hello.\n", 0)
        .expect("write");
    let secret = root.create("shadow", true, 0o600).expect("create");
    secret.write_at(b"root:$1$...\n", 0).expect("write");
    // A bulk payload for the SENDFILE verb.
    let blob = root.create("blob.bin", true, 0o644).expect("create");
    let pattern: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let mut off = 0;
    while off < pattern.len() {
        off += blob.write_at(&pattern[off..], off as u64).expect("write");
    }
    // The security wrapper: per-component checks (deny "shadow").
    let secure_root = SecureDir::wrap(root, vec!["shadow".into()]);
    k.printf("[server] volume populated; shadow is protected\n", fargs![]);

    // Networking + the full-pathname server protocol.
    k.init_networking(SERVER_IP, MASK);
    let p = &k.posix;
    let lfd = p.socket(Domain::Inet, SockType::Stream).expect("socket");
    p.bind(lfd, SockAddr::any(7070)).expect("bind");
    p.listen(lfd, 4).expect("listen");
    k.printf("[server] listening on %s:7070\n", fargs![SERVER_IP.to_string()]);

    let (conn, peer) = p.accept(lfd).expect("accept");
    k.printf("[server] client connected from %s\n", fargs![peer.to_string()]);
    while let Some(line) = read_line(k, conn) {
        let mut parts = line.splitn(3, ' ');
        let verb = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let reply = match verb {
            // Full pathnames at the wire protocol; the wrapper sees one
            // component at a time.
            "GET" => match resolve(&secure_root, path)
                .and_then(|f| {
                    let mut buf = vec![0u8; 4096];
                    let n = f.read_at(&mut buf, 0)?;
                    buf.truncate(n);
                    Ok(buf)
                }) {
                Ok(data) => {
                    let mut r = format!("OK {}\n", data.len()).into_bytes();
                    r.extend_from_slice(&data);
                    r
                }
                Err(e) => format!("ERR {}\n", e).into_bytes(),
            },
            "PUT" => {
                let body = parts.next().unwrap_or("");
                match put(&secure_root, path, body.as_bytes()) {
                    Ok(()) => b"OK 0\n".to_vec(),
                    Err(e) => format!("ERR {}\n", e).into_bytes(),
                }
            }
            // sendfile(2) over the wire protocol: the header goes out
            // through `send`, the body straight from the buffer cache via
            // `posix.sendfile` — zero copies when the NIC gathers.  The
            // security wrapper still vets every pathname component; the
            // wrapped file it returns simply lacks `oskit_file_bufio`, so
            // protected wrappers would bounce-copy — here the wrapper
            // passes the inner FFS file through for plain files, keeping
            // the zero-copy pact intact.
            "SENDFILE" => match resolve(&secure_root, path).and_then(|f| {
                let size = f.getstat()?.size;
                let hdr = format!("OK {}\n", size);
                let mut sent = 0;
                while sent < hdr.len() {
                    sent += p.send(conn, &hdr.as_bytes()[sent..])?;
                }
                let fd = p.install_file(&f);
                let r = p.sendfile(conn, fd, 0, size);
                let _ = p.close(fd);
                let n = r?;
                if n != size {
                    return Err(Error::Io);
                }
                Ok(())
            }) {
                Ok(()) => Vec::new(), // Header and body already sent.
                Err(e) => format!("ERR {}\n", e).into_bytes(),
            },
            "LS" => match list(&secure_root, path) {
                Ok(names) => {
                    let body = names.join(" ");
                    format!("OK {}\n{}", body.len(), body).into_bytes()
                }
                Err(e) => format!("ERR {}\n", e).into_bytes(),
            },
            "QUIT" => break,
            _ => b"ERR bad verb\n".to_vec(),
        };
        let mut sent = 0;
        while sent < reply.len() {
            sent += p.send(conn, &reply[sent..]).expect("send");
        }
    }
    // The SENDFILE verb queued cache pages, not copies, at the socket.
    let m = k.machine.work();
    assert!(
        m.bytes_gathered >= 64 * 1024,
        "sendfile never gathered: {m:?}"
    );
    k.printf(
        "[server] sendfile lent %d bytes to the socket as gathers\n",
        fargs![m.bytes_gathered],
    );
    FileSystem::sync(&*fs).expect("sync");
    let findings = fs.fsck().expect("fsck");
    k.printf(
        "[server] shutting down; fsck findings: %d\n",
        fargs![findings.len()],
    );
    assert!(findings.is_empty(), "volume inconsistent: {findings:?}");
    p.shutdown(conn, oskit::com::interfaces::socket::Shutdown::Both)
        .expect("shutdown");
}

/// Walks a full pathname one component at a time through the (secured)
/// COM interfaces.
fn resolve(root: &Arc<SecureDir>, path: &str) -> Result<Arc<dyn File>> {
    let mut cur: Arc<dyn File> = Arc::clone(root) as Arc<dyn Dir> as Arc<dyn File>;
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        let dir = cur.query::<dyn Dir>().ok_or(Error::NotDir)?;
        cur = dir.lookup(comp)?;
    }
    Ok(cur)
}

fn put(root: &Arc<SecureDir>, path: &str, body: &[u8]) -> Result<()> {
    let (dir_path, name) = match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    };
    let parent = resolve(root, dir_path)?;
    let dir = parent.query::<dyn Dir>().ok_or(Error::NotDir)?;
    let f = dir.create(name, false, 0o644)?;
    f.setstat(&StatChange {
        size: Some(0),
        ..StatChange::default()
    })?;
    f.write_at(body, 0)?;
    Ok(())
}

fn list(root: &Arc<SecureDir>, path: &str) -> Result<Vec<String>> {
    let f = resolve(root, path)?;
    let dir = f.query::<dyn Dir>().ok_or(Error::NotDir)?;
    Ok(dir.readdir(0, 1000)?.into_iter().map(|e| e.name).collect())
}

fn read_line(k: &Kernel, fd: i32) -> Option<String> {
    let mut line = Vec::new();
    let mut b = [0u8; 1];
    loop {
        match k.posix.recv(fd, &mut b) {
            Ok(0) => return None,
            Ok(_) => {
                if b[0] == b'\n' {
                    return Some(String::from_utf8_lossy(&line).into_owned());
                }
                line.push(b[0]);
            }
            Err(_) => return None,
        }
    }
}

// --- The security wrapper (paper §3.8) ---

/// A directory proxy interposing a deny-list check on every single
/// pathname component — possible precisely because the fs component's
/// interfaces never see full paths.
pub struct SecureDir {
    me: SelfRef<SecureDir>,
    inner: Arc<dyn Dir>,
    deny: Arc<Vec<String>>,
}

impl SecureDir {
    fn wrap(inner: Arc<dyn Dir>, deny: Vec<String>) -> Arc<SecureDir> {
        Self::wrap_shared(inner, Arc::new(deny))
    }

    fn wrap_shared(inner: Arc<dyn Dir>, deny: Arc<Vec<String>>) -> Arc<SecureDir> {
        new_com(
            SecureDir {
                me: SelfRef::new(),
                inner,
                deny,
            },
            |o| &o.me,
        )
    }

    fn check(&self, name: &str) -> Result<()> {
        if self.deny.iter().any(|d| d == name) {
            return Err(Error::Acces);
        }
        Ok(())
    }
}

impl File for SecureDir {
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

impl Dir for SecureDir {
    fn lookup(&self, name: &str) -> Result<Arc<dyn File>> {
        self.check(name)?;
        let f = self.inner.lookup(name)?;
        // Subdirectories stay wrapped, so the policy holds at any depth.
        match f.query::<dyn Dir>() {
            Some(d) => Ok(Self::wrap_shared(d, Arc::clone(&self.deny)) as Arc<dyn File>),
            None => Ok(f),
        }
    }
    fn create(&self, n: &str, e: bool, m: u32) -> Result<Arc<dyn File>> {
        self.check(n)?;
        self.inner.create(n, e, m)
    }
    fn mkdir(&self, n: &str, m: u32) -> Result<Arc<dyn Dir>> {
        self.check(n)?;
        self.inner.mkdir(n, m)
    }
    fn unlink(&self, n: &str) -> Result<()> {
        self.check(n)?;
        self.inner.unlink(n)
    }
    fn rmdir(&self, n: &str) -> Result<()> {
        self.check(n)?;
        self.inner.rmdir(n)
    }
    fn rename(&self, o: &str, d: &dyn Dir, n: &str) -> Result<()> {
        self.check(o)?;
        self.check(n)?;
        self.inner.rename(o, d, n)
    }
    fn link(&self, n: &str, f: &dyn File) -> Result<()> {
        self.check(n)?;
        self.inner.link(n, f)
    }
    fn readdir(&self, s: usize, c: usize) -> Result<Vec<Dirent>> {
        Ok(self
            .inner
            .readdir(s, c)?
            .into_iter()
            .filter(|e| !self.deny.contains(&e.name))
            .collect())
    }
}

com_object!(SecureDir, me, [File, Dir]);

// --- The client kernel ---

fn client_main(k: &Kernel) {
    k.init_networking(Ipv4Addr::new(10, 0, 0, 1), MASK);
    let p = &k.posix;
    let fd = p.socket(Domain::Inet, SockType::Stream).expect("socket");
    p.connect(fd, SockAddr::new(SERVER_IP, 7070)).expect("connect");
    k.printf("[client] connected\n", fargs![]);

    let send = |req: &str| {
        let bytes = req.as_bytes();
        let mut sent = 0;
        while sent < bytes.len() {
            sent += p.send(fd, &bytes[sent..]).expect("send");
        }
    };
    let recv_reply = || -> String {
        let Some(status) = read_line(k, fd) else {
            return String::new();
        };
        let body_len = status
            .strip_prefix("OK ")
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; body_len];
        let mut got = 0;
        while got < body_len {
            got += p.recv(fd, &mut body[got..]).expect("recv");
        }
        format!("{status} | {}", String::from_utf8_lossy(&body).trim_end())
    };

    send("LS /\n");
    k.printf("[client] LS / -> %s\n", fargs![recv_reply()]);
    send("GET /readme.txt\n");
    k.printf("[client] GET readme -> %s\n", fargs![recv_reply()]);
    send("GET /shadow\n");
    let denied = recv_reply();
    k.printf("[client] GET shadow -> %s\n", fargs![denied.clone()]);
    assert!(denied.contains("ERR"), "security wrapper must deny");
    // The sendfile mode: the body leaves the server's buffer cache as
    // lent pages (`File::send_on` via `posix.sendfile`), not copies.
    send("SENDFILE /blob.bin\n");
    let status = read_line(k, fd).expect("sendfile status");
    let blob_len = status
        .strip_prefix("OK ")
        .and_then(|n| n.parse::<usize>().ok())
        .expect("sendfile header");
    let mut blob = vec![0u8; blob_len];
    let mut got = 0;
    while got < blob_len {
        got += p.recv(fd, &mut blob[got..]).expect("recv");
    }
    assert_eq!(blob_len, 64 * 1024);
    assert!(
        blob.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8),
        "sendfile payload corrupt"
    );
    k.printf(
        "[client] SENDFILE blob.bin -> %d bytes, byte-exact\n",
        fargs![blob_len],
    );
    send("SENDFILE /shadow\n");
    let denied_sf = recv_reply();
    k.printf("[client] SENDFILE shadow -> %s\n", fargs![denied_sf.clone()]);
    assert!(denied_sf.contains("ERR"), "security wrapper must deny sendfile");
    send("PUT /notes.txt remember the milk\n");
    k.printf("[client] PUT notes -> %s\n", fargs![recv_reply()]);
    send("GET /notes.txt\n");
    let notes = recv_reply();
    k.printf("[client] GET notes -> %s\n", fargs![notes.clone()]);
    assert!(notes.contains("remember the milk"));
    send("QUIT\n");
    let mut b = [0u8; 16];
    while p.recv(fd, &mut b).unwrap_or(0) != 0 {}
    k.printf("[client] done\n", fargs![]);
}
