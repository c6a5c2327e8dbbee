//! COM-interface-level tests of the file system component, including the
//! paper's secure-file-server interposition pattern (§3.8) and a
//! property test over random operation sequences.

use oskit_com::interfaces::blkio::{BlkIo, VecBufIo};
use oskit_com::interfaces::fs::{Dir, File, FileSystem, FileType, StatChange};
use oskit_com::{oskit_iid, Error, Guid, IUnknown, Query};
use oskit_netbsd_fs::{FfsFileSystem, FfsNode, BLOCK_SIZE};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn fresh() -> Arc<FfsFileSystem> {
    let dev = VecBufIo::with_len(512 * BLOCK_SIZE) as Arc<dyn BlkIo>;
    FfsFileSystem::mkfs(&dev).unwrap();
    FfsFileSystem::mount_ram(&dev).unwrap()
}

#[test]
fn files_query_as_file_but_not_dir() {
    // The dynamic interface probe: "safe downcasting" (§4.4.2).
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let f = root.create("plain.txt", true, 0o644).unwrap();
    assert!(f.query::<dyn File>().is_some());
    assert!(f.query::<dyn Dir>().is_none(), "a file is not a dir");
    let d = root.mkdir("subdir", 0o755).unwrap();
    let d_as_file = d.query::<dyn File>().unwrap();
    assert!(d_as_file.query::<dyn Dir>().is_some(), "a dir is both");
}

/// Every OSKit IID `obj` answers besides `IUnknown` (each OSKit IID is
/// `oskit_iid(seq)` for a one-byte `seq`).
fn answered<T: IUnknown + ?Sized>(obj: &T) -> BTreeSet<Guid> {
    (0..=0xff)
        .map(oskit_iid)
        .filter(|iid| obj.query_any(iid).is_some())
        .collect()
}

#[test]
fn node_interface_list_is_what_live_nodes_answer() {
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let file = root.create("plain.txt", true, 0o644).unwrap();
    let listed: BTreeSet<Guid> = FfsNode::INTERFACES.iter().map(|&(_, iid)| iid).collect();
    assert_eq!(&answered(&*root) | &answered(&*file), listed);
    assert_eq!(root.interfaces(), FfsNode::INTERFACES);
}

#[test]
fn tree_building_and_traversal() {
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let a = root.mkdir("a", 0o755).unwrap();
    let b = a.mkdir("b", 0o755).unwrap();
    let f = b.create("deep.txt", true, 0o600).unwrap();
    f.write_at(b"nested", 0).unwrap();
    // Re-traverse from the root, one component at a time (the only way
    // the interface allows).
    let a2 = root.lookup("a").unwrap().query::<dyn Dir>().unwrap();
    let b2 = a2.lookup("b").unwrap().query::<dyn Dir>().unwrap();
    let f2 = b2.lookup("deep.txt").unwrap();
    let mut buf = [0u8; 16];
    let n = f2.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..n], b"nested");
    assert_eq!(f2.getstat().unwrap().mode, 0o600);
}

#[test]
fn rmdir_semantics() {
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let d = root.mkdir("dir", 0o755).unwrap();
    d.create("occupant", true, 0o644).unwrap();
    assert!(matches!(root.rmdir("dir"), Err(Error::NotEmpty)));
    d.unlink("occupant").unwrap();
    root.rmdir("dir").unwrap();
    assert!(matches!(root.lookup("dir"), Err(Error::NoEnt)));
    // Consistency holds afterwards.
    assert_eq!(fs.fsck().unwrap(), vec![]);
}

#[test]
fn hard_links_share_data_until_last_unlink() {
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let f = root.create("one", true, 0o644).unwrap();
    f.write_at(b"shared-bytes", 0).unwrap();
    root.link("two", &*f).unwrap();
    assert_eq!(f.getstat().unwrap().nlink, 2);
    let via_two = root.lookup("two").unwrap();
    let mut buf = [0u8; 16];
    let n = via_two.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..n], b"shared-bytes");
    root.unlink("one").unwrap();
    assert_eq!(via_two.getstat().unwrap().nlink, 1);
    let n = via_two.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..n], b"shared-bytes");
    root.unlink("two").unwrap();
    assert_eq!(fs.fsck().unwrap(), vec![]);
}

#[test]
fn rename_moves_between_directories() {
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let src = root.mkdir("src", 0o755).unwrap();
    let dst = root.mkdir("dst", 0o755).unwrap();
    let f = src.create("wanderer", true, 0o644).unwrap();
    f.write_at(b"moving", 0).unwrap();
    src.rename("wanderer", &*dst, "settled").unwrap();
    assert!(matches!(src.lookup("wanderer"), Err(Error::NoEnt)));
    let f2 = dst.lookup("settled").unwrap();
    let mut buf = [0u8; 8];
    let n = f2.read_at(&mut buf, 0).unwrap();
    assert_eq!(&buf[..n], b"moving");
    assert_eq!(fs.fsck().unwrap(), vec![]);
}

#[test]
fn directory_rename_updates_dotdot() {
    let fs = fresh();
    let root = fs.getroot().unwrap();
    let a = root.mkdir("a", 0o755).unwrap();
    let b = root.mkdir("b", 0o755).unwrap();
    a.mkdir("child", 0o755).unwrap();
    a.rename("child", &*b, "child").unwrap();
    let child = b.lookup("child").unwrap().query::<dyn Dir>().unwrap();
    // ".." must now resolve back to b.
    let dotdot = child.lookup("..").unwrap();
    assert_eq!(
        dotdot.getstat().unwrap().ino,
        b.query::<dyn File>().unwrap().getstat().unwrap().ino
    );
    assert_eq!(fs.fsck().unwrap(), vec![]);
}

/// The paper's secure file server (§3.8): a wrapper interposing
/// per-component permission checks without touching the fs internals.
mod security_wrapper {
    use super::*;
    use oskit_com::interfaces::fs::Dirent;
    use oskit_com::{com_object, new_com, Result, SelfRef};

    /// Denies access to any component starting with ".." escapes or
    /// listed in a deny set — the kind of policy the Utah fileserver
    /// layered on.
    pub struct SecureDir {
        me: SelfRef<SecureDir>,
        inner: Arc<dyn Dir>,
        deny: Vec<String>,
    }

    impl SecureDir {
        pub fn wrap(inner: Arc<dyn Dir>, deny: Vec<String>) -> Arc<SecureDir> {
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
        fn getstat(&self) -> Result<oskit_com::interfaces::fs::FileStat> {
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
            self.inner.lookup(name)
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

    #[test]
    fn wrapper_enforces_policy_without_touching_internals() {
        let fs = fresh();
        let root = fs.getroot().unwrap();
        root.create("public.txt", true, 0o644).unwrap();
        root.create("secret.txt", true, 0o600).unwrap();
        let secure = SecureDir::wrap(root, vec!["secret.txt".into()]);
        // Paper §3.8: "The OSKit interface accepts only single pathname
        // components, allowing the security wrapping code to do
        // appropriate permission checking."
        assert!(secure.lookup("public.txt").is_ok());
        assert!(matches!(secure.lookup("secret.txt"), Err(Error::Acces)));
        let names: Vec<_> = secure
            .readdir(0, 100)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert!(names.contains(&"public.txt".to_string()));
        assert!(!names.contains(&"secret.txt".to_string()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Random create/write/unlink sequences always leave a clean volume.
    #[test]
    fn random_ops_keep_volume_consistent(
        ops in proptest::collection::vec((0u8..4, 0usize..8, 1usize..20_000), 1..40)
    ) {
        let fs = fresh();
        let root = fs.getroot().unwrap();
        let names: Vec<String> = (0..8).map(|i| format!("f{i}")).collect();
        for (op, which, size) in ops {
            let name = &names[which];
            match op {
                0 => {
                    let _ = root.create(name, false, 0o644);
                }
                1 => {
                    if let Ok(f) = root.lookup(name) {
                        let data = vec![which as u8; size];
                        let _ = f.write_at(&data, 0);
                    }
                }
                2 => {
                    let _ = root.unlink(name);
                }
                _ => {
                    if let Ok(f) = root.lookup(name) {
                        let _ = f.setstat(&StatChange {
                            size: Some((size / 2) as u64),
                            ..StatChange::default()
                        });
                    }
                }
            }
        }
        FileSystem::sync(&*fs).unwrap();
        prop_assert_eq!(fs.fsck().unwrap(), vec![]);
        // Every surviving file reads back with its own fill byte.
        for (i, name) in names.iter().enumerate() {
            if let Ok(f) = root.lookup(name) {
                let st = f.getstat().unwrap();
                prop_assert_eq!(st.kind, FileType::Regular);
                let mut buf = vec![0u8; st.size.min(256) as usize];
                let n = f.read_at(&mut buf, 0).unwrap();
                prop_assert!(buf[..n].iter().all(|&b| b == i as u8 || b == 0));
            }
        }
    }
}
