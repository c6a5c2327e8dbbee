//! The standard OSKit interface suite.
//!
//! Every interface here is a behavioral contract only (paper §4.4.3): no
//! common buffer abstraction, allocator, or support library is required to
//! implement or consume it.

pub mod blkio;
pub mod fs;
pub mod netio;
pub mod socket;
pub mod stream;

pub use blkio::{bufio_to_vec, BlkIo, BufIo, IoFragment, SgBufIo, VecBufIo, BLKIO_IID};
pub use fs::{
    check_component, Dir, Dirent, File, FileStat, FileSystem, FileType, FsStat, StatChange,
};
pub use netio::{EtherAddr, EtherDev, FnNetIo, NetIo};
pub use socket::{Domain, Shutdown, SockAddr, SockOpt, SockType, Socket, SocketFactory};
pub use stream::{AsyncIo, CharDev, IoReady, Stream};
