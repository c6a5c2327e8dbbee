//! SG ablation: handing one outgoing packet to the driver under the tx
//! glue's three dispatch modes, across packet sizes.
//!
//! * `copy` — the paper-faithful ladder for a discontiguous chain:
//!   allocate a fresh skbuff and read every payload byte into it
//!   (Table 1's send penalty).
//! * `mapped` — a contiguous foreign packet: the driver reads it in
//!   place through the bufio's `with_map`, as the tx glue does; no bytes
//!   move.
//! * `sg` — an `NETIF_F_SG` driver and a chained packet: build a
//!   fragment-list skbuff and walk the fragment descriptors; no bytes
//!   move and no flattening.
//!
//! Packets use the protocol-realistic shape (a small header mbuf chained
//! to a cluster of payload) so `copy` and `sg` traverse a genuine
//! multi-fragment chain at the larger sizes.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use oskit::com::interfaces::blkio::{BlkIo, BufIo, SgBufIo, VecBufIo};
use oskit::freebsd_net::bsd::mbuf::{Mbuf, MbufChain};
use oskit::freebsd_net::glue::bufio::MbufBufIo;
use oskit::linux_dev::SkBuff;
use std::sync::Arc;

/// A `size`-byte packet as the protocol stack would hand it down: a
/// 54-byte header mbuf, then the rest of the frame in a cluster.
fn chain_pkt(size: usize) -> Arc<MbufBufIo> {
    let hdr = size.min(54);
    let mut c = MbufChain::from_mbuf(Mbuf::small(&vec![0xABu8; hdr], 4));
    if size > hdr {
        c.m_cat(MbufChain::from_mbuf(Mbuf::cluster(&vec![
            0xCDu8;
            size - hdr
        ])));
    }
    MbufBufIo::new(c)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sg_tx_handoff");
    for size in [54usize, 576, 1514] {
        let pkt = chain_pkt(size);
        g.bench_with_input(BenchmarkId::new("copy", size), &size, |b, &n| {
            b.iter(|| {
                let mut skb = SkBuff::alloc(n);
                let dst = skb.put(n);
                pkt.read(black_box(dst), 0).unwrap();
                black_box(skb.len())
            })
        });

        let contiguous = VecBufIo::from_vec(vec![0xABu8; size]) as Arc<dyn BufIo>;
        g.bench_with_input(BenchmarkId::new("mapped", size), &size, |b, &n| {
            b.iter(|| {
                let mut sum = 0;
                contiguous
                    .with_map(0, n, &mut |d| sum = u64::from(d[0]) + u64::from(d[n - 1]))
                    .unwrap();
                black_box(sum)
            })
        });

        let sg = Arc::clone(&pkt) as Arc<dyn SgBufIo>;
        g.bench_with_input(BenchmarkId::new("sg", size), &size, |b, &n| {
            b.iter(|| {
                let skb = SkBuff::fake_sg(Arc::clone(&sg), n).unwrap();
                skb.with_frags(|frags| {
                    let mut sum = frags.len() as u64;
                    for f in frags {
                        sum += u64::from(f.data[0]);
                    }
                    black_box(sum)
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
