//! Fabric benchmark: per-message pump cost under different link models —
//! the raw overhead economics coalescing exploits — and the frame codec
//! every transport runs per message (encode + checksum-verified decode).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpx_net::{decode_frame_in_place, encode_frame, Fabric, LinkModel, Message, MessageKind};

fn pump_n_messages(model: LinkModel, n: usize, payload: usize) {
    let fabric = Fabric::new(2, model);
    let a = fabric.port(0);
    let b = fabric.port(1);
    let received = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&received);
    b.set_receiver(Arc::new(move |_| {
        r.fetch_add(1, Ordering::Relaxed);
    }));
    let payload = Bytes::from(vec![0u8; payload]);
    for _ in 0..n {
        a.send(Message::new(0, 1, MessageKind::Parcel, payload.clone()));
    }
    while received.load(Ordering::Relaxed) < n as u64 {
        a.pump_send();
        b.pump_recv();
    }
}

fn bench_fabric(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric");
    group.sample_size(10);

    group.throughput(Throughput::Elements(1_000));
    group.bench_function("free_link_1k_msgs", |b| {
        b.iter(|| pump_n_messages(LinkModel::zero(), 1_000, 16));
    });

    // With the cluster model the per-message overhead dominates: this is
    // the cost that shrinks k-fold under coalescing.
    let cluster_small = LinkModel {
        send_overhead: Duration::from_micros(5),
        recv_overhead: Duration::from_micros(3),
        per_byte: Duration::from_nanos(1),
        latency: Duration::from_micros(2),
        ..LinkModel::cluster()
    };
    for payload in [16usize, 2048] {
        group.throughput(Throughput::Elements(200));
        group.bench_with_input(
            BenchmarkId::new("cluster_link_200_msgs", payload),
            &payload,
            |b, &p| {
                b.iter(|| pump_n_messages(cluster_small, 200, p));
            },
        );
    }
    group.finish();
}

/// One frame's encode plus its in-place, checksum-verified decode: the
/// codec cost a message pays on every backend, dominated by the
/// checksum for all but the smallest payloads.
fn bench_frame_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_codec");
    for payload in [64usize, 1024, 4096] {
        let bytes: Vec<u8> = (0..payload).map(|i| (i * 31 + 7) as u8).collect();
        let message = Message::new(0, 1, MessageKind::Coalesced, Bytes::from(bytes)).with_seq(42);
        group.throughput(Throughput::Bytes(payload as u64));
        group.bench_with_input(
            BenchmarkId::new("encode_decode", payload),
            &message,
            |b, m| {
                b.iter(|| {
                    let frame = encode_frame(m);
                    let view = decode_frame_in_place(&frame[4..]).expect("valid frame");
                    view.payload.len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fabric, bench_frame_codec);
criterion_main!(benches);
