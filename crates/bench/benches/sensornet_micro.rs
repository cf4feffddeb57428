//! Microbenchmarks for the sensor substrate: signal synthesis, detection
//! voting, packet codec, and the radio/ARQ path.

use coreda_des::rng::SimRng;
use coreda_sensornet::detect::{Detector, Thresholds};
use coreda_sensornet::network::{LinkConfig, StarNetwork};
use coreda_sensornet::node::{NodeId, PavenetNode};
use coreda_sensornet::packet::{crc16, Packet, Payload};
use coreda_sensornet::radio::LossModel;
use coreda_sensornet::signal::SignalModel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_signal_and_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensing");
    let model = SignalModel::accelerometer(0.03, 0.45, 0.6);

    group.bench_function("sample_one_reading", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| model.sample(black_box(true), &mut rng));
    });

    group.bench_function("judge_window_3_of_10", |b| {
        let det = Detector::new(Thresholds::default().accel);
        let mut rng = SimRng::seed_from(2);
        let window = model.sample_window(true, &mut rng);
        b.iter(|| det.judge_window(black_box(&window)));
    });

    group.bench_function("node_sample_tick", |b| {
        let mut node = PavenetNode::new(NodeId::new(1), model, Thresholds::default());
        let mut rng = SimRng::seed_from(3);
        let mut t = 0u64;
        b.iter(|| {
            t += 100;
            node.sample_tick(black_box(true), t, &mut rng)
        });
    });
    group.finish();
}

fn bench_packets(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet");
    let packet =
        Packet::new(NodeId::new(5), 42, 13_000, Payload::ToolUse { activation_milli: 450 });
    let bytes = packet.encode();

    group.bench_function("encode", |b| b.iter(|| black_box(&packet).encode()));
    group.bench_function("decode", |b| b.iter(|| Packet::decode(black_box(&bytes)).unwrap()));
    group.bench_function("crc16_32_bytes", |b| {
        let data = [0xA5u8; 32];
        b.iter(|| crc16(black_box(&data)));
    });
    group.finish();
}

fn bench_network(c: &mut Criterion) {
    let mut group = c.benchmark_group("network");
    let packet =
        Packet::new(NodeId::new(1), 0, 0, Payload::ToolUse { activation_milli: 100 });

    group.bench_function("uplink_perfect", |b| {
        let mut net = StarNetwork::new(LinkConfig::default());
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(4);
        b.iter(|| net.send_uplink(black_box(&packet), &mut rng));
    });

    group.bench_function("uplink_lossy_30pct", |b| {
        let mut net = StarNetwork::new(LinkConfig {
            loss: LossModel::Bernoulli { p: 0.3 },
            ..LinkConfig::default()
        });
        net.register(NodeId::new(1));
        let mut rng = SimRng::seed_from(5);
        b.iter(|| net.send_uplink(black_box(&packet), &mut rng));
    });
    group.finish();
}

criterion_group!(benches, bench_signal_and_detection, bench_packets, bench_network);
criterion_main!(benches);
