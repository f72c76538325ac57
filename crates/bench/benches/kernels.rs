//! Criterion micro-benchmarks for the workspace's performance-critical
//! kernels: array programming, device pulses and wear snapshots, weight
//! mapping/quantization, software training steps and the forward pass.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use memaging::crossbar::{Crossbar, WeightMapping};
use memaging::dataset::{Dataset, SyntheticSpec};
use memaging::device::{
    AgedWindow, AgingModel, ArrheniusAging, DeviceSpec, Memristor, Ohms, Quantizer,
};
use memaging::nn::{models, Mode, NoRegularizer, Sgd};
use memaging::tensor::{init, ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = init::gaussian([128, 128], 0.0, 1.0, &mut rng);
    let b = init::gaussian([128, 128], 0.0, 1.0, &mut rng);
    c.bench_function("tensor/matmul_128", |bench| {
        bench.iter(|| ops::matmul(black_box(&a), black_box(&b)).expect("valid dims"))
    });
}

fn bench_programming(c: &mut Criterion) {
    let spec = DeviceSpec::default();
    c.bench_function("crossbar/program_64x64", |bench| {
        bench.iter_batched(
            || Crossbar::new(64, 64, spec, ArrheniusAging::default()).expect("valid"),
            |mut xbar| {
                xbar.program_conductances(&Tensor::full([64, 64], 2.0e-5)).expect("programmable")
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_device_pulse(c: &mut Criterion) {
    c.bench_function("device/pulse_cycle", |bench| {
        bench.iter_batched(
            || Memristor::new(DeviceSpec::default(), ArrheniusAging::default()).expect("valid"),
            |mut m| {
                for _ in 0..64 {
                    let _ = m.pulse(1);
                    let _ = m.pulse(-1);
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_levels_within(c: &mut Criterion) {
    // The usable-level count behind every worn-out check, over 64 aged
    // windows from fresh to nearly dead.
    let spec = DeviceSpec::default();
    let aging = ArrheniusAging::default();
    let quantizer = Quantizer::from_spec(&spec).expect("valid");
    let dead = aging.stress_for_degradation(spec.temperature, spec.r_max - spec.r_min);
    let windows: Vec<AgedWindow> =
        (0..64).map(|k| aging.aged_window(&spec, dead * k as f64 / 64.0)).collect();
    c.bench_function("device/levels_within", |bench| {
        bench.iter(|| {
            windows
                .iter()
                .map(|w| quantizer.levels_within(black_box(w.r_min), black_box(w.r_max)))
                .sum::<usize>()
        })
    });
}

fn bench_wear_snapshot(c: &mut Criterion) {
    // The per-tile read-out of every maintenance boundary on a programmed,
    // read-disturbed 128×128 array.
    let spec = DeviceSpec::default();
    let aging = ArrheniusAging::default();
    let mut xbar = Crossbar::new(128, 128, spec, aging).expect("valid");
    xbar.program_conductances(&Tensor::from_fn([128, 128], |i| {
        (1.0 / (spec.r_min + (i % 97) as f64 * 900.0)) as f32
    }))
    .expect("programmable");
    xbar.apply_read_disturb(
        1,
        aging.stress_for_degradation(spec.temperature, 0.3 * (spec.r_max - spec.r_min)),
    );
    c.bench_function("crossbar/wear_snapshot", |bench| {
        bench.iter(|| black_box(&xbar).wear_snapshot())
    });
}

fn bench_mapping_quantization(c: &mut Criterion) {
    let spec = DeviceSpec::default();
    let window = AgedWindow { r_min: spec.r_min, r_max: spec.r_max };
    let mut rng = StdRng::seed_from_u64(2);
    let weights = init::gaussian([4096], 0.0, 0.2, &mut rng);
    let mapping =
        WeightMapping::from_weights_percentile(weights.as_slice(), window, 0.005).expect("valid");
    let quantizer = Quantizer::from_spec(&spec).expect("valid");
    c.bench_function("mapping/map_quantize_4096", |bench| {
        bench.iter(|| {
            let mut acc = 0.0f64;
            for &w in weights.as_slice() {
                let g = mapping.weight_to_conductance(black_box(w) as f64);
                let r = quantizer.quantize(Ohms::new(1.0 / g).expect("positive"));
                acc += r.value();
            }
            acc
        })
    });
}

fn bench_train_step(c: &mut Criterion) {
    let mut data = Dataset::gaussian_blobs(&SyntheticSpec::small(4, 3)).expect("valid spec");
    data.normalize();
    let batch = data.batch_matrix(0, 32);
    let labels: Vec<usize> = data.batch_labels(0, 32).to_vec();
    let mut net = models::mlp(&[144, 32, 4], &mut StdRng::seed_from_u64(4)).expect("valid dims");
    let mut opt = Sgd::new(0.05, 0.9).expect("valid");
    c.bench_function("nn/train_step_mlp_batch32", |bench| {
        bench.iter(|| {
            net.train_step(black_box(&batch), black_box(&labels)).expect("valid batch");
            opt.step(&mut net, &NoRegularizer).expect("consistent");
        })
    });
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut net = models::lenet5_scaled(1, 10, &mut StdRng::seed_from_u64(5)).expect("valid dims");
    let input = Tensor::full([8, 144], 0.3);
    c.bench_function("nn/lenet_scaled_forward_batch8", |bench| {
        bench.iter(|| net.forward(black_box(&input), Mode::Eval).expect("valid input"))
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_programming,
    bench_device_pulse,
    bench_levels_within,
    bench_wear_snapshot,
    bench_mapping_quantization,
    bench_train_step,
    bench_conv_forward,
);
criterion_main!(benches);
