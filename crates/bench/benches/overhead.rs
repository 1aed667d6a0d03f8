//! Criterion benches for the §VII.E overhead table: the per-request cost
//! of every deployed pipeline stage.

use mandipass::gradient_array::GradientArray;
use mandipass::prelude::*;
use mandipass::preprocess::preprocess;
use mandipass::similarity::cosine_distance;
use mandipass_imu_sim::{Condition, Population, Recorder};
use mandipass_util::bench::{criterion_group, criterion_main, Criterion};

fn deployed_setup() -> (Recorder, mandipass_imu_sim::Recording, BiometricExtractor) {
    let pop = Population::generate(2, 2021);
    let recorder = Recorder::default();
    let rec = recorder.record(&pop.users()[0], Condition::Normal, 1);
    // An untrained extractor has identical inference cost to a trained one.
    let extractor =
        BiometricExtractor::new(ExtractorConfig::paper(33)).expect("valid architecture");
    (recorder, rec, extractor)
}

fn bench_preprocess(c: &mut Criterion) {
    let (_, rec, _) = deployed_setup();
    let config = PipelineConfig::default();
    c.bench_function("preprocess_full_chain", |b| {
        b.iter(|| preprocess(std::hint::black_box(&rec), &config).expect("probe preprocesses"))
    });
}

fn bench_gradient_array(c: &mut Criterion) {
    let (_, rec, _) = deployed_setup();
    let config = PipelineConfig::default();
    let arr = preprocess(&rec, &config).expect("probe preprocesses");
    c.bench_function("gradient_array_build", |b| {
        b.iter(|| GradientArray::from_signal_array(std::hint::black_box(&arr), 30).expect("builds"))
    });
}

fn bench_extract(c: &mut Criterion) {
    let (_, rec, extractor) = deployed_setup();
    let config = PipelineConfig::default();
    let arr = preprocess(&rec, &config).expect("probe preprocesses");
    let grad = GradientArray::from_signal_array(&arr, 30).expect("probe yields gradients");
    c.bench_function("mandibleprint_extract", |b| {
        b.iter(|| {
            extractor
                .extract(&[std::hint::black_box(&grad)])
                .expect("extracts")
        })
    });
}

fn bench_template_transform(c: &mut Criterion) {
    let matrix = GaussianMatrix::generate(7, 512);
    let print = MandiblePrint::new(vec![0.5; 512]);
    c.bench_function("cancelable_transform_512d", |b| {
        b.iter(|| {
            matrix
                .transform(std::hint::black_box(&print))
                .expect("dims match")
        })
    });
    // An enrolment's batch (mean, four probes, degraded mean) shares
    // one draw of the matrix; divide by six for the per-print cost.
    let prints: Vec<MandiblePrint> = (0..6)
        .map(|p| MandiblePrint::new(vec![0.1 * (p + 1) as f32; 512]))
        .collect();
    let batch: Vec<&MandiblePrint> = prints.iter().collect();
    c.bench_function("cancelable_transform_all_512d_k6", |b| {
        b.iter(|| {
            matrix
                .transform_all(std::hint::black_box(&batch))
                .expect("dims match")
        })
    });
}

fn bench_similarity(c: &mut Criterion) {
    let a = vec![0.4f32; 512];
    let b_vec = vec![0.6f32; 512];
    c.bench_function("cosine_distance_512d", |b| {
        b.iter(|| cosine_distance(std::hint::black_box(&a), std::hint::black_box(&b_vec)))
    });
}

fn bench_end_to_end_verify(c: &mut Criterion) {
    let (_, rec, extractor) = deployed_setup();
    let mut system = MandiPass::new(extractor, PipelineConfig::default());
    let matrix = GaussianMatrix::generate(9, system.embedding_dim());
    system
        .enroll(0, std::slice::from_ref(&rec), &matrix)
        .expect("enrolment");
    c.bench_function("verify_end_to_end", |b| {
        b.iter(|| {
            system
                .verify(0, std::hint::black_box(&rec))
                .expect("verifies")
        })
    });
}

fn bench_recording_simulation(c: &mut Criterion) {
    let pop = Population::generate(2, 2021);
    let recorder = Recorder::default();
    c.bench_function("simulate_one_recording", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            recorder.record(
                std::hint::black_box(&pop.users()[0]),
                Condition::Normal,
                seed,
            )
        })
    });
}

criterion_group!(
    benches,
    bench_preprocess,
    bench_gradient_array,
    bench_extract,
    bench_template_transform,
    bench_similarity,
    bench_end_to_end_verify,
    bench_recording_simulation,
);
criterion_main!(benches);
