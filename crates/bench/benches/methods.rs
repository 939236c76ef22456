//! Criterion benchmarks: end-to-end timing of every method pipeline at a
//! small fixed scale, plus the substrate hot paths (PLM encode, SGNS, GMM).
//!
//! These are *performance* benches; the quality tables live in the
//! `table_*` binaries. Run with `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use structmine::prelude::*;
use structmine_bench::{standard_plm, standard_word_vectors};
use structmine_text::synth::recipes;

const SCALE: f32 = 0.05;

fn bench_substrates(c: &mut Criterion) {
    let plm = standard_plm();
    let d = recipes::agnews(SCALE, 1).unwrap();
    let doc = &d.corpus.docs[0].tokens;
    c.bench_function("plm_encode_one_doc", |b| {
        b.iter(|| std::hint::black_box(plm.mean_embed(doc, structmine_linalg::Precision::Exact)))
    });
    c.bench_function("sgns_train_small", |b| {
        b.iter(|| {
            structmine_embed::Sgns::train(
                &d.corpus,
                &structmine_embed::SgnsConfig {
                    epochs: 1,
                    dim: 16,
                    ..Default::default()
                },
            )
        })
    });
    let reps = structmine_plm::repr::doc_mean_reps(&plm, &d.corpus);
    c.bench_function("kmeans_doc_reps", |b| {
        b.iter(|| structmine_cluster::kmeans(&reps, 4, 1, 50, None))
    });
}

/// Batched corpus encoding at fixed thread counts. The output is bitwise
/// identical across the counts (deterministic chunking), so this measures
/// pure scaling of the PLM inference layer.
fn bench_parallel_encode(c: &mut Criterion) {
    let plm = standard_plm();
    let d = recipes::agnews(SCALE, 1).unwrap();
    let mut group = c.benchmark_group("parallel_encode");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for threads in [1usize, 2, 4] {
        let policy = structmine_linalg::ExecPolicy::with_threads(threads);
        group.bench_function(&format!("encode_corpus_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(plm.encode_corpus(&d.corpus, &policy)))
        });
    }
    group.finish();
}

/// Exact vs Fast precision tier on the same single-thread corpus encode
/// (DESIGN §13): the Fast tier's polynomial `tanh`/`exp`, fused GELU
/// forward, and branchless matmul are the first lever past the Exact
/// tier's bit-identity ceiling. The ratio between these two rows is the
/// number `BENCH_kernels.json` records.
fn bench_precision_tiers(c: &mut Criterion) {
    let plm = standard_plm();
    let d = recipes::agnews(SCALE, 1).unwrap();
    let mut group = c.benchmark_group("precision_encode");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for (name, precision) in [
        ("exact", structmine_linalg::Precision::Exact),
        ("fast", structmine_linalg::Precision::Fast),
    ] {
        let policy = structmine_linalg::ExecPolicy::with_threads(1).with_precision(precision);
        group.bench_function(&format!("encode_corpus_{name}_t1"), |b| {
            b.iter(|| std::hint::black_box(plm.encode_corpus(&d.corpus, &policy)))
        });
    }
    group.finish();
}

fn bench_flat_methods(c: &mut Criterion) {
    let plm = standard_plm();
    let mut group = c.benchmark_group("flat_methods");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));

    group.bench_function("westclass_agnews", |b| {
        let d = recipes::agnews(SCALE, 1).unwrap();
        let wv = standard_word_vectors(&d);
        b.iter(|| {
            WeSTClass {
                pseudo_per_class: 30,
                ..Default::default()
            }
            .run(&d, &d.supervision_names(), &wv)
        })
    });
    group.bench_function("conwea_agnews", |b| {
        let d = recipes::agnews(SCALE, 1).unwrap();
        b.iter(|| {
            ConWea {
                iterations: 1,
                ..Default::default()
            }
            .run(&d, &d.supervision_keywords(), &plm)
        })
    });
    group.bench_function("lotclass_agnews", |b| {
        let d = recipes::agnews(SCALE, 1).unwrap();
        b.iter(|| LotClass::default().run(&d, &plm))
    });
    group.bench_function("xclass_agnews", |b| {
        let d = recipes::agnews(SCALE, 1).unwrap();
        b.iter(|| XClass::default().run(&d, &plm))
    });
    group.bench_function("promptclass_agnews", |b| {
        let d = recipes::agnews(SCALE, 1).unwrap();
        b.iter(|| {
            PromptClass {
                iterations: 1,
                ..Default::default()
            }
            .run(&d, &plm)
        })
    });
    group.finish();
}

fn bench_structured_methods(c: &mut Criterion) {
    let plm = standard_plm();
    let mut group = c.benchmark_group("structured_methods");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));

    group.bench_function("weshclass_nyt_tree", |b| {
        let d = recipes::nyt_tree(SCALE, 1).unwrap();
        let wv = standard_word_vectors(&d);
        b.iter(|| {
            WeSHClass {
                pseudo_per_class: 20,
                ..Default::default()
            }
            .run(&d, &d.supervision_keywords(), &wv)
        })
    });
    group.bench_function("taxoclass_amazon", |b| {
        let d = recipes::amazon_taxonomy(SCALE, 1).unwrap();
        b.iter(|| {
            TaxoClass {
                self_train_iters: 0,
                ..Default::default()
            }
            .run(&d, &plm)
        })
    });
    group.bench_function("metacat_github_bio", |b| {
        let d = recipes::github_bio(SCALE * 2.0, 1).unwrap();
        let sup = d.supervision_docs(3, 1);
        b.iter(|| {
            MetaCat {
                samples: 30_000,
                ..Default::default()
            }
            .run(&d, &sup)
        })
    });
    group.bench_function("micol_mag_cs", |b| {
        let d = recipes::mag_cs(SCALE, 1).unwrap();
        b.iter(|| {
            MiCoL {
                steps: 100,
                ..Default::default()
            }
            .run(&d, &plm)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_substrates,
    bench_parallel_encode,
    bench_precision_tiers,
    bench_flat_methods,
    bench_structured_methods
);
criterion_main!(benches);
