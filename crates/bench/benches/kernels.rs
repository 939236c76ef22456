//! Criterion benchmarks for the compute kernels (DESIGN §9): the blocked
//! packed matmul/matmul_t against an in-bench naive reference, plus one
//! training-shaped autodiff step exercising the graph arena.
//!
//! Shapes mirror the two regimes the mini-PLM actually hits: "small" is an
//! attention score product at standard tier (48-token sequence, d_head 12),
//! "medium" is the tied MLM projection (hidden states against a vocab-sized
//! table). The `served_*` cases are the four Test-tier block products a
//! served encode runs on prepacked weights (one kernel for both tiers).
//! The `tanh_gelu` group times the Exact tier's `tanh` pass against the
//! libm loop it replaced, and the GELU op at both tiers, on the Test-tier
//! FFN activation (32 rows, d_ff 64). The `softmax_exp` group times the
//! `exp` pass against the libm loop it replaced on softmax-shaped inputs,
//! and `stats::softmax_rows` against a per-row libm softmax on attention
//! shapes. Run with `cargo bench --bench kernels`; CI compiles it via
//! `cargo bench --no-run`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use structmine_linalg::{rng, ExecPolicy, Matrix, Precision, Rhs};

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut r = rng::seeded(seed);
    let mut m = Matrix::zeros(rows, cols);
    rng::fill_gaussian(&mut r, m.data_mut(), 0.5);
    m
}

/// The pre-kernel i-k-j loop, kept here as the comparison baseline.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let av = a.get(i, kk);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out.set(i, j, out.get(i, j) + av * b.get(kk, j));
            }
        }
    }
    out
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    // Attention-score shape: (seq x d_head) · (d_head x seq).
    let a_small = random_matrix(48, 12, 1);
    let b_small = random_matrix(12, 48, 2);
    // Tied-projection shape: (seq x d_model) · (d_model x vocab).
    let a_med = random_matrix(48, 48, 3);
    let b_med = random_matrix(48, 2000, 4);

    group.bench_function("naive_small", |b| {
        b.iter(|| black_box(naive_matmul(&a_small, &b_small)))
    });
    group.bench_function("blocked_small", |b| {
        b.iter(|| black_box(a_small.matmul(&b_small)))
    });
    group.bench_function("naive_medium", |b| {
        b.iter(|| black_box(naive_matmul(&a_med, &b_med)))
    });
    group.bench_function("blocked_medium", |b| {
        b.iter(|| black_box(a_med.matmul(&b_med)))
    });

    // matmul_t on the same medium shape (B given row-major, as the tied
    // embedding table actually is).
    let bt_med = b_med.transpose();
    group.bench_function("blocked_t_medium", |b| {
        b.iter(|| black_box(a_med.matmul_t(&bt_med)))
    });

    // One matmul into a caller buffer: isolates the allocation saving.
    let policy = ExecPolicy::global();
    let mut out = Matrix::zeros(a_med.rows(), b_med.cols());
    group.bench_function("blocked_medium_into", |b| {
        b.iter(|| {
            a_med.matmul_into(Rhs::Dense(&b_med), policy, &mut out);
            black_box(out.get(0, 0))
        })
    });

    // The prepacked path (DESIGN §14): same product, but the right
    // operand's panel layout is built once up front instead of per call.
    // The delta against blocked_medium_into is exactly the per-call
    // packing tax the serving hot path no longer pays.
    let packed_med = structmine_linalg::PackedMatrix::pack(&b_med);
    group.bench_function("prepacked_medium_into", |b| {
        b.iter(|| {
            a_med.matmul_into(Rhs::Packed(&packed_med), policy, &mut out);
            black_box(out.get(0, 0))
        })
    });
    // The pack itself, so the break-even call count is readable straight
    // off the report.
    group.bench_function("pack_medium", |b| {
        b.iter(|| black_box(structmine_linalg::PackedMatrix::pack(&b_med)))
    });

    // The Test-tier block products a served encode runs (32 rows,
    // d_model 32, d_ff 64), each on prepacked weights.
    for (name, k, n) in [
        ("qkv", 32, 96),
        ("attn_out", 32, 32),
        ("ffn_in", 32, 64),
        ("ffn_out", 64, 32),
    ] {
        let a = random_matrix(32, k, 7);
        let packed = structmine_linalg::PackedMatrix::pack(&random_matrix(k, n, 8));
        let mut out = Matrix::zeros(32, n);
        group.bench_function(&format!("served_{name}_32x{k}x{n}"), |b| {
            b.iter(|| {
                a.matmul_into(Rhs::Packed(&packed), policy, &mut out);
                black_box(out.get(0, 0))
            })
        });
    }
    group.finish();
}

/// The Exact `tanh` pass (AVX2 and its scalar twin) against a libm
/// `f32::tanh` loop over the same GELU inner terms, then `Graph::gelu` at
/// both tiers on a reused tape, all on the 32 x 64 FFN activation.
fn bench_tanh_gelu(c: &mut Criterion) {
    use structmine_linalg::simd;
    use structmine_nn::graph::Graph;

    let mut group = c.benchmark_group("tanh_gelu");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let x = random_matrix(32, 64, 9);
    let inner: Vec<f32> = x
        .data()
        .iter()
        .map(|&v| 0.797_884_6 * (v + 0.044715 * v * v * v))
        .collect();
    let mut buf = inner.clone();
    type SlicePass = fn(&mut [f32]);
    let passes: [(&str, SlicePass); 3] = [
        ("tanh_libm_32x64", |xs| {
            xs.iter_mut().for_each(|v| *v = v.tanh())
        }),
        ("tanh_exact_slice_32x64", simd::exact_tanh_slice),
        ("tanh_exact_scalar_32x64", simd::exact_tanh_slice_scalar),
    ];
    for (name, pass) in passes {
        group.bench_function(name, |b| {
            b.iter(|| {
                buf.copy_from_slice(&inner);
                pass(&mut buf);
                black_box(buf[0])
            })
        });
    }
    for (tier, precision) in [("exact", Precision::Exact), ("fast", Precision::Fast)] {
        let mut g = Graph::with_precision(precision);
        group.bench_function(&format!("gelu_32x64_{tier}"), |b| {
            b.iter(|| {
                g.reset();
                let h = g.leaf_copied(&x);
                let y = g.gelu(h);
                black_box(g.value(y).get(0, 0))
            })
        });
    }
    group.finish();
}

/// The `exp` pass (AVX2+FMA and its scalar twin) against a libm
/// `f32::exp` loop on 2048 softmax-shaped inputs (`x <= 0`), then
/// `stats::softmax_rows` against a per-row libm softmax on the attention
/// shapes of a 20- and a 32-token sequence.
fn bench_softmax_exp(c: &mut Criterion) {
    use structmine_linalg::{simd, stats};

    let mut group = c.benchmark_group("softmax_exp");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let inputs: Vec<f32> = random_matrix(1, 2048, 10)
        .data()
        .iter()
        .map(|v| -8.0 * v.abs())
        .collect();
    let mut buf = inputs.clone();
    type SlicePass = fn(&mut [f32]);
    let passes: [(&str, SlicePass); 3] = [
        ("exp_libm_2048", |xs| {
            xs.iter_mut().for_each(|v| *v = v.exp())
        }),
        ("exp_exact_slice_2048", simd::exact_exp_slice),
        ("exp_exact_scalar_2048", simd::exact_exp_slice_scalar),
    ];
    for (name, pass) in passes {
        group.bench_function(name, |b| {
            b.iter(|| {
                buf.copy_from_slice(&inputs);
                pass(&mut buf);
                black_box(buf[0])
            })
        });
    }
    for n in [20usize, 32] {
        let scores = random_matrix(n, n, 11).scale(3.0);
        let mut m = scores.clone();
        group.bench_function(&format!("softmax_libm_rows_{n}x{n}"), |b| {
            b.iter(|| {
                m.data_mut().copy_from_slice(scores.data());
                for i in 0..n {
                    let row = m.row_mut(i);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0f32;
                    for v in row.iter_mut() {
                        *v = (*v - max).exp();
                        sum += *v;
                    }
                    if sum > 0.0 {
                        let inv = 1.0 / sum;
                        row.iter_mut().for_each(|v| *v *= inv);
                    }
                }
                black_box(m.get(0, 0))
            })
        });
        group.bench_function(&format!("softmax_rows_{n}x{n}"), |b| {
            b.iter(|| {
                m.data_mut().copy_from_slice(scores.data());
                stats::softmax_rows(m.data_mut(), n);
                black_box(m.get(0, 0))
            })
        });
    }
    group.finish();
}

/// A training-shaped forward/backward step (matmul -> gelu -> fused
/// scaled softmax -> scalar) on a reused tape: measures the arena's
/// steady-state, allocation-free path.
fn bench_graph_arena(c: &mut Criterion) {
    use structmine_nn::graph::Graph;

    let mut group = c.benchmark_group("graph_arena");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(500));

    let x_val = random_matrix(48, 48, 5);
    let w_val = random_matrix(48, 96, 6);
    let ones_r = Matrix::filled(1, 48, 1.0);
    let ones_c = Matrix::filled(96, 1, 1.0);
    let mut g = Graph::new();
    group.bench_function("train_step_reused_tape", |b| {
        b.iter(|| {
            g.reset();
            let x = g.leaf_copied(&x_val);
            let w = g.leaf_copied(&w_val);
            let h = g.matmul(x, w);
            let h = g.gelu(h);
            let s = g.scaled_row_softmax(h, 0.25);
            let or = g.leaf_copied(&ones_r);
            let oc = g.leaf_copied(&ones_c);
            let rowsum = g.matmul(or, s);
            let loss = g.matmul(rowsum, oc);
            g.backward(loss);
            black_box(g.value(loss).get(0, 0))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_tanh_gelu,
    bench_softmax_exp,
    bench_graph_arena
);
criterion_main!(benches);
