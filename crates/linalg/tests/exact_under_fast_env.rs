//! `Matrix::matmul` and `Matrix::matmul_t` give the Exact bits in a
//! process whose `STRUCTMINE_PRECISION` selects the Fast tier. Serve, the
//! CLI and the bench binaries export that variable from `--precision`, so
//! `ExecPolicy::global()` reads Fast there, and the fitting code those
//! processes run must get the same product as everywhere else.
//!
//! One test in its own binary: the variable must be set before the global
//! policy is first read.

use structmine_linalg::{ExecPolicy, Matrix, Precision, Rhs};

fn bits(m: &Matrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn allocating_matmuls_stay_exact_when_the_env_selects_fast() {
    std::env::set_var("STRUCTMINE_PRECISION", "fast");
    assert_eq!(ExecPolicy::global().precision(), Precision::Fast);
    // A zero left factor against an infinite right one: the skip drops
    // the term where multiplying through would give NaN, so the bits show
    // whether it ran. One row takes the small-row fallback, eight the
    // packed kernel.
    let b = Matrix::from_rows(&[&[f32::INFINITY, 1.0], &[2.0, 3.0]]);
    let bt = b.transpose();
    for rows in [1usize, 8] {
        let a = Matrix::from_vec(rows, 2, [0.0, 1.0].repeat(rows));
        for (got, rhs) in [
            (a.matmul(&b), Rhs::Dense(&b)),
            (a.matmul_t(&bt), Rhs::DenseT(&bt)),
        ] {
            let mut exact = Matrix::zeros(rows, 2);
            a.matmul_into(rhs, &ExecPolicy::serial(), &mut exact);
            let mut fast = Matrix::zeros(rows, 2);
            a.matmul_into(rhs, ExecPolicy::global(), &mut fast);
            assert_eq!(exact.row(0), &[2.0, 3.0]);
            assert_eq!(bits(&fast), bits(&exact), "Fast, rows={rows} {rhs:?}");
            assert_eq!(bits(&got), bits(&exact), "rows={rows} {rhs:?}");
        }
    }
}
