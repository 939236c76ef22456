//! Exhaustive checks of the Exact tier's `tanh` and `exp` on all 2^32
//! `f32` bit patterns, NaN payloads included, each in two halves:
//!
//! * the dispatched slice pass (`simd::exact_tanh_slice` or
//!   `simd::exact_exp_slice`, eight AVX2 lanes on a host that has them)
//!   equals its scalar twin, the port of glibc's `tanhf` or `expf` in
//!   `exactmath`. This half holds on every host;
//! * the scalar port equals `f32::tanh` or `f32::exp`, which call the
//!   platform libm. That is the libm the goldens in `ci/golden/` were
//!   made with (glibc 2.36, whose `expf` is the FMA variant on a host with
//!   AVX2 and FMA). On another libm, or where glibc picks its non-FMA
//!   `expf`, this half can fail, exactly where `ci/golden/README.md`'s
//!   libm caveat already applies; the Exact tier itself no longer calls
//!   libm `tanh` or, in a softmax or sigmoid, libm `exp`.
//!
//! Each sweep runs on two threads (about 10-20 s each in the test
//! profile on a 2-vCPU x86-64 host).

use structmine_linalg::{exactmath, simd};

const THREADS: u64 = 2;
/// Bit patterns per slice handed to the pass under test: a multiple of 8,
/// so every AVX2 chunk holds eight consecutive patterns.
const BLOCK: u64 = 1 << 12;

/// One disagreement: `(input bits, got bits, want bits)`.
type Mismatch = (u32, u32, u32);

/// Run `check` over every bit pattern, one `BLOCK` of consecutive
/// patterns at a time, and return the mismatch count plus the first few
/// mismatches.
fn sweep(check: impl Fn(&[f32], &mut Vec<Mismatch>) + Sync) -> (u64, Vec<Mismatch>) {
    let per_thread = (1u64 << 32) / THREADS;
    let (mut count, mut examples) = (0, Vec::new());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let check = &check;
                s.spawn(move || {
                    let (mut count, mut examples) = (0u64, Vec::<Mismatch>::new());
                    let mut xs = Vec::with_capacity(BLOCK as usize);
                    let mut found = Vec::new();
                    for start in (t * per_thread..(t + 1) * per_thread).step_by(BLOCK as usize) {
                        xs.clear();
                        xs.extend((start..start + BLOCK).map(|b| f32::from_bits(b as u32)));
                        found.clear();
                        check(&xs, &mut found);
                        count += found.len() as u64;
                        examples.extend(found.iter().take(4usize.saturating_sub(examples.len())));
                    }
                    (count, examples)
                })
            })
            .collect();
        for w in workers {
            let (c, e) = w.join().expect("sweep thread panicked");
            count += c;
            examples.extend(e);
        }
    });
    (count, examples)
}

/// Sweep `pass` against `port` on every input; `name` labels the failure.
fn slice_pass_sweep(name: &str, pass: fn(&mut [f32]), port: fn(f32) -> f32) {
    let path = if simd::avx2_available() {
        "avx2"
    } else {
        "portable"
    };
    let (count, examples) = sweep(|xs, found| {
        let mut got = xs.to_vec();
        pass(&mut got);
        for (&x, g) in xs.iter().zip(&got) {
            let want = port(x);
            if g.to_bits() != want.to_bits() {
                found.push((x.to_bits(), g.to_bits(), want.to_bits()));
            }
        }
    });
    assert_eq!(
        count, 0,
        "{path} {name} differs from its scalar port on {count} inputs; \
         first (x, got, want) bits: {examples:08x?}"
    );
}

/// Sweep the scalar `port` against the platform libm's `libm`.
fn libm_sweep(name: &str, port: fn(f32) -> f32, libm: fn(f32) -> f32) {
    let (count, examples) = sweep(|xs, found| {
        for &x in xs {
            let (got, want) = (port(x), libm(x));
            if got.to_bits() != want.to_bits() {
                found.push((x.to_bits(), got.to_bits(), want.to_bits()));
            }
        }
    });
    assert_eq!(
        count, 0,
        "{name} differs from the platform libm on {count} inputs; \
         first (x, got, want) bits: {examples:08x?}"
    );
}

#[test]
fn slice_pass_equals_scalar_port_on_every_input() {
    slice_pass_sweep("exact_tanh_slice", simd::exact_tanh_slice, exactmath::tanh);
}

#[test]
fn scalar_port_equals_libm_on_every_input() {
    libm_sweep("exactmath::tanh", exactmath::tanh, f32::tanh);
}

#[test]
fn exp_pass_equals_scalar_port_on_every_input() {
    slice_pass_sweep("exact_exp_slice", simd::exact_exp_slice, exactmath::expf);
}

#[test]
fn exp_scalar_port_equals_libm_on_every_input() {
    libm_sweep("exactmath::expf", exactmath::expf, f32::exp);
}
