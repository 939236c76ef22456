//! Row-major dense `f32` matrix.
//!
//! The workspace only needs a handful of operations (matmul, transpose,
//! element-wise arithmetic, row views), so this type favours clarity and
//! cache-friendly loops over generality.
//!
//! # Matmul kernel
//!
//! Every product goes through [`Matrix::matmul_into`], which takes the
//! right-hand operand as an [`Rhs`] and picks the kernel from the
//! policy's precision and the shape. The blocked kernel packs the
//! right-hand operand (once per call, or ahead of time as a
//! [`PackedMatrix`]) into contiguous panels of `NR` output columns,
//! then output rows are produced `MR` at a time by a register-tiled
//! micro-kernel that keeps an `MR x NR` accumulator tile live while
//! streaming the panel, giving `MR` independent fused-multiply-add chains
//! per column vector.
//! Crucially the summation order of every output element is unchanged from
//! the naive kernel — ascending `k`, one accumulator per element, terms
//! with a zero left-hand factor skipped — so the blocked kernel is bitwise
//! identical to the naive reference (up to the sign of exact zeros) and,
//! because packing happens on the calling thread before rows are split
//! across workers, bitwise identical for any thread count. See DESIGN §9.

use serde::{Deserialize, Serialize};

/// Register-tile width of the packed micro-kernel: output columns are
/// processed in panels of `NR` independent accumulators (two 4-wide SIMD
/// lanes after LLVM auto-vectorization).
pub(crate) const NR: usize = 8;

/// Register-tile height of the packed micro-kernel: `MR` output rows are
/// produced together so the inner `k` loop carries `MR` independent
/// accumulator chains. A single row's chain is latency-bound (each
/// fused-multiply-add waits on the previous one); interleaving `MR` rows
/// hides that latency without changing any row's summation order.
pub(crate) const MR: usize = 4;

/// Left-row count below which the packed kernel is skipped: packing costs
/// one pass over the right operand and only pays for itself when amortized
/// across enough output rows. The fallback uses the same per-element
/// summation order, so the choice (a function of shape only) never changes
/// output bits.
const PACK_MIN_ROWS: usize = 8;

thread_local! {
    /// Per-thread scratch for the packed right-hand operand, reused across
    /// calls so steady-state matmuls allocate nothing. Taken (not borrowed)
    /// for the duration of a call, so a re-entrant matmul simply falls back
    /// to a fresh allocation instead of panicking.
    static PACK_SCRATCH: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

fn with_pack_scratch<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    PACK_SCRATCH.with(|cell| {
        let mut buf = cell.take();
        let out = f(&mut buf);
        cell.set(buf);
        out
    })
}

/// A block of output rows of the packed kernel: `out = a_block * B` where
/// `a_block` is a contiguous run of left-hand rows (`rows x k`) and `B`
/// (`k x n`) is packed in `NR`-column panels. Panels are the outer loop so
/// one panel (`k * NR` floats) stays in L1 while it is swept across every
/// `MR`-row register tile of the block. Every output element remains an
/// ascending-`k` sum in its own accumulator — the exact summation order of
/// the naive kernel — so row grouping changes instruction interleaving but
/// never output bits.
///
/// `SKIP_ZEROS` is the Exact tier's `a == 0.0` skip. Without it this is
/// the portable Fast-tier kernel, the scalar twin of the SSE2 tile in
/// [`crate::simd`]: a straight multiply-add sweep with no data-dependent
/// branch, which can differ from Exact in the last bits because zero
/// left-hand contributions (and `-0.0`/NaN propagation through them) are
/// no longer skipped.
#[inline]
pub(crate) fn packed_block_kernel<const SKIP_ZEROS: bool>(
    a_block: &[f32],
    k: usize,
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    debug_assert!(k > 0 && n > 0);
    let rows = a_block.len() / k;
    let mut panel_start = 0;
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let panel = &packed[panel_start..panel_start + k * w];
        let mut r0 = 0;
        while r0 < rows {
            let h = MR.min(rows - r0);
            if w == NR && h == MR {
                // Full register tile: MR x NR accumulators, one independent
                // fused-multiply-add chain per row, shared panel loads.
                let mut acc = [[0.0f32; NR]; MR];
                for kk in 0..k {
                    let b = &panel[kk * NR..kk * NR + NR];
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let a = a_block[(r0 + r) * k + kk];
                        if SKIP_ZEROS && a == 0.0 {
                            continue;
                        }
                        for (o, &bv) in acc_r.iter_mut().zip(b) {
                            *o += a * bv;
                        }
                    }
                }
                for (r, acc_r) in acc.iter().enumerate() {
                    let o0 = (r0 + r) * n + j0;
                    out[o0..o0 + NR].copy_from_slice(acc_r);
                }
            } else {
                // Ragged edge (< MR rows left or < NR columns in the last
                // panel): plain per-row sweep, same accumulation order.
                for r in r0..r0 + h {
                    let a_row = &a_block[r * k..(r + 1) * k];
                    let mut acc = [0.0f32; NR];
                    for (kk, &a) in a_row.iter().enumerate() {
                        if SKIP_ZEROS && a == 0.0 {
                            continue;
                        }
                        let b = &panel[kk * w..kk * w + w];
                        for (o, &bv) in acc[..w].iter_mut().zip(b) {
                            *o += a * bv;
                        }
                    }
                    out[r * n + j0..r * n + j0 + w].copy_from_slice(&acc[..w]);
                }
            }
            r0 += h;
        }
        panel_start += k * w;
        j0 += w;
    }
}

/// Pack a logical `k x n` right-hand operand into `NR`-column panels, each
/// panel contiguous and row-major within itself. `fill(kk, j0, w, dst)`
/// writes logical row `kk`, columns `j0..j0+w`, into `dst`. Packing always
/// runs on the calling thread before any row parallelism, so panel bytes —
/// and everything computed from them — are identical for every thread
/// count. Reports panel count via the `linalg.pack_panels` counter.
fn pack_panels(
    packed: &mut Vec<f32>,
    n: usize,
    k: usize,
    fill: impl Fn(usize, usize, usize, &mut [f32]),
) {
    packed.clear();
    packed.resize(k * n, 0.0);
    let mut panel_start = 0;
    let mut j0 = 0;
    let mut panels = 0u64;
    while j0 < n {
        let w = NR.min(n - j0);
        for kk in 0..k {
            let dst = &mut packed[panel_start + kk * w..panel_start + kk * w + w];
            fill(kk, j0, w, dst);
        }
        panel_start += k * w;
        j0 += w;
        panels += 1;
    }
    structmine_store::obs::counter_add("linalg.pack_panels", panels);
}

/// Pack `b` as the logical right operand `B` (`k x n`), or, when
/// `transposed`, pack `b` (`n x k`) as `Bᵀ`. Transposed packing
/// interleaves `NR` rows of `b` per panel, so the micro-kernel reads one
/// contiguous `NR`-vector per `k` step either way.
fn pack_dense(packed: &mut Vec<f32>, b: &Matrix, transposed: bool) {
    if transposed {
        let (n, k) = b.shape();
        pack_panels(packed, n, k, |kk, j0, _w, dst| {
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = b.data[(j0 + jj) * k + kk];
            }
        });
    } else {
        let (k, n) = b.shape();
        pack_panels(packed, n, k, |kk, j0, w, dst| {
            dst.copy_from_slice(&b.data[kk * n + j0..kk * n + j0 + w]);
        });
    }
}

/// The right-hand operand of [`Matrix::matmul_into`].
#[derive(Clone, Copy, Debug)]
pub enum Rhs<'a> {
    /// `self · B`, with `B` (`k x n`) given row-major.
    Dense(&'a Matrix),
    /// `self · Bᵀ`, with `B` (`n x k`) given row-major; the transpose is
    /// never materialized.
    DenseT(&'a Matrix),
    /// `self · B`, with `B` pre-packed into panels (either orientation).
    Packed(&'a PackedMatrix),
}

impl Rhs<'_> {
    /// `(k, n)`: the inner dimension and the product's column count.
    fn dims(&self) -> (usize, usize) {
        match *self {
            Rhs::Dense(b) => (b.rows, b.cols),
            Rhs::DenseT(b) => (b.cols, b.rows),
            Rhs::Packed(p) => (p.k, p.n),
        }
    }
}

/// A right-hand matmul operand pre-packed, once, into the blocked
/// kernel's `NR`-column panel layout (DESIGN §14).
///
/// `matmul`/`matmul_t` pack their right operand on **every** call; for
/// inference weights — frozen after `Engine::load` — that pass is pure
/// waste on the serving hot path. A `PackedMatrix` is exactly the panel
/// buffer `pack_panels` would have produced, built ahead of time, so
/// [`Matrix::matmul_into`] with [`Rhs::Packed`] skips straight to the
/// micro-kernel.
/// Because the panel bytes are a pure function of the operand (packing
/// always happens before any row parallelism) and the kernel consumes
/// them identically, the Exact prepacked product is **bitwise identical**
/// to the per-call path for every shape and thread count — only where
/// the packing happens moves. Property-tested in this module.
///
/// The [`Self::fingerprint`] is a content hash of the source operand and
/// orientation; caches key on it (or on a cheaper generation counter, as
/// `nn::ParamStore` does) to make stale panels impossible.
#[derive(Clone, Debug)]
pub struct PackedMatrix {
    /// Inner dimension: rows of the logical right operand.
    k: usize,
    /// Output columns: columns of the logical right operand.
    n: usize,
    /// Whether this was packed from the transpose ([`Self::pack_transposed`]).
    transposed: bool,
    /// The `NR`-column panels, each `k * w` floats, concatenated.
    panels: Vec<f32>,
    /// Stable content hash of (orientation, source matrix).
    fingerprint: u128,
}

impl PackedMatrix {
    /// Pack `rhs` (`k x n`) for use as [`Rhs::Packed`] — the prepacked
    /// analogue of [`Rhs::Dense`]. Counts one `linalg.prepack.builds`.
    pub fn pack(rhs: &Matrix) -> Self {
        Self::build(rhs, false)
    }

    /// Pack `rhs` (`n x k`) as its transpose, for use as [`Rhs::Packed`]
    /// wherever the per-call code would have used [`Rhs::DenseT`] (e.g. the
    /// tied embedding table). Counts one `linalg.prepack.builds`.
    pub fn pack_transposed(rhs: &Matrix) -> Self {
        Self::build(rhs, true)
    }

    fn build(rhs: &Matrix, transposed: bool) -> Self {
        let (k, n) = if transposed {
            Rhs::DenseT(rhs).dims()
        } else {
            Rhs::Dense(rhs).dims()
        };
        let mut panels = Vec::new();
        if k > 0 && n > 0 {
            pack_dense(&mut panels, rhs, transposed);
        }
        structmine_store::obs::counter_add("linalg.prepack.builds", 1);
        Self {
            k,
            n,
            transposed,
            panels,
            fingerprint: Self::fingerprint_of(rhs, transposed),
        }
    }

    fn fingerprint_of(rhs: &Matrix, transposed: bool) -> u128 {
        use structmine_store::StableHash;
        let mut h = structmine_store::StableHasher::new();
        h.write_u64(u64::from(transposed));
        rhs.stable_hash(&mut h);
        h.finish()
    }

    /// Inner dimension (rows of the logical right operand).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns of the product this operand produces.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the panels were packed from the operand's transpose.
    #[inline]
    pub fn is_transposed(&self) -> bool {
        self.transposed
    }

    /// Content hash of (orientation, source matrix): equal iff the
    /// source bytes and orientation are equal.
    #[inline]
    pub fn fingerprint(&self) -> u128 {
        self.fingerprint
    }
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Create a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a matrix from an owned row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Create a matrix from row slices. All rows must share a length.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Consume the matrix, returning its row-major buffer (for buffer
    /// recycling arenas).
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Row count above which [`Matrix::matmul_into`] goes through the
    /// parallel executor. Each output row is still computed by exactly one
    /// thread with the serial inner loops, so results are bitwise identical
    /// to the serial path for any thread count. Below the threshold the
    /// kernel runs serially regardless of policy — a function of shape
    /// only, so runs at different thread counts execute (and count)
    /// identically.
    const PAR_ROW_THRESHOLD: usize = 64;

    /// Matrix product `self * rhs` at Exact precision, with the thread
    /// count of the process-global [`ExecPolicy`](crate::ExecPolicy).
    /// Always Exact, whatever `STRUCTMINE_PRECISION` holds: fitting code
    /// calls this, and must not inherit a serving process's Fast tier.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.exact_product(Rhs::Dense(rhs))
    }

    /// Matrix product `self * rhs^T` without materializing the transpose;
    /// Exact, like [`Matrix::matmul`].
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        self.exact_product(Rhs::DenseT(rhs))
    }

    fn exact_product(&self, rhs: Rhs<'_>) -> Matrix {
        let policy = crate::ExecPolicy::global().with_precision(crate::Precision::Exact);
        let mut out = Matrix::zeros(self.rows, rhs.dims().1);
        self.matmul_into(rhs, &policy, &mut out);
        out
    }

    /// Matrix product `self * rhs` written into a caller-provided matrix
    /// (fully overwritten; prior contents are irrelevant) — the one entry
    /// point every product goes through. The policy's thread count splits
    /// the output rows; its [`Precision`](crate::Precision) picks the
    /// kernel: Exact keeps the `a == 0.0` skip and is bitwise reproducible,
    /// Fast runs the branch-free SIMD-dispatched kernel, which is *not*
    /// bit-compatible with Exact (training never asks for it).
    ///
    /// A dense operand is packed into panels on every call once the left
    /// operand has enough rows to amortize it; a [`Rhs::Packed`] operand
    /// always takes the packed kernel and counts one
    /// `linalg.prepack.hits`. At either tier the packed kernel and the
    /// small-row fallback share one per-element summation order, so the
    /// output bits depend only on the tier, never on the operand form
    /// (`Dense`, `DenseT` or `Packed`) or the thread count.
    ///
    /// # Panics
    /// Panics if `self.cols` differs from the operand's inner dimension or
    /// `out.shape()` is not `(self.rows, n)`.
    pub fn matmul_into(&self, rhs: Rhs<'_>, policy: &crate::ExecPolicy, out: &mut Matrix) {
        match policy.precision() {
            crate::Precision::Exact => self.tier_product::<true>(rhs, policy, out),
            crate::Precision::Fast => self.tier_product::<false>(rhs, policy, out),
        }
    }

    /// [`Matrix::matmul_into`] at one tier; `EXACT` is the `a == 0.0` skip.
    fn tier_product<const EXACT: bool>(
        &self,
        rhs: Rhs<'_>,
        policy: &crate::ExecPolicy,
        out: &mut Matrix,
    ) {
        let (k, n) = rhs.dims();
        assert_eq!(
            self.cols, k,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, k, n
        );
        assert_eq!(out.shape(), (self.rows, n), "matmul output shape mismatch");
        let packed_product = |panels: &[f32], out: &mut [f32]| {
            Self::fill_row_blocks(policy, self.rows, n, out, |start, block| {
                let a_block = &self.data[start * k..(start + block.len() / n) * k];
                if EXACT {
                    packed_block_kernel::<true>(a_block, k, panels, n, block);
                } else {
                    crate::simd::packed_block_kernel_fast(a_block, k, panels, n, block);
                }
            });
        };
        match rhs {
            Rhs::Packed(packed) => {
                structmine_store::obs::counter_add("linalg.prepack.hits", 1);
                if k == 0 {
                    // Empty inner dimension: the product is all zeros (same
                    // +0.0 the per-call fallback writes).
                    out.data.fill(0.0);
                } else {
                    packed_product(&packed.panels, &mut out.data);
                }
            }
            Rhs::Dense(b) | Rhs::DenseT(b) if self.rows >= PACK_MIN_ROWS && k > 0 && n > 0 => {
                with_pack_scratch(|panels| {
                    pack_dense(panels, b, matches!(rhs, Rhs::DenseT(_)));
                    packed_product(panels, &mut out.data);
                });
            }
            // Too few rows to amortize packing: i-k-j loops straight over
            // `b` rows. Same per-element summation order as the packed
            // kernel, so the two paths agree bitwise.
            Rhs::Dense(b) => {
                Self::fill_row_blocks(policy, self.rows, n, &mut out.data, |start, block| {
                    for (i, out_row) in (start..).zip(block.chunks_exact_mut(n)) {
                        out_row.fill(0.0);
                        for (kk, &a) in self.row(i).iter().enumerate() {
                            if EXACT && a == 0.0 {
                                continue;
                            }
                            for (o, &bv) in out_row.iter_mut().zip(b.row(kk)) {
                                *o += a * bv;
                            }
                        }
                    }
                })
            }
            Rhs::DenseT(b) => {
                Self::fill_row_blocks(policy, self.rows, n, &mut out.data, |start, block| {
                    for (i, out_row) in (start..).zip(block.chunks_exact_mut(n)) {
                        let a_row = self.row(i);
                        for (j, o) in out_row.iter_mut().enumerate() {
                            let mut acc = 0.0f32;
                            for (&a, &bv) in a_row.iter().zip(b.row(j)) {
                                if EXACT && a == 0.0 {
                                    continue;
                                }
                                acc += a * bv;
                            }
                            *o = acc;
                        }
                    }
                })
            }
        }
    }

    /// [`Matrix::matmul_into`] with [`Rhs::Packed`] at Exact precision.
    /// A one-line forward kept for the benchmark package (`structbench/`),
    /// which builds against this crate's public API.
    pub fn matmul_prepacked_into_with(
        &self,
        packed: &PackedMatrix,
        policy: &crate::ExecPolicy,
        out: &mut Matrix,
    ) {
        self.matmul_into(
            Rhs::Packed(packed),
            &policy.with_precision(crate::Precision::Exact),
            out,
        );
    }

    /// [`Matrix::matmul_into`] with [`Rhs::Packed`] at Fast precision; the
    /// Fast twin of [`Matrix::matmul_prepacked_into_with`].
    pub fn matmul_prepacked_fast_into_with(
        &self,
        packed: &PackedMatrix,
        policy: &crate::ExecPolicy,
        out: &mut Matrix,
    ) {
        self.matmul_into(
            Rhs::Packed(packed),
            &policy.with_precision(crate::Precision::Fast),
            out,
        );
    }

    /// Row-filling loop of every product: the callback receives a whole
    /// contiguous row block (`f(start_row, block)`), so the packed kernel
    /// can register-tile across rows and the small-row fallback loops over
    /// the block's rows itself. Serial below [`Self::PAR_ROW_THRESHOLD`] (a
    /// shape-only decision, so small products skip executor bookkeeping
    /// identically at every thread count), the deterministic parallel
    /// executor above it.
    fn fill_row_blocks<F>(
        policy: &crate::ExecPolicy,
        n_rows: usize,
        row_len: usize,
        out: &mut [f32],
        f: F,
    ) where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        if row_len == 0 {
            return;
        }
        if n_rows < Self::PAR_ROW_THRESHOLD {
            f(0, out);
        } else {
            crate::exec::par_fill_row_blocks(policy, n_rows, row_len, out, f);
        }
    }

    /// Transpose, blocked into 32x32 tiles so both the source rows and the
    /// destination columns stay within cache lines. A pure permutation —
    /// bitwise identical to the naive element loop.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided matrix (fully overwritten).
    ///
    /// # Panics
    /// Panics if `out.shape() != (self.cols, self.rows)`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        const TB: usize = 32;
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for ib in (0..self.rows).step_by(TB) {
            let i_end = (ib + TB).min(self.rows);
            for jb in (0..self.cols).step_by(TB) {
                let j_end = (jb + TB).min(self.cols);
                for i in ib..i_end {
                    let row = &self.data[i * self.cols..(i + 1) * self.cols];
                    for (j, &v) in row.iter().enumerate().take(j_end).skip(jb) {
                        out.data[j * self.rows + i] = v;
                    }
                }
            }
        }
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// In-place `self *= s` (same per-element arithmetic as [`Matrix::scale`]).
    pub fn scale_in_place(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// In-place `self += alpha * rhs`.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Add `v` to every row (broadcast).
    pub fn add_row_broadcast(&self, v: &[f32]) -> Matrix {
        assert_eq!(v.len(), self.cols, "broadcast length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            for (o, &b) in out.row_mut(i).iter_mut().zip(v) {
                *o += b;
            }
        }
        out
    }

    /// Mean of each column.
    pub fn col_mean(&self) -> Vec<f32> {
        let mut mean = vec![0.0f32; self.cols];
        if self.rows == 0 {
            return mean;
        }
        for row in self.iter_rows() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        let inv = 1.0 / self.rows as f32;
        for m in &mut mean {
            *m *= inv;
        }
        mean
    }

    /// L2-normalize every row in place; zero rows are left untouched.
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            crate::vector::normalize(self.row_mut(i));
        }
    }

    /// Stack matrices vertically; all operands must share a column count.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        let cols = mats.first().map_or(0, |m| m.cols);
        let rows = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Stack matrices horizontally; all operands must share a row count.
    pub fn hstack(mats: &[&Matrix]) -> Matrix {
        let rows = mats.first().map_or(0, |m| m.rows);
        let cols = mats.iter().map(|m| m.cols).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.rows, rows, "hstack row mismatch");
        }
        for i in 0..rows {
            for m in mats {
                data.extend_from_slice(m.row(i));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// Extract the sub-matrix made of the given rows (copied).
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix::from_vec(indices.len(), self.cols, data)
    }
}

impl structmine_store::StableHash for Matrix {
    /// Content fingerprint: shape plus the IEEE-754 bit pattern of every
    /// element — two matrices hash equal iff they are bitwise equal.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        h.write_u64(self.rows as u64);
        h.write_u64(self.cols as u64);
        for &v in &self.data {
            h.write_bytes(&v.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-10.0f32..10.0, rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data))
    }

    proptest! {
        /// (A·B)ᵀ = Bᵀ·Aᵀ
        #[test]
        fn transpose_of_product(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
            let left = a.matmul(&b).transpose();
            let right = b.transpose().matmul(&a.transpose());
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }

        /// A·(B + C) = A·B + A·C
        #[test]
        fn matmul_distributes_over_add(
            a in small_matrix(2, 3),
            b in small_matrix(3, 2),
            c in small_matrix(3, 2),
        ) {
            let left = a.matmul(&b.add(&c));
            let right = a.matmul(&b).add(&a.matmul(&c));
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }

        /// The blocked/packed kernel agrees with a naive triple-loop
        /// reference within tolerance for arbitrary shapes in 1..64 —
        /// covering the packed path, the small-row fallback, and ragged
        /// last panels. Zeros are mixed in so the `a == 0.0` skip is hit.
        #[test]
        fn blocked_matmul_matches_naive_reference(
            m in 1usize..64,
            k in 1usize..64,
            n in 1usize..64,
            a_pool in proptest::collection::vec(-10.0f32..10.0, 64 * 64),
            b_pool in proptest::collection::vec(-10.0f32..10.0, 64 * 64),
        ) {
            // Zero out a stride of the left operand so the `a == 0.0` skip
            // is exercised alongside dense values.
            let mut a_data = a_pool[..m * k].to_vec();
            for v in a_data.iter_mut().step_by(7) {
                *v = 0.0;
            }
            let a = Matrix::from_vec(m, k, a_data);
            let b = Matrix::from_vec(k, n, b_pool[..k * n].to_vec());
            // Naive i-j-k reference, no blocking, no zero skip.
            let mut reference = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += a.get(i, kk) * b.get(kk, j);
                    }
                    reference.set(i, j, acc);
                }
            }
            let blocked = a.matmul(&b);
            let bt = b.transpose();
            let blocked_t = a.matmul_t(&bt);
            for i in 0..m {
                for j in 0..n {
                    prop_assert!((blocked.get(i, j) - reference.get(i, j)).abs() < 1e-5);
                    prop_assert!((blocked_t.get(i, j) - reference.get(i, j)).abs() < 1e-5);
                }
            }
        }

        /// vstack then select_rows recovers the operands.
        #[test]
        fn vstack_select_inverse(a in small_matrix(2, 3), b in small_matrix(3, 3)) {
            let s = Matrix::vstack(&[&a, &b]);
            prop_assert_eq!(s.select_rows(&[0, 1]), a);
            prop_assert_eq!(s.select_rows(&[2, 3, 4]), b);
        }

        /// Scaling commutes with matmul.
        #[test]
        fn scale_commutes(a in small_matrix(2, 2), b in small_matrix(2, 2), s in -3.0f32..3.0) {
            let left = a.scale(s).matmul(&b);
            let right = a.matmul(&b).scale(s);
            for (x, y) in left.data().iter().zip(right.data()) {
                prop_assert!((x - y).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5, -1.0], &[2.0, -2.0, 0.0]]);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn col_mean_of_constant_rows() {
        let a = Matrix::from_rows(&[&[2.0, 4.0], &[2.0, 4.0], &[2.0, 4.0]]);
        assert_eq!(a.col_mean(), vec![2.0, 4.0]);
    }

    #[test]
    fn normalize_rows_gives_unit_norm() {
        let mut a = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        a.normalize_rows();
        assert!((crate::vector::norm(a.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn vstack_and_select_rows_round_trip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.select_rows(&[1, 2]), b);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a, Matrix::filled(2, 2, 2.0));
    }

    /// The fast kernel drops the zero-skip and ordering guarantees, not
    /// correctness: on shapes covering both the packed and fallback paths
    /// (and ragged tile edges) it must agree with the exact kernel to
    /// f32 round-off, including when the left operand carries exact zeros.
    fn gaussian_matrix(rows: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        crate::rng::fill_gaussian(rng, &mut m.data, 1.0);
        m
    }

    #[test]
    fn fast_matmul_agrees_with_exact_within_roundoff() {
        let mut rng = crate::rng::seeded(41);
        for &(m, k, n) in &[(3usize, 5usize, 4usize), (8, 16, 9), (70, 33, 21)] {
            let mut a = gaussian_matrix(m, k, &mut rng);
            let b = gaussian_matrix(k, n, &mut rng);
            // Sprinkle exact zeros: the exact kernel skips them, the fast
            // kernel multiplies through — results must still agree.
            for i in 0..m {
                a.row_mut(i)[i % k] = 0.0;
            }
            let fast_policy = crate::ExecPolicy::serial().with_precision(crate::Precision::Fast);
            let exact = a.matmul(&b);
            let mut fast = Matrix::zeros(m, n);
            a.matmul_into(Rhs::Dense(&b), &fast_policy, &mut fast);
            for (e, f) in exact.data.iter().zip(&fast.data) {
                assert!((e - f).abs() <= 1e-4 * (1.0 + e.abs()), "e={e} f={f}");
            }

            let bt = b.transpose();
            let exact_t = a.matmul_t(&bt);
            let mut fast_t = Matrix::zeros(m, n);
            a.matmul_into(Rhs::DenseT(&bt), &fast_policy, &mut fast_t);
            for (e, f) in exact_t.data.iter().zip(&fast_t.data) {
                assert!((e - f).abs() <= 1e-4 * (1.0 + e.abs()), "e={e} f={f}");
            }
        }
    }

    /// The SSE2 Fast tile agrees bitwise with its portable twin, the
    /// generic kernel without the zero skip, on full tiles and ragged
    /// edges alike: non-x86 hosts compute the Fast bits tested here.
    #[test]
    fn fast_tile_matches_portable_twin_bitwise() {
        let mut rng = crate::rng::seeded(43);
        for &(m, k, n) in &[(4usize, 7usize, 8usize), (9, 16, 21), (3, 5, 3)] {
            let a = gaussian_matrix(m, k, &mut rng);
            let b = gaussian_matrix(k, n, &mut rng);
            let mut panels = Vec::new();
            pack_dense(&mut panels, &b, false);
            let mut simd = vec![f32::NAN; m * n];
            let mut portable = vec![0.0; m * n];
            crate::simd::packed_block_kernel_fast(a.data(), k, &panels, n, &mut simd);
            packed_block_kernel::<false>(a.data(), k, &panels, n, &mut portable);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&simd), bits(&portable), "{m}x{k}x{n}");
        }
    }

    proptest! {
        /// The bitwise contract of the one entry point: at each tier, a
        /// product's bits do not depend on the operand form (`Dense`,
        /// `DenseT`, `Packed` from either orientation) or the thread count,
        /// and stale output contents are fully overwritten (the arena reuse
        /// contract). Shapes cover the small-row fallback, the packed
        /// kernel, ragged last panels and (above 64 rows) the parallel
        /// executor; zeros in the left operand exercise the Exact skip.
        #[test]
        fn matmul_bits_depend_only_on_tier(
            m in 1usize..80,
            k in 1usize..48,
            n in 1usize..48,
            a_pool in proptest::collection::vec(-10.0f32..10.0, 80 * 48),
            b_pool in proptest::collection::vec(-10.0f32..10.0, 48 * 48),
        ) {
            let mut a_data = a_pool[..m * k].to_vec();
            for v in a_data.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let a = Matrix::from_vec(m, k, a_data);
            let b = Matrix::from_vec(k, n, b_pool[..k * n].to_vec());
            let bt = b.transpose();
            let packed = PackedMatrix::pack(&b);
            let packed_t = PackedMatrix::pack_transposed(&bt);
            prop_assert!(!packed.is_transposed());
            prop_assert!(packed_t.is_transposed());
            let forms = [
                Rhs::Dense(&b),
                Rhs::DenseT(&bt),
                Rhs::Packed(&packed),
                Rhs::Packed(&packed_t),
            ];
            for precision in [crate::Precision::Exact, crate::Precision::Fast] {
                let serial = crate::ExecPolicy::serial().with_precision(precision);
                let mut reference = Matrix::zeros(m, n);
                a.matmul_into(Rhs::Dense(&b), &serial, &mut reference);
                for threads in [1usize, 4] {
                    let policy = crate::ExecPolicy::with_threads(threads).with_precision(precision);
                    for (form, rhs) in forms.iter().enumerate() {
                        let mut out = Matrix::filled(m, n, f32::NAN);
                        a.matmul_into(*rhs, &policy, &mut out);
                        for (x, y) in reference.data().iter().zip(out.data()) {
                            prop_assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{} form {} threads {}", precision, form, threads
                            );
                        }
                    }
                }
            }
        }
    }

    /// Fingerprints are content hashes: equal for equal operands, and
    /// sensitive to any element change and to the packing orientation.
    #[test]
    fn packed_matrix_fingerprint_tracks_content() {
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let same = PackedMatrix::pack(&b);
        assert_eq!(PackedMatrix::pack(&b).fingerprint(), same.fingerprint());
        let mut changed = b.clone();
        changed.set(1, 0, 3.25);
        assert_ne!(
            PackedMatrix::pack(&changed).fingerprint(),
            same.fingerprint()
        );
        // Orientation is part of the key: a symmetric source packs to the
        // same panels either way, but must not alias in a cache.
        let sym = Matrix::from_rows(&[&[1.0, 5.0], &[5.0, 2.0]]);
        assert_ne!(
            PackedMatrix::pack(&sym).fingerprint(),
            PackedMatrix::pack_transposed(&sym).fingerprint()
        );
    }

    /// Degenerate shapes: an empty inner dimension must produce the same
    /// all-zero output the per-call fallback writes.
    #[test]
    fn prepacked_matmul_handles_empty_inner_dim() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let packed = PackedMatrix::pack(&b);
        let mut out = Matrix::filled(3, 4, f32::NAN);
        a.matmul_into(Rhs::Packed(&packed), &crate::ExecPolicy::serial(), &mut out);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }
}
