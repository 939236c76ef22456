//! Deterministic parallel execution policy for the whole workspace.
//!
//! Every parallel code path in structmine funnels through this module, and
//! all of it obeys one rule: **output must be bitwise identical for any
//! thread count**. That is achieved structurally, not probabilistically —
//! work is split into fixed, index-ordered chunks, each output element is
//! computed by exactly one thread using the same scalar code the serial
//! path uses, and results are merged in chunk order. No reductions ever
//! cross a chunk boundary, so floating-point non-associativity never
//! enters the picture.
//!
//! Threads are scoped (`std::thread::scope`), so borrowed inputs work
//! without `Arc` and a panic in any worker propagates to the caller.
//! The thread count comes from [`ExecPolicy`]: explicit, from the
//! `STRUCTMINE_THREADS` environment variable, or from
//! `std::thread::available_parallelism`.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Numeric precision tier for *inference* arithmetic.
///
/// * [`Precision::Exact`] — the workspace default: `tanh` and `exp` go
///   through the in-tree ports of glibc's `tanhf` and `expf`
///   ([`crate::exactmath`], libm's bits), and all output is bitwise
///   reproducible across thread counts, processes, and cache states.
/// * [`Precision::Fast`] — an explicitly opt-in serving tier that changes
///   two ops, the GELU (a polynomial `tanh`, [`crate::fastmath`]) and
///   LayerNorm (a fused SIMD row pass), and runs Exact's code for the
///   rest. Output is deterministic for a fixed build but is **not**
///   bit-compatible with Exact; it is gated by the tolerance harness
///   (label agreement ≥ 99.5% on the standard eval recipes).
///
/// Training and adaptation always run Exact regardless of the policy: the
/// tier selects which inference graphs the PLM constructs, and gradient
/// graphs are never constructed at Fast precision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Bitwise-reproducible arithmetic (the default everywhere).
    #[default]
    Exact,
    /// Approximate inference-only arithmetic, tolerance-gated.
    Fast,
}

impl Precision {
    /// Parse a CLI/env spelling. Accepts `exact` and `fast` (trimmed,
    /// ASCII case-insensitive); anything else is an error naming the
    /// valid spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exact" => Ok(Precision::Exact),
            "fast" => Ok(Precision::Fast),
            other => Err(format!(
                "unknown precision '{other}' (expected 'exact' or 'fast')"
            )),
        }
    }

    /// The canonical spelling, as accepted by [`Precision::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Precision::Exact => "exact",
            Precision::Fast => "fast",
        }
    }

    /// Read the tier from `STRUCTMINE_PRECISION`; unset or invalid values
    /// fall back to Exact (the conservative default — a typo must never
    /// silently enable approximate arithmetic... nor silently disable the
    /// bit-compat contract the rest of the stack documents).
    pub fn from_env() -> Self {
        match std::env::var("STRUCTMINE_PRECISION") {
            Ok(v) => Precision::parse(&v).unwrap_or(Precision::Exact),
            Err(_) => Precision::Exact,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl structmine_store::StableHash for Precision {
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        h.write_bytes(self.name().as_bytes());
    }
}

/// How many worker threads data-parallel operations may use, and at which
/// [`Precision`] tier inference arithmetic runs.
///
/// The policy is a plain value — cheap to copy, compare and embed in method
/// configs — and is threaded through the corpus→representation pipeline
/// (`plm::repr::encode_corpus`, the core methods' `exec` fields, the CLI's
/// `--threads` flag). The thread count can never change outputs; the
/// precision tier can, which is why stage fingerprints hash
/// [`ExecPolicy::precision`] and nothing else from the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    threads: usize,
    precision: Precision,
}

impl ExecPolicy {
    /// Single-threaded execution at Exact precision.
    pub const fn serial() -> Self {
        ExecPolicy {
            threads: 1,
            precision: Precision::Exact,
        }
    }

    /// Exactly `threads` workers (values below 1 are clamped to 1), Exact
    /// precision.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy {
            threads: threads.max(1),
            precision: Precision::Exact,
        }
    }

    /// This policy with the given precision tier.
    pub fn with_precision(self, precision: Precision) -> Self {
        ExecPolicy { precision, ..self }
    }

    /// Read the policy from the environment: `STRUCTMINE_THREADS` if set
    /// (invalid or zero values fall back to 1), otherwise the machine's
    /// available parallelism; plus the precision tier from
    /// `STRUCTMINE_PRECISION` (see [`Precision::from_env`]).
    pub fn from_env() -> Self {
        let threads = match std::env::var("STRUCTMINE_THREADS") {
            Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
            Err(_) => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        };
        ExecPolicy {
            threads,
            precision: Precision::from_env(),
        }
    }

    /// The process-wide default policy, resolved from the environment once
    /// on first use. Hot paths that have no policy parameter (e.g.
    /// [`Matrix::matmul`](crate::Matrix::matmul)) consult this.
    pub fn global() -> &'static ExecPolicy {
        static GLOBAL: OnceLock<ExecPolicy> = OnceLock::new();
        GLOBAL.get_or_init(ExecPolicy::from_env)
    }

    /// The worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The inference precision tier.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// True when this policy admits real parallelism for `n` items.
    pub fn is_parallel_for(&self, n: usize) -> bool {
        self.threads > 1 && n > 1
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::from_env()
    }
}

/// Re-raise a worker panic with context: which helper, which chunk, which
/// item range, and (when one is set) the pipeline stage that was running —
/// `structmine_store::context` labels are pushed by the store around every
/// memoized compute and by each method's `run()` entry point. The payload
/// message is preserved so the original assertion text is not lost.
fn resume_worker_panic(
    helper: &str,
    chunk: usize,
    range: (usize, usize),
    payload: Box<dyn std::any::Any + Send>,
) -> ! {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string());
    let stage = structmine_store::context::current_stage_label()
        .map(|s| format!(" during stage '{s}'"))
        .unwrap_or_default();
    panic!(
        "{helper} worker for chunk {chunk} (items {}..{}) panicked{stage}: {message}",
        range.0, range.1
    );
}

/// The fixed, index-ordered chunk boundaries for `n` items across
/// `threads` workers: the first `n % threads` chunks take one extra item.
/// Returns `(start, end)` pairs covering `0..n` in order.
fn chunk_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.min(n).max(1);
    let base = n / t;
    let extra = n % t;
    let mut bounds = Vec::with_capacity(t);
    let mut start = 0;
    for c in 0..t {
        let len = base + usize::from(c < extra);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Map `f` over `items` in parallel, deterministically.
///
/// `f(i, &items[i])` must be a pure function of its arguments; under that
/// contract the result is bitwise identical to the serial
/// `items.iter().enumerate().map(..)` for **any** thread count, because
/// each element is computed by exactly one worker with the same scalar
/// code and results are merged in chunk order.
pub fn par_map_chunks<T, U, F>(policy: &ExecPolicy, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let n = items.len();
    // Counted at entry, before the serial/parallel split, so the values are
    // identical for every thread count (they fingerprint the workload, not
    // the schedule).
    structmine_store::obs::counter_add("exec.par_calls", 1);
    structmine_store::obs::counter_add("exec.par_items", n as u64);
    if !policy.is_parallel_for(n) {
        // Serial execution is one chunk — counted so the counter key exists
        // for every thread count (only its value is thread-dependent, and
        // the `thread` token in the name puts it under report masking).
        structmine_store::obs::counter_add("exec.thread_chunks", 1);
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let bounds = chunk_bounds(n, policy.threads);
    structmine_store::obs::counter_add("exec.thread_chunks", bounds.len() as u64);
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(bounds.len().saturating_sub(1));
        // Chunks 1.. run on workers; chunk 0 runs on the calling thread.
        for &(start, end) in &bounds[1..] {
            let chunk = &items[start..end];
            handles.push(scope.spawn(move || {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(k, x)| f(start + k, x))
                    .collect::<Vec<U>>()
            }));
        }
        let (s0, e0) = bounds[0];
        let mut out: Vec<U> = items[s0..e0]
            .iter()
            .enumerate()
            .map(|(k, x)| f(s0 + k, x))
            .collect();
        out.reserve_exact(n - out.len());
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(part) => out.extend(part),
                Err(payload) => {
                    resume_worker_panic("par_map_chunks", w + 1, bounds[w + 1], payload)
                }
            }
        }
        out
    })
}

/// Fill the rows of a pre-allocated row-major buffer in parallel,
/// deterministically. `out.len()` must equal `n_rows * row_len`; worker
/// `c` gets the `c`-th fixed chunk of rows in one call as
/// `f(start_row, block)`, so kernels can tile across rows and row loops
/// need no per-row allocation. Every output element is computed by
/// exactly one thread with the same per-element arithmetic, so results
/// are bitwise identical for any thread count even though the rows
/// grouped into a block differ.
pub fn par_fill_row_blocks<F>(
    policy: &ExecPolicy,
    n_rows: usize,
    row_len: usize,
    out: &mut [f32],
    f: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        n_rows * row_len,
        "par_fill_row_blocks buffer shape mismatch"
    );
    if row_len == 0 {
        return;
    }
    structmine_store::obs::counter_add("exec.par_calls", 1);
    structmine_store::obs::counter_add("exec.par_items", n_rows as u64);
    if !policy.is_parallel_for(n_rows) {
        structmine_store::obs::counter_add("exec.thread_chunks", 1);
        f(0, out);
        return;
    }
    let bounds = chunk_bounds(n_rows, policy.threads);
    structmine_store::obs::counter_add("exec.thread_chunks", bounds.len() as u64);
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut handles = Vec::with_capacity(bounds.len());
        for &(start, end) in &bounds {
            let (chunk, tail) = rest.split_at_mut((end - start) * row_len);
            rest = tail;
            handles.push(scope.spawn(move || f(start, chunk)));
        }
        for (w, h) in handles.into_iter().enumerate() {
            if let Err(payload) = h.join() {
                resume_worker_panic("par_fill_row_blocks", w, bounds[w], payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_bounds_partition_in_order() {
        for n in [0usize, 1, 2, 7, 16, 100] {
            for t in [1usize, 2, 3, 8, 64] {
                let bounds = chunk_bounds(n, t);
                let mut expect_start = 0;
                for &(s, e) in &bounds {
                    assert_eq!(s, expect_start);
                    assert!(e >= s);
                    expect_start = e;
                }
                assert_eq!(expect_start, n);
                if n > 0 {
                    let sizes: Vec<usize> = bounds.iter().map(|&(s, e)| e - s).collect();
                    let max = *sizes.iter().max().unwrap();
                    let min = *sizes.iter().min().unwrap();
                    assert!(max - min <= 1, "chunks must be balanced: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.wrapping_mul(31) ^ i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 33] {
            let policy = ExecPolicy::with_threads(threads);
            let par = par_map_chunks(&policy, &items, |i, x| x.wrapping_mul(31) ^ i as u64);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_fill_row_blocks_matches_serial() {
        let n_rows = 23;
        let row_len = 5;
        let mut serial = vec![0.0f32; n_rows * row_len];
        for (i, row) in serial.chunks_exact_mut(row_len).enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 31 + j) as f32 * 0.5;
            }
        }
        for threads in [1, 2, 3, 8] {
            let policy = ExecPolicy::with_threads(threads);
            let mut out = vec![0.0f32; n_rows * row_len];
            par_fill_row_blocks(&policy, n_rows, row_len, &mut out, |start, block| {
                for (i, row) in (start..).zip(block.chunks_exact_mut(row_len)) {
                    for (j, v) in row.iter_mut().enumerate() {
                        *v = (i * 31 + j) as f32 * 0.5;
                    }
                }
            });
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let policy = ExecPolicy::with_threads(4);
        let out: Vec<u32> = par_map_chunks(&policy, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        let mut buf: Vec<f32> = Vec::new();
        par_fill_row_blocks(
            &policy,
            0,
            7,
            &mut buf,
            |_, block| assert!(block.is_empty()),
        );
    }

    #[test]
    fn worker_panic_carries_chunk_and_stage_context() {
        let items: Vec<u32> = (0..64).collect();
        let policy = ExecPolicy::with_threads(4);
        let caught = std::panic::catch_unwind(|| {
            structmine_store::context::with_stage_label("test/explode", || {
                par_map_chunks(&policy, &items, |i, &x| {
                    assert!(i < 40, "item {i} out of tolerance");
                    x
                })
            })
        });
        let payload = caught.expect_err("worker assertion must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("enriched panic carries a String payload");
        assert!(message.contains("par_map_chunks worker"), "{message}");
        assert!(message.contains("chunk"), "{message}");
        assert!(message.contains("test/explode"), "{message}");
        assert!(message.contains("out of tolerance"), "{message}");

        let caught = std::panic::catch_unwind(|| {
            let mut buf = vec![0.0f32; 64];
            par_fill_row_blocks(&policy, 16, 4, &mut buf, |start, _| {
                assert!(start < 10, "row {start} rejected");
            });
        });
        let payload = caught.expect_err("fill worker assertion must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("par_fill_row_blocks worker"), "{message}");
        assert!(
            message.contains("row 1") || message.contains("rejected"),
            "{message}"
        );
    }

    #[test]
    fn policy_constructors_clamp() {
        assert_eq!(ExecPolicy::with_threads(0).threads(), 1);
        assert_eq!(ExecPolicy::serial().threads(), 1);
        assert!(ExecPolicy::from_env().threads() >= 1);
    }

    #[test]
    fn precision_parses_and_defaults_exact() {
        assert_eq!(Precision::parse("exact"), Ok(Precision::Exact));
        assert_eq!(Precision::parse(" Fast \n"), Ok(Precision::Fast));
        assert!(Precision::parse("fastest").is_err());
        assert_eq!(Precision::default(), Precision::Exact);
        assert_eq!(ExecPolicy::serial().precision(), Precision::Exact);
        assert_eq!(ExecPolicy::with_threads(4).precision(), Precision::Exact);
        let fast = ExecPolicy::serial().with_precision(Precision::Fast);
        assert_eq!(fast.precision(), Precision::Fast);
        assert_eq!(fast.threads(), 1, "with_precision keeps the thread count");
    }

    #[test]
    fn precision_tiers_hash_differently() {
        use structmine_store::fingerprint_of;
        let exact = fingerprint_of(&Precision::Exact);
        let fast = fingerprint_of(&Precision::Fast);
        assert_ne!(
            exact, fast,
            "tiers must produce distinct stage fingerprints"
        );
    }
}
