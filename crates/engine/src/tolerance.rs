//! Accuracy-tolerance harness for the Fast precision tier (DESIGN §13).
//!
//! The Fast tier trades bitwise reproducibility for throughput: its
//! polynomial `tanh`/`exp` approximations (and matmul kernels that never
//! skip a zero term) change the low bits of every encode. That trade is only acceptable if
//! it is *measured* — this module classifies a document set under an
//! Exact and a Fast rule built from the same dataset and PLM, and reports
//! how often the predicted labels agree and how far the winning-class
//! confidences drift.
//!
//! Two consumers:
//! * `structmine-serve` runs [`self_check`] at startup when launched with
//!   `--precision fast`, and refuses to serve (`/healthz` → 503
//!   `unusable`) if the Fast rule disagrees with Exact beyond the bounds.
//! * The test layer property-tests the bounds across methods and seeds
//!   (`tests/tolerance.rs`), so a kernel change that silently degrades
//!   the approximation shows up as a label-flip rate, not a vague perf
//!   note.

use crate::{Engine, EngineError};
use structmine_linalg::Precision;

/// Minimum fraction of documents whose predicted label must agree between
/// the Exact and Fast rules.
pub const MIN_AGREEMENT: f32 = 0.995;

/// Maximum tolerated `|confidence_exact - confidence_fast|` on any single
/// document (each tier's confidence is its own winning class's
/// probability, so a label flip near the decision boundary stays small).
pub const MAX_CONFIDENCE_DELTA: f32 = 0.05;

/// The outcome of one Exact-vs-Fast comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ToleranceReport {
    /// Documents compared.
    pub n: usize,
    /// Fraction of documents with the same predicted label (1.0 when
    /// `n == 0` — an empty comparison has nothing to disagree about).
    pub agreement: f32,
    /// Largest `|confidence_exact - confidence_fast|` over all documents.
    pub max_confidence_delta: f32,
}

impl ToleranceReport {
    /// Whether the comparison stays inside the published bounds
    /// ([`MIN_AGREEMENT`], [`MAX_CONFIDENCE_DELTA`]).
    pub fn within_bounds(&self) -> bool {
        self.agreement >= MIN_AGREEMENT && self.max_confidence_delta <= MAX_CONFIDENCE_DELTA
    }

    /// One-line human-readable summary (health endpoints, logs).
    pub fn summary(&self) -> String {
        format!(
            "label agreement {:.4} over {} docs, max |confidence delta| {:.4}",
            self.agreement, self.n, self.max_confidence_delta
        )
    }
}

/// Classify `lines` under both engines and compare the predictions.
/// The engines are expected to host the same method over the same labels;
/// mismatched prediction counts are an internal error.
pub fn compare(
    exact: &Engine,
    fast: &Engine,
    lines: &[String],
) -> Result<ToleranceReport, EngineError> {
    let a = exact.classify(lines)?;
    let b = fast.classify(lines)?;
    if a.len() != b.len() {
        return Err(EngineError::Internal {
            what: format!(
                "tolerance comparison got {} exact vs {} fast predictions",
                a.len(),
                b.len()
            ),
        });
    }
    let n = a.len();
    if n == 0 {
        return Ok(ToleranceReport {
            n: 0,
            agreement: 1.0,
            max_confidence_delta: 0.0,
        });
    }
    let mut agree = 0usize;
    let mut max_delta = 0.0f32;
    for (pa, pb) in a.iter().zip(&b) {
        if pa.class == pb.class {
            agree += 1;
        }
        max_delta = max_delta.max((pa.confidence - pb.confidence).abs());
    }
    Ok(ToleranceReport {
        n,
        agreement: agree as f32 / n as f32,
        max_confidence_delta: max_delta,
    })
}

/// The engine's eval-split documents rendered back to text — the lines
/// the tolerance harness classifies. Label-names engines have no held-out
/// split (gold labels are unknown), so they fall back to the whole corpus:
/// the comparison needs documents, not their labels. Rendering goes
/// through the corpus vocabulary, so tokenizing them again round-trips
/// exactly.
pub fn eval_lines(engine: &Engine) -> Vec<String> {
    let d = engine.dataset();
    if d.test_idx.is_empty() {
        return (0..d.corpus.len()).map(|i| d.corpus.render(i)).collect();
    }
    d.test_idx.iter().map(|&i| d.corpus.render(i)).collect()
}

/// Startup self-check for a Fast-tier engine: build its Exact twin
/// (sharing the dataset and PLM), classify the full eval split under
/// both, and report. For an engine already serving Exact this is trivially
/// in bounds — the twin *is* the engine's own configuration — so callers
/// can run it unconditionally and only pay on the Fast tier.
pub fn self_check(engine: &Engine) -> Result<ToleranceReport, EngineError> {
    if engine.precision() == Precision::Exact {
        return Ok(ToleranceReport {
            n: 0,
            agreement: 1.0,
            max_confidence_delta: 0.0,
        });
    }
    let exact = engine.at_precision(Precision::Exact);
    compare(&exact, engine, &eval_lines(engine))
}
