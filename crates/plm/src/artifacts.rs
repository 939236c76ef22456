//! Content-addressed pipeline stages over the PLM.
//!
//! Each expensive PLM computation — corpus-level adaptation, whole-corpus
//! encoding, document mean representations, NLI entailment matrices — is
//! wrapped as a [`Stage`] whose key fingerprints *all* of its inputs: the
//! model (architecture + weights), the corpus content, and every
//! hyper-parameter. Running a stage through an
//! [`ArtifactStore`](structmine_store::ArtifactStore) memoizes its output
//! in process memory and (for the persistent stages) on disk, so repeated
//! runs — the same table binary re-executed, or several methods sharing one
//! adapted model — skip straight past the computation.
//!
//! The execution policy's *thread count* is deliberately **excluded** from
//! every fingerprint: parallel execution is bitwise deterministic for any
//! thread count (see `structmine_linalg::exec`), so a cache entry written
//! under one thread count is valid under every other. The policy's
//! [`Precision`](structmine_linalg::Precision) tier is the one exception —
//! Fast-tier encodes are not bit-compatible with Exact ones, so every
//! stage whose compute runs PLM inference hashes the tier into its key and
//! the two tiers can never cross-contaminate the cache. Training stages
//! ([`AdaptPlm`], pretraining) always run Exact and stay tier-independent,
//! so one adapted checkpoint serves both tiers.
//!
//! Failure behavior is inherited from the store (DESIGN §7): a corrupt or
//! unreadable checkpoint is detected by its checksum footer and recomputed,
//! and when the store degrades to memory-only after persistent disk
//! failures, [`Persistence::DiskOnly`] stages like [`AdaptPlm`] are held in
//! the memory layer instead — still computed once per process, just no
//! longer shared across processes.

use crate::config::PlmConfig;
use crate::model::MiniPlm;
use crate::repr::{self, DocRep};
use structmine_linalg::exec::ExecPolicy;
use structmine_linalg::Matrix;
use structmine_store::{Persistence, StableHash, StableHasher, Stage};
use structmine_text::vocab::TokenId;
use structmine_text::Corpus;

/// A serializable snapshot of a [`MiniPlm`]: the architecture plus every
/// weight matrix. This is the on-disk form of model-producing stages.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct PlmCheckpoint {
    /// Model architecture.
    pub config: PlmConfig,
    /// All weights, in [`MiniPlm::export_weights`] order.
    pub weights: Vec<Matrix>,
}

impl PlmCheckpoint {
    /// Snapshot a model.
    pub fn of(model: &MiniPlm) -> Self {
        PlmCheckpoint {
            config: model.config,
            weights: model.export_weights(),
        }
    }

    /// Rebuild the model this checkpoint was taken from.
    pub fn restore(&self) -> MiniPlm {
        let mut model = MiniPlm::new(self.config);
        model.import_weights(self.weights.clone());
        model
    }

    /// Rebuild the model, consuming the checkpoint — moves the weights in
    /// instead of deep-cloning them. Preferred on warm cache hits, where
    /// the deserialized checkpoint has no other owner.
    pub fn into_model(self) -> MiniPlm {
        let mut model = MiniPlm::new(self.config);
        model.import_weights(self.weights);
        model
    }
}

/// Stage: continue pretraining a base model on a target corpus
/// ([`crate::pretrain::adapt`]). The most expensive per-dataset step in the
/// benchmark harness, so its checkpoint is persisted to disk and shared
/// across processes; the restored model is cheap enough to rebuild that the
/// in-memory layer is skipped ([`Persistence::DiskOnly`]).
pub struct AdaptPlm<'a> {
    /// The pretrained base model.
    pub base: &'a MiniPlm,
    /// The corpus to adapt to.
    pub corpus: &'a Corpus,
    /// Adaptation optimizer steps.
    pub steps: usize,
    /// Adaptation RNG seed.
    pub seed: u64,
}

impl Stage for AdaptPlm<'_> {
    type Output = PlmCheckpoint;

    fn name(&self) -> &'static str {
        "plm/adapt"
    }

    fn persistence(&self) -> Persistence {
        Persistence::DiskOnly
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u128(self.base.fingerprint());
        self.corpus.stable_hash(h);
        self.steps.stable_hash(h);
        self.seed.stable_hash(h);
    }

    fn compute(&self) -> PlmCheckpoint {
        PlmCheckpoint::of(&crate::pretrain::adapt(
            self.base,
            self.corpus,
            self.steps,
            self.seed,
        ))
    }
}

/// Stage: encode every document of a corpus ([`repr::encode_corpus`]).
/// Token-level matrices for a whole corpus are far too large to serialize
/// profitably, so this stage is memoized in process memory only
/// ([`Persistence::MemoryOnly`]) — which is exactly what lets several
/// methods in one table binary share a single encoding pass.
pub struct EncodeCorpus<'a> {
    /// The encoder.
    pub model: &'a MiniPlm,
    /// The corpus to encode.
    pub corpus: &'a Corpus,
    /// How to share the per-document encodes across threads.
    pub exec: ExecPolicy,
}

impl Stage for EncodeCorpus<'_> {
    type Output = Vec<DocRep>;

    fn name(&self) -> &'static str {
        "plm/encode-corpus"
    }

    fn persistence(&self) -> Persistence {
        Persistence::MemoryOnly
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u128(self.model.fingerprint());
        self.corpus.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }

    fn compute(&self) -> Vec<DocRep> {
        repr::encode_corpus(self.model, self.corpus, &self.exec)
    }
}

/// Stage: average-pooled representation of every document
/// ([`repr::doc_mean_reps_with`]) — the "vanilla BERT representations"
/// matrix consumed by most methods. Small enough to persist.
pub struct DocMeanReps<'a> {
    /// The encoder.
    pub model: &'a MiniPlm,
    /// The corpus to represent.
    pub corpus: &'a Corpus,
    /// How to share the per-document encodes across threads.
    pub exec: ExecPolicy,
}

impl Stage for DocMeanReps<'_> {
    type Output = Matrix;

    fn name(&self) -> &'static str {
        "plm/doc-mean-reps"
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u128(self.model.fingerprint());
        self.corpus.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }

    fn compute(&self) -> Matrix {
        repr::doc_mean_reps_with(self.model, self.corpus, &self.exec)
    }
}

/// Stage: the mean-rep rows for one contiguous document range of a corpus
/// — a shard of [`DocMeanReps`]. Workers in a sharded run
/// (`structmine-shard`, DESIGN §12) each compute their index-ordered
/// range; because every row is a per-document computation with its
/// absolute index, concatenating shard matrices in range order is bitwise
/// identical to the whole-corpus stage. Persisted like [`DocMeanReps`], so
/// a crashed worker's restart resumes from the shard artifact on disk.
pub struct DocMeanRepsShard<'a> {
    /// The encoder.
    pub model: &'a MiniPlm,
    /// The corpus the range indexes into.
    pub corpus: &'a Corpus,
    /// The half-open document range this shard owns.
    pub range: std::ops::Range<usize>,
    /// How to share the per-document encodes across threads.
    pub exec: ExecPolicy,
}

impl Stage for DocMeanRepsShard<'_> {
    type Output = Matrix;

    fn name(&self) -> &'static str {
        "plm/doc-mean-reps-shard"
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u128(self.model.fingerprint());
        self.corpus.stable_hash(h);
        self.range.start.stable_hash(h);
        self.range.end.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }

    fn compute(&self) -> Matrix {
        let rows =
            repr::doc_mean_rows_range(self.model, self.corpus, self.range.clone(), &self.exec);
        repr::rows_to_matrix(rows, self.model.config.d_model)
    }
}

/// Stage: entailment probability of every (document, hypothesis) pair
/// ([`repr::nli_entail_matrix`]) — TaxoClass's relevance matrix and the
/// zero-shot entailment baseline.
pub struct NliEntail<'a> {
    /// The model whose NLI head scores the pairs.
    pub model: &'a MiniPlm,
    /// The premise documents.
    pub corpus: &'a Corpus,
    /// The hypothesis token sequences, one per column.
    pub hypotheses: &'a [Vec<TokenId>],
    /// How to share the per-document scoring across threads.
    pub exec: ExecPolicy,
}

impl Stage for NliEntail<'_> {
    type Output = Matrix;

    fn name(&self) -> &'static str {
        "plm/nli-entail"
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        h.write_u128(self.model.fingerprint());
        self.corpus.stable_hash(h);
        self.hypotheses.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }

    fn compute(&self) -> Matrix {
        repr::nli_entail_matrix(self.model, self.corpus, self.hypotheses, &self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_linalg::Precision;
    use structmine_store::{fingerprint_of, ArtifactStore};
    use structmine_text::synth::recipes;

    fn tiny_model_and_corpus() -> (MiniPlm, Corpus) {
        let corpus = recipes::pretraining_corpus(6, 11);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        (model, corpus)
    }

    #[test]
    fn checkpoint_restores_identical_model() {
        let (model, corpus) = tiny_model_and_corpus();
        let restored = PlmCheckpoint::of(&model).restore();
        assert_eq!(restored.fingerprint(), model.fingerprint());
        let doc = &corpus.docs[0].tokens;
        assert_eq!(
            restored.mean_embed(doc, Precision::Exact),
            model.mean_embed(doc, Precision::Exact)
        );
    }

    #[test]
    fn model_fingerprint_tracks_weights() {
        let (model, _) = tiny_model_and_corpus();
        let a = model.fingerprint();
        assert_eq!(a, model.fingerprint(), "fingerprint must be deterministic");
        let mut other = PlmCheckpoint::of(&model);
        other.weights[0].data_mut()[0] += 1.0;
        assert_ne!(a, other.restore().fingerprint());
    }

    #[test]
    fn doc_mean_reps_stage_warm_read_is_bitwise_identical() {
        let (model, corpus) = tiny_model_and_corpus();
        let dir = std::env::temp_dir().join(format!(
            "structmine-plm-artifacts-{}-{}",
            std::process::id(),
            fingerprint_of("doc-mean-reps-test")
        ));
        let stage = DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: ExecPolicy::serial(),
        };
        let cold = ArtifactStore::with_dir(&dir).run(&stage);
        // A fresh store sees only the disk artifact.
        let warm_store = ArtifactStore::with_dir(&dir);
        let warm = warm_store.run(&stage);
        let _ = std::fs::remove_dir_all(&dir);
        // Under an env fault plan (CI fault smoke) the read may legitimately
        // fall back to a recompute; bitwise equality must hold regardless.
        if !structmine_store::faults::env_active() {
            assert_eq!(warm_store.stats().disk_hits, 1);
        }
        assert_eq!(warm.data(), cold.data());
    }

    #[test]
    fn encode_corpus_stage_shares_one_pass_in_memory() {
        let (model, corpus) = tiny_model_and_corpus();
        let store = ArtifactStore::memory_only();
        let stage = EncodeCorpus {
            model: &model,
            corpus: &corpus,
            exec: ExecPolicy::serial(),
        };
        let a = store.run(&stage);
        let b = store.run(&stage);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(store.stats().mem_hits, 1);
    }

    #[test]
    fn shard_stages_concatenate_to_the_whole_matrix_bitwise() {
        let (model, corpus) = tiny_model_and_corpus();
        let whole = DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: ExecPolicy::serial(),
        }
        .compute();
        let total = corpus.len();
        for count in [1usize, 3, 4] {
            let mut rows: Vec<Vec<f32>> = Vec::new();
            let (base, extra) = (total / count, total % count);
            let mut start = 0;
            for i in 0..count {
                let len = base + usize::from(i < extra);
                let shard = DocMeanRepsShard {
                    model: &model,
                    corpus: &corpus,
                    range: start..start + len,
                    exec: ExecPolicy::with_threads(1 + i % 2),
                }
                .compute();
                rows.extend((0..shard.rows()).map(|r| shard.row(r).to_vec()));
                start += len;
            }
            let merged = repr::rows_to_matrix(rows, model.config.d_model);
            assert_eq!(merged.shape(), whole.shape());
            assert_eq!(
                merged.data(),
                whole.data(),
                "{count}-way shard merge must be bitwise identical"
            );
        }
    }

    #[test]
    fn stage_keys_separate_models_and_corpora() {
        let (model, corpus) = tiny_model_and_corpus();
        let other_corpus = recipes::pretraining_corpus(7, 12);
        let k1 = DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: ExecPolicy::serial(),
        }
        .key();
        let k2 = DocMeanReps {
            model: &model,
            corpus: &other_corpus,
            exec: ExecPolicy::with_threads(4),
        }
        .key();
        let k3 = DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: ExecPolicy::with_threads(4),
        }
        .key();
        assert_ne!(k1.digest, k2.digest, "different corpus, different key");
        assert_eq!(
            k1.digest, k3.digest,
            "exec policy must not affect the key: parallel output is bitwise identical"
        );
    }

    #[test]
    fn stage_keys_separate_precision_tiers() {
        use structmine_linalg::Precision;
        let (model, corpus) = tiny_model_and_corpus();
        let exact = ExecPolicy::serial();
        let fast = ExecPolicy::serial().with_precision(Precision::Fast);
        let ke = DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: exact,
        }
        .key();
        let kf = DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: fast,
        }
        .key();
        assert_ne!(
            ke.digest, kf.digest,
            "Fast-tier artifacts must never be served from Exact keys"
        );
    }

    /// Satellite regression: a warm Fast-tier run after a cold Exact run
    /// must report **zero** cross-tier hits — every stage recomputes under
    /// its own key instead of silently serving the other tier's artifacts.
    #[test]
    fn warm_fast_run_after_cold_exact_run_has_no_cross_tier_hits() {
        use structmine_linalg::Precision;
        let (model, corpus) = tiny_model_and_corpus();
        let store = ArtifactStore::memory_only();
        let exact = ExecPolicy::serial();
        let fast = ExecPolicy::serial().with_precision(Precision::Fast);

        let run_all = |exec: ExecPolicy| {
            let _ = store.run(&EncodeCorpus {
                model: &model,
                corpus: &corpus,
                exec,
            });
            let _ = store.run(&DocMeanReps {
                model: &model,
                corpus: &corpus,
                exec,
            });
            let _ = store.run(&DocMeanRepsShard {
                model: &model,
                corpus: &corpus,
                range: 0..corpus.len(),
                exec,
            });
            let _ = store.run(&NliEntail {
                model: &model,
                corpus: &corpus,
                hypotheses: &[vec![6u32, 7]],
                exec,
            });
        };

        run_all(exact); // cold Exact pass populates the store
        let hits_before = store.stats().mem_hits;
        let misses_before = store.stats().misses;
        run_all(fast); // warm Fast pass must see none of it
        assert_eq!(
            store.stats().mem_hits,
            hits_before,
            "0 cross-tier hits: a Fast run must not read Exact artifacts"
        );
        assert_eq!(
            store.stats().misses,
            misses_before + 4,
            "every Fast stage recomputes under its own key"
        );

        // And the tiers really computed different bytes somewhere.
        let e = store.run(&DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: exact,
        });
        let f = store.run(&DocMeanReps {
            model: &model,
            corpus: &corpus,
            exec: fast,
        });
        assert_ne!(e.data(), f.data(), "tiers share a key only if identical");
    }
}
