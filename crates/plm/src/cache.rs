//! Process-wide and on-disk caches of pretrained models.
//!
//! The benchmark harness reproduces many tables across several binaries;
//! each needs "the pretrained language model" the same way every paper
//! assumes a BERT checkpoint exists. Within a process, models are shared as
//! `Arc`s; across processes, pretraining runs through a content-addressed
//! [`ArtifactStore`] whose keys fingerprint the pretraining corpus, the
//! architecture, and the schedule — so a checkpoint can never be served
//! after any of them changes. The store writes to the system temp directory
//! (override with `STRUCTMINE_PLM_CACHE_DIR`, disable with
//! `STRUCTMINE_PLM_NO_DISK_CACHE=1`; `STRUCTMINE_NO_CACHE=1` disables all
//! caching).
//!
//! Like every [`ArtifactStore`], this one inherits the process-wide
//! `STRUCTMINE_FAULTS` plan and the DESIGN §7 failure policy: a corrupt
//! checkpoint fails closed on its checksum footer and is re-pretrained, and
//! persistent disk failure demotes the store to memory-only rather than
//! aborting a run.

use crate::artifacts::PlmCheckpoint;
use crate::config::PlmConfig;
use crate::model::MiniPlm;
use crate::pretrain::{pretrain, PretrainConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use structmine_store::{ArtifactStore, Persistence, StableHash, StableHasher, Stage};
use structmine_text::synth::recipes;
use structmine_text::Corpus;

/// Cache-format version; bump when the architecture or the pretraining
/// recipe changes in a way the content fingerprint cannot see (e.g. the
/// meaning of an existing hyper-parameter).
const CACHE_VERSION: u32 = 8;

/// Pretraining quality tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Tiny model, short schedule — unit tests.
    Test,
    /// Standard model and schedule — examples and benchmark tables.
    Standard,
}

impl Tier {
    /// Parse a CLI/env spelling. Accepts `test` and `standard` (trimmed,
    /// ASCII case-insensitive); anything else is an error naming the
    /// valid spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "test" => Ok(Tier::Test),
            "standard" => Ok(Tier::Standard),
            other => Err(format!(
                "unknown tier '{other}' (expected 'test' or 'standard')"
            )),
        }
    }

    /// The canonical spelling, as accepted by [`Tier::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Tier::Test => "test",
            Tier::Standard => "standard",
        }
    }

    fn corpus_docs(self) -> usize {
        match self {
            Tier::Test => 800,
            Tier::Standard => 1500,
        }
    }

    fn pretrain_config(self, seed: u64) -> PretrainConfig {
        match self {
            Tier::Test => PretrainConfig {
                steps: 3000,
                batch: 8,
                seed,
                ..Default::default()
            },
            Tier::Standard => PretrainConfig {
                steps: 4200,
                batch: 8,
                seed,
                ..Default::default()
            },
        }
    }

    fn model_config(self, vocab: usize) -> PlmConfig {
        match self {
            Tier::Test => PlmConfig {
                d_model: 32,
                n_heads: 2,
                n_layers: 2,
                d_ff: 64,
                max_len: 32,
                ..PlmConfig::tiny(vocab)
            },
            Tier::Standard => PlmConfig::standard(vocab),
        }
    }
}

/// Stage: pretrain a fresh model on the general corpus. Persisted to disk
/// only — within a process the finished [`MiniPlm`] itself is shared via
/// [`pretrained`]'s `Arc` map, so memoizing the checkpoint too would just
/// duplicate every weight.
struct PretrainPlm<'a> {
    corpus: &'a Corpus,
    model_config: PlmConfig,
    pretrain_config: PretrainConfig,
}

impl Stage for PretrainPlm<'_> {
    type Output = PlmCheckpoint;

    fn name(&self) -> &'static str {
        "plm/pretrain"
    }

    fn version(&self) -> u32 {
        CACHE_VERSION
    }

    fn persistence(&self) -> Persistence {
        Persistence::DiskOnly
    }

    fn fingerprint(&self, h: &mut StableHasher) {
        self.corpus.stable_hash(h);
        self.model_config.stable_hash(h);
        self.pretrain_config.stable_hash(h);
    }

    fn compute(&self) -> PlmCheckpoint {
        let mut model = MiniPlm::new(self.model_config);
        pretrain(&mut model, self.corpus, &self.pretrain_config);
        PlmCheckpoint::of(&model)
    }
}

type ProcessCache = HashMap<(Tier, u64), Arc<MiniPlm>>;
static CACHE: OnceLock<Mutex<ProcessCache>> = OnceLock::new();

/// The artifact store backing pretrained checkpoints. Kept separate from
/// [`structmine_store::global`] so the long-standing PLM cache environment
/// variables keep working unchanged.
pub fn plm_store() -> &'static ArtifactStore {
    static STORE: OnceLock<ArtifactStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let store = if std::env::var_os("STRUCTMINE_NO_CACHE").is_some() {
            ArtifactStore::disabled()
        } else if std::env::var_os("STRUCTMINE_PLM_NO_DISK_CACHE").is_some() {
            ArtifactStore::memory_only()
        } else {
            ArtifactStore::with_dir(
                std::env::var_os("STRUCTMINE_PLM_CACHE_DIR")
                    .map(std::path::PathBuf::from)
                    .unwrap_or_else(std::env::temp_dir),
            )
        };
        // Mirror this store's counters into the run report under `plm.*`,
        // alongside the process store's `store.*`.
        store.with_scope("plm")
    })
}

/// A model pretrained on the standard-world general corpus, shared
/// process-wide and cached on disk. Deterministic per (tier, seed).
pub fn pretrained(tier: Tier, seed: u64) -> Arc<MiniPlm> {
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(model) = cache.lock().get(&(tier, seed)) {
        return Arc::clone(model);
    }
    // Build outside the lock (slow); a duplicate race only wastes one run.
    // The corpus must exist even on a disk hit: its content is part of the
    // artifact key, which is what makes a stale checkpoint unservable.
    let corpus = recipes::pretraining_corpus(tier.corpus_docs(), seed ^ 0x5eed);
    let ckpt = plm_store().run(&PretrainPlm {
        corpus: &corpus,
        model_config: tier.model_config(corpus.vocab.len()),
        pretrain_config: tier.pretrain_config(seed),
    });
    // DiskOnly stages hand back a freshly deserialized checkpoint with no
    // other owner, so the weights can be moved into the model instead of
    // deep-cloned; fall back to restore() if the Arc is ever shared.
    let arc = Arc::new(match Arc::try_unwrap(ckpt) {
        Ok(owned) => owned.into_model(),
        Err(shared) => shared.restore(),
    });
    // A racing caller may have inserted first: hand back the one shared
    // instance either way.
    Arc::clone(cache.lock().entry((tier, seed)).or_insert(arc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_linalg::Precision;

    #[test]
    fn cache_returns_shared_instance() {
        let a = pretrained(Tier::Test, 1);
        let b = pretrained(Tier::Test, 1);
        assert!(Arc::ptr_eq(&a, &b), "expected the cached instance");
    }

    #[test]
    fn cached_model_serves_concurrent_callers() {
        use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
        let model = pretrained(Tier::Test, 1);
        let corpus = recipes::pretraining_corpus(8, 9);
        let serial: Vec<Vec<f32>> = corpus
            .docs
            .iter()
            .map(|d| model.mean_embed(&d.tokens, Precision::Exact))
            .collect();
        let par = par_map_chunks(&ExecPolicy::with_threads(4), &corpus.docs, |_, d| {
            model.mean_embed(&d.tokens, Precision::Exact)
        });
        assert_eq!(par, serial);
    }

    #[test]
    fn pretrain_stage_round_trips_through_disk() {
        // A short schedule keeps this fast; the point is the store plumbing.
        let corpus = recipes::pretraining_corpus(5, 2);
        let stage = PretrainPlm {
            corpus: &corpus,
            model_config: Tier::Test.model_config(corpus.vocab.len()),
            pretrain_config: PretrainConfig {
                steps: 3,
                ..Tier::Test.pretrain_config(42)
            },
        };
        let dir = std::env::temp_dir().join(format!("structmine-plm-cache-{}", std::process::id()));
        let cold = ArtifactStore::with_dir(&dir).run(&stage).restore();
        let warm_store = ArtifactStore::with_dir(&dir);
        let warm = warm_store.run(&stage).restore();
        let _ = std::fs::remove_dir_all(&dir);
        if !structmine_store::faults::env_active() {
            assert_eq!(warm_store.stats().disk_hits, 1);
        }
        let doc = &corpus.docs[0].tokens;
        assert_eq!(
            warm.mean_embed(doc, Precision::Exact),
            cold.mean_embed(doc, Precision::Exact)
        );
        assert_eq!(warm.fingerprint(), cold.fingerprint());
    }

    #[test]
    fn checkpoint_round_trips_weights() {
        let corpus = recipes::pretraining_corpus(5, 1);
        let model = MiniPlm::new(PlmConfig::tiny(corpus.vocab.len()));
        let bytes = serde_json::to_vec(&PlmCheckpoint::of(&model)).unwrap();
        let back: PlmCheckpoint = serde_json::from_slice(&bytes).unwrap();
        let restored = back.restore();
        let doc = &corpus.docs[0].tokens;
        assert_eq!(
            model.mean_embed(doc, Precision::Exact),
            restored.mean_embed(doc, Precision::Exact)
        );
    }
}
