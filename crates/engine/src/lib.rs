//! `structmine-engine` — the load-once/run-many layer shared by the CLI,
//! the bench tables, and `structmine-serve`.
//!
//! [`Engine::load`] resolves a dataset (from raw label names, a synthetic
//! recipe, or an explicit [`Dataset`]) and the PLM once, through the same
//! artifact store every binary already uses. The engine then exposes two
//! kinds of work:
//!
//! * **Serving** — [`Engine::classify`] applies a *frozen per-document
//!   rule* (fitted lazily, once) to new documents.
//!   Because every rule is per-document and the underlying kernels are
//!   row-independent bitwise, a document's prediction is byte-identical
//!   whether it is classified alone, in any batch, at any thread count —
//!   the invariant `structmine-serve`'s adaptive micro-batching relies on.
//! * **Benchmarking** — [`Engine::fitted_predictions`] and
//!   [`Engine::xclass_output`] replay the exact memoized method pipelines
//!   the bench tables always ran, so table output stays byte-identical.
//!
//! Everything expensive is fitted lazily and cached inside the engine;
//! [`Engine::warm`] forces the serving model to fit eagerly (servers call
//! it before accepting traffic).

use parking_lot::Mutex;
use std::sync::Arc;
use structmine::baselines;
use structmine::common;
use structmine::conwea::ConWea;
use structmine::lotclass::{LotClass, LotClassModel};
use structmine::promptclass::PromptClass;
use structmine::westclass::WeSTClass;
use structmine::xclass::{XClass, XClassModel, XClassOutput};
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{stats, vector, Matrix, Precision};
use structmine_plm::artifacts::{DocMeanReps, DocMeanRepsShard};
use structmine_plm::MiniPlm;
use structmine_shard::shard_range;
use structmine_text::delta::{DeltaCorpus, DeltaError, Generation};
use structmine_text::synth::SynthError;
use structmine_text::vocab::TokenId;
use structmine_text::{Dataset, Doc};

pub mod loaders;
pub mod tolerance;

/// The classification method an engine hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MethodKind {
    /// X-Class: class-oriented representations + confident-subset
    /// classifier. Servable.
    XClass,
    /// LOTClass: category vocabulary + masked category prediction +
    /// self-trained classifier. Servable.
    LotClass,
    /// PromptClass-style prompting (RTD verbalizer). Servable zero-shot.
    Prompt,
    /// BERT with simple matching (label-name prototypes). Servable.
    Match,
    /// WeSTClass (static embeddings, pseudo-document pretraining).
    /// Transductive — fit-only, not servable.
    WeSTClass,
    /// ConWea (contextualized seed disambiguation). Transductive —
    /// fit-only, not servable.
    ConWea,
    /// Supervised upper bound (MLP on gold training labels). Fit-only.
    Supervised,
}

impl MethodKind {
    /// Parse a CLI-style method name.
    pub fn parse(name: &str) -> Option<MethodKind> {
        Some(match name {
            "xclass" => MethodKind::XClass,
            "lotclass" => MethodKind::LotClass,
            "prompt" => MethodKind::Prompt,
            "match" => MethodKind::Match,
            "westclass" => MethodKind::WeSTClass,
            "conwea" => MethodKind::ConWea,
            "supervised" => MethodKind::Supervised,
            _ => return None,
        })
    }

    /// The CLI-style name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::XClass => "xclass",
            MethodKind::LotClass => "lotclass",
            MethodKind::Prompt => "prompt",
            MethodKind::Match => "match",
            MethodKind::WeSTClass => "westclass",
            MethodKind::ConWea => "conwea",
            MethodKind::Supervised => "supervised",
        }
    }

    /// Whether the method yields a frozen per-document serving rule.
    /// Transductive methods (WeSTClass, ConWea) and the supervised upper
    /// bound only produce predictions for the corpus they were fitted on.
    pub fn servable(&self) -> bool {
        matches!(
            self,
            MethodKind::XClass | MethodKind::LotClass | MethodKind::Prompt | MethodKind::Match
        )
    }

    /// Whether fitting/serving needs a PLM at all.
    fn needs_plm(&self) -> bool {
        !matches!(self, MethodKind::WeSTClass)
    }
}

/// Where the engine's fit dataset comes from.
pub enum EngineSource {
    /// Raw label names (the CLI `classify` path): the engine fits on a
    /// fixed reference corpus drawn from the standard synthetic world, so
    /// the fitted rule is independent of the documents later classified.
    Labels(Vec<String>),
    /// A synthetic recipe by name (the CLI `demo` path).
    Recipe {
        /// Recipe name, e.g. `"agnews"`.
        name: String,
        /// Corpus scale factor.
        scale: f32,
        /// Generation seed.
        seed: u64,
    },
    /// An already-built dataset (the bench tables).
    Dataset(Box<Dataset>),
}

/// Which PLM the engine loads.
#[derive(Clone, Copy, Debug)]
pub enum PlmSpec {
    /// The shared pretrained model at a given tier.
    Pretrained(structmine_plm::cache::Tier),
    /// The standard PLM adapted to the fit dataset's corpus by continued
    /// MLM pretraining (honors `STRUCTMINE_PLM_TIER` / `_ADAPT_STEPS`).
    Adapted {
        /// Adaptation seed.
        seed: u64,
    },
}

/// Everything [`Engine::load`] needs.
pub struct EngineConfig {
    /// Fit dataset source.
    pub source: EngineSource,
    /// Hosted method.
    pub method: MethodKind,
    /// PLM to load.
    pub plm: PlmSpec,
    /// Method seed; `None` keeps each method's published default.
    pub seed: Option<u64>,
    /// Execution policy for encodes and scoring. Outputs are bitwise
    /// identical for any thread count; the policy's precision tier, by
    /// contrast, changes bits (Fast swaps in approximate inference
    /// kernels) and is therefore part of every inference stage
    /// fingerprint. Fitting/adaptation always runs Exact regardless.
    pub exec: ExecPolicy,
}

/// Engine-level failures; the CLI and serve map these onto their exit
/// taxonomies.
#[derive(Debug)]
pub enum EngineError {
    /// Dataset synthesis failed (unknown recipe, missing pool).
    Synth(SynthError),
    /// A label is unusable for the standard world.
    InvalidLabels(String),
    /// The method cannot serve new documents (transductive/fit-only).
    Unsupported {
        /// The offending method's CLI name.
        method: &'static str,
    },
    /// The requested accessor does not apply to the hosted method.
    WrongMethod {
        /// What was asked for.
        wanted: &'static str,
        /// The hosted method's CLI name.
        hosted: &'static str,
    },
    /// A method refused its input (wrong supervision kind, flat dataset
    /// fed to a hierarchical method, missing template word).
    Method(structmine::MethodError),
    /// A corpus delta was rejected (out of order, duplicate, bad tokens).
    Delta(DeltaError),
    /// An engine invariant broke — a bug or unsupported internal state,
    /// not a usage error. Servers map this onto HTTP 500; the CLI treats
    /// it as a persistent failure.
    Internal {
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Synth(e) => write!(f, "{e}"),
            EngineError::InvalidLabels(msg) => write!(f, "{msg}"),
            EngineError::Unsupported { method } => write!(
                f,
                "method {method} is transductive (predicts only its fit corpus) \
                 and cannot classify new documents; \
                 use one of: xclass, lotclass, prompt, match"
            ),
            EngineError::WrongMethod { wanted, hosted } => {
                write!(
                    f,
                    "{wanted} is only available for engines hosting it \
                           (this engine hosts {hosted})"
                )
            }
            EngineError::Method(e) => write!(f, "{e}"),
            EngineError::Delta(e) => write!(f, "{e}"),
            EngineError::Internal { what } => write!(f, "internal engine error: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SynthError> for EngineError {
    fn from(e: SynthError) -> Self {
        EngineError::Synth(e)
    }
}

impl From<structmine::MethodError> for EngineError {
    fn from(e: structmine::MethodError) -> Self {
        EngineError::Method(e)
    }
}

/// The receipt of one accepted ingest delta.
#[derive(Clone, Debug)]
pub struct Ingested {
    /// The generation the corpus reached by applying the delta.
    pub generation: Generation,
    /// Predictions for the delta's documents, in input order —
    /// byte-identical to [`Engine::classify`] on the same lines.
    pub predictions: Vec<Prediction>,
}

/// One document's classification.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Predicted class index (into [`Engine::labels`]).
    pub class: usize,
    /// Predicted label name.
    pub label: String,
    /// The winning class's probability under the method's per-document
    /// distribution.
    pub confidence: f32,
}

/// The sharpening factor applied to raw per-class scores (prompt scores,
/// prototype cosines) before softmax — the same constant PromptClass uses
/// to turn scores into a usable distribution.
const SCORE_SHARPNESS: f32 = 24.0;

/// The fitted per-document serving rule.
enum ServeModel {
    XClass(XClassModel),
    LotClass(LotClassModel),
    /// RTD prompting needs no fitting: scores come straight from the PLM.
    Prompt,
    Match {
        /// Label-name prototype representations (`k x d_model`).
        prototypes: Matrix,
    },
}

/// A loaded classification engine: dataset + PLM + lazily fitted models.
///
/// `Engine` is `Send + Sync`; clones of the fitted state are shared via
/// `Arc`, so concurrent `classify` calls after warm-up never contend.
pub struct Engine {
    method: MethodKind,
    dataset: Dataset,
    plm: Option<Arc<MiniPlm>>,
    exec: ExecPolicy,
    seed: Option<u64>,
    name_tokens: Vec<Vec<TokenId>>,
    model: Mutex<Option<Arc<ServeModel>>>,
    xout: Mutex<Option<Arc<XClassOutput>>>,
    preds: Mutex<Option<Arc<Vec<usize>>>>,
    /// The generation stamp of the ingest stream (base = the fit corpus).
    /// The serving rule stays frozen on the generation-0 fit, so `classify`
    /// output is unaffected by ingestion.
    ingest: Mutex<DeltaCorpus>,
}

impl Engine {
    /// Load the engine: resolve the fit dataset and the PLM through the
    /// artifact store. Model fitting is deferred to first use (or
    /// [`Engine::warm`]).
    pub fn load(config: EngineConfig) -> Result<Engine, EngineError> {
        let dataset = match config.source {
            EngineSource::Labels(labels) => labels_dataset(&labels)?,
            EngineSource::Recipe { name, scale, seed } => {
                structmine_text::synth::by_name(&name, scale, seed)?
            }
            EngineSource::Dataset(d) => *d,
        };
        let plm = if config.method.needs_plm() {
            Some(match config.plm {
                PlmSpec::Pretrained(tier) => structmine_plm::cache::pretrained(tier, 0),
                PlmSpec::Adapted { seed } => loaders::adapted_plm(&dataset, seed),
            })
        } else {
            None
        };
        if let Some(plm) = &plm {
            // Pack every inference weight now so no serving request — not
            // even the first — pays the per-call panel pack. Idempotent:
            // an already-packed PLM shared through the Arc just hits its
            // caches.
            plm.prepack_weights();
        }
        let name_tokens = dataset.label_name_tokens();
        let ingest = Mutex::new(DeltaCorpus::from_corpus(&dataset.corpus));
        Ok(Engine {
            method: config.method,
            dataset,
            plm,
            exec: config.exec,
            seed: config.seed,
            name_tokens,
            model: Mutex::new(None),
            xout: Mutex::new(None),
            preds: Mutex::new(None),
            ingest,
        })
    }

    /// The hosted method.
    pub fn method(&self) -> MethodKind {
        self.method
    }

    /// The inference precision tier this engine serves at.
    pub fn precision(&self) -> Precision {
        self.exec.precision()
    }

    /// A twin of this engine serving at `precision`: it shares the fit
    /// dataset and the loaded PLM (cheap — the PLM is behind an `Arc`),
    /// but fits its serving models fresh under the new tier. Its ingest
    /// stream starts at generation 0. This is how the tolerance harness
    /// puts an Exact and a Fast rule side by side without loading twice.
    pub fn at_precision(&self, precision: Precision) -> Engine {
        if let Some(plm) = &self.plm {
            // Normally a warm no-op (load() already packed); covers PLMs
            // whose weights changed since, so the twin serves pack-free too.
            plm.prepack_weights();
        }
        Engine {
            method: self.method,
            dataset: self.dataset.clone(),
            plm: self.plm.clone(),
            exec: self.exec.with_precision(precision),
            seed: self.seed,
            name_tokens: self.name_tokens.clone(),
            model: Mutex::new(None),
            xout: Mutex::new(None),
            preds: Mutex::new(None),
            ingest: Mutex::new(DeltaCorpus::from_corpus(&self.dataset.corpus)),
        }
    }

    /// The label names documents are classified into.
    pub fn labels(&self) -> &[String] {
        &self.dataset.labels.names
    }

    /// The fit dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// Force the serving model to fit now (servers call this before
    /// accepting traffic so the first request doesn't pay the fit).
    pub fn warm(&self) -> Result<(), EngineError> {
        self.serve_model().map(|_| ())
    }

    /// Classify a batch of raw text documents with the frozen per-document
    /// rule. The prediction for a document is byte-identical whether it
    /// arrives alone, in any batch, at any thread count.
    pub fn classify(&self, lines: &[String]) -> Result<Vec<Prediction>, EngineError> {
        let probs = self.classify_proba(lines)?;
        Ok(probs.into_iter().map(|p| self.to_prediction(&p)).collect())
    }

    /// Per-class probability rows for a batch of raw text documents.
    pub fn classify_proba(&self, lines: &[String]) -> Result<Vec<Vec<f32>>, EngineError> {
        let _stage = structmine_store::context::stage_guard("engine/classify");
        let model = self.serve_model()?;
        let docs: Vec<Vec<TokenId>> = lines.iter().map(|l| self.tokenize(l)).collect();
        self.proba_for_tokens(&model, &docs)
    }

    /// The corpus's current generation (0 until the first ingest).
    pub fn generation(&self) -> Generation {
        self.ingest.lock().generation()
    }

    /// Ingest a batch of raw text documents as the corpus's next
    /// generation and classify them.
    ///
    /// The documents are tokenized against the frozen fit vocabulary and
    /// scored by exactly the per-document path `classify` uses, so each
    /// returned prediction is byte-identical to `classify` on the same
    /// line. Only then is the batch stamped as the next [`DeltaCorpus`]
    /// generation; a scoring error leaves the generation where it was.
    /// The stamp lock is held across scoring, so concurrent ingests are
    /// serialized and their receipts are gap-free. The serving rule never
    /// refits and scores each document alone, and no document is kept, so
    /// an ingest costs O(delta) time and O(1) retained memory.
    pub fn ingest(&self, lines: &[String]) -> Result<Ingested, EngineError> {
        let _stage = structmine_store::context::stage_guard("engine/ingest");
        let model = self.serve_model()?; // transductive methods refuse here
        let mut stamp = self.ingest.lock();
        let docs: Vec<Vec<TokenId>> = lines.iter().map(|l| self.tokenize(l)).collect();
        let probs = self.proba_for_tokens(&model, &docs)?;
        let delta = stamp.next_delta(docs.into_iter().map(Doc::from_tokens).collect());
        let generation = stamp.apply(delta).map_err(EngineError::Delta)?;
        structmine_store::obs::counter_add("engine.generation", 1);
        structmine_store::obs::counter_add("engine.ingested_docs", lines.len() as u64);
        Ok(Ingested {
            generation,
            predictions: probs.iter().map(|p| self.to_prediction(p)).collect(),
        })
    }

    /// The method's predictions for the *fit* dataset — exactly what the
    /// method's memoized `run` pipeline has always produced, so bench
    /// tables keep their bytes. Computed once and cached.
    pub fn fitted_predictions(&self) -> Result<Arc<Vec<usize>>, EngineError> {
        if let Some(p) = self.preds.lock().as_ref() {
            return Ok(Arc::clone(p));
        }
        let d = &self.dataset;
        let preds = match self.method {
            MethodKind::XClass => self.xclass_output()?.predictions.clone(),
            MethodKind::LotClass => {
                let mut cfg = LotClass {
                    exec: self.exec,
                    ..Default::default()
                };
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                cfg.run(d, self.plm_ref()?).predictions
            }
            MethodKind::Prompt => {
                let mut cfg = PromptClass {
                    exec: self.exec,
                    ..Default::default()
                };
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                cfg.run(d, self.plm_ref()?)?.predictions
            }
            MethodKind::Match => baselines::bert_simple_match(d, self.plm_ref()?),
            MethodKind::WeSTClass => {
                let wv = loaders::standard_word_vectors(d);
                let mut cfg = WeSTClass {
                    exec: self.exec,
                    ..Default::default()
                };
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                cfg.run(d, &d.supervision_names(), &wv).predictions
            }
            MethodKind::ConWea => {
                let mut cfg = ConWea {
                    exec: self.exec,
                    ..Default::default()
                };
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                cfg.run(d, &d.supervision_keywords(), self.plm_ref()?)
                    .predictions
            }
            MethodKind::Supervised => {
                let features = common::plm_features_with(d, self.plm_ref()?, &self.exec);
                baselines::supervised(d, &features, self.seed.unwrap_or(0))
            }
        };
        let preds = Arc::new(preds);
        *self.preds.lock() = Some(Arc::clone(&preds));
        Ok(preds)
    }

    /// The full X-Class output (final, -Rep, and -Align predictions) for
    /// the fit dataset — the bench tables' ablation rows. Errors unless
    /// this engine hosts X-Class. Computed once and cached.
    pub fn xclass_output(&self) -> Result<Arc<XClassOutput>, EngineError> {
        if self.method != MethodKind::XClass {
            return Err(EngineError::WrongMethod {
                wanted: "xclass_output",
                hosted: self.method.name(),
            });
        }
        if let Some(out) = self.xout.lock().as_ref() {
            return Ok(Arc::clone(out));
        }
        let out = Arc::new(self.xclass_config().run(&self.dataset, self.plm_ref()?));
        *self.xout.lock() = Some(Arc::clone(&out));
        Ok(out)
    }

    /// Compute (and persist) one shard of the fit corpus's mean-rep matrix
    /// (DESIGN §12): the [`DocMeanRepsShard`] stage for this worker's
    /// index-ordered document range, run through the shared artifact store.
    /// The artifact is content-addressed on the range, so a restarted
    /// worker resumes from whatever its previous incarnation published.
    pub fn shard_encode(&self, shard_index: usize, shard_count: usize) -> Result<(), EngineError> {
        let plm = self.plm_ref()?;
        let range = self.checked_range(shard_index, shard_count)?;
        structmine_store::global().run(&DocMeanRepsShard {
            model: plm.as_ref(),
            corpus: &self.dataset.corpus,
            range,
            // Shard encoding pre-computes the *fit* corpus reps, and
            // fitting always runs Exact — publish under the key the fit
            // will read, whatever tier this engine serves queries at.
            exec: self.fit_exec(),
        });
        Ok(())
    }

    /// Merge the `shard_count` shard artifacts in index order and publish
    /// the result under the canonical [`DocMeanReps`] key. Because every
    /// row is a per-document computation, the merged matrix is bitwise
    /// identical to an unsharded run — downstream consumers (method fits,
    /// bench tables) find it warm and cannot tell the difference.
    pub fn shard_merge(&self, shard_count: usize) -> Result<(), EngineError> {
        if shard_count == 0 {
            return Err(EngineError::Internal {
                what: "cannot merge zero shards".into(),
            });
        }
        let plm = self.plm_ref()?;
        let corpus = &self.dataset.corpus;
        let store = structmine_store::global();
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(corpus.len());
        for index in 0..shard_count {
            let range = self.checked_range(index, shard_count)?;
            let shard = store.run(&DocMeanRepsShard {
                model: plm.as_ref(),
                corpus,
                range,
                exec: self.fit_exec(),
            });
            rows.extend((0..shard.rows()).map(|r| shard.row(r).to_vec()));
        }
        let merged = structmine_plm::repr::rows_to_matrix(rows, plm.config.d_model);
        store.publish(
            &DocMeanReps {
                model: plm.as_ref(),
                corpus,
                // Same key the Exact fit computes and reads (see
                // `shard_encode`).
                exec: self.fit_exec(),
            },
            merged,
        );
        Ok(())
    }

    fn checked_range(
        &self,
        index: usize,
        count: usize,
    ) -> Result<std::ops::Range<usize>, EngineError> {
        if count == 0 || index >= count {
            return Err(EngineError::Internal {
                what: format!("shard {index} of {count} is out of range"),
            });
        }
        Ok(shard_range(self.dataset.corpus.len(), index, count))
    }

    /// The policy the serving-rule fit runs under: the engine's thread
    /// count, but always Exact precision (fitting is adaptation).
    fn fit_exec(&self) -> structmine_linalg::ExecPolicy {
        self.exec.with_precision(Precision::Exact)
    }

    fn plm_ref(&self) -> Result<&Arc<MiniPlm>, EngineError> {
        self.plm.as_ref().ok_or_else(|| EngineError::Internal {
            what: "the hosted method reached for the PLM but none was loaded".into(),
        })
    }

    fn xclass_config(&self) -> XClass {
        let mut cfg = XClass {
            exec: self.exec,
            ..Default::default()
        };
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg
    }

    fn tokenize(&self, line: &str) -> Vec<TokenId> {
        structmine_text::tokenize::encode(line, &self.dataset.corpus.vocab)
            .into_iter()
            .filter(|&t| t != structmine_text::vocab::UNK)
            .collect()
    }

    fn to_prediction(&self, probs: &[f32]) -> Prediction {
        let class = vector::argmax(probs).unwrap_or(0);
        Prediction {
            class,
            label: self.dataset.labels.names[class].clone(),
            confidence: probs.get(class).copied().unwrap_or(0.0),
        }
    }

    /// Fit (once) and return the serving rule.
    ///
    /// Fitting is *adaptation*, and adaptation always runs Exact: the
    /// serving rule (pseudo-labels, cluster assignments, classifier
    /// weights) is bitwise identical across precision tiers, and the Fast
    /// tier applies only to query-time encoding. This keeps the tolerance
    /// harness's bounds attributable to the approximation itself instead
    /// of a chaotic fit cascade, and lets both tiers correctly share the
    /// fit's cached artifacts (they are the same computation).
    fn serve_model(&self) -> Result<Arc<ServeModel>, EngineError> {
        let mut slot = self.model.lock();
        if let Some(m) = slot.as_ref() {
            return Ok(Arc::clone(m));
        }
        let fit_exec = self.fit_exec();
        let model = match self.method {
            MethodKind::XClass => {
                let mut cfg = self.xclass_config();
                cfg.exec = fit_exec;
                ServeModel::XClass(cfg.fit_model(&self.dataset, self.plm_ref()?))
            }
            MethodKind::LotClass => {
                let mut cfg = LotClass {
                    exec: fit_exec,
                    ..Default::default()
                };
                if let Some(s) = self.seed {
                    cfg.seed = s;
                }
                ServeModel::LotClass(cfg.fit_model(&self.dataset, self.plm_ref()?))
            }
            MethodKind::Prompt => ServeModel::Prompt,
            MethodKind::Match => {
                let plm = self.plm_ref()?;
                let mut prototypes = Matrix::zeros(self.name_tokens.len(), plm.config.d_model);
                for (c, name) in self.name_tokens.iter().enumerate() {
                    prototypes
                        .row_mut(c)
                        .copy_from_slice(&plm.mean_embed(name, Precision::Exact));
                }
                ServeModel::Match { prototypes }
            }
            MethodKind::WeSTClass | MethodKind::ConWea | MethodKind::Supervised => {
                return Err(EngineError::Unsupported {
                    method: self.method.name(),
                })
            }
        };
        let model = Arc::new(model);
        *slot = Some(Arc::clone(&model));
        Ok(model)
    }

    /// Per-document probability rows for already-tokenized documents.
    /// Every branch applies an independent per-document rule via
    /// index-ordered chunking, so the rows are bitwise independent of
    /// batch composition and thread count.
    fn proba_for_tokens(
        &self,
        model: &ServeModel,
        docs: &[Vec<TokenId>],
    ) -> Result<Vec<Vec<f32>>, EngineError> {
        Ok(match model {
            ServeModel::XClass(m) => {
                let reps = self.plm_ref()?.encode_docs(docs, &self.exec);
                reps.iter().map(|r| m.predict_proba(&r.tokens)).collect()
            }
            ServeModel::LotClass(m) => self
                .plm_ref()?
                .mean_embed_docs(docs, &self.exec)
                .iter()
                .map(|rep| m.predict_proba(rep))
                .collect(),
            ServeModel::Prompt => {
                let plm = self.plm_ref()?;
                let vocab = &self.dataset.corpus.vocab;
                let prec = self.exec.precision();
                // A missing template word is per-vocabulary, not
                // per-document: surface it once, before fanning out.
                structmine_plm::prompt::validate_templates(vocab).map_err(|e| {
                    EngineError::Internal {
                        what: e.to_string(),
                    }
                })?;
                let n_classes = self.name_tokens.len();
                par_map_chunks(&self.exec, docs, |_, toks| {
                    sharpened_softmax(
                        structmine_plm::prompt::rtd_label_scores(
                            plm,
                            toks,
                            &self.name_tokens,
                            vocab,
                            prec,
                        )
                        // Unreachable: templates were validated above.
                        .unwrap_or_else(|_| vec![0.0; n_classes]),
                    )
                })
            }
            ServeModel::Match { prototypes } => self
                .plm_ref()?
                .mean_embed_docs(docs, &self.exec)
                .iter()
                .map(|rep| {
                    let scores: Vec<f32> = (0..prototypes.rows())
                        .map(|c| vector::cosine(rep, prototypes.row(c)))
                        .collect();
                    sharpened_softmax(scores)
                })
                .collect(),
        })
    }
}

/// Turn raw per-class scores into a probability row, with the same
/// sharpening PromptClass applies before its softmax.
fn sharpened_softmax(mut scores: Vec<f32>) -> Vec<f32> {
    for s in &mut scores {
        *s *= SCORE_SHARPNESS;
    }
    stats::softmax_inplace(&mut scores);
    scores
}

/// Format one classified line the way both the CLI and the server emit it:
/// `label<TAB>confidence<TAB>document`. Serving responses byte-match CLI
/// output because both go through this one function.
pub fn format_prediction_line(pred: &Prediction, line: &str) -> String {
    format!("{}\t{:.6}\t{}", pred.label, pred.confidence, line)
}

/// Build the fixed fit dataset for an [`EngineSource::Labels`] engine: a
/// reference corpus from the standard synthetic world (the same world the
/// shared PLM pretrained on), labeled only by the given names.
fn labels_dataset(labels: &[String]) -> Result<Dataset, EngineError> {
    if labels.len() < 2 {
        return Err(EngineError::InvalidLabels(
            "need at least two labels".into(),
        ));
    }
    let mut corpus = structmine_text::synth::pretraining_corpus(200, 17);
    for doc in &mut corpus.docs {
        if doc.labels.is_empty() {
            doc.labels = vec![0]; // placeholder; gold labels are unknown
        }
    }
    let name_tokens: Vec<Vec<TokenId>> = labels
        .iter()
        .map(|l| {
            structmine_text::tokenize::encode(l, &corpus.vocab)
                .into_iter()
                .filter(|&t| t != structmine_text::vocab::UNK)
                .collect()
        })
        .collect();
    if name_tokens.iter().any(|t| t.is_empty()) {
        return Err(EngineError::InvalidLabels(
            "every label must contain at least one standard-world word \
             (try e.g. sports, business, technology, politics, health)"
                .into(),
        ));
    }
    let n = corpus.len();
    Ok(Dataset {
        name: "labels".into(),
        corpus,
        labels: structmine_text::LabelSet {
            names: labels.to_vec(),
            name_words: labels.iter().map(|l| vec![l.clone()]).collect(),
            keywords: labels.iter().map(|l| vec![l.clone()]).collect(),
            descriptions: labels
                .iter()
                .map(|l| format!("category about {l}"))
                .collect(),
        },
        taxonomy: None,
        class_nodes: vec![],
        train_idx: (0..n).collect(),
        test_idx: vec![],
        meta: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_engine(method: MethodKind) -> Engine {
        Engine::load(EngineConfig {
            source: EngineSource::Labels(vec![
                "sports".into(),
                "business".into(),
                "technology".into(),
            ]),
            method,
            plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
            seed: None,
            exec: ExecPolicy::default(),
        })
        .unwrap()
    }

    #[test]
    fn labels_engine_classifies_with_confidence() {
        let engine = test_engine(MethodKind::Match);
        let lines = vec![
            "the team won the game in the final match".to_string(),
            "the company reported strong market earnings".to_string(),
        ];
        let preds = engine.classify(&lines).unwrap();
        assert_eq!(preds.len(), 2);
        for p in &preds {
            assert!(p.class < 3);
            assert!(p.confidence > 0.0 && p.confidence <= 1.0);
            assert_eq!(p.label, engine.labels()[p.class]);
        }
    }

    #[test]
    fn invalid_label_is_rejected_with_guidance() {
        let err = Engine::load(EngineConfig {
            source: EngineSource::Labels(vec!["sports".into(), "zzzzqqq".into()]),
            method: MethodKind::Match,
            plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
            seed: None,
            exec: ExecPolicy::default(),
        })
        .err()
        .unwrap();
        assert!(err.to_string().contains("standard-world word"));
    }

    #[test]
    fn transductive_methods_refuse_to_serve() {
        let engine = Engine::load(EngineConfig {
            source: EngineSource::Recipe {
                name: "agnews".into(),
                scale: 0.05,
                seed: 1,
            },
            method: MethodKind::WeSTClass,
            plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
            seed: None,
            exec: ExecPolicy::default(),
        })
        .unwrap();
        let err = engine
            .classify(&["some document".to_string()])
            .err()
            .unwrap();
        assert!(matches!(
            err,
            EngineError::Unsupported {
                method: "westclass"
            }
        ));
        assert!(matches!(
            engine.ingest(&["some document".to_string()]),
            Err(EngineError::Unsupported {
                method: "westclass"
            })
        ));
        assert_eq!(engine.generation(), 0, "a refused ingest takes no stamp");
    }

    fn test_engine_threads(method: MethodKind, threads: usize) -> Engine {
        Engine::load(EngineConfig {
            source: EngineSource::Labels(vec![
                "sports".into(),
                "business".into(),
                "technology".into(),
            ]),
            method,
            plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
            seed: None,
            exec: ExecPolicy::with_threads(threads),
        })
        .unwrap()
    }

    fn stream_lines() -> Vec<String> {
        vec![
            "the team won the game in the final match".to_string(),
            "the company reported strong market earnings".to_string(),
            "the new software system runs on every computer".to_string(),
            "the coach praised the players after the season".to_string(),
        ]
    }

    #[test]
    fn ingest_predictions_match_classify_bitwise() {
        for method in [MethodKind::Match, MethodKind::XClass, MethodKind::Prompt] {
            let engine = test_engine(method);
            let lines = stream_lines();
            let classified = engine.classify(&lines).unwrap();
            let ingested = engine.ingest(&lines).unwrap();
            assert_eq!(ingested.generation, 1);
            assert_eq!(
                ingested.predictions,
                classified,
                "{} ingest diverged from classify",
                method.name()
            );
        }
    }

    #[test]
    fn k_ingests_equal_one_ingest_across_thread_counts() {
        let lines = stream_lines();
        // One engine takes the stream as two deltas, another as one; a
        // third runs at a different thread count. All predictions must be
        // byte-identical, and the generation counters must reflect the
        // split.
        let split = test_engine_threads(MethodKind::Match, 1);
        let mut split_preds = split.ingest(&lines[..2]).unwrap().predictions;
        split_preds.extend(split.ingest(&lines[2..]).unwrap().predictions);
        assert_eq!(split.generation(), 2);

        let whole = test_engine_threads(MethodKind::Match, 4);
        let whole_preds = whole.ingest(&lines).unwrap().predictions;
        assert_eq!(whole.generation(), 1);

        assert_eq!(split_preds, whole_preds);
        assert_eq!(whole_preds, whole.classify(&lines).unwrap());
    }

    #[test]
    fn concurrent_ingests_get_gap_free_receipts() {
        let engine = test_engine(MethodKind::Match);
        engine.warm().unwrap();
        let lines = stream_lines();
        // 4 threads x 3 ingests of 1..=4 lines each, released together: the
        // stamp lock is held across scoring, so the 12 receipts are exactly
        // 1..=12 and each thread sees its own receipts in call order.
        let start = std::sync::Barrier::new(4);
        let mut receipts: Vec<Generation> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (engine, lines, start) = (&engine, &lines, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mine: Vec<Generation> = (0..3)
                            .map(|k| {
                                let batch = &lines[(t + k) % lines.len()..];
                                let ingested = engine.ingest(batch).unwrap();
                                assert_eq!(ingested.predictions, engine.classify(batch).unwrap());
                                ingested.generation
                            })
                            .collect();
                        assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        receipts.sort_unstable();
        assert_eq!(receipts, (1..=12).collect::<Vec<_>>());
        assert_eq!(engine.generation(), 12);
    }

    #[test]
    fn classify_is_unchanged_by_ingestion() {
        let engine = test_engine(MethodKind::Match);
        let probe = vec!["the market rallied after the earnings report".to_string()];
        let before = engine.classify(&probe).unwrap();
        engine.ingest(&stream_lines()).unwrap();
        let after = engine.classify(&probe).unwrap();
        assert_eq!(before, after, "ingest must not move the serving rule");
    }

    #[test]
    fn generation_starts_at_zero_and_counts_deltas() {
        let engine = test_engine(MethodKind::Match);
        assert_eq!(engine.generation(), 0);
        let ingested = engine.ingest(&stream_lines()[..1]).unwrap();
        assert_eq!((ingested.generation, ingested.predictions.len()), (1, 1));
        assert_eq!(engine.generation(), 1);
    }

    #[test]
    fn shard_merge_publishes_the_canonical_matrix_bitwise() {
        let engine = test_engine(MethodKind::Match);
        for i in 0..3 {
            engine.shard_encode(i, 3).unwrap();
        }
        engine.shard_merge(3).unwrap();
        let plm = engine.plm_ref().unwrap();
        let stage = DocMeanReps {
            model: plm.as_ref(),
            corpus: &engine.dataset.corpus,
            exec: ExecPolicy::serial(),
        };
        use structmine_store::Stage as _;
        let published: Arc<Matrix> = structmine_store::global()
            .peek(&stage.key(), stage.persistence())
            .expect("merge must publish the canonical DocMeanReps artifact");
        assert_eq!(published.data(), stage.compute().data());
        assert!(engine.shard_encode(3, 3).is_err(), "index out of range");
        assert!(engine.shard_merge(0).is_err(), "zero shards is invalid");
    }

    #[test]
    fn format_line_is_stable() {
        let p = Prediction {
            class: 0,
            label: "sports".into(),
            confidence: 0.75,
        };
        assert_eq!(
            format_prediction_line(&p, "the game"),
            "sports\t0.750000\tthe game"
        );
    }
}
