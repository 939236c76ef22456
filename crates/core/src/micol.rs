//! MICoL — metadata-induced contrastive learning for zero-shot multi-label
//! text classification (Zhang et al., WWW 2022).
//!
//! No labeled documents exist; labels have names and descriptions, and
//! documents carry metadata (venues, authors, references). Instead of
//! teaching the model "what is what", MICoL teaches it "what is similar to
//! what": meta-paths over the metadata graph define similar
//! (document, document) pairs —
//! `P→P←P` (two papers citing the same paper) and `P←(PP)→P` (two papers
//! cited by the same paper) — and an encoder is fine-tuned contrastively on
//! those pairs. At inference, labels are ranked by encoder similarity
//! between the document and the label's name + description.
//!
//! Two encoders mirror the paper: a **bi-encoder** (projection over frozen
//! PLM features, InfoNCE with in-batch negatives) and a **cross-encoder**
//! (an interaction MLP over both representations, trained pair-wise).

use crate::common;
use rand::Rng;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{rng as lrng, vector, Matrix, Precision};
use structmine_nn::classifiers::{MlpClassifier, TrainConfig};
use structmine_nn::graph::Graph;
use structmine_nn::params::{Adam, Binding, ParamStore};
use structmine_plm::MiniPlm;
use structmine_text::Dataset;

/// Meta-path defining positive document pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaPath {
    /// `P→P←P`: two documents citing the same document.
    SharedReference,
    /// `P←(PP)→P`: two documents cited by the same document.
    CoCited,
    /// Documents sharing a venue.
    SharedVenue,
    /// Documents sharing an author.
    SharedAuthor,
}

/// Encoder architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoder {
    /// Projection + cosine ranking, InfoNCE training.
    Bi,
    /// Interaction MLP scoring each (doc, label) pair.
    Cross,
}

/// MICoL hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct MiCoL {
    /// Encoder architecture.
    pub encoder: Encoder,
    /// Meta-path for positive pairs.
    pub meta_path: MetaPath,
    /// Maximum positive pairs mined.
    pub max_pairs: usize,
    /// Contrastive training steps.
    pub steps: usize,
    /// Pairs per batch (bi-encoder: in-batch negatives).
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
    /// Execution policy for the PLM encodes (thread count; output is
    /// bitwise identical for any value).
    pub exec: ExecPolicy,
}

impl Default for MiCoL {
    fn default() -> Self {
        MiCoL {
            encoder: Encoder::Bi,
            meta_path: MetaPath::SharedReference,
            max_pairs: 4000,
            steps: 300,
            batch: 16,
            lr: 3e-3,
            seed: 131,
            exec: ExecPolicy::default(),
        }
    }
}

impl structmine_store::StableHash for MiCoL {
    /// Every hyper-parameter plus the policy's precision tier. The thread
    /// count is excluded (it cannot change outputs), but the precision
    /// tier swaps in approximate PLM inference kernels and *does* change
    /// bits — Exact and Fast runs must never share a cache entry.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        h.write_u64(match self.encoder {
            Encoder::Bi => 0,
            Encoder::Cross => 1,
        });
        h.write_u64(match self.meta_path {
            MetaPath::SharedReference => 0,
            MetaPath::CoCited => 1,
            MetaPath::SharedVenue => 2,
            MetaPath::SharedAuthor => 3,
        });
        self.max_pairs.stable_hash(h);
        self.steps.stable_hash(h);
        self.batch.stable_hash(h);
        self.lr.stable_hash(h);
        self.seed.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }
}

impl MiCoL {
    /// Run MICoL: returns, for every document, the full label ranking
    /// (best first). Memoized through the global artifact store (keyed on
    /// dataset, PLM weights, and every hyper-parameter).
    pub fn run(&self, dataset: &Dataset, plm: &MiniPlm) -> Vec<Vec<usize>> {
        use structmine_store::StableHash;
        crate::pipeline::run_memoized(
            "micol/rank",
            |h| {
                h.write_u128(dataset.fingerprint());
                h.write_u128(plm.fingerprint());
                self.stable_hash(h);
            },
            || self.run_uncached(dataset, plm),
        )
    }

    /// Run MICoL, bypassing the artifact store.
    pub fn run_uncached(&self, dataset: &Dataset, plm: &MiniPlm) -> Vec<Vec<usize>> {
        use structmine_store::context::with_stage_label;
        let _stage = structmine_store::context::stage_guard("micol/run");
        let features = with_stage_label("micol/features", || {
            common::plm_features_with(dataset, plm, &self.exec)
        });
        let label_feats = label_features_with(dataset, plm, &self.exec);
        let pairs = with_stage_label("micol/mine-pairs", || {
            mine_pairs(dataset, self.meta_path, self.max_pairs, self.seed)
        });
        with_stage_label("micol/rank", || match self.encoder {
            Encoder::Bi => {
                let proj = train_bi_encoder(&features, &pairs, self, features.cols());
                rank_by_projection(&features, &label_feats, &proj)
            }
            Encoder::Cross => {
                let scorer = train_cross_encoder(&features, &pairs, self);
                rank_by_cross(&features, &label_feats, &scorer)
            }
        })
    }
}

/// Mine positive document pairs along a meta-path.
pub fn mine_pairs(dataset: &Dataset, path: MetaPath, cap: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    match path {
        MetaPath::SharedReference => {
            // Group docs by each reference they cite. BTreeMap: the groups
            // are iterated below, and hash iteration order would make the
            // shuffled subsample differ from process to process.
            let mut by_ref: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (i, doc) in dataset.corpus.docs.iter().enumerate() {
                for &r in &doc.refs {
                    by_ref.entry(r).or_default().push(i);
                }
            }
            for group in by_ref.values() {
                for w in group.windows(2) {
                    pairs.push((w[0], w[1]));
                }
            }
        }
        MetaPath::CoCited => {
            for doc in &dataset.corpus.docs {
                for w in doc.refs.windows(2) {
                    pairs.push((w[0], w[1]));
                }
            }
        }
        MetaPath::SharedVenue => {
            let mut by_venue: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (i, doc) in dataset.corpus.docs.iter().enumerate() {
                if let Some(v) = doc.venue {
                    by_venue.entry(v).or_default().push(i);
                }
            }
            for group in by_venue.values() {
                for w in group.windows(2) {
                    pairs.push((w[0], w[1]));
                }
            }
        }
        MetaPath::SharedAuthor => {
            let mut by_author: std::collections::BTreeMap<usize, Vec<usize>> =
                std::collections::BTreeMap::new();
            for (i, doc) in dataset.corpus.docs.iter().enumerate() {
                for &a in &doc.authors {
                    by_author.entry(a).or_default().push(i);
                }
            }
            for group in by_author.values() {
                for w in group.windows(2) {
                    pairs.push((w[0], w[1]));
                }
            }
        }
    }
    // Deterministic subsample.
    use rand::seq::SliceRandom;
    let mut rng = lrng::seeded(seed);
    pairs.shuffle(&mut rng);
    pairs.truncate(cap);
    pairs
}

/// PLM features of each label's name + description.
pub fn label_features(dataset: &Dataset, plm: &MiniPlm) -> Matrix {
    label_features_with(dataset, plm, ExecPolicy::global())
}

/// [`label_features`] under an explicit execution policy.
pub fn label_features_with(dataset: &Dataset, plm: &MiniPlm, policy: &ExecPolicy) -> Matrix {
    let hyps = crate::taxoclass::class_hypotheses(dataset);
    let rows = par_map_chunks(policy, &hyps, |_, h| plm.mean_embed(h, Precision::Exact));
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    Matrix::from_rows(&refs)
}

/// InfoNCE training of a linear projection over frozen features.
fn train_bi_encoder(features: &Matrix, pairs: &[(usize, usize)], cfg: &MiCoL, d: usize) -> Matrix {
    let mut store = ParamStore::new();
    let mut rng = lrng::seeded(cfg.seed);
    // Initialize near identity so the frozen-feature geometry is the prior.
    let mut init = Matrix::identity(d);
    for v in init.data_mut() {
        *v += lrng::gaussian(&mut rng) * 0.01;
    }
    let w = store.add("proj", init);
    let mut adam = Adam::new(&store, cfg.lr, 5.0);
    let temp = (d as f32).sqrt();
    if pairs.is_empty() {
        return store.value(w).clone();
    }
    // Anchor strength: labels are encoded by the same projection but never
    // appear in training pairs, so W is regularized toward identity to keep
    // the doc/label geometry compatible (the role full fine-tuning's small
    // learning rate plays in the paper).
    let anchor = 0.5f32;
    let identity = Matrix::identity(d);
    for _ in 0..cfg.steps {
        let batch: Vec<(usize, usize)> = (0..cfg.batch)
            .map(|_| pairs[rng.gen_range(0..pairs.len())])
            .collect();
        let a_idx: Vec<usize> = batch.iter().map(|&(a, _)| a).collect();
        let b_idx: Vec<usize> = batch.iter().map(|&(_, b)| b).collect();
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let wl = store.bind(&mut g, w, &mut binding);
        let fa = g.leaf(features.select_rows(&a_idx));
        let fb = g.leaf(features.select_rows(&b_idx));
        let pa = g.matmul(fa, wl);
        let pb = g.matmul(fb, wl);
        let pbt = g.transpose(pb);
        let logits = g.matmul(pa, pbt);
        let scaled = g.scale(logits, 1.0 / temp);
        let targets = Matrix::identity(cfg.batch);
        let nce = g.softmax_cross_entropy(scaled, &targets);
        // || W - I ||^2 anchor.
        let neg_i = g.leaf(identity.scale(-1.0));
        let diff = g.add(wl, neg_i);
        let sq = g.mul(diff, diff);
        let ones_r = g.leaf(Matrix::filled(1, d, 1.0));
        let ones_c = g.leaf(Matrix::filled(d, 1, 1.0));
        let rowsum = g.matmul(ones_r, sq);
        let fro = g.matmul(rowsum, ones_c);
        let penalty = g.scale(fro, anchor / d as f32);
        let loss = g.add(nce, penalty);
        g.backward(loss);
        adam.step(&mut store, &g, &binding);
    }
    store.value(w).clone()
}

fn rank_by_projection(features: &Matrix, labels: &Matrix, proj: &Matrix) -> Vec<Vec<usize>> {
    let pf = features.matmul(proj);
    let pl = labels.matmul(proj);
    (0..pf.rows())
        .map(|i| {
            let scores: Vec<f32> = (0..pl.rows())
                .map(|c| vector::cosine(pf.row(i), pl.row(c)))
                .collect();
            vector::top_k(&scores, pl.rows())
        })
        .collect()
}

/// Interaction features for a (u, v) pair: `[u ⊙ v, |u - v|]`.
fn interaction(u: &[f32], v: &[f32]) -> Vec<f32> {
    let mut out = Vec::with_capacity(u.len() * 2);
    out.extend(u.iter().zip(v).map(|(a, b)| a * b));
    out.extend(u.iter().zip(v).map(|(a, b)| (a - b).abs()));
    out
}

/// Pairwise trained interaction MLP (the cross-encoder stand-in: the true
/// cross-encoder runs the transformer over the concatenated pair; at our
/// scale a late-interaction MLP over frozen features preserves its role —
/// see DESIGN.md).
fn train_cross_encoder(features: &Matrix, pairs: &[(usize, usize)], cfg: &MiCoL) -> MlpClassifier {
    let d = features.cols();
    let mut clf = MlpClassifier::new(2 * d, 32, 2, cfg.seed);
    if pairs.is_empty() {
        return clf;
    }
    let mut rng = lrng::seeded(cfg.seed ^ 3);
    let n_pos = pairs.len().min(cfg.steps * cfg.batch / 2).max(1);
    let mut x_data = Vec::new();
    let mut y = Vec::new();
    for k in 0..n_pos {
        let (a, b) = pairs[k % pairs.len()];
        x_data.extend(interaction(features.row(a), features.row(b)));
        y.push(1usize);
        // Random negative.
        let (na, nb) = (
            rng.gen_range(0..features.rows()),
            rng.gen_range(0..features.rows()),
        );
        x_data.extend(interaction(features.row(na), features.row(nb)));
        y.push(0);
    }
    let x = Matrix::from_vec(y.len(), 2 * d, x_data);
    let targets = structmine_nn::classifiers::one_hot(&y, 2, 0.05);
    clf.fit(
        &x,
        &targets,
        &TrainConfig {
            epochs: 15,
            seed: cfg.seed,
            ..Default::default()
        },
    );
    clf
}

fn rank_by_cross(features: &Matrix, labels: &Matrix, scorer: &MlpClassifier) -> Vec<Vec<usize>> {
    let n_labels = labels.rows();
    (0..features.rows())
        .map(|i| {
            let mut x_data = Vec::with_capacity(n_labels * features.cols() * 2);
            for c in 0..n_labels {
                x_data.extend(interaction(features.row(i), labels.row(c)));
            }
            let x = Matrix::from_vec(n_labels, 2 * features.cols(), x_data);
            let probs = scorer.predict_proba(&x);
            let scores: Vec<f32> = (0..n_labels).map(|c| probs.get(c, 1)).collect();
            vector::top_k(&scores, n_labels)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Baselines for the MICoL table
// ---------------------------------------------------------------------------

/// Doc2Vec baseline: PV-DBOW over the corpus with label descriptions
/// appended as extra "documents"; rank by cosine.
pub fn doc2vec_ranking(dataset: &Dataset, seed: u64) -> Vec<Vec<usize>> {
    let hyps = crate::taxoclass::class_hypotheses(dataset);
    let mut corpus = dataset.corpus.clone();
    let n = corpus.len();
    for h in &hyps {
        corpus
            .docs
            .push(structmine_text::Doc::from_tokens(h.clone()));
    }
    let vecs = structmine_embed::docvec::Pvdbow {
        seed,
        ..Default::default()
    }
    .train(&corpus);
    (0..n)
        .map(|i| {
            let scores: Vec<f32> = (0..hyps.len())
                .map(|c| vector::cosine(vecs.row(i), vecs.row(n + c)))
                .collect();
            vector::top_k(&scores, hyps.len())
        })
        .collect()
}

/// Frozen-PLM baseline (the SciBERT / SPECTER-without-training rows): rank
/// by raw representation cosine.
pub fn plm_rep_ranking(dataset: &Dataset, plm: &MiniPlm) -> Vec<Vec<usize>> {
    let features = common::plm_features(dataset, plm);
    let labels = label_features(dataset, plm);
    rank_by_projection(&features, &labels, &Matrix::identity(features.cols()))
}

/// Zero-shot entailment ranking (ZeroShot-Entail row). The entailment
/// matrix is memoized through the global artifact store.
pub fn entail_ranking(dataset: &Dataset, plm: &MiniPlm) -> Vec<Vec<usize>> {
    let hyps = crate::taxoclass::class_hypotheses(dataset);
    let stage = structmine_plm::artifacts::NliEntail {
        model: plm,
        corpus: &dataset.corpus,
        hypotheses: &hyps,
        exec: *ExecPolicy::global(),
    };
    let scores = structmine_store::global().run(&stage);
    (0..scores.rows())
        .map(|i| vector::top_k(scores.row(i), hyps.len()))
        .collect()
}

/// Text-augmentation contrastive baselines (EDA / UDA rows): positive pairs
/// are a document and its word-dropout (EDA) or word-substitution (UDA)
/// corruption — no metadata involved.
pub fn augmentation_contrastive_ranking(
    dataset: &Dataset,
    plm: &MiniPlm,
    substitution: bool,
    seed: u64,
) -> Vec<Vec<usize>> {
    let features = common::plm_features(dataset, plm);
    let mut rng = lrng::seeded(seed);
    // Corrupt every document serially first (the RNG stream must not depend
    // on the thread count), then encode the corrupted copies in parallel.
    let n = dataset.corpus.len();
    let mut aug = Matrix::zeros(n, plm.config.d_model);
    let vocab_len = dataset.corpus.vocab.len();
    let corrupted: Vec<Vec<structmine_text::vocab::TokenId>> = dataset
        .corpus
        .docs
        .iter()
        .map(|doc| {
            doc.tokens
                .iter()
                .filter_map(|&t| {
                    if rng.gen::<f32>() < 0.2 {
                        if substitution {
                            Some(rng.gen_range(
                                structmine_text::vocab::N_SPECIAL as u32..vocab_len as u32,
                            ))
                        } else {
                            None // dropout
                        }
                    } else {
                        Some(t)
                    }
                })
                .collect()
        })
        .collect();
    let aug_rows = par_map_chunks(ExecPolicy::global(), &corrupted, |_, toks| {
        plm.mean_embed(toks, Precision::Exact)
    });
    for (i, row) in aug_rows.iter().enumerate() {
        aug.row_mut(i).copy_from_slice(row);
    }
    // Stack [features; aug] and train the bi-encoder on (i, n+i) pairs.
    let stacked = Matrix::vstack(&[&features, &aug]);
    let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, n + i)).collect();
    let cfg = MiCoL {
        seed,
        ..Default::default()
    };
    let proj = train_bi_encoder(&stacked, &pairs, &cfg, stacked.cols());
    let labels = label_features(dataset, plm);
    rank_by_projection(&features, &labels, &proj)
}

/// Supervised MATCH-style rows: a projection trained with gold labels on a
/// fraction of the training split (softmax over label vectors), standing in
/// for MATCH at 10K/50K/100K/full supervision sizes.
pub fn supervised_match_ranking(
    dataset: &Dataset,
    plm: &MiniPlm,
    fraction: f32,
    seed: u64,
) -> Vec<Vec<usize>> {
    let features = common::plm_features(dataset, plm);
    let labels = label_features(dataset, plm);
    let d = features.cols();
    let n_train = ((dataset.train_idx.len() as f32) * fraction).ceil() as usize;
    let idx: Vec<usize> = dataset
        .train_idx
        .iter()
        .copied()
        .take(n_train.max(1))
        .collect();

    let mut store = ParamStore::new();
    let mut rng = lrng::seeded(seed);
    let mut init = Matrix::identity(d);
    for v in init.data_mut() {
        *v += lrng::gaussian(&mut rng) * 0.01;
    }
    let w = store.add("proj", init);
    let mut adam = Adam::new(&store, 1e-2, 5.0);
    let n_classes = labels.rows();
    let temp = (d as f32).sqrt();
    for _ in 0..300 {
        let batch: Vec<usize> = (0..16).map(|_| idx[rng.gen_range(0..idx.len())]).collect();
        let mut targets = Matrix::zeros(batch.len(), n_classes);
        for (r, &i) in batch.iter().enumerate() {
            let gold = &dataset.corpus.docs[i].labels;
            for &c in gold {
                targets.set(r, c, 1.0 / gold.len() as f32);
            }
        }
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let wl = store.bind(&mut g, w, &mut binding);
        let f = g.leaf(features.select_rows(&batch));
        let l = g.leaf(labels.clone());
        let pf = g.matmul(f, wl);
        let pl = g.matmul(l, wl);
        let plt = g.transpose(pl);
        let logits = g.matmul(pf, plt);
        let scaled = g.scale(logits, 1.0 / temp);
        let loss = g.softmax_cross_entropy(scaled, &targets);
        g.backward(loss);
        adam.step(&mut store, &g, &binding);
    }
    let proj = store.value(w).clone();
    rank_by_projection(&features, &labels, &proj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_eval::{ndcg_at_k, precision_at_k};
    use structmine_plm::cache::{pretrained, Tier};
    use structmine_text::synth::recipes;

    fn eval_p1(d: &Dataset, rankings: &[Vec<usize>]) -> f32 {
        let pred: Vec<Vec<usize>> = d.test_idx.iter().map(|&i| rankings[i].clone()).collect();
        precision_at_k(&pred, &d.test_gold_sets(), 1)
    }

    #[test]
    fn meta_paths_mine_topically_coherent_pairs() {
        let d = recipes::mag_cs(0.1, 90).unwrap();
        for path in [
            MetaPath::SharedReference,
            MetaPath::CoCited,
            MetaPath::SharedVenue,
        ] {
            let pairs = mine_pairs(&d, path, 2000, 1);
            assert!(
                pairs.len() > 20,
                "{path:?} mined too few pairs: {}",
                pairs.len()
            );
            let mut overlap = 0usize;
            for &(a, b) in &pairs {
                let la = &d.corpus.docs[a].labels;
                let lb = &d.corpus.docs[b].labels;
                if la.iter().any(|l| lb.contains(l)) {
                    overlap += 1;
                }
            }
            let frac = overlap as f32 / pairs.len() as f32;
            assert!(frac > 0.5, "{path:?} pairs not coherent: {frac}");
        }
    }

    #[test]
    fn bi_encoder_beats_or_matches_frozen_plm() {
        let d = recipes::mag_cs(0.1, 90).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let frozen = eval_p1(&d, &plm_rep_ranking(&d, &plm));
        let micol = eval_p1(&d, &MiCoL::default().run(&d, &plm));
        assert!(micol > 0.2, "MICoL P@1 {micol}");
        assert!(
            micol >= frozen - 0.08,
            "MICoL {micol} badly trails frozen {frozen}"
        );
    }

    #[test]
    fn cross_encoder_produces_full_rankings() {
        let d = recipes::pubmed(0.06, 93).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let rankings = MiCoL {
            encoder: Encoder::Cross,
            ..Default::default()
        }
        .run(&d, &plm);
        assert_eq!(rankings.len(), d.corpus.len());
        for r in &rankings {
            assert_eq!(r.len(), d.n_classes());
            let set: std::collections::HashSet<_> = r.iter().collect();
            assert_eq!(set.len(), d.n_classes(), "ranking has duplicates");
        }
    }

    #[test]
    fn supervised_match_improves_with_more_data() {
        let d = recipes::mag_cs(0.1, 90).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let small = supervised_match_ranking(&d, &plm, 0.05, 7);
        let large = supervised_match_ranking(&d, &plm, 1.0, 7);
        let gold = d.test_gold_sets();
        let pred = |r: &[Vec<usize>]| -> Vec<Vec<usize>> {
            d.test_idx.iter().map(|&i| r[i].clone()).collect()
        };
        let n_small = ndcg_at_k(&pred(&small), &gold, 3);
        let n_large = ndcg_at_k(&pred(&large), &gold, 3);
        assert!(
            n_large >= n_small - 0.05,
            "more supervision should help: {n_small} -> {n_large}"
        );
    }

    #[test]
    fn doc2vec_baseline_runs() {
        let d = recipes::mag_cs(0.05, 95).unwrap();
        let rankings = doc2vec_ranking(&d, 3);
        assert_eq!(rankings.len(), d.corpus.len());
        let p1 = eval_p1(&d, &rankings);
        assert!((0.0..=1.0).contains(&p1));
    }
}
