//! TaxoClass — hierarchical multi-label text classification using only
//! class names (Shen et al., NAACL 2021).
//!
//! The taxonomy is a DAG with potentially thousands of classes, so users
//! cannot provide keywords per class; only names (and descriptions) exist.
//! TaxoClass:
//! 1. scores document–class relevance with an **NLI relevance model**
//!    (premise = document, hypothesis = the class name/description);
//! 2. shrinks the search space **top-down**: starting from the root's
//!    children, only the top-k relevant children are expanded per level;
//! 3. identifies per-document **core classes** — the most confidently
//!    relevant candidates;
//! 4. trains a multi-label classifier on core classes and **generalizes by
//!    self-training**, with ancestor closure enforced on the outputs.

use crate::common;
use crate::error::MethodError;
use structmine_linalg::exec::{par_map_chunks, ExecPolicy};
use structmine_linalg::{vector, Matrix, Precision};
use structmine_nn::graph::Graph;
use structmine_nn::params::{Adam, Binding, ParamStore};
use structmine_plm::MiniPlm;
use structmine_text::taxonomy::NodeId;
use structmine_text::vocab::TokenId;
use structmine_text::Dataset;

/// TaxoClass hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TaxoClass {
    /// Children expanded per level during top-down search.
    pub beam: usize,
    /// Relevance threshold for core classes.
    pub core_threshold: f32,
    /// Self-training iterations after the initial fit.
    pub self_train_iters: usize,
    /// Decision threshold on the sigmoid outputs.
    pub predict_threshold: f32,
    /// Training epochs per fitting round.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Execution policy for the relevance search and corpus encode (thread
    /// count; output is bitwise identical for any value).
    pub exec: ExecPolicy,
}

impl Default for TaxoClass {
    fn default() -> Self {
        TaxoClass {
            beam: 2,
            core_threshold: 0.55,
            self_train_iters: 1,
            predict_threshold: 0.5,
            epochs: 25,
            seed: 111,
            exec: ExecPolicy::default(),
        }
    }
}

impl structmine_store::StableHash for TaxoClass {
    /// Every hyper-parameter plus the policy's precision tier. The thread
    /// count is excluded (it cannot change outputs), but the precision
    /// tier swaps in approximate PLM inference kernels and *does* change
    /// bits — Exact and Fast runs must never share a cache entry.
    fn stable_hash(&self, h: &mut structmine_store::StableHasher) {
        self.beam.stable_hash(h);
        self.core_threshold.stable_hash(h);
        self.self_train_iters.stable_hash(h);
        self.predict_threshold.stable_hash(h);
        self.epochs.stable_hash(h);
        self.seed.stable_hash(h);
        self.exec.precision().stable_hash(h);
    }
}

/// TaxoClass outputs.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct TaxoClassOutput {
    /// Predicted label sets per document (ancestor-closed).
    pub label_sets: Vec<Vec<usize>>,
    /// Top-1 predicted class per document.
    pub top1: Vec<usize>,
    /// Core classes identified per document (diagnostic).
    pub core_classes: Vec<Vec<usize>>,
}

impl TaxoClass {
    /// Run TaxoClass on a DAG dataset, memoized through the global artifact
    /// store (keyed on dataset, PLM weights, and every hyper-parameter).
    /// Errors on a flat dataset.
    pub fn run(&self, dataset: &Dataset, plm: &MiniPlm) -> Result<TaxoClassOutput, MethodError> {
        use structmine_store::StableHash;
        let hier = common::hier_view(dataset, "TaxoClass")?;
        Ok(crate::pipeline::run_memoized(
            "taxoclass/predict",
            |h| {
                h.write_u128(dataset.fingerprint());
                h.write_u128(plm.fingerprint());
                self.stable_hash(h);
            },
            || self.run_validated(dataset, plm, &hier),
        ))
    }

    /// Run TaxoClass on a DAG dataset, bypassing the artifact store.
    pub fn run_uncached(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
    ) -> Result<TaxoClassOutput, MethodError> {
        let hier = common::hier_view(dataset, "TaxoClass")?;
        Ok(self.run_validated(dataset, plm, &hier))
    }

    /// The algorithm proper, over a pre-validated hierarchy.
    fn run_validated(
        &self,
        dataset: &Dataset,
        plm: &MiniPlm,
        hier: &common::HierView<'_>,
    ) -> TaxoClassOutput {
        let _stage = structmine_store::context::stage_guard("taxoclass/run");
        let taxonomy = hier.taxonomy;
        let n_classes = dataset.n_classes();
        let hypotheses = class_hypotheses(dataset);

        let class_of_node = |node: NodeId| -> usize { hier.class_of(node) };

        // ------------------------------------------------------------------
        // 1+2. Top-down relevance search per document.
        // ------------------------------------------------------------------
        let n = dataset.corpus.len();
        let candidates = structmine_store::context::with_stage_label("taxoclass/search", || {
            top_down_search(dataset, plm, &hypotheses, self.beam, &self.exec, hier)
        });

        // ------------------------------------------------------------------
        // 3. Core classes.
        // ------------------------------------------------------------------
        let core_classes: Vec<Vec<usize>> = candidates
            .iter()
            .map(|kept| {
                let mut core: Vec<usize> = kept
                    .iter()
                    .filter(|&&(_, rel)| rel >= self.core_threshold)
                    .map(|&(c, _)| c)
                    .collect();
                if core.is_empty() {
                    // Guarantee at least the single most relevant candidate.
                    if let Some(&(c, _)) = kept
                        .iter()
                        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    {
                        core.push(c);
                    }
                }
                core
            })
            .collect();

        // ------------------------------------------------------------------
        // 4. Multi-label classifier + self-training with ancestor closure.
        // ------------------------------------------------------------------
        let _sub = structmine_store::context::stage_guard("taxoclass/self-train");
        let features = common::plm_features_with(dataset, plm, &self.exec);
        let mut clf = MultiLabelHead::new(features.cols(), n_classes, self.seed);

        // Initial targets: core classes (+ ancestors) positive, everything
        // outside the candidate pool negative, candidates-but-not-core
        // unknown (masked out with weight 0 via 0.5 targets).
        let mut targets = Matrix::filled(n, n_classes, 0.0);
        for (i, core) in core_classes.iter().enumerate() {
            let mut positives = std::collections::HashSet::new();
            for &c in core {
                positives.insert(c);
                for anc in taxonomy.ancestors(dataset.class_nodes[c]) {
                    positives.insert(class_of_node(anc));
                }
            }
            for c in positives {
                targets.set(i, c, 1.0);
            }
            // Non-core candidates: soft 0.5 (uncertain).
            for &(c, _) in &candidates[i] {
                if targets.get(i, c) == 0.0 {
                    targets.set(i, c, 0.5);
                }
            }
        }
        clf.fit(&features, &targets, self.epochs, self.seed);

        for it in 0..self.self_train_iters {
            let probs = clf.predict_proba(&features);
            // Confident predictions become the next round's targets.
            let mut next_targets = Matrix::zeros(n, n_classes);
            for i in 0..n {
                for c in 0..n_classes {
                    let p = probs.get(i, c);
                    next_targets.set(
                        i,
                        c,
                        if p > 0.8 {
                            1.0
                        } else if p < 0.2 {
                            0.0
                        } else {
                            p
                        },
                    );
                }
            }
            clf.fit(
                &features,
                &next_targets,
                self.epochs / 2,
                self.seed ^ (it as u64 + 1),
            );
        }

        // Predictions with ancestor closure.
        let probs = clf.predict_proba(&features);
        let mut label_sets = Vec::with_capacity(n);
        let mut top1 = Vec::with_capacity(n);
        for i in 0..n {
            let row = probs.row(i);
            let mut set: Vec<usize> = (0..n_classes)
                .filter(|&c| row[c] >= self.predict_threshold)
                .collect();
            let best = vector::argmax(row).unwrap_or(0);
            if !set.contains(&best) {
                set.push(best);
            }
            // Ancestor closure.
            let mut closed: std::collections::HashSet<usize> = set.iter().copied().collect();
            for &c in &set {
                for anc in taxonomy.ancestors(dataset.class_nodes[c]) {
                    closed.insert(class_of_node(anc));
                }
            }
            let mut set: Vec<usize> = closed.into_iter().collect();
            set.sort_unstable();
            label_sets.push(set);
            top1.push(best);
        }

        TaxoClassOutput {
            label_sets,
            top1,
            core_classes,
        }
    }
}

/// Top-down beam search per document: expand only the `beam` most relevant
/// children per taxonomy level, scored by NLI entailment between document
/// and class hypothesis. Documents are independent, so they are shared
/// across the policy's threads; results stay in document order.
fn top_down_search(
    dataset: &Dataset,
    plm: &MiniPlm,
    hypotheses: &[Vec<TokenId>],
    beam: usize,
    policy: &ExecPolicy,
    hier: &common::HierView<'_>,
) -> Vec<Vec<(usize, f32)>> {
    let taxonomy = hier.taxonomy;
    let class_of_node = |node: NodeId| -> usize { hier.class_of(node) };
    par_map_chunks(policy, &dataset.corpus.docs, |_, doc| {
        let mut frontier = vec![taxonomy.root()];
        let mut kept: Vec<(usize, f32)> = Vec::new();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for node in frontier.drain(..) {
                let children = taxonomy.children(node);
                if children.is_empty() {
                    continue;
                }
                let mut scored: Vec<(NodeId, f32)> = children
                    .iter()
                    .map(|&ch| {
                        let c = class_of_node(ch);
                        (
                            ch,
                            plm.nli_entail_prob(&doc.tokens, &hypotheses[c], Precision::Exact),
                        )
                    })
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for &(ch, rel) in scored.iter().take(beam) {
                    let c = class_of_node(ch);
                    if !kept.iter().any(|&(k, _)| k == c) {
                        kept.push((c, rel));
                        next.push(ch);
                    }
                }
            }
            frontier = next;
        }
        kept
    })
}

/// Hypothesis token sequence per class: name plus description words.
pub fn class_hypotheses(dataset: &Dataset) -> Vec<Vec<TokenId>> {
    let names = dataset.label_name_tokens();
    let descs = crate::baselines::label_description_tokens(dataset);
    names
        .into_iter()
        .zip(descs)
        .map(|(mut n, d)| {
            n.extend(d.into_iter().take(8));
            n.dedup();
            n
        })
        .collect()
}

/// A sigmoid multi-label head over fixed features (shared by TaxoClass and
/// its semi-supervised baselines).
pub struct MultiLabelHead {
    store: ParamStore,
    w: structmine_nn::params::ParamId,
    b: structmine_nn::params::ParamId,
    d_in: usize,
    n_classes: usize,
}

impl MultiLabelHead {
    /// Create a linear sigmoid head.
    pub fn new(d_in: usize, n_classes: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = structmine_linalg::rng::seeded(seed);
        let w = store.xavier("w", d_in, n_classes, &mut rng);
        let b = store.zeros("b", 1, n_classes);
        MultiLabelHead {
            store,
            w,
            b,
            d_in,
            n_classes,
        }
    }

    /// Fit against element-wise BCE targets in `[0, 1]`.
    pub fn fit(&mut self, x: &Matrix, targets: &Matrix, epochs: usize, seed: u64) {
        assert_eq!(x.cols(), self.d_in);
        assert_eq!(targets.cols(), self.n_classes);
        let mut adam = Adam::new(&self.store, 5e-2, 5.0);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = structmine_linalg::rng::seeded(seed);
        use rand::seq::SliceRandom;
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(64) {
                let xb = x.select_rows(chunk);
                let tb = targets.select_rows(chunk);
                let mut g = Graph::new();
                let mut binding = Binding::new();
                let xl = g.leaf(xb);
                let w = self.store.bind(&mut g, self.w, &mut binding);
                let b = self.store.bind(&mut g, self.b, &mut binding);
                let xw = g.matmul(xl, w);
                let logits = g.add_row_broadcast(xw, b);
                let loss = g.sigmoid_bce(logits, &tb);
                g.backward(loss);
                adam.step(&mut self.store, &g, &binding);
            }
        }
    }

    /// Per-class sigmoid probabilities.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let xl = g.leaf(x.clone());
        let w = self.store.bind(&mut g, self.w, &mut binding);
        let b = self.store.bind(&mut g, self.b, &mut binding);
        let xw = g.matmul(xl, w);
        let logits = g.add_row_broadcast(xw, b);
        let mut out = g.value(logits).clone();
        for v in out.data_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
        out
    }
}

/// Hier-0Shot-TC baseline: top-down NLI relevance without core-class
/// training — the candidates themselves (ancestor-closed, thresholded) are
/// the prediction.
pub fn hier_zero_shot(
    dataset: &Dataset,
    plm: &MiniPlm,
    beam: usize,
) -> Result<TaxoClassOutput, MethodError> {
    let hier = common::hier_view(dataset, "Hier-0Shot-TC")?;
    let method = TaxoClass {
        beam,
        self_train_iters: 0,
        ..Default::default()
    };
    let hypotheses = class_hypotheses(dataset);
    let candidates = top_down_search(dataset, plm, &hypotheses, beam, &method.exec, &hier);
    let mut label_sets = Vec::new();
    let mut top1 = Vec::new();
    for kept in &candidates {
        let mut set: Vec<usize> = kept
            .iter()
            .filter(|&&(_, rel)| rel >= method.core_threshold)
            .map(|&(c, _)| c)
            .collect();
        let best = kept
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(c, _)| c)
            .unwrap_or(0);
        if !set.contains(&best) {
            set.push(best);
        }
        set.sort_unstable();
        label_sets.push(set.clone());
        top1.push(best);
    }
    Ok(TaxoClassOutput {
        label_sets,
        top1,
        core_classes: Vec::new(),
    })
}

/// Semi-supervised baseline: the multi-label head trained on a fraction of
/// the gold-labeled training split (SS-PCEM / Semi-BERT rows).
pub fn semi_supervised(
    dataset: &Dataset,
    plm: &MiniPlm,
    fraction: f32,
    seed: u64,
) -> TaxoClassOutput {
    let n_classes = dataset.n_classes();
    let features = common::plm_features(dataset, plm);
    let n_train = ((dataset.train_idx.len() as f32) * fraction).ceil() as usize;
    let idx: Vec<usize> = dataset.train_idx.iter().copied().take(n_train).collect();
    let mut targets = Matrix::zeros(idx.len(), n_classes);
    for (r, &i) in idx.iter().enumerate() {
        for &c in &dataset.corpus.docs[i].labels {
            targets.set(r, c, 1.0);
        }
    }
    let x = features.select_rows(&idx);
    let mut head = MultiLabelHead::new(features.cols(), n_classes, seed);
    head.fit(&x, &targets, 30, seed);
    let probs = head.predict_proba(&features);
    let mut label_sets = Vec::new();
    let mut top1 = Vec::new();
    for i in 0..probs.rows() {
        let row = probs.row(i);
        let mut set: Vec<usize> = (0..n_classes).filter(|&c| row[c] >= 0.5).collect();
        let best = vector::argmax(row).unwrap_or(0);
        if !set.contains(&best) {
            set.push(best);
        }
        set.sort_unstable();
        label_sets.push(set);
        top1.push(best);
    }
    TaxoClassOutput {
        label_sets,
        top1,
        core_classes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use structmine_eval::{example_f1, precision_at_1_sets};
    use structmine_plm::cache::{pretrained, Tier};
    use structmine_text::synth::recipes;

    fn eval(d: &Dataset, out: &TaxoClassOutput) -> (f32, f32) {
        let pred: Vec<Vec<usize>> = d
            .test_idx
            .iter()
            .map(|&i| out.label_sets[i].clone())
            .collect();
        let top1: Vec<usize> = d.test_idx.iter().map(|&i| out.top1[i]).collect();
        let gold = d.test_gold_sets();
        (example_f1(&pred, &gold), precision_at_1_sets(&top1, &gold))
    }

    #[test]
    fn taxoclass_beats_chance_on_dag() {
        let d = recipes::amazon_taxonomy(0.08, 71).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = TaxoClass::default().run(&d, &plm).unwrap();
        let (f1, p1) = eval(&d, &out);
        assert!(f1 > 0.25, "Example-F1 {f1}");
        assert!(p1 > 0.3, "P@1 {p1}");
    }

    #[test]
    fn predictions_are_ancestor_closed() {
        let d = recipes::dbpedia_taxonomy(0.06, 72).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = TaxoClass::default().run(&d, &plm).unwrap();
        let tax = d.taxonomy.as_ref().unwrap();
        for set in &out.label_sets {
            for &c in set {
                for anc in tax.ancestors(d.class_nodes[c]) {
                    let ac = d.class_nodes.iter().position(|&n| n == anc).unwrap();
                    assert!(set.contains(&ac), "missing ancestor {ac} in {set:?}");
                }
            }
        }
    }

    #[test]
    fn hier_zero_shot_is_weaker_or_equal() {
        let d = recipes::amazon_taxonomy(0.06, 73).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let full = TaxoClass::default().run(&d, &plm).unwrap();
        let zs = hier_zero_shot(&d, &plm, 2).unwrap();
        let (f1_full, _) = eval(&d, &full);
        let (f1_zs, _) = eval(&d, &zs);
        assert!(
            f1_full >= f1_zs - 0.08,
            "TaxoClass {f1_full} should not badly trail zero-shot {f1_zs}"
        );
    }

    #[test]
    fn semi_supervised_baseline_runs() {
        let d = recipes::amazon_taxonomy(0.05, 74).unwrap();
        let plm = pretrained(Tier::Test, 0);
        let out = semi_supervised(&d, &plm, 0.3, 7);
        let (f1, p1) = eval(&d, &out);
        assert!(f1 > 0.2 && p1 > 0.2, "semi-supervised f1 {f1} p1 {p1}");
    }
}
