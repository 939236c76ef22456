//! The transformer encoder and its task heads.
//!
//! A pre-LN encoder: each block computes
//! `x += MultiHeadAttention(LN(x))` then `x += FFN(LN(x))`, with a final
//! layer norm. Heads:
//! * MLM — tied input/output embeddings plus a per-token bias;
//! * RTD — a linear replaced-token-detection probe per position (ELECTRA);
//! * NLI — a 2-way entail/not-entail classifier on the `[CLS]` state.
//!
//! One sequence per forward call; training batches bind the parameters once
//! per tape and accumulate several sequence losses before the Adam step.

use crate::config::PlmConfig;
use structmine_linalg::{exactmath, vector, Matrix, Precision};
use structmine_nn::graph::{Graph, NodeId};
use structmine_nn::layers::{Embedding, LayerNorm, Linear};
use structmine_nn::params::{Adam, Binding, ParamId, ParamStore};
use structmine_text::vocab::{TokenId, CLS, SEP};

struct Block {
    ln1: LayerNorm,
    // Per-head projection triples (q, k, v), each `d_model x d_head`.
    heads: Vec<(Linear, Linear, Linear)>,
    wo: Linear,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

impl Block {
    /// The per-head projections in head-major `[q_h | k_h | v_h]` order:
    /// the column order of the inference path's one wide QKV matmul.
    fn qkv(&self) -> impl Iterator<Item = &Linear> {
        self.heads.iter().flat_map(|(q, k, v)| [q, k, v])
    }

    /// The weights of [`Self::qkv`], the column group the store packs.
    fn qkv_weights(&self) -> Vec<ParamId> {
        self.qkv().map(Linear::weight).collect()
    }
}

thread_local! {
    /// Per-thread scratch tape shared by the no-gradient inference entry
    /// points. A serving thread (e.g. the serve batcher) runs many forward
    /// passes over its lifetime; holding one tape and [`Graph::reset_to`]-ing
    /// it between passes keeps the node vector's capacity (and, via the
    /// arena, every buffer) alive across batches instead of re-allocating
    /// per document. Reuse is bitwise transparent — property-tested in
    /// `structmine-nn` — and surfaced as `plm.graph_scratch_reuse`.
    static SCRATCH: std::cell::RefCell<Graph> = std::cell::RefCell::new(Graph::new());
}

/// Run `f` on this thread's persistent scratch tape, reset to `precision`.
/// The tape is reset again afterwards so every node buffer returns to the
/// arena immediately. `f` must not re-enter any scratch-using inference
/// entry point (single tape per thread).
fn with_scratch_graph<R>(precision: Precision, f: impl FnOnce(&mut Graph) -> R) -> R {
    SCRATCH.with(|s| {
        let mut g = s.borrow_mut();
        if g.node_capacity() > 0 {
            structmine_store::obs::counter_add("plm.graph_scratch_reuse", 1);
        }
        g.reset_to(precision);
        let out = f(&mut g);
        g.reset();
        out
    })
}

/// The mini pre-trained language model.
pub struct MiniPlm {
    /// Architecture.
    pub config: PlmConfig,
    store: ParamStore,
    tok: Embedding,
    pos: Embedding,
    blocks: Vec<Block>,
    ln_final: LayerNorm,
    mlm_bias: ParamId,
    rtd: Linear,
    nli: Linear,
}

impl MiniPlm {
    /// Initialize a model with random parameters.
    pub fn new(config: PlmConfig) -> Self {
        assert_eq!(
            config.d_model % config.n_heads,
            0,
            "d_model must divide by heads"
        );
        let mut store = ParamStore::new();
        let mut rng = structmine_linalg::rng::seeded(config.seed);
        let tok = Embedding::new(
            &mut store,
            "tok",
            config.vocab_size,
            config.d_model,
            &mut rng,
        );
        let pos = Embedding::new(&mut store, "pos", config.max_len, config.d_model, &mut rng);
        let blocks = (0..config.n_layers)
            .map(|l| {
                let heads = (0..config.n_heads)
                    .map(|h| {
                        (
                            Linear::new(
                                &mut store,
                                &format!("b{l}.h{h}.q"),
                                config.d_model,
                                config.d_head(),
                                &mut rng,
                            ),
                            Linear::new(
                                &mut store,
                                &format!("b{l}.h{h}.k"),
                                config.d_model,
                                config.d_head(),
                                &mut rng,
                            ),
                            Linear::new(
                                &mut store,
                                &format!("b{l}.h{h}.v"),
                                config.d_model,
                                config.d_head(),
                                &mut rng,
                            ),
                        )
                    })
                    .collect();
                Block {
                    ln1: LayerNorm::new(&mut store, &format!("b{l}.ln1"), config.d_model),
                    heads,
                    wo: Linear::new(
                        &mut store,
                        &format!("b{l}.wo"),
                        config.d_model,
                        config.d_model,
                        &mut rng,
                    ),
                    ln2: LayerNorm::new(&mut store, &format!("b{l}.ln2"), config.d_model),
                    ff1: Linear::new(
                        &mut store,
                        &format!("b{l}.ff1"),
                        config.d_model,
                        config.d_ff,
                        &mut rng,
                    ),
                    ff2: Linear::new(
                        &mut store,
                        &format!("b{l}.ff2"),
                        config.d_ff,
                        config.d_model,
                        &mut rng,
                    ),
                }
            })
            .collect();
        let ln_final = LayerNorm::new(&mut store, "ln_final", config.d_model);
        let mlm_bias = store.zeros("mlm_bias", 1, config.vocab_size);
        let rtd = Linear::new(&mut store, "rtd", config.d_model, 1, &mut rng);
        let nli = Linear::new(&mut store, "nli", config.d_model, 2, &mut rng);
        MiniPlm {
            config,
            store,
            tok,
            pos,
            blocks,
            ln_final,
            mlm_bias,
            rtd,
            nli,
        }
    }

    /// Borrow the parameter store (for optimizer construction).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutably borrow the parameter store (for the Adam step).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Deep-copy the model (used for per-corpus adaptation).
    pub fn clone_model(&self) -> MiniPlm {
        let mut copy = MiniPlm::new(self.config);
        copy.import_weights(self.export_weights());
        copy
    }

    /// Snapshot all weights (for the disk cache).
    pub fn export_weights(&self) -> Vec<Matrix> {
        self.store.export_values()
    }

    /// Content fingerprint of the model: architecture plus every weight
    /// value. Two models with the same fingerprint produce bitwise-identical
    /// encodings, so artifact keys built on it can never serve stale
    /// representations. Recomputed on every call (weights are mutable
    /// through [`MiniPlm::store_mut`]); hashing is a few milliseconds,
    /// negligible next to any encoding pass.
    pub fn fingerprint(&self) -> u128 {
        use structmine_store::StableHash;
        let mut h = structmine_store::StableHasher::new();
        self.config.stable_hash(&mut h);
        self.export_weights().stable_hash(&mut h);
        h.finish()
    }

    /// Restore weights exported from an identically configured model.
    pub fn import_weights(&mut self, weights: Vec<Matrix>) {
        self.store.import_values(weights);
    }

    /// Eagerly build every pre-packed weight the inference paths consume
    /// (the QKV column group per block, output/FFN projections, the
    /// transposed token table for tied MLM logits, and the RTD/NLI heads),
    /// so the first serving request pays no packing cost. Idempotent and
    /// cheap when already packed: warm calls are cache hits. Weight writes
    /// after this call invalidate the store's cache; the panels are lazily
    /// rebuilt at next use, so calling this again afterwards is optional.
    pub fn prepack_weights(&self) {
        for block in &self.blocks {
            self.store.prepacked_cols(&block.qkv_weights());
            self.store.prepacked(block.wo.weight());
            self.store.prepacked(block.ff1.weight());
            self.store.prepacked(block.ff2.weight());
        }
        self.store.prepacked_t(self.tok.table());
        self.store.prepacked(self.rtd.weight());
        self.store.prepacked(self.nli.weight());
    }

    /// Build an [`Adam`] optimizer for this model.
    pub fn optimizer(&self, lr: f32) -> Adam {
        Adam::new(&self.store, lr, 1.0)
    }

    /// Truncate a token sequence to fit the positional table, reserving two
    /// slots, and wrap it as `[CLS] .. tokens .. [SEP]`.
    pub fn wrap(&self, tokens: &[TokenId]) -> Vec<TokenId> {
        let body = &tokens[..tokens.len().min(self.config.max_len - 2)];
        let mut seq = Vec::with_capacity(body.len() + 2);
        seq.push(CLS);
        seq.extend_from_slice(body);
        seq.push(SEP);
        seq
    }

    /// Wrap a premise/hypothesis pair: `[CLS] p [SEP] h [SEP]`.
    pub fn wrap_pair(&self, premise: &[TokenId], hypothesis: &[TokenId]) -> Vec<TokenId> {
        let budget = self.config.max_len - 3;
        let h_len = hypothesis.len().min(budget / 2);
        let p_len = premise.len().min(budget - h_len);
        let mut seq = Vec::with_capacity(p_len + h_len + 3);
        seq.push(CLS);
        seq.extend_from_slice(&premise[..p_len]);
        seq.push(SEP);
        seq.extend_from_slice(&hypothesis[..h_len]);
        seq.push(SEP);
        seq
    }

    /// A forward-pass handle over this model's parameters.
    pub fn bound(&self) -> BoundPlm<'_> {
        BoundPlm { model: self }
    }

    /// Run a no-gradient forward pass, returning the final hidden states
    /// (`len x d_model`). The tier selects the tape the forward pass
    /// records on (Exact tapes are bitwise reproducible; Fast tapes use the
    /// approximate inference kernels).
    pub fn encode(&self, tokens: &[TokenId], precision: Precision) -> Matrix {
        with_scratch_graph(precision, |g| {
            let bound = self.bound();
            let h = bound.encode(g, tokens);
            g.take_value(h)
        })
    }

    /// MLM distribution at `position` of the (already wrapped) sequence.
    pub fn mlm_probs(&self, tokens: &[TokenId], position: usize) -> Vec<f32> {
        with_scratch_graph(Precision::Exact, |g| {
            let bound = self.bound();
            let h = bound.encode(g, tokens);
            let logits = bound.mlm_logits(g, h, &[position]);
            let mut probs = g.value(logits).row(0).to_vec();
            structmine_linalg::stats::softmax_inplace(&mut probs);
            probs
        })
    }

    /// Top-`k` MLM predictions `(token, prob)` at `position`, excluding
    /// special tokens.
    pub fn mlm_topk(&self, tokens: &[TokenId], position: usize, k: usize) -> Vec<(TokenId, f32)> {
        let probs = self.mlm_probs(tokens, position);
        let mut scored: Vec<(TokenId, f32)> = probs
            .iter()
            .enumerate()
            .skip(structmine_text::vocab::N_SPECIAL)
            .map(|(t, &p)| (t as TokenId, p))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Top-`k` MLM predictions at several positions with a single encode.
    pub fn mlm_topk_multi(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        k: usize,
    ) -> Vec<Vec<(TokenId, f32)>> {
        if positions.is_empty() {
            return Vec::new();
        }
        with_scratch_graph(Precision::Exact, |g| {
            let bound = self.bound();
            let h = bound.encode(g, tokens);
            let logits = bound.mlm_logits(g, h, positions);
            (0..positions.len())
                .map(|r| {
                    let mut probs = g.value(logits).row(r).to_vec();
                    structmine_linalg::stats::softmax_inplace(&mut probs);
                    let mut scored: Vec<(TokenId, f32)> = probs
                        .iter()
                        .enumerate()
                        .skip(structmine_text::vocab::N_SPECIAL)
                        .map(|(t, &p)| (t as TokenId, p))
                        .collect();
                    scored
                        .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                    scored.truncate(k);
                    scored
                })
                .collect()
        })
    }

    /// Per-position replaced-token probabilities for a wrapped sequence
    /// (sigmoid of the RTD head) at the given tier.
    pub fn rtd_probs(&self, tokens: &[TokenId], precision: Precision) -> Vec<f32> {
        with_scratch_graph(precision, |g| {
            let bound = self.bound();
            let h = bound.encode(g, tokens);
            let logits = bound.rtd_logits(g, h);
            let logits = g.value(logits).data().iter().copied();
            logits.map(exactmath::sigmoid).collect()
        })
    }

    /// Probability that `premise` entails `hypothesis` under the NLI head,
    /// at the given tier.
    pub fn nli_entail_prob(
        &self,
        premise: &[TokenId],
        hypothesis: &[TokenId],
        precision: Precision,
    ) -> f32 {
        let seq = self.wrap_pair(premise, hypothesis);
        with_scratch_graph(precision, |g| {
            let bound = self.bound();
            let h = bound.encode(g, &seq);
            let logits = bound.nli_logits(g, h);
            let mut probs = g.value(logits).row(0).to_vec();
            structmine_linalg::stats::softmax_inplace(&mut probs);
            probs[1]
        })
    }

    /// Average of the final hidden states over real (non-CLS/SEP) positions —
    /// the "average-pooled BERT representation" of the tutorial's figures —
    /// at the given tier.
    pub fn mean_embed(&self, tokens: &[TokenId], precision: Precision) -> Vec<f32> {
        let seq = self.wrap(tokens);
        let h = self.encode(&seq, precision);
        let rows: Vec<&[f32]> = (1..seq.len() - 1).map(|i| h.row(i)).collect();
        if rows.is_empty() {
            return h.row(0).to_vec();
        }
        vector::mean_of(&rows, self.config.d_model)
    }

    /// The *static* (layer-0 table) embedding of a token — the
    /// non-contextual vector methods fall back to for expansion and for the
    /// ConWea WSD ablation.
    pub fn token_embedding(&self, t: TokenId) -> &[f32] {
        self.store.value(self.tok.table()).row(t as usize)
    }
}

// Inference shares one model immutably (`&self` + `Arc`) across the exec
// layer's worker threads; that is sound only while every forward pass keeps
// its mutable state inside the per-call `Graph`. This assertion turns any
// future interior mutability in the model/store into a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MiniPlm>();
};

/// Forward-pass handle over a [`MiniPlm`]'s parameters. Parameters are
/// bound lazily inside each forward call; the training path records the
/// `(param, leaf)` pairs in the caller's [`Binding`].
pub struct BoundPlm<'m> {
    model: &'m MiniPlm,
}

impl BoundPlm<'_> {
    /// Encode a wrapped sequence to final hidden states (`len x d`). Uses a
    /// non-recording binding, so the embedding lookup gathers only the
    /// addressed rows instead of copying the full table into the tape.
    pub fn encode(&self, g: &mut Graph, tokens: &[TokenId]) -> NodeId {
        self.encode_with_binding(g, &mut Binding::inference(), tokens)
    }

    /// Encode while recording parameter bindings (training path).
    pub fn encode_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        tokens: &[TokenId],
    ) -> NodeId {
        let m = self.model;
        let n = tokens.len();
        assert!(n <= m.config.max_len, "sequence too long: {n}");
        let ids: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        let te = m.tok.forward(&m.store, g, binding, &ids);
        let positions: Vec<usize> = (0..n).collect();
        let pe = m.pos.forward(&m.store, g, binding, &positions);
        let mut x = g.add(te, pe);
        let scale = 1.0 / (m.config.d_head() as f32).sqrt();
        for block in &m.blocks {
            let normed = block.ln1.forward(&m.store, g, binding, x);
            let mut ctxs = Vec::with_capacity(m.config.n_heads);
            if binding.is_recording() {
                for (wq, wk, wv) in &block.heads {
                    let q = wq.forward(&m.store, g, binding, normed);
                    let k = wk.forward(&m.store, g, binding, normed);
                    let v = wv.forward(&m.store, g, binding, normed);
                    // q·kᵀ without materializing the transpose, then the
                    // 1/sqrt(d_head) scale fused into the softmax node.
                    let scores = g.matmul_t(q, k);
                    let attn = g.scaled_row_softmax(scores, scale);
                    ctxs.push(g.matmul(attn, v));
                }
            } else {
                // Inference: one wide QKV matmul replaces the 3*n_heads
                // narrow per-head projections (same bits, far better kernel
                // efficiency); heads become column slices. The store packs
                // the weight group once per weight generation, so only the
                // 3*d_model bias row is concatenated per call.
                let packed = m.store.prepacked_cols(&block.qkv_weights());
                let proj = g.matmul_prepacked(normed, &packed);
                let biases: Vec<&Matrix> = block.qkv().map(|l| m.store.value(l.bias())).collect();
                let bias = g.leaf_copied(&Matrix::hstack(&biases));
                let qkv = g.add_row_broadcast(proj, bias);
                let dh = m.config.d_head();
                for h in 0..m.config.n_heads {
                    let q = g.select_cols(qkv, (h * 3) * dh, dh);
                    let k = g.select_cols(qkv, (h * 3 + 1) * dh, dh);
                    let v = g.select_cols(qkv, (h * 3 + 2) * dh, dh);
                    let scores = g.matmul_t(q, k);
                    let attn = g.scaled_row_softmax(scores, scale);
                    ctxs.push(g.matmul(attn, v));
                }
            }
            let ctx = g.concat_cols(&ctxs);
            let attn_out = self.linear(g, binding, &block.wo, ctx);
            x = g.add(x, attn_out);
            let normed2 = block.ln2.forward(&m.store, g, binding, x);
            let f1 = self.linear(g, binding, &block.ff1, normed2);
            let act = g.gelu(f1);
            let f2 = self.linear(g, binding, &block.ff2, act);
            x = g.add(x, f2);
        }
        m.ln_final.forward(&m.store, g, binding, x)
    }

    /// Apply a [`Linear`], routing non-recording (inference) passes through
    /// the store's cached pre-packed weight panels. Per-element arithmetic
    /// is identical either way, so Exact-tier outputs stay bitwise equal to
    /// the recording path.
    fn linear(&self, g: &mut Graph, binding: &mut Binding, lin: &Linear, x: NodeId) -> NodeId {
        if binding.is_recording() {
            lin.forward(&self.model.store, g, binding, x)
        } else {
            lin.forward_prepacked(&self.model.store, g, x)
        }
    }

    /// MLM logits at the given positions: `positions.len() x vocab`, using
    /// the tied token-embedding matrix plus the output bias.
    pub fn mlm_logits(&self, g: &mut Graph, hidden: NodeId, positions: &[usize]) -> NodeId {
        self.mlm_logits_with_binding(g, &mut Binding::inference(), hidden, positions)
    }

    /// MLM logits recording bindings (training path).
    pub fn mlm_logits_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        hidden: NodeId,
        positions: &[usize],
    ) -> NodeId {
        let m = self.model;
        let sel = g.select_rows(hidden, positions);
        if !binding.is_recording() {
            // Tied output projection against the pre-packed (transposed)
            // token table: skips copying the full `vocab x d` table into
            // the tape on every call, with identical per-element bits.
            let packed = m.store.prepacked_t(m.tok.table());
            let logits = g.matmul_prepacked(sel, &packed);
            let bias = g.leaf_copied(m.store.value(m.mlm_bias));
            return g.add_row_broadcast(logits, bias);
        }
        let table = m.tok.bind_table(&m.store, g, binding);
        let logits = g.matmul_t(sel, table);
        let bias = m.store.bind(g, m.mlm_bias, binding);
        g.add_row_broadcast(logits, bias)
    }

    /// RTD logits: one scalar per position (`len x 1`).
    pub fn rtd_logits(&self, g: &mut Graph, hidden: NodeId) -> NodeId {
        self.rtd_logits_with_binding(g, &mut Binding::inference(), hidden)
    }

    /// RTD logits recording bindings.
    pub fn rtd_logits_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        hidden: NodeId,
    ) -> NodeId {
        let rtd = self.model.rtd;
        self.linear(g, binding, &rtd, hidden)
    }

    /// NLI logits from the `[CLS]` row (`1 x 2`; class 1 = entail).
    pub fn nli_logits(&self, g: &mut Graph, hidden: NodeId) -> NodeId {
        self.nli_logits_with_binding(g, &mut Binding::inference(), hidden)
    }

    /// NLI logits recording bindings.
    pub fn nli_logits_with_binding(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        hidden: NodeId,
    ) -> NodeId {
        let cls = g.select_rows(hidden, &[0]);
        let nli = self.model.nli;
        self.linear(g, binding, &nli, cls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MiniPlm {
        MiniPlm::new(PlmConfig::tiny(50))
    }

    #[test]
    fn encode_shapes_are_correct() {
        let m = model();
        let seq = m.wrap(&[7, 8, 9]);
        assert_eq!(seq.first(), Some(&CLS));
        assert_eq!(seq.last(), Some(&SEP));
        let h = m.encode(&seq, Precision::Exact);
        assert_eq!(h.shape(), (5, m.config.d_model));
    }

    #[test]
    fn wrap_truncates_to_max_len() {
        let m = model();
        let long: Vec<TokenId> = (5..200).map(|t| t % 40 + 5).collect();
        let seq = m.wrap(&long);
        assert_eq!(seq.len(), m.config.max_len);
    }

    #[test]
    fn wrap_pair_fits_and_separates() {
        let m = model();
        let p: Vec<TokenId> = (5..40).collect();
        let h: Vec<TokenId> = (10..30).collect();
        let seq = m.wrap_pair(&p, &h);
        assert!(seq.len() <= m.config.max_len);
        assert_eq!(seq.iter().filter(|&&t| t == SEP).count(), 2);
    }

    #[test]
    fn mlm_probs_are_a_distribution() {
        let m = model();
        let seq = m.wrap(&[7, structmine_text::vocab::MASK, 9]);
        let probs = m.mlm_probs(&seq, 2);
        assert_eq!(probs.len(), 50);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn mlm_topk_excludes_special_tokens() {
        let m = model();
        let seq = m.wrap(&[7, structmine_text::vocab::MASK]);
        let top = m.mlm_topk(&seq, 2, 10);
        assert_eq!(top.len(), 10);
        assert!(top
            .iter()
            .all(|&(t, _)| t >= structmine_text::vocab::N_SPECIAL as u32));
    }

    #[test]
    fn fused_inference_encode_matches_recording_path_bitwise() {
        // The inference path runs one fused QKV matmul per block instead of
        // 3 * n_heads per-head projections; both must produce the exact
        // same bits (the fused product computes each element with the same
        // ascending-k summation order).
        let m = model();
        let seq = m.wrap(&[7, 8, 9, 12, 30, 31, 9, 7]);
        let bound = m.bound();
        let mut g = Graph::new();
        let inference = bound.encode(&mut g, &seq);
        let inference = g.take_value(inference);
        let mut g2 = Graph::new();
        let mut binding = Binding::new();
        let recording = bound.encode_with_binding(&mut g2, &mut binding, &seq);
        let recording = g2.take_value(recording);
        assert_eq!(
            inference.data(),
            recording.data(),
            "fused inference encode diverged from the training path"
        );
    }

    #[test]
    fn weight_write_after_prepack_never_serves_stale_panels() {
        // Warm every pack cache (fused QKV, projections, tied table), then
        // mutate weights through the store. Encodes after the write must
        // match a fresh never-prepacked model bitwise — the caches may not
        // serve panels from the overwritten values.
        let mut m = model();
        let seq = m.wrap(&[7, 8, 9, 12]);
        m.prepack_weights();
        let warm = m.encode(&seq, Precision::Exact);
        for pid in [m.blocks[0].ff1.weight(), m.blocks[0].heads[0].0.weight()] {
            let w = m.store.value_mut(pid);
            let v = w.get(0, 0);
            w.set(0, 0, v + 0.5);
        }
        let after = m.encode(&seq, Precision::Exact);
        assert_ne!(warm.data(), after.data(), "write had no effect on encode");
        let mut fresh = MiniPlm::new(m.config);
        fresh.import_weights(m.export_weights());
        assert_eq!(
            after.data(),
            fresh.encode(&seq, Precision::Exact).data(),
            "prepacked encode after a weight write diverged from fresh model"
        );
    }

    #[test]
    fn contextual_representations_depend_on_context() {
        let m = model();
        // Token 9 in two different contexts must embed differently.
        let a = m.encode(&m.wrap(&[9, 7, 7]), Precision::Exact);
        let b = m.encode(&m.wrap(&[9, 30, 31]), Precision::Exact);
        let dist = vector::sq_dist(a.row(1), b.row(1));
        assert!(dist > 1e-4, "contextual reps identical: {dist}");
    }

    #[test]
    fn rtd_and_nli_heads_produce_valid_outputs() {
        let m = model();
        let seq = m.wrap(&[5, 6, 7]);
        let rtd = m.rtd_probs(&seq, Precision::Exact);
        assert_eq!(rtd.len(), seq.len());
        assert!(rtd.iter().all(|&p| (0.0..=1.0).contains(&p)));
        let e = m.nli_entail_prob(&[5, 6, 7], &[8, 9], Precision::Exact);
        assert!((0.0..=1.0).contains(&e));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = model();
        let seq = m.wrap(&[5, 9, 13]);
        assert_eq!(
            m.encode(&seq, Precision::Exact).data(),
            m.encode(&seq, Precision::Exact).data()
        );
    }

    #[test]
    fn scratch_tape_is_reused_across_forward_passes() {
        // Two encodes on one thread must share the scratch tape (counted
        // by plm.graph_scratch_reuse) and still agree bit for bit, and the
        // tape must switch tiers cleanly between passes.
        let m = model();
        let seq = m.wrap(&[5, 9, 13, 21]);
        let first = m.encode(&seq, Precision::Exact);
        let before = structmine_store::obs::counter_value("plm.graph_scratch_reuse");
        let second = m.encode(&seq, Precision::Exact);
        assert!(
            structmine_store::obs::counter_value("plm.graph_scratch_reuse") > before,
            "second encode on this thread must reuse the scratch tape"
        );
        assert_eq!(first.data(), second.data());
        let fast = m.encode(&seq, Precision::Fast);
        let exact_again = m.encode(&seq, Precision::Exact);
        assert_eq!(first.data(), exact_again.data());
        for (e, f) in first.data().iter().zip(fast.data()) {
            assert!((e - f).abs() < 1e-2, "fast diverged: exact={e} fast={f}");
        }
    }

    #[test]
    #[should_panic(expected = "sequence too long")]
    fn overlong_unwrapped_sequence_panics() {
        let m = model();
        let long: Vec<TokenId> = vec![5; 100];
        m.encode(&long, Precision::Exact);
    }
}
