//! Parameter storage and the Adam optimizer.
//!
//! Models own a [`ParamStore`]; each training step binds parameters into a
//! fresh [`Graph`] as leaves (recording the mapping in a
//! [`Binding`]), runs forward/backward, and calls [`Adam::step`] to apply
//! the leaf gradients back onto the store.

use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use structmine_linalg::{rng as lrng, Matrix, PackedMatrix};
use structmine_store::obs;

/// Handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(usize);

/// Named parameter matrices.
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
    /// Weight-write generation. Every mutation entry point — [`Self::value_mut`],
    /// [`Self::import_values`], and [`Adam::step`] — bumps it, and the pack
    /// cache below is keyed on it, so a panel packed from an old value is
    /// unreachable after any write: the next [`Self::prepacked`] call sees the
    /// generation mismatch and drops the whole cache before repacking.
    generation: u64,
    /// Cached pre-packed weight panels, shared with inference tapes via `Arc`
    /// so an in-flight forward pass keeps its panels alive even if a
    /// concurrent-looking write invalidates the cache between calls.
    packs: Mutex<PackCache>,
}

/// Generation-keyed cache of [`PackedMatrix`] panels: one slot per column
/// group of parameters (a single parameter is a group of one), and one per
/// parameter packed transposed.
#[derive(Default)]
struct PackCache {
    generation: u64,
    cols: HashMap<Vec<ParamId>, Arc<PackedMatrix>>,
    transposed: HashMap<ParamId, Arc<PackedMatrix>>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter with an explicit initial value.
    pub fn add(&mut self, name: &str, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.to_string());
        ParamId(self.values.len() - 1)
    }

    /// Register a parameter with Xavier/Glorot-style Gaussian init.
    pub fn xavier(&mut self, name: &str, rows: usize, cols: usize, rng: &mut StdRng) -> ParamId {
        let std = (2.0 / (rows + cols) as f32).sqrt();
        let mut m = Matrix::zeros(rows, cols);
        lrng::fill_gaussian(rng, m.data_mut(), std);
        self.add(name, m)
    }

    /// Register a zero-initialized parameter (biases).
    pub fn zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::zeros(rows, cols))
    }

    /// Register a ones-initialized parameter (layer-norm gains).
    pub fn ones(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::filled(rows, cols, 1.0))
    }

    /// Current value.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value (for manual updates, e.g. embedding freezing).
    ///
    /// Counts as a weight write: any cached pre-packed panels are
    /// invalidated before the next [`Self::prepacked`] lookup.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.note_weight_write();
        &mut self.values[id.0]
    }

    /// Parameter name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn n_scalars(&self) -> usize {
        self.values.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// Snapshot all parameter values (for serialization).
    pub fn export_values(&self) -> Vec<Matrix> {
        self.values.clone()
    }

    /// Restore parameter values from a snapshot taken on an identically
    /// constructed store.
    ///
    /// # Panics
    /// Panics if the snapshot's shapes do not match.
    pub fn import_values(&mut self, values: Vec<Matrix>) {
        assert_eq!(values.len(), self.values.len(), "parameter count mismatch");
        self.note_weight_write();
        for (cur, new) in self.values.iter_mut().zip(values) {
            assert_eq!(cur.shape(), new.shape(), "parameter shape mismatch");
            *cur = new;
        }
    }

    /// Current weight-write generation (bumped by every mutation entry
    /// point; see the `generation` field).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record that parameter values may have changed. Cheap: the pack cache
    /// is invalidated lazily, at the next [`Self::prepacked`] lookup.
    fn note_weight_write(&mut self) {
        self.generation = self.generation.wrapping_add(1);
    }

    /// The parameter's value pre-packed into panel layout for
    /// [`Graph::matmul_prepacked`] (`x · W`). Packed once per weight
    /// generation and cached; any write through [`Self::value_mut`],
    /// [`Self::import_values`], or [`Adam::step`] drops the cache, so a
    /// returned pack always reflects the current value.
    pub fn prepacked(&self, id: ParamId) -> Arc<PackedMatrix> {
        self.prepacked_cols(std::slice::from_ref(&id))
    }

    /// The column group `[W_0 | W_1 | …]` of `ids` (all with the same row
    /// count) pre-packed for one wide `x · W`. Each output column is the
    /// same ascending-`k` sum the per-parameter product computes, so the
    /// wide product is bitwise equal to the narrow ones side by side.
    /// Cached per weight generation exactly like [`Self::prepacked`].
    pub fn prepacked_cols(&self, ids: &[ParamId]) -> Arc<PackedMatrix> {
        let mut cache = self.pack_cache();
        if let Some(packed) = cache.cols.get(ids) {
            return Arc::clone(packed);
        }
        let values: Vec<&Matrix> = ids.iter().map(|id| &self.values[id.0]).collect();
        let packed = Arc::new(PackedMatrix::pack(&Matrix::hstack(&values)));
        cache.cols.insert(ids.to_vec(), Arc::clone(&packed));
        packed
    }

    /// Like [`Self::prepacked`], but packed for the transposed product
    /// `x · Wᵀ` — e.g. a tied vocab table used as an output projection.
    /// The orientation is baked into the panels, so the same
    /// [`Graph::matmul_prepacked`] entry point consumes both kinds.
    pub fn prepacked_t(&self, id: ParamId) -> Arc<PackedMatrix> {
        let mut cache = self.pack_cache();
        let packed = cache
            .transposed
            .entry(id)
            .or_insert_with(|| Arc::new(PackedMatrix::pack_transposed(&self.values[id.0])));
        Arc::clone(packed)
    }

    /// The pack cache, emptied first if a weight write happened since it
    /// was filled.
    fn pack_cache(&self) -> std::sync::MutexGuard<'_, PackCache> {
        let mut cache = self.packs.lock().unwrap_or_else(|e| e.into_inner());
        if cache.generation != self.generation {
            let stale = cache.cols.len() + cache.transposed.len();
            if stale > 0 {
                obs::counter_add("linalg.prepack.invalidations", stale as u64);
            }
            cache.cols.clear();
            cache.transposed.clear();
            cache.generation = self.generation;
        }
        cache
    }

    /// Copy the parameter into `graph` as a leaf (through the graph's buffer
    /// arena) and, on recording bindings, record the pairing for the
    /// optimizer step.
    pub fn bind(&self, graph: &mut Graph, id: ParamId, binding: &mut Binding) -> NodeId {
        let node = graph.leaf_copied(&self.values[id.0]);
        if binding.recording {
            binding.pairs.push((id, node));
        }
        node
    }
}

/// The `(parameter, graph leaf)` pairs of one training step.
pub struct Binding {
    pairs: Vec<(ParamId, NodeId)>,
    recording: bool,
}

impl Default for Binding {
    fn default() -> Self {
        Self::new()
    }
}

impl Binding {
    /// An empty binding that records parameter/leaf pairs for a later
    /// optimizer step.
    pub fn new() -> Self {
        Binding {
            pairs: Vec::new(),
            recording: true,
        }
    }

    /// A non-recording binding for forward-only passes: no pairs are kept
    /// (nothing will read gradients), which lets layers take cheaper paths —
    /// e.g. [`crate::layers::Embedding::forward`] gathers just the rows it
    /// needs instead of copying the whole table into the tape.
    pub fn inference() -> Self {
        Binding {
            pairs: Vec::new(),
            recording: false,
        }
    }

    /// Whether this binding records pairs (false for [`Binding::inference`]).
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Iterate over recorded pairs.
    pub fn pairs(&self) -> &[(ParamId, NodeId)] {
        &self.pairs
    }
}

/// Adam optimizer state.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    clip: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Create an optimizer for `store` with the given learning rate and a
    /// global-norm gradient clip (0 disables clipping).
    pub fn new(store: &ParamStore, lr: f32, clip: f32) -> Self {
        let m = store
            .values
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let v = store
            .values
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip,
            t: 0,
            m,
            v,
        }
    }

    /// Override the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update using the gradients accumulated on `graph` for every
    /// parameter recorded in `binding`.
    pub fn step(&mut self, store: &mut ParamStore, graph: &Graph, binding: &Binding) {
        self.t += 1;
        // The loop below writes store.values directly (bypassing value_mut),
        // so invalidate any cached pre-packed panels here.
        store.note_weight_write();
        // A parameter may be bound into the tape several times (e.g. once
        // per sequence in a batch); its true gradient is the sum over all
        // of its leaves, applied as ONE update.
        let mut by_param: std::collections::HashMap<usize, Matrix> =
            std::collections::HashMap::new();
        for &(pid, nid) in binding.pairs.iter() {
            // A leaf with no accumulated gradient still participates as an
            // all-zeros contribution (its entry must exist so m/v decay even
            // when the parameter got no signal this step).
            match by_param.entry(pid.0) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    match graph.grad_ref(nid) {
                        Some(g) => e.get_mut().axpy(1.0, g),
                        // Keep the historical `+= 0.0` pass so bit patterns
                        // match the old zeros-materializing path exactly
                        // (it canonicalizes any -0.0 to +0.0).
                        None => {
                            for x in e.get_mut().data_mut() {
                                *x += 0.0;
                            }
                        }
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let g = match graph.grad_ref(nid) {
                        Some(g) => g.clone(),
                        None => {
                            let p = &store.values[pid.0];
                            Matrix::zeros(p.rows(), p.cols())
                        }
                    };
                    e.insert(g);
                }
            }
        }
        let mut grads: Vec<(usize, Matrix)> = by_param.into_iter().collect();
        grads.sort_by_key(|&(pid, _)| pid);

        if self.clip > 0.0 {
            let norm: f32 = grads
                .iter()
                .map(|(_, g)| g.data().iter().map(|x| x * x).sum::<f32>())
                .sum::<f32>()
                .sqrt();
            if norm > self.clip {
                let s = self.clip / norm;
                for (_, g) in &mut grads {
                    g.scale_in_place(s);
                }
            }
        }

        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (pid, grad) in grads {
            let m = &mut self.m[pid];
            let v = &mut self.v[pid];
            let p = &mut store.values[pid];
            for ((pv, gv), (mv, vv)) in p
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut().iter_mut()))
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let mhat = *mv / bc1;
                let vhat = *vv / bc2;
                *pv -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize ||x - target||^2 via the tape and Adam; must converge.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::filled(1, 3, 5.0));
        let target = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        let mut adam = Adam::new(&store, 0.1, 0.0);
        for _ in 0..300 {
            let mut g = Graph::new();
            let mut binding = Binding::new();
            let xl = store.bind(&mut g, x, &mut binding);
            let t = g.leaf(target.clone());
            let neg_t = g.scale(t, -1.0);
            let diff = g.add(xl, neg_t);
            let sq = g.mul(diff, diff);
            // Sum to scalar via matmul with ones.
            let ones = g.leaf(Matrix::filled(3, 1, 1.0));
            let loss = g.matmul(sq, ones);
            g.backward(loss);
            adam.step(&mut store, &g, &binding);
        }
        for (a, b) in store.value(x).data().iter().zip(target.data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_clipping_bounds_update_magnitude() {
        let mut store = ParamStore::new();
        let x = store.add("x", Matrix::filled(1, 1, 0.0));
        let mut adam = Adam::new(&store, 1.0, 0.001);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let xl = store.bind(&mut g, x, &mut binding);
        // loss = 1000 * x  ->  raw grad 1000, clipped to 0.001.
        let loss = g.scale(xl, 1000.0);
        g.backward(loss);
        adam.step(&mut store, &g, &binding);
        // Adam normalizes by sqrt(v), so magnitude is bounded by lr regardless;
        // the real check is that clipping didn't blow up and sign is right.
        assert!(store.value(x).get(0, 0) < 0.0);
        assert!(store.value(x).get(0, 0).abs() <= 1.0);
    }

    #[test]
    fn xavier_init_scales_with_fan() {
        let mut store = ParamStore::new();
        let mut rng = lrng::seeded(1);
        let big = store.xavier("big", 400, 400, &mut rng);
        let small = store.xavier("small", 4, 4, &mut rng);
        let std_of = |m: &Matrix| {
            let mean: f32 = m.data().iter().sum::<f32>() / m.data().len() as f32;
            (m.data()
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f32>()
                / m.data().len() as f32)
                .sqrt()
        };
        assert!(std_of(store.value(big)) < std_of(store.value(small)));
    }

    /// Repeated prepack lookups between writes share one allocation; any
    /// write entry point makes the next lookup repack from current values.
    #[test]
    fn prepack_cache_shares_until_any_write_entry_point() {
        let mut store = ParamStore::new();
        let id = store.add("w", Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let a = store.prepacked(id);
        let b = store.prepacked(id);
        assert!(Arc::ptr_eq(&a, &b), "warm lookup must hit the cache");
        let t = store.prepacked_t(id);
        assert!(!Arc::ptr_eq(&a, &t), "orientations are distinct slots");

        // value_mut invalidates even without an actual data change.
        let gen_before = store.generation();
        store.value_mut(id).set(0, 0, 9.0);
        assert!(store.generation() > gen_before);
        let c = store.prepacked(id);
        assert!(!Arc::ptr_eq(&a, &c), "stale panels must not be reused");

        // import_values invalidates.
        let snapshot = store.export_values();
        let d = store.prepacked(id);
        store.import_values(snapshot);
        let e = store.prepacked(id);
        assert!(!Arc::ptr_eq(&d, &e));

        // Adam::step invalidates (it writes store.values directly).
        let f = store.prepacked(id);
        let mut adam = Adam::new(&store, 0.1, 0.0);
        let mut g = Graph::new();
        let mut binding = Binding::new();
        let leaf = store.bind(&mut g, id, &mut binding);
        let ones_l = g.leaf(Matrix::filled(1, 2, 1.0));
        let ones_r = g.leaf(Matrix::filled(2, 1, 1.0));
        let rowsum = g.matmul(ones_l, leaf);
        let loss = g.matmul(rowsum, ones_r);
        g.backward(loss);
        adam.step(&mut store, &g, &binding);
        let h = store.prepacked(id);
        assert!(!Arc::ptr_eq(&f, &h));
    }

    use proptest::prelude::*;
    use structmine_linalg::Rhs;

    proptest! {
        /// A weight write followed by a prepack lookup always yields panels
        /// packed from the *current* value: multiplying through the cached
        /// pack is bitwise identical to packing fresh from the raw matrix,
        /// and a column group's wide product is bitwise identical to its
        /// members' products side by side.
        #[test]
        fn prepack_after_write_matches_fresh_pack_bitwise(
            vals in proptest::collection::vec(-2.0f32..2.0, 12),
            write_at in proptest::collection::vec(0usize..12, 1..4),
            write_vals in proptest::collection::vec(-2.0f32..2.0, 4),
        ) {
            let mut store = ParamStore::new();
            let id = store.add("w", Matrix::from_vec(3, 4, vals));
            let other = store.add("u", Matrix::from_rows(&[&[1.5, 0.0], &[-2.0, 0.5], &[0.25, 3.0]]));
            // Warm the cache, then mutate through value_mut.
            let _warm = store.prepacked(id);
            let _warm_t = store.prepacked_t(id);
            let _warm_cols = store.prepacked_cols(&[id, other]);
            for (&i, &v) in write_at.iter().zip(&write_vals) {
                store.value_mut(id).set(i / 4, i % 4, v);
            }
            let policy = structmine_linalg::ExecPolicy::serial();
            let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0]]);
            let mut got = Matrix::zeros(1, 4);
            x.matmul_into(Rhs::Packed(&store.prepacked(id)), &policy, &mut got);
            let fresh = PackedMatrix::pack(store.value(id));
            let mut want = Matrix::zeros(1, 4);
            x.matmul_into(Rhs::Packed(&fresh), &policy, &mut want);
            for (a, b) in got.data().iter().zip(want.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            // Transposed orientation: x (1×4) · Wᵀ (4×3).
            let xt = Matrix::from_rows(&[&[0.5, -1.0, 2.0, 0.25]]);
            let mut got_t = Matrix::zeros(1, 3);
            xt.matmul_into(Rhs::Packed(&store.prepacked_t(id)), &policy, &mut got_t);
            let fresh_t = PackedMatrix::pack_transposed(store.value(id));
            let mut want_t = Matrix::zeros(1, 3);
            xt.matmul_into(Rhs::Packed(&fresh_t), &policy, &mut want_t);
            for (a, b) in got_t.data().iter().zip(want_t.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            let mut wide = Matrix::zeros(1, 6);
            x.matmul_into(Rhs::Packed(&store.prepacked_cols(&[id, other])), &policy, &mut wide);
            let mut narrow = Matrix::zeros(1, 2);
            x.matmul_into(Rhs::Dense(store.value(other)), &policy, &mut narrow);
            let side_by_side: Vec<u32> = want.data().iter().chain(narrow.data()).map(|v| v.to_bits()).collect();
            let wide_bits: Vec<u32> = wide.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(wide_bits, side_by_side);
        }
    }

    #[test]
    fn store_accessors() {
        let mut store = ParamStore::new();
        assert!(store.is_empty());
        let id = store.zeros("b", 2, 3);
        assert_eq!(store.name(id), "b");
        assert_eq!(store.n_scalars(), 6);
        assert_eq!(store.len(), 1);
        store.value_mut(id).set(0, 0, 9.0);
        assert_eq!(store.value(id).get(0, 0), 9.0);
    }
}
