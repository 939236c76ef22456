//! Heterogeneous information network (HIN) embedding.
//!
//! MetaCat views a metadata-rich corpus as a network of typed nodes
//! (documents, words, users, tags, venues, authors, labels) connected by
//! typed edges, and learns one embedding space by maximizing the likelihood
//! of observed edges with negative sampling — the same objective family as
//! PTE, ESim and metapath2vec. Baselines are expressed by restricting which
//! edge types participate in training.

use rand::rngs::StdRng;
use rand::Rng;
use structmine_linalg::{rng as lrng, vector, Matrix};

/// A typed multi-partite graph.
#[derive(Clone, Debug, Default)]
pub struct HinGraph {
    n_nodes: usize,
    partition_names: Vec<String>,
    partitions: Vec<(usize, usize)>,
    edge_type_names: Vec<String>,
    edges: Vec<Vec<(u32, u32)>>,
    node_partition: Vec<usize>,
}

impl HinGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `count` nodes of a new type; returns `(partition id, offset)` —
    /// node ids for this partition are `offset..offset + count`.
    pub fn add_partition(&mut self, name: &str, count: usize) -> (usize, usize) {
        let pid = self.partitions.len();
        let offset = self.n_nodes;
        self.partitions.push((offset, count));
        self.partition_names.push(name.to_string());
        self.n_nodes += count;
        self.node_partition.extend(std::iter::repeat_n(pid, count));
        (pid, offset)
    }

    /// Register an edge type; returns its id.
    pub fn add_edge_type(&mut self, name: &str) -> usize {
        self.edge_type_names.push(name.to_string());
        self.edges.push(Vec::new());
        self.edge_type_names.len() - 1
    }

    /// Add an undirected edge of type `etype` between global node ids.
    pub fn add_edge(&mut self, etype: usize, a: usize, b: usize) {
        debug_assert!(a < self.n_nodes && b < self.n_nodes);
        self.edges[etype].push((a as u32, b as u32));
    }

    /// Total node count.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Partition id of a node.
    pub fn partition_of(&self, node: usize) -> usize {
        self.node_partition[node]
    }

    /// Train embeddings using only the listed edge types (all when empty).
    pub fn embed(&self, cfg: &HinConfig, edge_types: &[usize]) -> Matrix {
        let mut rng = lrng::seeded(cfg.seed);
        let mut emb = Matrix::zeros(self.n_nodes, cfg.dim);
        lrng::fill_gaussian(&mut rng, emb.data_mut(), 0.5 / cfg.dim as f32);
        let mut ctx = Matrix::zeros(self.n_nodes, cfg.dim);

        let active: Vec<usize> = if edge_types.is_empty() {
            (0..self.edges.len()).collect()
        } else {
            edge_types.to_vec()
        };
        // Sample the edge TYPE first (uniformly over non-empty types), then
        // an edge within it — PTE-style alternation. Without this, dense
        // doc-word edges outnumber metadata edges ~30:1 and the joint space
        // degenerates to a text-only embedding.
        let pools: Vec<&Vec<(u32, u32)>> = active
            .iter()
            .map(|&t| &self.edges[t])
            .filter(|p| !p.is_empty())
            .collect();
        if pools.is_empty() {
            return emb;
        }

        let total = cfg.samples.max(1);
        for step in 0..total {
            let lr = cfg.lr * (1.0 - 0.9 * step as f32 / total as f32);
            let pool = pools[step % pools.len()];
            let &(a, b) = &pool[rng.gen_range(0..pool.len())];
            // Update both directions so the embedding is symmetric-ish.
            self.update(
                &mut emb, &mut ctx, a as usize, b as usize, lr, cfg, &mut rng,
            );
            self.update(
                &mut emb, &mut ctx, b as usize, a as usize, lr, cfg, &mut rng,
            );
        }
        emb
    }

    #[allow(clippy::too_many_arguments)]
    fn update(
        &self,
        emb: &mut Matrix,
        ctx: &mut Matrix,
        src: usize,
        dst: usize,
        lr: f32,
        cfg: &HinConfig,
        rng: &mut StdRng,
    ) {
        let dim = cfg.dim;
        let mut sgrad = vec![0.0f32; dim];
        {
            let sv = emb.row(src).to_vec();
            let dv = ctx.row_mut(dst);
            let s = sigmoid(vector::dot(&sv, dv));
            let g = lr * (1.0 - s);
            for i in 0..dim {
                sgrad[i] += g * dv[i];
                dv[i] += g * sv[i];
            }
        }
        // Negatives within the destination's partition (type-aware).
        let (p_start, p_len) = self.partitions[self.node_partition[dst]];
        for _ in 0..cfg.negatives {
            let neg = p_start + rng.gen_range(0..p_len);
            if neg == dst {
                continue;
            }
            let sv = emb.row(src).to_vec();
            let nv = ctx.row_mut(neg);
            let s = sigmoid(vector::dot(&sv, nv));
            let g = lr * (0.0 - s);
            for i in 0..dim {
                sgrad[i] += g * nv[i];
                nv[i] += g * sv[i];
            }
        }
        vector::axpy(emb.row_mut(src), 1.0, &sgrad);
    }
}

/// HIN embedding hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct HinConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Edge samples (training steps).
    pub samples: usize,
    /// Negative samples per edge.
    pub negatives: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for HinConfig {
    fn default() -> Self {
        HinConfig {
            dim: 32,
            samples: 200_000,
            negatives: 4,
            lr: 0.05,
            seed: 31,
        }
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two communities of doc/word/user nodes densely connected within and
    /// sparsely across; embedding must separate them.
    fn community_graph(seed: u64) -> (HinGraph, usize, usize) {
        let mut g = HinGraph::new();
        let (_, docs) = g.add_partition("doc", 40);
        let (_, words) = g.add_partition("word", 20);
        let dw = g.add_edge_type("doc-word");
        let mut rng = lrng::seeded(seed);
        for d in 0..40 {
            let community = d % 2;
            for _ in 0..8 {
                let w = if rng.gen::<f32>() < 0.9 {
                    community * 10 + rng.gen_range(0..10usize)
                } else {
                    (1 - community) * 10 + rng.gen_range(0..10usize)
                };
                g.add_edge(dw, docs + d, words + w);
            }
        }
        (g, docs, words)
    }

    #[test]
    fn partitions_allocate_contiguous_ids() {
        let mut g = HinGraph::new();
        let (p0, off0) = g.add_partition("a", 3);
        let (p1, off1) = g.add_partition("b", 2);
        assert_eq!((p0, off0), (0, 0));
        assert_eq!((p1, off1), (1, 3));
        assert_eq!(g.n_nodes(), 5);
        assert_eq!(g.partition_of(4), 1);
        assert_eq!(g.partition_of(2), 0);
    }

    #[test]
    fn embedding_separates_communities() {
        let (g, docs, _) = community_graph(1);
        let emb = g.embed(
            &HinConfig {
                samples: 40_000,
                dim: 16,
                ..Default::default()
            },
            &[],
        );
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for a in 0..40 {
            for b in (a + 1)..40 {
                let sim = vector::cosine(emb.row(docs + a), emb.row(docs + b));
                if a % 2 == b % 2 {
                    intra.push(sim);
                } else {
                    inter.push(sim);
                }
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        assert!(
            mean(&intra) > mean(&inter) + 0.2,
            "intra {} vs inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    #[test]
    fn restricting_edge_types_changes_the_space() {
        let mut g = HinGraph::new();
        let (_, docs) = g.add_partition("doc", 10);
        let (_, users) = g.add_partition("user", 4);
        let du = g.add_edge_type("doc-user");
        let dd = g.add_edge_type("doc-doc");
        for d in 0..10 {
            g.add_edge(du, docs + d, users + d % 4);
        }
        g.add_edge(dd, docs, docs + 1);
        let cfg = HinConfig {
            samples: 5_000,
            dim: 8,
            ..Default::default()
        };
        let with_users = g.embed(&cfg, &[du]);
        let without = g.embed(&cfg, &[dd]);
        assert_ne!(with_users.data(), without.data());
    }

    #[test]
    fn empty_edge_selection_with_no_edges_is_benign() {
        let mut g = HinGraph::new();
        g.add_partition("doc", 3);
        g.add_edge_type("unused");
        let emb = g.embed(
            &HinConfig {
                samples: 10,
                dim: 4,
                ..Default::default()
            },
            &[],
        );
        assert_eq!(emb.shape(), (3, 4));
    }

    #[test]
    fn embedding_is_deterministic() {
        let (g, _, _) = community_graph(2);
        let cfg = HinConfig {
            samples: 2_000,
            dim: 8,
            ..Default::default()
        };
        assert_eq!(g.embed(&cfg, &[]).data(), g.embed(&cfg, &[]).data());
    }
}
