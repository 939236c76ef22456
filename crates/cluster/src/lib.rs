//! Clustering and alignment primitives.
//!
//! X-Class clusters class-oriented document representations with a Gaussian
//! mixture seeded on prior class means; ConWea clusters contextualized
//! occurrences of each seed word to split senses; the "vanilla BERT
//! representations" figure clusters average-pooled embeddings with k-means
//! and aligns clusters to classes with the Hungarian algorithm. This crate
//! provides those pieces: [`kmeans`](mod@kmeans), [`gmm`], [`align`] (Hungarian +
//! confusion matrices) and quality measures in [`quality`].

pub mod align;
pub mod gmm;
pub mod kmeans;
pub mod quality;

pub use align::{confusion_matrix, hungarian_max, map_clusters_to_classes};
pub use gmm::{Gmm, GmmConfig};
pub use kmeans::{kmeans, spherical_kmeans, KMeansResult};
