//! Dense linear algebra and numerics for the `structmine` workspace.
//!
//! Everything in the workspace that touches numbers — static embeddings, the
//! mini transformer, clustering, classifiers — is built on this crate. It
//! deliberately stays small: a row-major `f32` [`Matrix`], slice-based vector
//! helpers, numerically stable reductions, power-iteration [`pca`], and seeded
//! RNG constructors so every experiment is reproducible.
//!
//! # Example
//! ```
//! use structmine_linalg::{Matrix, vector};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.row(1), &[3.0, 4.0]);
//! assert!((vector::dot(c.row(0), c.row(1)) - 11.0).abs() < 1e-6);
//! ```

pub mod exactmath;
pub mod exec;
pub mod fastmath;
pub mod matrix;
pub mod pca;
pub mod rng;
pub mod simd;
pub mod stats;
pub mod vector;

pub use exec::{ExecPolicy, Precision};
pub use matrix::{Matrix, PackedMatrix, Rhs};
pub use pca::Pca;
