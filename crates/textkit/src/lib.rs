//! Corpus handling and synthetic dataset recipes for the `structmine`
//! workspace.
//!
//! This crate provides the text substrate the tutorial's methods run on:
//!
//! * [`vocab::Vocab`] — interned word-level vocabulary with special tokens
//!   (`[PAD]`, `[UNK]`, `[MASK]`, `[CLS]`, `[SEP]`).
//! * [`corpus::Doc`] / [`corpus::Corpus`] — tokenized documents with optional
//!   labels and metadata (users, tags, venues, authors, references).
//! * [`delta::DeltaCorpus`] — the generation stamp check that numbers each
//!   batch `ingest` appends, failing closed on duplicate, skipped or
//!   out-of-vocabulary deltas; it keeps no documents (DESIGN §11).
//! * [`tfidf::TfIdf`] — sparse TF-IDF vectors and cosine retrieval.
//! * [`taxonomy::Taxonomy`] — label hierarchies, both trees (WeSHClass) and
//!   DAGs (TaxoClass).
//! * [`synth`] — a deterministic generator of corpora with planted structure
//!   (topical classes, polysemous seed words, hierarchies, metadata graphs),
//!   plus named recipes standing in for the paper's benchmark datasets
//!   (AG News, NYT, Yelp, DBpedia, 20 Newsgroups, arXiv, Amazon, GitHub,
//!   Twitter, MAG-CS, PubMed). See `DESIGN.md` §1 for why these synthetic
//!   stand-ins preserve the behaviours the tutorial's tables demonstrate.

pub mod corpus;
pub mod delta;
pub mod supervision;
pub mod synth;
pub mod taxonomy;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use corpus::{Corpus, Doc};
pub use delta::{CorpusDelta, DeltaCorpus, DeltaError, Generation};
pub use supervision::Supervision;
pub use synth::dataset::{Dataset, LabelSet};
pub use taxonomy::Taxonomy;
pub use vocab::Vocab;
