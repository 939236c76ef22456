//! A miniature pre-trained language model.
//!
//! The tutorial's PLM-based methods use exactly three capabilities of
//! BERT-family models, and this crate provides all of them from scratch at
//! laptop scale (see `DESIGN.md` §1 for the substitution argument):
//!
//! 1. **Contextualized token representations** — a pre-LN transformer
//!    encoder ([`model::MiniPlm`]) whose hidden states separate the planted
//!    word senses (ConWea, X-Class).
//! 2. **A masked-language-model head** — tied-embedding MLM whose top
//!    replacements reflect in-context meaning (LOTClass's category
//!    vocabulary and masked category prediction, cloze prompting).
//! 3. **Transferable heads** — an ELECTRA-style replaced-token-detection
//!    head (PromptClass) and an NLI-style sentence-pair relevance head
//!    pretrained self-supervisedly (TaxoClass's relevance model).
//!
//! Pretraining ([`pretrain`](mod@pretrain)) runs in seconds on the synthetic general
//! corpus; [`cache`] shares one pretrained model across a process so every
//! benchmark table does not pay for its own pretraining.

pub mod artifacts;
pub mod cache;
pub mod config;
pub mod model;
pub mod pretrain;
pub mod prompt;
pub mod repr;

pub use config::PlmConfig;
pub use model::MiniPlm;
pub use pretrain::{pretrain, PretrainConfig};
