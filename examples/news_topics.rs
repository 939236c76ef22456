//! News topic classification, three ways.
//!
//! The scenario that motivates the tutorial: you have a pile of news
//! articles and four topic names — no annotations. This example compares
//! the static-embedding route (WeSTClass), the representation route
//! (X-Class) and the prompting route (zero-shot + PromptClass) on the same
//! corpus, then classifies a hand-written headline.
//!
//! ```bash
//! cargo run --release --example news_topics
//! ```

use structmine::promptclass::{PromptClass, PromptStyle};
use structmine::westclass::WeSTClass;
use structmine::xclass::XClass;
use structmine_embed::{Sgns, SgnsConfig};
use structmine_eval::accuracy;
use structmine_linalg::Precision;
use structmine_plm::cache::{pretrained, Tier};
use structmine_text::synth::recipes;

fn main() {
    let data = recipes::agnews(0.15, 7).unwrap();
    let plm = pretrained(Tier::Test, 0);
    let gold = data.test_gold();
    let eval = |preds: &[usize]| {
        let test: Vec<usize> = data.test_idx.iter().map(|&i| preds[i]).collect();
        accuracy(&test, &gold)
    };

    println!(
        "{} news documents, labels: {:?}\n",
        data.corpus.len(),
        data.labels.names
    );

    // Route 1: static embeddings (WeSTClass).
    let wv = Sgns::train(
        &data.corpus,
        &SgnsConfig {
            epochs: 4,
            dim: 32,
            ..Default::default()
        },
    );
    let west = WeSTClass::default().run(&data, &data.supervision_names(), &wv);
    println!(
        "WeSTClass (static embeddings, vMF pseudo docs): {:.3}",
        eval(&west.predictions)
    );

    // Route 2: class-oriented PLM representations (X-Class).
    let x = XClass::default().run(&data, &plm);
    println!(
        "X-Class   (class-oriented PLM representations): {:.3}",
        eval(&x.predictions)
    );

    // Route 3: prompting (zero-shot, then iterative PromptClass).
    let pc = PromptClass {
        style: PromptStyle::Mlm,
        ..Default::default()
    };
    let out = pc
        .run(&data, &plm)
        .expect("the synthetic corpus contains every template word");
    println!(
        "Prompting (zero-shot cloze):                    {:.3}",
        eval(&out.zero_shot_predictions)
    );
    println!(
        "PromptClass (iterative co-training):            {:.3}",
        eval(&out.predictions)
    );

    // Classify a new headline by representation matching (robust for short
    // out-of-corpus text; see `prompt::cloze_label_scores` for the cloze way).
    let headline = "the striker scored a late goal and the keeper could not stop the penalty";
    let tokens: Vec<_> = structmine_text::tokenize::encode(headline, &data.corpus.vocab)
        .into_iter()
        .filter(|&t| t != structmine_text::vocab::UNK)
        .collect();
    let names = data.label_name_tokens();
    let doc_rep = plm.mean_embed(&tokens, Precision::Exact);
    let scores: Vec<f32> = names
        .iter()
        .map(|n| structmine_linalg::vector::cosine(&doc_rep, &plm.mean_embed(n, Precision::Exact)))
        .collect();
    let best = structmine_linalg::vector::argmax(&scores).unwrap();
    println!("\nheadline: \"{headline}\"");
    for (c, s) in scores.iter().enumerate() {
        println!(
            "  {} {:<12} {s:.4}",
            if c == best { "→" } else { " " },
            data.labels.names[c]
        );
    }
}
