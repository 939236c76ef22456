//! E11 — streaming topic drift: accuracy over generations for servable
//! methods whose rule was frozen on the pre-drift fit corpus.
//!
//! The `topic-drift` recipe fits a serving rule on a balanced corpus, then
//! [`drift_stream`] feeds generations whose class priors tilt and whose
//! vocabulary shifts from each class's broad core lexicon to a narrower
//! domain lexicon. Each generation is ingested through
//! [`Engine::ingest`] — which scores only that generation's documents with
//! the frozen rule — and scored against the batch's gold labels, so the
//! table shows how a frozen rule holds up as the stream leaves its fit
//! distribution.

use crate::table::ms;
use crate::{BenchConfig, BenchError, Table};
use structmine_engine::{Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_eval::MeanStd;
use structmine_linalg::ExecPolicy;
use structmine_text::synth::{drift_stream, topic_drift};

/// The servable methods the drift table reports on.
const METHODS: &[MethodKind] = &[MethodKind::XClass, MethodKind::Match];

/// Generations of drifted stream fed to each engine.
const GENERATIONS: usize = 4;

/// Run E11.
pub fn run(cfg: &BenchConfig) -> Result<Vec<Table>, BenchError> {
    let mut t = Table::new("E11 — topic drift (accuracy per ingested generation)");
    t.note(format!(
        "seeds={}, scale={}; rule frozen on the pre-drift fit corpus, each \
         generation ingested incrementally (class priors tilt and vocabulary \
         narrows core->domain as the stream advances)",
        cfg.seeds, cfg.scale
    ));
    let mut header = vec!["method".to_string()];
    header.extend((1..=GENERATIONS).map(|g| format!("gen {g}")));
    t.headers(&header.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    // cells[m][g] collects per-seed accuracies for method m at generation g+1.
    let mut cells: Vec<Vec<Vec<f32>>> = vec![vec![Vec::new(); GENERATIONS]; METHODS.len()];
    let mut n_classes = 0usize;
    for &seed in &cfg.seed_values() {
        let d = topic_drift(cfg.scale, seed)?;
        n_classes = d.n_classes();
        let stream = drift_stream(cfg.scale, seed, GENERATIONS)?;
        for (m, &method) in METHODS.iter().enumerate() {
            let engine = Engine::load(EngineConfig {
                source: EngineSource::Dataset(Box::new(d.clone())),
                method,
                plm: PlmSpec::Adapted { seed },
                seed: Some(seed),
                exec: ExecPolicy::default(),
            })?;
            for (g, batch) in stream.iter().enumerate() {
                let ingested = engine.ingest(&batch.lines)?;
                let preds: Vec<usize> = ingested.predictions.iter().map(|p| p.class).collect();
                cells[m][g].push(structmine_eval::accuracy(&preds, &batch.labels));
            }
        }
    }

    for (m, &method) in METHODS.iter().enumerate() {
        let mut row = vec![method.name().to_string()];
        row.extend(cells[m].iter().map(|v| ms(MeanStd::of(v))));
        t.row(row);
    }

    // Robust shape checks only: exact accuracies vary with scale/tier, but a
    // frozen rule must beat chance on the first, least-drifted generation.
    let chance = 1.0 / n_classes.max(1) as f32;
    for (m, &method) in METHODS.iter().enumerate() {
        let first = &cells[m][0];
        let mean = first.iter().sum::<f32>() / first.len().max(1) as f32;
        t.check(
            format!(
                "{} beats chance ({chance:.3}) on generation 1 ({mean:.3})",
                method.name()
            ),
            mean > chance,
        );
    }
    t.check(
        format!(
            "stream spans {GENERATIONS} generations for {} methods",
            METHODS.len()
        ),
        cells
            .iter()
            .all(|m| m.iter().all(|g| g.len() == cfg.seeds as usize)),
    );
    Ok(vec![t])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_stream_inputs_build_cheaply() {
        // The full table needs a PLM; the dataset/stream halves are cheap
        // enough to pin here.
        let d = topic_drift(0.05, 1).unwrap();
        assert_eq!(d.n_classes(), 3);
        let stream = drift_stream(0.05, 1, GENERATIONS).unwrap();
        assert_eq!(stream.len(), GENERATIONS);
        for batch in &stream {
            assert_eq!(batch.lines.len(), batch.labels.len());
            assert!(!batch.lines.is_empty());
            assert!(batch.labels.iter().all(|&l| l < d.n_classes()));
        }
    }
}
