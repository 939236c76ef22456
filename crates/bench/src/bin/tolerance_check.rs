//! `tolerance_check` — run the accuracy-tolerance harness (DESIGN §13)
//! from the command line and gate on its published bounds.
//!
//! ```text
//! tolerance_check [--method xclass|lotclass|prompt|match] [--seed <u64>]
//! ```
//!
//! Loads a Fast-tier label-names engine at the Test PLM tier, runs
//! [`structmine_engine::tolerance::self_check`] (Exact twin vs Fast over
//! the full eval corpus), prints the report, and exits 0 when the Fast
//! tier stays within bounds (label agreement ≥ 99.5%, max |confidence
//! delta| ≤ 0.05), 1 when it drifts out, 2 on usage errors. The
//! determinism matrix (`crates/bench/tests/determinism_matrix.rs`) runs it
//! before its cells.

use structmine_engine::{tolerance, Engine, EngineConfig, EngineSource, MethodKind, PlmSpec};
use structmine_linalg::{ExecPolicy, Precision};

fn fail(msg: &str) -> ! {
    eprintln!("tolerance_check: {msg}");
    std::process::exit(2);
}

fn main() {
    structmine_store::obs::init();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut method = MethodKind::XClass;
    let mut seed = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--method" => {
                let name = argv
                    .get(i + 1)
                    .unwrap_or_else(|| fail("--method needs a value"));
                method = MethodKind::parse(name)
                    .filter(|k| k.servable())
                    .unwrap_or_else(|| {
                        fail(&format!(
                            "unknown or non-servable method {name} (expected xclass, lotclass, prompt, match)"
                        ))
                    });
                i += 2;
            }
            "--seed" => {
                seed = Some(
                    argv.get(i + 1)
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or_else(|| fail("--seed needs an integer")),
                );
                i += 2;
            }
            other => fail(&format!("unexpected argument {other}")),
        }
    }

    let fast = Engine::load(EngineConfig {
        source: EngineSource::Labels(
            ["sports", "business", "technology"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        method,
        plm: PlmSpec::Pretrained(structmine_plm::cache::Tier::Test),
        seed,
        exec: ExecPolicy::default().with_precision(Precision::Fast),
    })
    .unwrap_or_else(|e| fail(&e.to_string()));

    let report = match tolerance::self_check(&fast) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tolerance_check: self-check errored: {e}");
            std::process::exit(1);
        }
    };
    println!("tolerance {}: {}", method.name(), report.summary());
    structmine_store::obs::write_report_if_configured("tolerance_check");
    if !report.within_bounds() {
        eprintln!(
            "tolerance_check: fast tier out of bounds (need agreement >= {} and max delta <= {})",
            tolerance::MIN_AGREEMENT,
            tolerance::MAX_CONFIDENCE_DELTA
        );
        std::process::exit(1);
    }
}
