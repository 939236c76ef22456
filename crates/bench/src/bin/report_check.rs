//! Validate a JSON run report written by `--report-json` /
//! `STRUCTMINE_REPORT`.
//!
//! ```text
//! report_check <report.json> [--min-coverage 0.9] [--expect-stages a,b,c]
//!              [--expect-counter-positive NAME] [--expect-counter-zero NAME]
//! ```
//!
//! Checks, in order: the report parses and matches the schema
//! (`schema_version`, config fingerprint shape, counters, span tree); the
//! per-stage timings attribute at least `--min-coverage` of the process
//! wall time (default 0.9); every `--expect-stages` label appears in the
//! span tree; every `--expect-counter-positive NAME` counter was recorded
//! with a value > 0, and every `--expect-counter-zero NAME` counter is
//! absent or zero (CI asserts a warm serve run shows prepack hits and no
//! invalidations). Exits 2 on usage errors, 1 on a failed
//! check, 0 when the report is healthy — CI runs this against the
//! `/stats` reports of its serve and streaming smokes.

use structmine_store::obs;

fn fail(msg: &str, code: i32) -> ! {
    eprintln!("report_check: {msg}");
    std::process::exit(code);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut min_coverage = 0.9f64;
    let mut expect_stages: Vec<String> = Vec::new();
    let mut expect_counter_positive: Vec<String> = Vec::new();
    let mut expect_counter_zero: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--min-coverage" => {
                let v = argv
                    .get(i + 1)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| fail("--min-coverage needs a number in [0, 1]", 2));
                min_coverage = v;
                i += 2;
            }
            "--expect-stages" => {
                let v = argv
                    .get(i + 1)
                    .unwrap_or_else(|| fail("--expect-stages needs a comma-separated list", 2));
                expect_stages = v
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                i += 2;
            }
            "--expect-counter-positive" => {
                let v = argv
                    .get(i + 1)
                    .unwrap_or_else(|| fail("--expect-counter-positive needs a counter name", 2));
                expect_counter_positive.push(v.clone());
                i += 2;
            }
            "--expect-counter-zero" => {
                let v = argv
                    .get(i + 1)
                    .unwrap_or_else(|| fail("--expect-counter-zero needs a counter name", 2));
                expect_counter_zero.push(v.clone());
                i += 2;
            }
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
                i += 1;
            }
            other => fail(&format!("unexpected argument {other}"), 2),
        }
    }
    let path = path.unwrap_or_else(|| {
        fail(
            "usage: report_check <report.json> [--min-coverage 0.9] [--expect-stages a,b,c] \
             [--expect-counter-positive NAME] [--expect-counter-zero NAME]",
            2,
        )
    });

    let json =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("reading {path}: {e}"), 1));
    let report =
        obs::validate_report(&json).unwrap_or_else(|e| fail(&format!("invalid report: {e}"), 1));

    let coverage = obs::report_coverage(&report)
        .unwrap_or_else(|e| fail(&format!("coverage unavailable: {e}"), 1));
    if coverage < min_coverage {
        fail(
            &format!(
                "stage timings cover {:.1}% of wall time, below the {:.1}% floor",
                coverage * 100.0,
                min_coverage * 100.0
            ),
            1,
        );
    }

    let labels = obs::report_stage_labels(&report)
        .unwrap_or_else(|e| fail(&format!("stage labels unavailable: {e}"), 1));
    let missing: Vec<&String> = expect_stages
        .iter()
        .filter(|s| !labels.contains(s.as_str()))
        .collect();
    if !missing.is_empty() {
        fail(
            &format!("expected stages missing from the report: {missing:?} (present: {labels:?})"),
            1,
        );
    }

    for name in &expect_counter_positive {
        let got = obs::report_counter(&report, name)
            .unwrap_or_else(|e| fail(&format!("counters unavailable: {e}"), 1));
        match got {
            Some(n) if n > 0 => {}
            other => fail(
                &format!("expected counter `{name}` > 0, found {other:?}"),
                1,
            ),
        }
    }

    for name in &expect_counter_zero {
        let got = obs::report_counter(&report, name)
            .unwrap_or_else(|e| fail(&format!("counters unavailable: {e}"), 1));
        if let Some(n) = got {
            if n > 0 {
                fail(
                    &format!("expected counter `{name}` to be zero, found {n}"),
                    1,
                );
            }
        }
    }

    println!(
        "report OK: schema valid, {} stage labels, {:.1}% of wall time attributed",
        labels.len(),
        coverage * 100.0
    );
}
