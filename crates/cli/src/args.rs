//! Hand-rolled argument parsing (no external dependency).

use structmine_plm::cache::Tier;

/// Usage text shown by `--help` and on parse errors.
pub const USAGE: &str = "\
structmine — weakly-supervised text classification

USAGE:
  structmine classify --labels <a,b,c> [--method xclass|lotclass|prompt|match]
                      [--input <file>] [--tier test|standard] [--threads <n>]
                      [--precision exact|fast]
                      [--no-cache | --cache-dir <dir>] [--faults <plan>]
                      [--report-json <path>]
      Classify one document per line (stdin or --input) using only label
      names; prints one 'label<TAB>confidence<TAB>doc' line per input. Runs
      through the same Engine as structmine-serve, so output is byte-identical
      to the server's /classify responses.

  structmine ingest --labels <a,b,c> [--method xclass|lotclass|prompt|match]
                    [--input <file>] [--tier test|standard] [--threads <n>]
                    [--precision exact|fast]
                    [--no-cache | --cache-dir <dir>] [--faults <plan>]
                    [--report-json <path>]
      Stream documents through the classifier. Reads stdin (or --input);
      ingest numbers each blank-line-delimited batch as the corpus's next
      generation and classifies it immediately — 'generation<TAB>g' then one
      prediction line per document, flushed per batch, so
      'tail -f log | structmine ingest ...' works. No document is kept. The
      serving rule stays frozen, so prediction lines are byte-identical to
      classify.

  structmine shard --labels <a,b,c> [--shards <n>] [--method xclass|lotclass|prompt|match]
                   [--input <file>] [--tier test|standard] [--threads <n>]
                   [--precision exact|fast]
                   [--cache-dir <dir>] [--faults <plan>] [--report-json <path>]
      Classify like `classify`, but split the documents into <n> index-ordered
      shards and run one supervised worker process per shard (DESIGN §12).
      Workers share the artifact store; crashed workers restart and resume
      from it; persistent failures degrade to in-process execution. Merged
      stdout is byte-identical to `classify` for any shard count. <n>
      defaults to STRUCTMINE_SHARDS, else 1.

  structmine demo --recipe <name>
                  [--method westclass|xclass|lotclass|conwea|prompt|match|supervised]
                  [--scale <f32>] [--seed <u64>] [--threads <n>]
                  [--no-cache | --cache-dir <dir>] [--faults <plan>]
                  [--report-json <path>]
      Run a method on a synthetic benchmark recipe and report accuracy.

  --threads <n> caps the worker threads used for PLM inference (default: the
  STRUCTMINE_THREADS environment variable, else all cores). Results are
  bitwise identical for any thread count.

  --precision exact|fast selects the inference arithmetic tier (default: the
  STRUCTMINE_PRECISION environment variable, else exact). 'exact' keeps
  bitwise-reproducible output; 'fast' swaps in approximate SIMD-friendly
  kernels for higher throughput, gated by the accuracy-tolerance harness
  (label agreement >= 99.5% against exact). The two tiers never share
  artifact-store entries.

  --cache-dir <dir> puts the content-addressed artifact store there (default:
  the STRUCTMINE_STORE_DIR environment variable, else a per-user temp
  directory). Warm reruns skip recomputing pretraining, corpus encodings,
  and method outputs. --no-cache disables the store entirely; outputs are
  bitwise identical either way.

  --faults <plan> injects deterministic disk faults into the artifact store
  (same syntax as the STRUCTMINE_FAULTS environment variable, e.g.
  'disk_write=0.2,disk_read=0.1,truncate=0.05;seed=7'). Outputs remain
  bitwise identical to a fault-free run; only caching behavior changes.

  --report-json <path> writes a JSON run report (per-stage timings, counters,
  config fingerprint) to <path> at process exit — same as setting the
  STRUCTMINE_REPORT environment variable. Classification output on stdout is
  byte-identical with or without reporting.

  structmine datasets
      List the available synthetic dataset recipes.

  structmine help
      Show this message.";

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub enum Args {
    /// Classify documents from stdin / a file.
    Classify {
        /// Label names (comma separated on the command line).
        labels: Vec<String>,
        /// Method name.
        method: String,
        /// Input path; `None` = stdin.
        input: Option<String>,
        /// PLM tier.
        tier: Tier,
        /// Worker threads for PLM inference; `None` = environment default.
        threads: Option<usize>,
        /// Inference precision tier; `None` = environment default (Exact).
        precision: Option<structmine_linalg::Precision>,
        /// Artifact-store configuration.
        cache: CacheArgs,
    },
    /// Classify documents through sharded worker processes.
    Shard {
        /// Label names (comma separated on the command line).
        labels: Vec<String>,
        /// Method name.
        method: String,
        /// Input path; `None` = stdin.
        input: Option<String>,
        /// PLM tier.
        tier: Tier,
        /// Worker threads for PLM inference; `None` = environment default.
        threads: Option<usize>,
        /// Worker processes; `None` = `STRUCTMINE_SHARDS`, else 1.
        shards: Option<usize>,
        /// Inference precision tier; `None` = environment default (Exact).
        precision: Option<structmine_linalg::Precision>,
        /// Artifact-store configuration.
        cache: CacheArgs,
    },
    /// Stream documents as generational corpus deltas.
    Ingest {
        /// Label names (comma separated on the command line).
        labels: Vec<String>,
        /// Method name.
        method: String,
        /// Input path; `None` = stdin (streaming, batch per blank line).
        input: Option<String>,
        /// PLM tier.
        tier: Tier,
        /// Worker threads for PLM inference; `None` = environment default.
        threads: Option<usize>,
        /// Inference precision tier; `None` = environment default (Exact).
        precision: Option<structmine_linalg::Precision>,
        /// Artifact-store configuration.
        cache: CacheArgs,
    },
    /// Run a method on a synthetic recipe.
    Demo {
        /// Recipe name.
        recipe: String,
        /// Method name.
        method: String,
        /// Dataset scale.
        scale: f32,
        /// RNG seed.
        seed: u64,
        /// Worker threads for PLM inference; `None` = environment default.
        threads: Option<usize>,
        /// Artifact-store configuration.
        cache: CacheArgs,
    },
    /// List recipes.
    Datasets,
    /// Show usage.
    Help,
}

/// Artifact-store flags shared by `classify` and `demo`.
#[derive(Debug, Default, PartialEq)]
pub struct CacheArgs {
    /// `--no-cache`: disable the artifact store (recompute everything).
    pub no_cache: bool,
    /// `--cache-dir <dir>`: artifact-store directory.
    pub dir: Option<String>,
    /// `--faults <plan>`: deterministic disk-fault plan (STRUCTMINE_FAULTS
    /// syntax); validated before the store first runs.
    pub faults: Option<String>,
    /// `--report-json <path>`: write a JSON run report (timings, counters,
    /// config fingerprint) at process exit. Same as `STRUCTMINE_REPORT`.
    pub report_json: Option<String>,
}

/// A parse failure with its message.
#[derive(Debug, PartialEq)]
pub struct ParseError(pub String);

/// Parse `argv` (without the program name).
/// Every flag any subcommand accepts; anything else is a usage error
/// instead of being silently ignored.
const KNOWN_FLAGS: &[&str] = &[
    "labels",
    "recipe",
    "method",
    "input",
    "tier",
    "threads",
    "precision",
    "no-cache",
    "cache-dir",
    "faults",
    "scale",
    "seed",
    "shards",
    "report-json",
];

pub fn parse(argv: &[String]) -> Result<Args, ParseError> {
    let mut it = argv.iter();
    let cmd = it.next().map(|s| s.as_str()).unwrap_or("help");
    let mut flags = std::collections::HashMap::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i]
            .strip_prefix("--")
            .ok_or_else(|| ParseError(format!("expected a --flag, got {}", rest[i])))?;
        if !KNOWN_FLAGS.contains(&key) {
            return Err(ParseError(format!("unknown flag --{key}")));
        }
        // Boolean flags take no value.
        if key == "no-cache" {
            flags.insert(key.to_string(), String::new());
            i += 1;
            continue;
        }
        let value = rest
            .get(i + 1)
            .ok_or_else(|| ParseError(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.to_string());
        i += 2;
    }

    let threads = flags
        .get("threads")
        .map(|s| match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(ParseError(format!(
                "bad --threads {s} (need an integer >= 1)"
            ))),
        })
        .transpose()?;

    let precision = flags
        .get("precision")
        .map(|s| structmine_linalg::Precision::parse(s).map_err(ParseError))
        .transpose()?;
    let tier = flags
        .get("tier")
        .map(|s| Tier::parse(s).map_err(ParseError))
        .transpose()?
        .unwrap_or(Tier::Test);

    let cache = CacheArgs {
        no_cache: flags.contains_key("no-cache"),
        dir: flags.get("cache-dir").cloned(),
        faults: flags.get("faults").cloned(),
        report_json: flags.get("report-json").cloned(),
    };
    if cache.no_cache && cache.dir.is_some() {
        return Err(ParseError(
            "--no-cache and --cache-dir are mutually exclusive".into(),
        ));
    }

    let shards = flags
        .get("shards")
        .map(|s| structmine_shard::parse_shards(s).map_err(|e| ParseError(e.to_string())))
        .transpose()?;

    match cmd {
        "classify" | "ingest" | "shard" => {
            let labels: Vec<String> = flags
                .get("labels")
                .ok_or_else(|| ParseError(format!("{cmd} requires --labels a,b,c")))?
                .split(',')
                .map(|s| s.trim().to_lowercase())
                .filter(|s| !s.is_empty())
                .collect();
            if labels.len() < 2 {
                return Err(ParseError("need at least two labels".into()));
            }
            let method = flags
                .get("method")
                .cloned()
                .unwrap_or_else(|| "xclass".into());
            let input = flags.get("input").cloned();
            Ok(match cmd {
                "classify" => Args::Classify {
                    labels,
                    method,
                    input,
                    tier,
                    threads,
                    precision,
                    cache,
                },
                "shard" => Args::Shard {
                    labels,
                    method,
                    input,
                    tier,
                    threads,
                    shards,
                    precision,
                    cache,
                },
                _ => Args::Ingest {
                    labels,
                    method,
                    input,
                    tier,
                    threads,
                    precision,
                    cache,
                },
            })
        }
        "demo" => Ok(Args::Demo {
            recipe: flags
                .get("recipe")
                .cloned()
                .ok_or_else(|| ParseError("demo requires --recipe <name>".into()))?,
            method: flags
                .get("method")
                .cloned()
                .unwrap_or_else(|| "westclass".into()),
            scale: flags
                .get("scale")
                .map(|s| {
                    s.parse()
                        .map_err(|_| ParseError(format!("bad --scale {s}")))
                })
                .transpose()?
                .unwrap_or(0.15),
            seed: flags
                .get("seed")
                .map(|s| s.parse().map_err(|_| ParseError(format!("bad --seed {s}"))))
                .transpose()?
                .unwrap_or(7),
            threads,
            cache,
        }),
        "datasets" => Ok(Args::Datasets),
        "help" | "--help" | "-h" => Ok(Args::Help),
        other => Err(ParseError(format!("unknown command {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_classify_with_defaults() {
        let a = parse(&sv(&["classify", "--labels", "sports,business"])).unwrap();
        assert_eq!(
            a,
            Args::Classify {
                labels: vec!["sports".into(), "business".into()],
                method: "xclass".into(),
                input: None,
                tier: Tier::Test,
                threads: None,
                precision: None,
                cache: CacheArgs::default(),
            }
        );
    }

    #[test]
    fn parses_ingest_with_defaults() {
        let a = parse(&sv(&["ingest", "--labels", "sports,business"])).unwrap();
        assert_eq!(
            a,
            Args::Ingest {
                labels: vec!["sports".into(), "business".into()],
                method: "xclass".into(),
                input: None,
                tier: Tier::Test,
                threads: None,
                precision: None,
                cache: CacheArgs::default(),
            }
        );
    }

    #[test]
    fn ingest_requires_labels() {
        let e = parse(&sv(&["ingest"]));
        assert!(matches!(e, Err(ParseError(ref m)) if m.contains("ingest requires --labels")));
    }

    #[test]
    fn parses_demo_with_options() {
        let a = parse(&sv(&[
            "demo", "--recipe", "agnews", "--method", "xclass", "--scale", "0.2", "--seed", "3",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args::Demo {
                recipe: "agnews".into(),
                method: "xclass".into(),
                scale: 0.2,
                seed: 3,
                threads: None,
                cache: CacheArgs::default(),
            }
        );
    }

    #[test]
    fn parses_cache_flags() {
        let a = parse(&sv(&["demo", "--recipe", "agnews", "--no-cache"])).unwrap();
        if let Args::Demo { cache, .. } = a {
            assert!(cache.no_cache);
            assert_eq!(cache.dir, None);
        } else {
            panic!("wrong variant");
        }
        // --no-cache is a boolean flag: flags after it still parse.
        let a = parse(&sv(&[
            "demo",
            "--recipe",
            "agnews",
            "--no-cache",
            "--seed",
            "3",
        ]))
        .unwrap();
        if let Args::Demo { cache, seed, .. } = a {
            assert!(cache.no_cache);
            assert_eq!(seed, 3);
        } else {
            panic!("wrong variant");
        }
        let a = parse(&sv(&[
            "classify",
            "--labels",
            "a,b",
            "--cache-dir",
            "/tmp/artifacts",
        ]))
        .unwrap();
        if let Args::Classify { cache, .. } = a {
            assert!(!cache.no_cache);
            assert_eq!(cache.dir.as_deref(), Some("/tmp/artifacts"));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn parses_faults_flag() {
        let a = parse(&sv(&[
            "demo",
            "--recipe",
            "agnews",
            "--faults",
            "disk_write=0.2,truncate=0.05;seed=7",
        ]))
        .unwrap();
        if let Args::Demo { cache, .. } = a {
            assert_eq!(
                cache.faults.as_deref(),
                Some("disk_write=0.2,truncate=0.05;seed=7")
            );
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn rejects_no_cache_with_cache_dir() {
        assert!(parse(&sv(&[
            "demo",
            "--recipe",
            "agnews",
            "--no-cache",
            "--cache-dir",
            "/tmp/x",
        ]))
        .is_err());
    }

    #[test]
    fn parses_threads_flag() {
        let a = parse(&sv(&["demo", "--recipe", "agnews", "--threads", "4"])).unwrap();
        if let Args::Demo { threads, .. } = a {
            assert_eq!(threads, Some(4));
        } else {
            panic!("wrong variant");
        }
        let a = parse(&sv(&["classify", "--labels", "a,b", "--threads", "2"])).unwrap();
        if let Args::Classify { threads, .. } = a {
            assert_eq!(threads, Some(2));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn rejects_bad_threads() {
        assert!(parse(&sv(&["demo", "--recipe", "agnews", "--threads", "0"])).is_err());
        assert!(parse(&sv(&["demo", "--recipe", "agnews", "--threads", "many"])).is_err());
    }

    #[test]
    fn parses_precision_flag() {
        let a = parse(&sv(&["classify", "--labels", "a,b", "--precision", "fast"])).unwrap();
        if let Args::Classify { precision, .. } = a {
            assert_eq!(precision, Some(structmine_linalg::Precision::Fast));
        } else {
            panic!("wrong variant");
        }
        let a = parse(&sv(&["shard", "--labels", "a,b", "--precision", "exact"])).unwrap();
        if let Args::Shard { precision, .. } = a {
            assert_eq!(precision, Some(structmine_linalg::Precision::Exact));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn rejects_bad_precision() {
        let e = parse(&sv(&["classify", "--labels", "a,b", "--precision", "warp"]));
        assert!(matches!(e, Err(ParseError(ref m)) if m.contains("warp")));
    }

    #[test]
    fn parses_tier_flag_and_rejects_unknown_tiers() {
        let a = parse(&sv(&["ingest", "--labels", "a,b", "--tier", " Standard "])).unwrap();
        assert!(matches!(
            a,
            Args::Ingest {
                tier: Tier::Standard,
                ..
            }
        ));
        for bad in ["standrad", "", "tiny"] {
            let e = parse(&sv(&["classify", "--labels", "a,b", "--tier", bad]));
            assert!(
                matches!(e, Err(ParseError(ref m)) if m.contains("unknown tier")),
                "{bad:?}: {e:?}"
            );
        }
    }

    #[test]
    fn rejects_single_label() {
        assert!(parse(&sv(&["classify", "--labels", "sports"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&sv(&["demo", "--recipe"])).is_err());
        assert!(parse(&sv(&["demo"])).is_err());
    }

    #[test]
    fn rejects_unknown_command_and_flags_without_dashes() {
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["demo", "recipe", "agnews"])).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        // Unknown flags used to be silently swallowed; now they are a
        // usage error like any other parse failure.
        let e = parse(&sv(&["demo", "--recipe", "agnews", "--frobnicate", "1"]));
        assert!(matches!(e, Err(ParseError(ref m)) if m.contains("frobnicate")));
    }

    #[test]
    fn parses_report_json_flag() {
        let a = parse(&sv(&[
            "demo",
            "--recipe",
            "agnews",
            "--report-json",
            "/tmp/report.json",
        ]))
        .unwrap();
        if let Args::Demo { cache, .. } = a {
            assert_eq!(cache.report_json.as_deref(), Some("/tmp/report.json"));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn parses_shard_command() {
        let a = parse(&sv(&["shard", "--labels", "a,b", "--shards", "4"])).unwrap();
        assert_eq!(
            a,
            Args::Shard {
                labels: vec!["a".into(), "b".into()],
                method: "xclass".into(),
                input: None,
                tier: Tier::Test,
                threads: None,
                shards: Some(4),
                precision: None,
                cache: CacheArgs::default(),
            }
        );
        let a = parse(&sv(&["shard", "--labels", "a,b"])).unwrap();
        assert!(matches!(a, Args::Shard { shards: None, .. }));
        assert!(parse(&sv(&["shard", "--labels", "a,b", "--shards", "0"])).is_err());
        assert!(parse(&sv(&["shard", "--labels", "a,b", "--shards", "65"])).is_err());
        assert!(parse(&sv(&["shard", "--labels", "a,b", "--shards", "many"])).is_err());
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(&[]).unwrap(), Args::Help);
    }

    #[test]
    fn labels_are_normalized() {
        let a = parse(&sv(&["classify", "--labels", " Sports , BUSINESS ,"])).unwrap();
        if let Args::Classify { labels, .. } = a {
            assert_eq!(labels, vec!["sports".to_string(), "business".to_string()]);
        } else {
            panic!("wrong variant");
        }
    }
}
