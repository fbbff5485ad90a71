//! `survbench`: the survdb benchmark.
//!
//! ```text
//! cargo run --release --manifest-path survbench/Cargo.toml -- \
//!     --workload fleet_batch|study_train|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. One run sets up, measures one workload
//! for `--seconds`, checks its outputs, prints the workload's metrics
//! for people, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics `BENCHMARK.json` lists; with
//! `--trace 1`, the per-layer metrics, from a separate traced run. A
//! per-layer metric of a layer the workload bypasses reads 0. Any
//! violated check makes the run exit nonzero. Workloads, metrics and
//! the layer each metric belongs to are described in
//! `survbench/README.md`.

mod common;
mod counters;
mod cpu;
mod fleet;
mod loadgen;
mod serve;
mod stats;
mod study;
mod trace;

use obs::jsonv::JsonV;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where runs keep their scratch files and cross-run counter records,
/// relative to the directory the benchmark runs in.
const STATE_DIR: &str = ".survbench";

/// Share of the traced wall time that top-level layer spans must cover.
const MIN_COVERAGE: f64 = 0.9;

/// One run's arguments and scratch directory.
pub struct Run {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Per-run scratch directory (model files).
    pub scratch: PathBuf,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The metric names and units `BENCHMARK.json` lists under `section`.
fn listed_metrics(spec: &JsonV, section: &str) -> Result<Vec<(String, String)>, String> {
    let JsonV::Obj(fields) = spec else {
        return Err("BENCHMARK.json is not an object".to_string());
    };
    let Some((_, JsonV::Arr(metrics))) = fields.iter().find(|(k, _)| k == section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    metrics
        .iter()
        .map(|m| {
            let field = |key: &str| match m {
                JsonV::Obj(f) => f.iter().find_map(|(k, v)| match v {
                    JsonV::Str(s) if k == key => Some(s.clone()),
                    _ => None,
                }),
                _ => None,
            };
            match (field("name"), field("unit")) {
                (Some(name), Some(unit)) => Ok((name, unit)),
                _ => Err(format!("a {section} entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Renders the result line. Names and units are plain identifiers, so
/// they need no escaping.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            obs::error!("survbench", "{e}");
            obs::error!(
                "survbench",
                "usage: survbench --workload fleet_batch|study_train|serve_mix --seed N \
                 --seconds S [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
        .and_then(|text| obs::jsonv::parse(&text))
    {
        Ok(spec) => spec,
        Err(e) => {
            obs::error!("survbench", "{e}");
            std::process::exit(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let listed = match listed_metrics(&spec, section) {
        Ok(l) => l,
        Err(e) => {
            obs::error!("survbench", "{e}");
            std::process::exit(2);
        }
    };

    // The thread limit is explicit and recorded: every parallel layer
    // uses one thread per core.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("SURVDB_THREADS", threads.to_string());

    let state = Path::new(STATE_DIR);
    let scratch = state.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        obs::error!("survbench", "{}: {e}", scratch.display());
        std::process::exit(2);
    }
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
    };
    let mut outcome = match args.workload.as_str() {
        "fleet_batch" => fleet::run(&run),
        "study_train" => study::run(&run),
        "serve_mix" => serve::run(&run),
        other => {
            obs::error!("survbench", "unknown workload {other}");
            std::fs::remove_dir_all(&scratch).ok();
            std::process::exit(2);
        }
    };
    std::fs::remove_dir_all(&scratch).ok();

    let work = counters::deterministic(&outcome.layers);
    match counters::record_path(state, &args.workload, args.seed, args.trace)
        .and_then(|path| counters::check_against_record(&path, &work))
    {
        Ok(diffs) if diffs.is_empty() => {}
        Ok(diffs) => outcome.violation(format!(
            "deterministic work counters differ from an earlier run at this seed: {}",
            diffs.join("; ")
        )),
        Err(e) => outcome.violation(e),
    }

    // Layer spans must account for the traced time, or a slow layer
    // could hide in the gaps between them.
    if let Some(&coverage) = outcome.layers.get("trace.coverage") {
        if coverage < MIN_COVERAGE {
            outcome.violation(format!(
                "layer spans cover {coverage:.3} of the traced time, below {MIN_COVERAGE}"
            ));
        }
    }

    let produced: BTreeMap<String, f64> = if args.trace {
        outcome.layers.clone()
    } else {
        outcome
            .end_to_end
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    };
    for name in produced.keys() {
        if !listed.iter().any(|(n, _)| n == name) {
            outcome.violation(format!("metric {name} is not listed in BENCHMARK.json"));
        }
    }
    let mut metrics = Vec::new();
    for (name, unit) in &listed {
        let value = match produced.get(name) {
            Some(v) => *v,
            // A layer this workload bypasses did no work.
            None if args.trace => 0.0,
            None => {
                outcome.violation(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.violation(format!("metric {name} is not finite"));
            metrics.push((name.clone(), unit.clone(), 0.0));
            continue;
        }
        metrics.push((name.clone(), unit.clone(), value));
    }

    println!(
        "workload {} seed {} trace {} threads {} (SURVDB_THREADS)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        forest::parallel::thread_limit()
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    for (name, unit, value) in &metrics {
        println!("  [{section}] {name} = {value} {unit}");
    }
    for v in &outcome.violations {
        obs::error!("survbench", "check failed: {v}");
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0;
    let failed = if correct { 0 } else { outcome.failed.max(1) };
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let ok = parse_args(
            &[
                "--workload",
                "serve_mix",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .expect("valid");
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve_mix", 3, 10.0, true)
        );
        assert!(parse_args(&["--seed".to_string()]).is_err());
        assert!(parse_args(
            &["--workload", "x", "--seed", "1", "--seconds", "0"].map(String::from)
        )
        .is_err());
        assert!(parse_args(
            &[
                "--workload",
                "x",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2"
            ]
            .map(String::from)
        )
        .is_err());
    }

    #[test]
    fn the_result_is_one_json_line() {
        let line = result_line(
            true,
            5,
            0,
            &[
                ("p50_ms".into(), "ms".into(), 1.25),
                ("setup_s".into(), "s".into(), 0.5),
            ],
        );
        assert!(!line.contains('\n'));
        let parsed = obs::jsonv::parse(&line).expect("valid JSON");
        let JsonV::Obj(fields) = parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_a_unit() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = obs::jsonv::parse(text).expect("BENCHMARK.json parses");
        let e2e = listed_metrics(&spec, "end_to_end").expect("end_to_end");
        let layers = listed_metrics(&spec, "per_layer").expect("per_layer");
        assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        for name in counters::DETERMINISTIC {
            assert!(
                layers.iter().any(|(n, _)| n == name),
                "{name} is not listed"
            );
        }
    }
}
