//! Deterministic work counters as a self-check.
//!
//! At a fixed seed the program must do exactly the same work on every
//! run: the same databases generated, events faulted, rows featurized,
//! trees and split scans built, model bytes written, kernel node steps
//! taken, request bytes sent and rows decided. The benchmark checks
//! this twice: across the repeated passes inside one run, and across
//! runs, against the first record this executable left for the same
//! workload, seed and trace mode. A mismatch means the program or the
//! benchmark is nondeterministic, and fails the run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Counter name → count.
pub type Counters = BTreeMap<String, u64>;

/// The counters that must repeat exactly. A workload reports the ones
/// its layers produce; the rest are absent, not zero.
pub const DETERMINISTIC: [&str; 9] = [
    "telemetry.generate.databases",
    "telemetry.faults.events_out",
    "features.rows",
    "forest.trees_built",
    "forest.split_scans",
    "serve.model_bytes",
    "serve.kernel.node_steps",
    "survd.wire.request_bytes",
    "policy.decide.rows",
];

/// Keeps only the deterministic counters of `all`.
pub fn deterministic(all: &BTreeMap<String, f64>) -> Counters {
    DETERMINISTIC
        .iter()
        .filter_map(|&name| all.get(name).map(|&v| (name.to_string(), v as u64)))
        .collect()
}

/// Describes every difference between two counter sets; empty when
/// they agree on every name and value.
pub fn differences(expected: &Counters, actual: &Counters) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match actual.get(name) {
            Some(got) if got == want => {}
            Some(got) => out.push(format!("{name}: {got} (expected {want})")),
            None => out.push(format!("{name}: missing (expected {want})")),
        }
    }
    for (name, got) in actual {
        if !expected.contains_key(name) {
            out.push(format!("{name}: {got} (not expected)"));
        }
    }
    out
}

fn render(counters: &Counters) -> String {
    counters
        .iter()
        .map(|(name, value)| format!("{name} {value}\n"))
        .collect()
}

fn parse(text: &str) -> Result<Counters, String> {
    text.lines()
        .map(|line| {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad counter line {line:?}"))?;
            let value = value
                .parse()
                .map_err(|e| format!("bad counter line {line:?}: {e}"))?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// Compares `counters` with the record at `path`, writing the record
/// when none exists yet. Returns the differences found.
pub fn check_against_record(path: &Path, counters: &Counters) -> Result<Vec<String>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(differences(&parse(&text)?, counters)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let dir = path.parent().expect("record paths have a directory");
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            // Write-then-rename, so a concurrent reader never sees half
            // a record.
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, render(counters))
                .map_err(|e| format!("{}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Vec::new())
        }
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// FNV-1a of this executable's bytes: records are kept per build, so a
/// rebuilt program starts a fresh record instead of failing against
/// the counts of the old one.
fn executable_hash() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    }))
}

/// Where the cross-run record of one (workload, seed, trace) lives.
pub fn record_path(
    state_dir: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<PathBuf, String> {
    Ok(state_dir
        .join(format!("counters-{:016x}", executable_hash()?))
        .join(format!(
            "{workload}-seed{seed}-trace{}.txt",
            u8::from(trace)
        )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn equal_sets_have_no_differences() {
        let a = set(&[("features.rows", 10), ("policy.decide.rows", 10)]);
        assert!(differences(&a, &a.clone()).is_empty());
    }

    #[test]
    fn every_kind_of_difference_is_named() {
        let want = set(&[("features.rows", 10), ("forest.trees_built", 60)]);
        let got = set(&[("features.rows", 11), ("serve.model_bytes", 5)]);
        let diffs = differences(&want, &got);
        assert_eq!(diffs.len(), 3, "{diffs:?}");
        assert!(diffs[0].starts_with("features.rows: 11 (expected 10)"));
        assert!(diffs[1].starts_with("forest.trees_built: missing"));
        assert!(diffs[2].starts_with("serve.model_bytes: 5 (not expected)"));
    }

    #[test]
    fn only_the_deterministic_counters_are_kept() {
        let mut all = BTreeMap::new();
        all.insert("features.rows".to_string(), 7.0);
        all.insert("features.busy_s".to_string(), 0.25);
        assert_eq!(deterministic(&all), set(&[("features.rows", 7)]));
    }

    #[test]
    fn the_record_is_written_once_then_compared() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.survbench")
            .join(format!("test-counters-{}", std::process::id()));
        let path = dir.join("sub").join("w-seed1-trace0.txt");
        let first = set(&[("features.rows", 7), ("serve.model_bytes", 123)]);
        assert!(check_against_record(&path, &first).unwrap().is_empty());
        assert!(check_against_record(&path, &first).unwrap().is_empty());
        let drifted = set(&[("features.rows", 8), ("serve.model_bytes", 123)]);
        assert_eq!(check_against_record(&path, &drifted).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
