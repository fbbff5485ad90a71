//! `study_train`: the paper's own study.
//!
//! Per-region × per-edition Kaplan–Meier curves and log-rank tests,
//! then the nine (region × edition) experiments with the light grid.
//! The only workload where `forest` training dominates, and the only
//! one where parallel grid search, and so wall time against CPU time,
//! matters.

use crate::common::{counter, fit_fixture, peak_rss_mb, secs, Outcome};
use crate::trace::{child_coverage, LayerTimes, Tracer};
use crate::{cpu, stats, Run};
use std::time::Instant;
use survdb::experiment::{Experiment, ExperimentConfig, GridPreset};
use survdb::study::{Study, StudyConfig};
use survival::{logrank_test, KaplanMeier, SurvivalData};
use telemetry::{Edition, RegionId};

/// Population scale of the study (1.0 ≈ 18k databases over 3 regions).
pub const SCALE: f64 = 0.5;
/// Repetitions per subgroup experiment.
pub const REPETITIONS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Minimum observed lifetime, days, for the survival curves.
const MIN_DAYS: f64 = 2.0;

/// What one pass measured.
struct Pass {
    /// Survival analysis plus the nine experiments, s.
    study_s: f64,
    /// The nine experiments alone, s.
    experiments_s: f64,
    /// Each subgroup experiment, ms, in (region, edition) order.
    subgroup_ms: Vec<f64>,
    /// Process CPU over the nine experiments, ms.
    experiments_cpu_ms: f64,
    curves: u64,
    logrank_tests: u64,
    /// Every subgroup's scores, rendered: equal strings are bitwise
    /// equal results.
    results: String,
}

fn run_pass(tracer: &Tracer, run: &Run, study: &Study) -> Result<Pass, String> {
    let _pass = tracer.span("bench.pass");
    let start = Instant::now();
    let (mut curves, mut logrank_tests) = (0u64, 0u64);
    for region in RegionId::ALL {
        let census = study.census(region);
        for edition in Edition::ALL {
            let (all, always, changed) = tracer.time("telemetry.census", || {
                let of = |changed: Option<bool>| {
                    census.survival_pairs_where(MIN_DAYS, |db| {
                        db.creation_edition() == edition
                            && changed.is_none_or(|c| db.changed_edition() == c)
                    })
                };
                (of(None), of(Some(false)), of(Some(true)))
            });
            tracer.time("survival.kaplan_meier", || {
                let km = KaplanMeier::fit(&SurvivalData::from_pairs(&all));
                std::hint::black_box(km.sample_curve(150.0, 76));
            });
            curves += 1;
            if !always.is_empty() && !changed.is_empty() {
                tracer.time("survival.logrank", || {
                    std::hint::black_box(logrank_test(
                        &SurvivalData::from_pairs(&always),
                        &SurvivalData::from_pairs(&changed),
                    ));
                });
                logrank_tests += 1;
            }
        }
    }

    let experiment = Experiment::new(ExperimentConfig {
        repetitions: REPETITIONS,
        grid: GridPreset::Light,
        seed: run.seed,
        ..ExperimentConfig::default()
    });
    let cpu_before = cpu::process_cpu_ms()?;
    let experiments_start = Instant::now();
    let mut subgroup_ms = Vec::new();
    let mut results = String::new();
    for region in RegionId::ALL {
        let census = study.census(region);
        for edition in Edition::ALL {
            let t = Instant::now();
            let r = tracer
                .time("core.experiment", || {
                    experiment.try_run(&census, Some(edition))
                })
                .map_err(|e| format!("{region}/{edition}: {e}"))?;
            subgroup_ms.push(secs(t) * 1e3);
            results.push_str(&format!(
                "{}/{} n={} q={:?} rf={:?} conf={:?} unc={:?} frac={:?}\n",
                r.region,
                r.edition,
                r.population,
                r.positive_fraction,
                r.forest,
                r.confident,
                r.uncertain,
                r.confident_fraction
            ));
        }
    }
    let experiments_s = secs(experiments_start);
    let experiments_cpu_ms = cpu::process_cpu_ms()? - cpu_before;
    Ok(Pass {
        study_s: secs(start),
        experiments_s,
        subgroup_ms,
        experiments_cpu_ms,
        curves,
        logrank_tests,
        results,
    })
}

/// The median subgroup experiment, ms: each subgroup's median time over
/// the passes, then the median of those, i.e. the typical time of the
/// middle subgroup. The nine subgroups differ up to sixfold in cost; a
/// median pooled over every (pass, subgroup) time would instead fall
/// in whichever gap between subgroups the pass-to-pass noise puts it.
fn median_subgroup_ms(passes: &[Vec<f64>]) -> f64 {
    let subgroups = passes.iter().map(Vec::len).max().unwrap_or(0);
    let per_subgroup: Vec<f64> = (0..subgroups)
        .filter_map(|i| {
            let times: Vec<f64> = passes.iter().filter_map(|p| p.get(i).copied()).collect();
            stats::median(&times)
        })
        .collect();
    stats::median(&per_subgroup).unwrap_or(f64::NAN)
}

/// `forest` span figures of one traced pass, from the registry: self
/// time of the grid searches and the forest fits (thread time), the
/// fit count, and the share of fits that produced a final model rather
/// than a cross-validation score.
fn forest_spans(registry: &obs::Registry) -> (f64, f64, u64, u64) {
    let spans = registry.snapshot().spans;
    let self_s = |leaf: &str| -> f64 {
        spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map(|(path, s)| {
                let prefix = format!("{path}/");
                let children: u128 = spans
                    .iter()
                    .filter(|(p, _)| {
                        p.strip_prefix(&prefix)
                            .is_some_and(|rest| !rest.contains('/'))
                    })
                    .map(|(_, c)| c.total_ns)
                    .sum();
                s.total_ns.saturating_sub(children) as f64 * 1e-9
            })
            .sum()
    };
    let fits = |final_only: bool| -> u64 {
        spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some("forest_fit"))
            .filter(|(path, _)| !final_only || !path.contains("grid_search"))
            .map(|(_, s)| s.count)
            .sum()
    };
    (
        self_s("grid_search"),
        self_s("forest_fit"),
        fits(false),
        fits(true),
    )
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);

    // Set-up: the study's fleets and the in-memory fit of the fixture
    // model, repeated so that `setup_s` is a median.
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let study = Study::load(StudyConfig {
            scale: SCALE,
            seed: run.seed,
        });
        let fixture = fit_fixture();
        setups.push(secs(start));
        prepared = Some((study, fixture));
    }
    let (study, (data, model)) = prepared.expect("at least one set-up");

    let tracer = Tracer::new(true);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut forest_figures = Vec::new();
    let mut work_counts: Vec<(u64, u64)> = Vec::new();
    let mut first_results: Option<String> = None;
    let start = Instant::now();
    let min_passes = if run.trace { 2 } else { 1 };
    while out.attempted < min_passes || secs(start) < run.seconds {
        let with_trace = run.trace && out.attempted % 2 == 1;
        out.attempted += 1;
        let pass = if with_trace {
            let registry = obs::Registry::with_stderr_level(obs::Level::Error);
            let pass = {
                let _installed = registry.install();
                run_pass(&tracer, run, &study)
            };
            forest_figures.push(forest_spans(&registry));
            work_counts.push((
                counter(&registry, "forest.trees_built"),
                counter(&registry, "forest.split_scan.dense")
                    + counter(&registry, "forest.split_scan.sparse"),
            ));
            pass
        } else {
            run_pass(&off, run, &study)
        };
        let pass = match pass {
            Ok(p) => p,
            Err(e) => {
                out.violation(e);
                break;
            }
        };
        match &first_results {
            None => first_results = Some(pass.results.clone()),
            Some(first) if *first != pass.results => {
                out.violation(format!("pass {} produced different results", out.attempted))
            }
            Some(_) => {}
        }
        if with_trace {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }
    if work_counts.windows(2).any(|w| w[0] != w[1]) {
        out.violation(format!(
            "trees built and split scans differ across passes: {work_counts:?}"
        ));
    }
    let peak_rss = peak_rss_mb();
    out.check_model_file(&model, &data, &run.scratch, run.trace);
    if untraced.is_empty() || (run.trace && traced.is_empty()) {
        return out;
    }

    let median = |f: fn(&Pass) -> f64| {
        stats::median(&untraced.iter().map(f).collect::<Vec<_>>()).expect("passes ran")
    };
    let subgroups = untraced.iter().map(|p| p.subgroup_ms.len()).sum::<usize>();
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let study_s = median(|p| p.study_s);
    let subgroups_per_s = median(|p| p.subgroup_ms.len() as f64 / p.experiments_s);
    let subgroup_p50 = median_subgroup_ms(
        &untraced
            .iter()
            .map(|p| p.subgroup_ms.clone())
            .collect::<Vec<_>>(),
    );
    let cpu_per_result =
        untraced.iter().map(|p| p.experiments_cpu_ms).sum::<f64>() / subgroups as f64;
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("peak_rss_mb", peak_rss);
    out.end_to_end.insert("throughput_per_s", subgroups_per_s);
    out.end_to_end.insert("p50_ms", subgroup_p50);
    out.end_to_end.insert("cpu_ms_per_op", cpu_per_result);

    let n = untraced.len();
    out.note(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUPS} set-ups"),
    );
    out.note("study_s", study_s, "s", &format!("median of {n} passes"));
    out.note(
        "subgroups_per_s",
        subgroups_per_s,
        "1/s",
        &format!("median of {n} passes"),
    );
    out.note(
        "subgroup_p50_ms",
        subgroup_p50,
        "ms",
        &format!("median of the 9 subgroups' medians over {n} passes"),
    );
    out.note(
        "cpu_ms_per_subgroup",
        cpu_per_result,
        "ms",
        &format!(
            "process CPU over {subgroups} subgroup experiments, {} threads",
            forest::parallel::thread_limit()
        ),
    );

    if run.trace {
        let per_pass = 1.0 / traced.len() as f64;
        let spans = tracer.spans();
        let t = LayerTimes::of(&spans);
        let first = &traced[0];
        let l = &mut out.layers;
        l.insert(
            "survival.busy_s".into(),
            t.busy_under("survival.") * per_pass,
        );
        l.insert("survival.curves".into(), first.curves as f64);
        l.insert("survival.logrank_tests".into(), first.logrank_tests as f64);
        l.insert(
            "core.experiment.busy_s".into(),
            t.busy("core.experiment") * per_pass,
        );
        let max_subgroup: Vec<f64> = traced
            .iter()
            .map(|p| p.subgroup_ms.iter().copied().fold(0.0, f64::max) / 1e3)
            .collect();
        l.insert(
            "core.experiment.max_subgroup_s".into(),
            stats::median(&max_subgroup).expect("traced passes ran"),
        );
        let mean = |f: fn(&(f64, f64, u64, u64)) -> f64| {
            forest_figures.iter().map(f).sum::<f64>() / forest_figures.len() as f64
        };
        l.insert("forest.grid_search.self_s".into(), mean(|f| f.0));
        l.insert("forest.fit.self_s".into(), mean(|f| f.1));
        let (_, _, fits, final_fits) = forest_figures[0];
        l.insert("forest.fits".into(), fits as f64);
        l.insert(
            "forest.grid.useful_ratio".into(),
            final_fits as f64 / fits as f64,
        );
        l.insert("forest.trees_built".into(), work_counts[0].0 as f64);
        l.insert("forest.split_scans".into(), work_counts[0].1 as f64);
        for layer in ["telemetry", "survival", "core", "bench"] {
            l.insert(
                format!("self_s.{layer}"),
                t.self_time_under(&format!("{layer}.")) * per_pass,
            );
        }
        l.insert(
            "trace.coverage".into(),
            child_coverage(&spans, "bench.pass"),
        );
        let traced_study = stats::median(&traced.iter().map(|p| p.study_s).collect::<Vec<_>>())
            .expect("traced passes ran");
        l.insert(
            "trace.overhead_pct".into(),
            (traced_study - study_s) / study_s * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_median_subgroup_is_the_median_of_per_subgroup_medians() {
        // Three subgroups of distinct cost; one noisy pass per subgroup.
        let passes = vec![
            vec![10.0, 100.0, 300.0],
            vec![11.0, 150.0, 310.0],
            vec![90.0, 101.0, 305.0],
        ];
        // Per-subgroup medians 11, 101, 305; their median is 101.
        assert_eq!(median_subgroup_ms(&passes), 101.0);
        assert_eq!(median_subgroup_ms(&passes[..1]), 100.0);
        assert!(median_subgroup_ms(&[]).is_nan());
    }
}
