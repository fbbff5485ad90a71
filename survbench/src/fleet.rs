//! `fleet_batch`: the nightly offline job an operator runs.
//!
//! For all three regions, shards visited serially: per-subscription
//! generation, fault injection, chunked lenient ingest, featurization
//! per (region, edition), blocked-kernel scoring and provisioning
//! decisions. The only workload where `telemetry` and `features`
//! dominate; it never trains in the timed part, never parses a request
//! body and opens no socket.

use crate::common::{counter, fit_fixture, peak_rss_mb, secs, Outcome};
use crate::trace::{child_coverage, LayerTimes, Tracer};
use crate::{cpu, stats, Run};
use bench::fleet::dataset_fingerprint;
use bench::policyart::canonical_spec;
use features::{FeatureConfig, FeatureExtractor};
use forest::Dataset;
use policy::{decide_batch, SubgroupKey};
use serve::{score_batch_recursive, score_batch_with, ForestKernel, SavedModel};
use std::time::Instant;
use telemetry::{
    generate_subscription, run_shard, Census, Edition, EventStream, FaultInjector, FaultPlan,
    Fleet, FleetConfig, IngestReport, LenientIngestor, RecoveryPolicy, RegionConfig, RegionId,
    ShardPlan,
};

/// Population scale of one pass (1.0 = canonical region sizes).
pub const SCALE: f64 = 2.0;
/// Shards per region, visited serially.
pub const SHARDS: usize = 8;
/// Whole subscriptions per ingest chunk.
pub const CHUNK_SUBSCRIPTIONS: usize = 32;
/// Per-event fault probability.
pub const FAULT_RATE: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Scale of the decomposed-versus-`run_shard` equivalence check.
const CHECK_SCALE: f64 = 0.05;
/// Rows per (region, edition) in the blocked-versus-recursive check.
const SAMPLE_ROWS: usize = 32;

/// The composite fault mix `fleetbench --fault` uses at `rate`.
fn fault_plan(rate: f64, seed: u64) -> FaultPlan {
    FaultPlan {
        drop_size: rate,
        duplicate: rate / 2.0,
        reorder: rate,
        truncate: rate / 2.0,
        orphan: rate / 4.0,
        ..FaultPlan::none(seed ^ 0xFA17)
    }
}

/// Per-region generation config, seeded the way `Study::load` seeds.
fn region_config(index: usize, region: RegionId, scale: f64, seed: u64) -> FleetConfig {
    FleetConfig::new(
        RegionConfig::canonical(region).scaled(scale),
        seed.wrapping_add(index as u64 * 0x9E37_79B9),
    )
}

/// One shard after generate → fault → ingest, driven call by call.
struct IngestedShard {
    fleet: Fleet,
    generated: usize,
    vanished: usize,
    events: u64,
    events_out: u64,
    chunks: u64,
    report: IngestReport,
}

/// The decomposition of `telemetry::stream::run_shard`, with a span
/// around each layer call.
fn ingest_shard(
    tracer: &Tracer,
    config: &FleetConfig,
    plan: &ShardPlan,
    shard: usize,
    injector: &FaultInjector,
) -> IngestedShard {
    let range = plan.range(shard);
    let mut subscriptions = Vec::with_capacity(range.len());
    let mut generated_ids: Vec<u64> = Vec::new();
    let mut ingestor = LenientIngestor::new(RecoveryPolicy::default());
    let (mut events, mut events_out, mut chunks) = (0u64, 0u64, 0u64);
    let mut next = range.start;
    while next < range.end {
        let chunk_end = (next + CHUNK_SUBSCRIPTIONS).min(range.end);
        let mut chunk_events = Vec::new();
        for sub_idx in next..chunk_end {
            let (subscription, databases, stream) = tracer.time("telemetry.generate", || {
                let (subscription, databases) = generate_subscription(config, sub_idx);
                let stream = EventStream::of_databases(&databases);
                (subscription, databases, stream)
            });
            generated_ids.extend(databases.iter().map(|d| d.id));
            events += stream.len() as u64;
            tracer.time("telemetry.faults", || {
                let (faulted, _summary) = injector.inject(&stream);
                events_out += faulted.len() as u64;
                chunk_events.extend(faulted.into_events());
            });
            subscriptions.push(subscription);
        }
        tracer.time("telemetry.ingest", || {
            ingestor.push_chunk(&EventStream::from_events_unsorted(chunk_events))
        });
        chunks += 1;
        next = chunk_end;
    }
    let (records, report) = tracer.time("telemetry.ingest", || ingestor.finish());
    let fleet = Fleet {
        config: config.clone(),
        subscriptions,
        databases: records,
    };
    // Vanished = generated ids neither recovered nor quarantined, by
    // id-set difference, so the counting identity is a real check.
    let vanished = generated_ids
        .iter()
        .filter(|&&id| {
            fleet.databases.binary_search_by_key(&id, |d| d.id).is_err()
                && report.quarantined_ids.binary_search(&id).is_err()
        })
        .count();
    IngestedShard {
        fleet,
        generated: generated_ids.len(),
        vanished,
        events,
        events_out,
        chunks,
        report,
    }
}

/// One pass's deterministic totals.
#[derive(Debug, Clone, Default, PartialEq)]
struct PassCounts {
    databases: u64,
    events: u64,
    events_out: u64,
    chunks: u64,
    recovered: u64,
    quarantined: u64,
    rows: u64,
    decided: u64,
}

/// Blocked-kernel scores of a row sample, kept for the recursive check.
struct Sample {
    rows: Dataset,
    probabilities: Vec<Vec<f64>>,
}

struct Pass {
    counts: PassCounts,
    wall_s: f64,
    shard_ms: Vec<f64>,
}

fn run_pass(
    tracer: &Tracer,
    run: &Run,
    kernel: &ForestKernel,
    q: f64,
    mut samples: Option<&mut Vec<Sample>>,
    out: &mut Outcome,
) -> Pass {
    let spec = canonical_spec();
    let injector = FaultInjector::new(fault_plan(FAULT_RATE, run.seed));
    let mut counts = PassCounts::default();
    let mut shard_ms = Vec::new();
    let start = Instant::now();
    let _pass = tracer.span("bench.pass");
    for (i, region) in RegionId::ALL.into_iter().enumerate() {
        let config = region_config(i, region, SCALE, run.seed);
        let plan = ShardPlan::new(config.region.subscription_count, SHARDS);
        let (mut generated, mut accounted) = (0usize, 0usize);
        for shard in 0..plan.shard_count() {
            let shard_start = Instant::now();
            let ingested = ingest_shard(tracer, &config, &plan, shard, &injector);
            let recovered = ingested.report.databases_recovered;
            let quarantined = ingested.report.databases_quarantined;
            if ingested.generated != recovered + quarantined + ingested.vanished {
                out.violations.push(format!(
                    "{region} shard {shard}: generated {} != recovered {recovered} + \
                     quarantined {quarantined} + vanished {}",
                    ingested.generated, ingested.vanished
                ));
            }
            generated += ingested.generated;
            accounted += recovered + quarantined + ingested.vanished;
            counts.databases += ingested.generated as u64;
            counts.events += ingested.events;
            counts.events_out += ingested.events_out;
            counts.chunks += ingested.chunks;
            counts.recovered += recovered as u64;
            counts.quarantined += quarantined as u64;

            let fleet = &ingested.fleet;
            let census = tracer.time("telemetry.census", || Census::new(fleet));
            let extractor = tracer.time("features.build", || {
                FeatureExtractor::new(&census, FeatureConfig::default())
            });
            for edition in Edition::ALL {
                let (dataset, _survival, indices) = tracer.time("features.build", || {
                    extractor.build_dataset_indexed(&census, Some(edition))
                });
                if dataset.is_empty() {
                    continue;
                }
                let long_lived: Vec<bool> = tracer.time("telemetry.census", || {
                    indices
                        .iter()
                        .map(|&i| census.is_long_lived(&fleet.databases[i]))
                        .collect()
                });
                let scored = tracer.time("serve.score", || score_batch_with(kernel, &dataset, q));
                let subgroup = SubgroupKey::new(region.to_string(), edition.to_string());
                let (actions, summary) = tracer.time("policy.decide", || {
                    decide_batch(&scored.facts(), &long_lived, &spec, &subgroup)
                });
                let decided: u64 = summary.counts.iter().sum();
                if decided != dataset.len() as u64 || actions.len() != dataset.len() {
                    out.violations.push(format!(
                        "{region}/{edition} shard {shard}: {decided} decisions for {} rows",
                        dataset.len()
                    ));
                }
                counts.rows += dataset.len() as u64;
                counts.decided += decided;
                if let Some(samples) = samples.as_deref_mut().filter(|_| shard == 0) {
                    let n = dataset.len().min(SAMPLE_ROWS);
                    samples.push(Sample {
                        rows: dataset.select(&(0..n).collect::<Vec<_>>()),
                        probabilities: scored.rows[..n]
                            .iter()
                            .map(|r| r.probabilities.clone())
                            .collect(),
                    });
                }
            }
            shard_ms.push(secs(shard_start) * 1e3);
        }
        if generated != accounted {
            out.violations.push(format!(
                "{region}: generated {generated} != accounted {accounted}"
            ));
        }
    }
    Pass {
        counts,
        wall_s: secs(start),
        shard_ms,
    }
}

/// Post-run check: the decomposed loop reproduces `run_shard` exactly.
fn check_decomposition(seed: u64) -> Result<(), String> {
    let plan_faults = fault_plan(FAULT_RATE, seed);
    let injector = FaultInjector::new(plan_faults);
    let off = Tracer::new(false);
    for (i, region) in RegionId::ALL.into_iter().enumerate() {
        let config = region_config(i, region, CHECK_SCALE, seed);
        let plan = ShardPlan::new(config.region.subscription_count, 2);
        for shard in 0..plan.shard_count() {
            let ours = ingest_shard(&off, &config, &plan, shard, &injector);
            let reference = run_shard(
                &config,
                &plan,
                shard,
                CHUNK_SUBSCRIPTIONS,
                Some(&plan_faults),
                &RecoveryPolicy::default(),
            );
            let fingerprint = |fleet: &Fleet| {
                let census = Census::new(fleet);
                let extractor = FeatureExtractor::new(&census, FeatureConfig::default());
                dataset_fingerprint(&extractor.build_dataset(&census, None).0)
            };
            let same = ours.generated == reference.generated_databases
                && ours.vanished == reference.vanished_databases
                && ours.report == reference.report
                && fingerprint(&ours.fleet) == fingerprint(&reference.fleet);
            if !same {
                return Err(format!(
                    "{region} shard {shard}: the decomposed pipeline differs from run_shard"
                ));
            }
        }
    }
    Ok(())
}

/// Post-run check: blocked-kernel scores equal the recursive reference
/// bitwise on the kept sample.
fn check_recursive(samples: &[Sample], model: &SavedModel) -> Result<(), String> {
    let q = model.meta.positive_fraction;
    for sample in samples {
        let reference = score_batch_recursive(&model.forest, &sample.rows, q);
        for (blocked, recursive) in sample.probabilities.iter().zip(&reference.rows) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(blocked) != bits(&recursive.probabilities) {
                return Err(format!(
                    "blocked and recursive scoring differ on sample row {}",
                    recursive.index
                ));
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);

    // Set-up: the fixture fleet, the in-memory fit and the scoring
    // kernel, repeated so that `setup_s` is a median.
    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (data, model) = fit_fixture();
        let kernel = model.kernel();
        setups.push(secs(start));
        fixture = Some((data, model, kernel));
    }
    let (data, model, kernel) = fixture.expect("at least one set-up");
    if let Err(e) = bench::model_source::check_schema(&model, &data) {
        out.violation(e);
        return out;
    }
    let q = model.meta.positive_fraction;

    // In a traced run, passes alternate untraced and traced, so the
    // tracing overhead is measured in one process on the same inputs.
    let tracer = Tracer::new(true);
    let mut samples = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut first_counts: Option<PassCounts> = None;
    let mut node_steps: Vec<u64> = Vec::new();
    let mut cpu_ms = 0.0;
    let start = Instant::now();
    let min_passes = if run.trace { 2 } else { 1 };
    while out.attempted < min_passes || secs(start) < run.seconds {
        let with_trace = run.trace && out.attempted % 2 == 1;
        let keep = out.attempted == 0;
        let violations_before = out.violations.len();
        out.attempted += 1;
        let pass = if with_trace {
            let registry = obs::Registry::with_stderr_level(obs::Level::Error);
            let pass = {
                let _installed = registry.install();
                run_pass(&tracer, run, &kernel, q, None, &mut out)
            };
            node_steps.push(counter(&registry, "serve.kernel.node_steps"));
            pass
        } else {
            let samples = keep.then_some(&mut samples);
            let cpu_before = cpu::process_cpu_ms();
            let pass = run_pass(&off, run, &kernel, q, samples, &mut out);
            match (cpu_before, cpu::process_cpu_ms()) {
                (Ok(before), Ok(after)) => cpu_ms += after - before,
                (Err(e), _) | (_, Err(e)) => out.violations.push(e),
            }
            pass
        };
        match &first_counts {
            None => first_counts = Some(pass.counts.clone()),
            Some(first) if *first != pass.counts => out.violations.push(format!(
                "pass {} did different work: {:?} != {first:?}",
                out.attempted, pass.counts
            )),
            Some(_) => {}
        }
        if out.violations.len() > violations_before {
            out.failed += 1;
        }
        if with_trace {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }
    if node_steps.windows(2).any(|w| w[0] != w[1]) {
        out.violation(format!(
            "kernel node steps differ across passes: {node_steps:?}"
        ));
    }
    let peak_rss = peak_rss_mb();

    out.attempted += 2;
    if let Err(e) = check_decomposition(run.seed) {
        out.violation(e);
    }
    if let Err(e) = check_recursive(&samples, &model) {
        out.violation(e);
    }
    out.check_model_file(&model, &data, &run.scratch, run.trace);

    let counts = first_counts.expect("at least one pass");
    let rates: Vec<f64> = untraced
        .iter()
        .map(|p| p.counts.databases as f64 / p.wall_s)
        .collect();
    let mut shard_ms: Vec<f64> = untraced.iter().flat_map(|p| p.shard_ms.clone()).collect();
    stats::sort(&mut shard_ms);
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let fleet_rate = stats::median(&rates).expect("an untraced pass ran");
    let shard_p50 = stats::median(&shard_ms).expect("shards ran");
    let databases = counts.databases * untraced.len() as u64;
    let cpu_per_1k = cpu_ms / (databases as f64 / 1e3);
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("peak_rss_mb", peak_rss);
    out.end_to_end.insert("throughput_per_s", fleet_rate);
    out.end_to_end.insert("p50_ms", shard_p50);
    out.end_to_end.insert("cpu_ms_per_op", cpu_per_1k);

    let n = untraced.len();
    out.note(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUPS} set-ups"),
    );
    out.note(
        "fleet_dbs_per_s",
        fleet_rate,
        "databases/s",
        &format!(
            "median of {n} passes of {} databases; range {:.0}-{:.0}",
            counts.databases,
            rates.iter().copied().fold(f64::INFINITY, f64::min),
            rates.iter().copied().fold(0.0, f64::max)
        ),
    );
    out.note(
        "shard_p50_ms",
        shard_p50,
        "ms",
        &format!("{} shard jobs", shard_ms.len()),
    );
    if let Some(tail) = stats::tail_quantile(shard_ms.len()) {
        let value = stats::percentile(&shard_ms, tail).expect("supported percentile");
        out.note(
            &format!("shard_{}_ms", stats::label(tail)),
            value,
            "ms",
            &format!("{} shard jobs", shard_ms.len()),
        );
    }
    out.note(
        "cpu_ms_per_1k_databases",
        cpu_per_1k,
        "ms",
        &format!("process CPU over {n} passes, {databases} databases"),
    );

    // Work counts are known in every run; the counter self-check
    // compares them across runs.
    let l = &mut out.layers;
    l.insert(
        "telemetry.generate.databases".into(),
        counts.databases as f64,
    );
    l.insert(
        "telemetry.faults.events_out".into(),
        counts.events_out as f64,
    );
    l.insert("features.rows".into(), counts.rows as f64);
    l.insert("policy.decide.rows".into(), counts.decided as f64);

    if run.trace {
        let per_pass = 1.0 / traced.len() as f64;
        let spans = tracer.spans();
        let t = LayerTimes::of(&spans);
        let l = &mut out.layers;
        l.insert(
            "telemetry.generate.busy_s".into(),
            t.busy("telemetry.generate") * per_pass,
        );
        l.insert("telemetry.generate.events".into(), counts.events as f64);
        l.insert(
            "telemetry.faults.busy_s".into(),
            t.busy("telemetry.faults") * per_pass,
        );
        l.insert(
            "telemetry.ingest.busy_s".into(),
            t.busy("telemetry.ingest") * per_pass,
        );
        l.insert("telemetry.ingest.chunks".into(), counts.chunks as f64);
        l.insert(
            "telemetry.ingest.quarantined".into(),
            counts.quarantined as f64,
        );
        l.insert(
            "telemetry.ingest.recovered_ratio".into(),
            counts.recovered as f64 / counts.databases as f64,
        );
        l.insert(
            "features.busy_s".into(),
            t.busy_under("features.") * per_pass,
        );
        l.insert(
            "serve.score.busy_s".into(),
            t.busy("serve.score") * per_pass,
        );
        l.insert("serve.score.rows".into(), counts.rows as f64);
        let steps = node_steps.first().copied().unwrap_or(0) as f64;
        l.insert("serve.kernel.node_steps".into(), steps);
        l.insert(
            "serve.kernel.node_steps_per_row".into(),
            steps / counts.rows as f64,
        );
        l.insert(
            "policy.decide.busy_s".into(),
            t.busy("policy.decide") * per_pass,
        );
        for layer in ["telemetry", "features", "serve", "policy", "bench"] {
            l.insert(
                format!("self_s.{layer}"),
                t.self_time_under(&format!("{layer}.")) * per_pass,
            );
        }
        l.insert(
            "trace.coverage".into(),
            child_coverage(&spans, "bench.pass"),
        );
        let walls = |ps: &[Pass]| stats::median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if let (Some(on), Some(off)) = (walls(&traced), walls(&untraced)) {
            l.insert("trace.overhead_pct".into(), (on - off) / off * 100.0);
        }
    }
    out
}
