//! Set-up shared by the workloads: the fixture model every workload
//! scores or serves with, the once-per-run check of its model file, and
//! the per-run result every workload returns.

use bench::model_source::{fixture_dataset, verify_persisted};
use forest::{Dataset, RandomForest, RandomForestParams};
use serve::{ForestKernel, ModelMeta, SavedModel};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Seed of the fixture model. The model is part of the system under
/// test, like the model file a daemon ships with, so it is the same at
/// every workload seed; the workload seed drives the fleets, splits and
/// traffic it is used on.
pub const FIXTURE_SEED: u64 = 2018;

/// Scale of the fixture fleet (Region 1) the model is fitted on.
pub const FIXTURE_SCALE: f64 = 0.25;

/// The fixture corpus and the model fitted on it in memory, the way
/// `bench::model_source` fits an untuned model. No model file is read:
/// while the model-file parser is quadratic in the file size, its time
/// tracks the host's cache state more than the program, so it stays out
/// of every gated metric (see [`check_model_file`]).
pub fn fit_fixture() -> (Dataset, SavedModel) {
    let data = fixture_dataset(FIXTURE_SCALE, FIXTURE_SEED);
    let params = RandomForestParams::default();
    let forest = RandomForest::fit(&data, &params, FIXTURE_SEED);
    let model = SavedModel::new(
        forest,
        ModelMeta {
            positive_fraction: data.class_fraction(1),
            seed: FIXTURE_SEED,
            params,
            grid: None,
        },
    );
    (data, model)
}

/// The model-file path, run once per run and off the clock: save the
/// fixture model under `dir`, load it back, and check with
/// `verify_persisted` that the reload predicts bitwise-equal and
/// re-renders byte-identical. Records `serve.model_bytes`; with
/// `timed`, also the per-layer times of save, load, the parse alone on
/// the same text, and the kernel build alone.
fn check_model_file(
    model: &SavedModel,
    data: &Dataset,
    dir: &Path,
    timed: bool,
    layers: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let path = dir.join(serve::MODEL_FILE);
    let t = Instant::now();
    model
        .save(&path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    let save_ms = secs(t) * 1e3;
    let t = Instant::now();
    let loaded = SavedModel::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let load_ms = secs(t) * 1e3;
    let bytes = verify_persisted(model, &loaded, data)?;
    layers.insert("serve.model_bytes".into(), bytes as f64);
    if timed {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let t = Instant::now();
        std::hint::black_box(obs::jsonv::parse(std::hint::black_box(&text)))
            .map_err(|e| format!("parse {}: {e}", path.display()))?;
        let parse_ms = secs(t) * 1e3;
        let t = Instant::now();
        std::hint::black_box(ForestKernel::from_forest(&loaded.forest));
        let build_ms = secs(t) * 1e3;
        layers.insert("serve.save_ms".into(), save_ms);
        layers.insert("serve.load_ms".into(), load_ms);
        layers.insert("obs.jsonv.parse_ms".into(), parse_ms);
        layers.insert("serve.kernel_build_ms".into(), build_ms);
    }
    Ok(())
}

/// A counter's value in `registry` (0 when never counted).
pub fn counter(registry: &obs::Registry, name: &str) -> u64 {
    registry.snapshot().counters.get(name).copied().unwrap_or(0)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    bench::fleet::peak_rss_kb() as f64 / 1024.0
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: fleet passes, study passes or requests.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per violated check.
    pub violations: Vec<String>,
    /// End-to-end metrics by contract name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by contract name (traced runs), plus the
    /// deterministic work counters in every run.
    pub layers: BTreeMap<String, f64>,
    /// The workload's own metrics under the names the workload
    /// definition gives them, with their units and sample counts,
    /// printed for people.
    pub report: Vec<String>,
}

impl Outcome {
    /// Records a violated check against one operation.
    pub fn violation(&mut self, message: String) {
        self.failed += 1;
        self.violations.push(message);
    }

    /// Adds a human-readable metric line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        self.report
            .push(format!("{name} = {value:.4} {unit}  ({detail})"));
    }

    /// Runs the once-per-run model-file check, counting it as one
    /// attempted operation.
    pub fn check_model_file(
        &mut self,
        model: &SavedModel,
        data: &Dataset,
        dir: &Path,
        timed: bool,
    ) {
        self.attempted += 1;
        if let Err(e) = check_model_file(model, data, dir, timed, &mut self.layers) {
            self.violation(e);
        }
    }
}
