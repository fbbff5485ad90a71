//! `serve_mix`: online scoring through `survd` on loopback.
//!
//! The daemon starts in-process with `ServerConfig::default()`, what it
//! ships with. One process offers open-loop, seeded Poisson traffic
//! over `nproc` keep-alive connections, one thread each: small requests
//! of 16 rows and bulk requests of 256 rows, 7 : 1 by count, at a
//! ladder of fixed rates. The only workload that exercises `survd`:
//! HTTP framing, the admission queue, the micro-batcher, and the wire
//! format. Small requests never fill a batch and wait for the flush
//! deadline; bulk requests flush at once but carry a large body, so a
//! change that helps one size and costs the other shows up here.

use crate::common::{counter, fit_fixture, peak_rss_mb, secs, Outcome};
use crate::cpu::{self, DaemonCpu};
use crate::loadgen::{self, Clock, Kind, Planned, Record, RungStats};
use crate::trace::{child_coverage, LayerTimes, Tracer};
use crate::{stats, Run};
use obs::Sketch;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use survd::{Client, RowScore, ServerConfig};
use telemetry::stream::derive_seed;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;
/// Offered rates, requests per second, and each rung's share of the
/// run's measured seconds. At a 30-second run the reference rung, the
/// second-lowest, holds about 1,800 requests (1,600 small, 220 bulk),
/// enough for a small p99 and a bulk p95 with ten samples beyond them,
/// and the third rung is long enough for a small p99. On a 2-core
/// machine the daemon saturates at 450-650 req/s: the two lowest rungs
/// are far below that, so the reference latency carries no queueing
/// behind the connection's previous request; the third is below it by
/// enough that machine noise rarely pushes its p99 over the limit, so
/// the capacity rung does not flip from run to run; the top rung is far
/// above it.
pub const RUNGS: [(f64, f64); 4] = [(50.0, 0.1), (100.0, 0.6), (250.0, 0.18), (800.0, 0.08)];
/// Index of the reference rung in [`RUNGS`].
pub const REFERENCE: usize = 1;
/// Small-request p99 limit a rung must meet to count toward capacity.
pub const LIMIT_MS: f64 = 100.0;
/// Distinct pre-rendered bodies per request size.
const SMALL_BODIES: usize = 64;
const BULK_BODIES: usize = 16;

/// A clock on the monotonic wall clock whose waits are traced as the
/// generator's own layer.
struct WallClock<'a> {
    origin: Instant,
    tracer: &'a Tracer,
}

impl Clock for WallClock<'_> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until_ns(&self, t: u64, request: u64) {
        let _wait = self.tracer.span_for("loadgen.wait", Some(request));
        loop {
            let now = self.now_ns();
            if now >= t {
                return;
            }
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// Bodies and the responses offline scoring says they must get.
struct Corpus {
    bodies: [Vec<String>; 2],
    expected: [Vec<Vec<u8>>; 2],
    feature_count: usize,
}

impl Corpus {
    fn slot(kind: Kind) -> usize {
        match kind {
            Kind::Small => 0,
            Kind::Bulk => 1,
        }
    }

    fn body(&self, kind: Kind, index: usize) -> &str {
        &self.bodies[Corpus::slot(kind)][index]
    }

    fn expected(&self, kind: Kind, index: usize) -> &[u8] {
        &self.expected[Corpus::slot(kind)][index]
    }
}

/// Renders every request body and its expected response from the
/// fixture rows and offline `serve::score_rows`.
fn corpus(seed: u64, data: &forest::Dataset, model: &serve::SavedModel) -> Corpus {
    let rows: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i)).collect();
    let offline = serve::score_rows(&model.forest, &rows, model.meta.positive_fraction);
    let scores: Vec<RowScore> = offline.rows.iter().map(RowScore::from_scored).collect();
    let mut bodies = [Vec::new(), Vec::new()];
    let mut expected = [Vec::new(), Vec::new()];
    for (kind, count) in [(Kind::Small, SMALL_BODIES), (Kind::Bulk, BULK_BODIES)] {
        for b in 0..count {
            let start = derive_seed(seed ^ 0xB0D1, (Corpus::slot(kind) * 1000 + b) as u64) as usize
                % rows.len();
            let picked: Vec<usize> = (0..kind.rows()).map(|j| (start + j) % rows.len()).collect();
            let request: Vec<Vec<f64>> = picked.iter().map(|&i| rows[i].clone()).collect();
            let response: Vec<RowScore> = picked.iter().map(|&i| scores[i].clone()).collect();
            bodies[Corpus::slot(kind)].push(survd::render_score_request(&request));
            expected[Corpus::slot(kind)]
                .push(survd::render_score_response(1, model.threshold(), &response).into_bytes());
        }
    }
    Corpus {
        bodies,
        expected,
        feature_count: data.feature_count(),
    }
}

/// One rung's records, sent over `connections` connections.
fn run_rung(
    tracer: &Tracer,
    addr: std::net::SocketAddr,
    corpus: &Corpus,
    plan: &[Planned],
    connections: usize,
) -> Vec<Record> {
    let clock_origin = Instant::now();
    // Connections open before the first due time.
    let start_ns = 50_000_000;
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                let mine: Vec<Planned> =
                    plan.iter().filter(|p| p.connection == c).cloned().collect();
                scope.spawn(move || {
                    let clock = WallClock {
                        origin: clock_origin,
                        tracer,
                    };
                    let _connection = tracer.span("bench.connection");
                    let mut client = Client::connect(addr, Some(Duration::from_secs(30))).ok();
                    loadgen::drive(&clock, start_ns, &mine, |p| {
                        let _request = tracer.span_for("survd.request", Some(p.id));
                        let Some(c) = client.as_mut() else {
                            return (0, Vec::new());
                        };
                        match c.score(corpus.body(p.kind, p.body)) {
                            Ok(response) => (response.status, response.body),
                            Err(_) => {
                                // The connection is unusable after a
                                // transport error; later requests on it
                                // fail too.
                                client = None;
                                (0, Vec::new())
                            }
                        }
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("connection thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.id);
    records
}

/// Per-request verdicts: failed unless a 200 whose body equals the
/// offline response byte for byte (equal bytes are bitwise-equal
/// scores). Returns (failed flags, shed, errors, mismatches).
fn verify(corpus: &Corpus, records: &[Record]) -> (Vec<bool>, u64, u64, u64) {
    let (mut shed, mut errors, mut mismatches) = (0, 0, 0);
    let failed = records
        .iter()
        .map(|r| match r.status {
            200 if r.response == corpus.expected(r.kind, r.body) => false,
            200 => {
                mismatches += 1;
                true
            }
            429 => {
                shed += 1;
                true
            }
            _ => {
                errors += 1;
                true
            }
        })
        .collect();
    (failed, shed, errors, mismatches)
}

/// Median time of `parse_score_request` over the bulk bodies, ms.
fn parse_requests(corpus: &Corpus) -> Result<f64, String> {
    let mut ms = Vec::new();
    for body in &corpus.bodies[Corpus::slot(Kind::Bulk)] {
        let t = Instant::now();
        std::hint::black_box(survd::parse_score_request(
            body,
            corpus.feature_count,
            usize::MAX,
        )?);
        ms.push(secs(t) * 1e3);
    }
    Ok(stats::median(&ms).expect("bulk bodies exist"))
}

/// `"p50 X, pNN Y ms (n=N)"` for one latency sample, each percentile
/// only when ten samples lie beyond it.
fn latency_summary(sorted: &[f64]) -> String {
    let p50 = stats::percentile(sorted, 0.5).map_or("n/a".to_string(), |x| format!("{x:.3}"));
    let tail = stats::tail_quantile(sorted.len()).map_or("no tail".to_string(), |q| {
        let x = stats::percentile(sorted, q).expect("supported percentile");
        format!("{} {x:.3}", stats::label(q))
    });
    format!("p50 {p50}, {tail} ms (n={})", sorted.len())
}

fn rung_line(r: &RungStats) -> String {
    format!(
        "rung {:>6.0} req/s: sent {} failed {}, small {}, bulk {}, lateness {}, \
         growth {:.3} ms, completed {:.1}/s, sustained {}",
        r.rate,
        r.sent,
        r.failed,
        latency_summary(&r.small_ms),
        latency_summary(&r.bulk_ms),
        latency_summary(&r.lateness_ms),
        r.lateness_growth_ms,
        r.completed_per_s,
        r.sustained(LIMIT_MS)
    )
}

/// What the daemon had done at one instant: its threads' CPU, its
/// counters and its stage sketches. Two readings around the reference
/// rate give the per-layer figures of that rate alone.
struct Reading {
    cpu: Result<DaemonCpu, String>,
    stats: survd::StatsSnapshot,
    sketches: BTreeMap<String, Sketch>,
}

impl Reading {
    fn take(handle: &survd::ServerHandle, registry: &obs::Registry) -> Reading {
        Reading {
            cpu: cpu::daemon_cpu(),
            stats: handle.stats(),
            sketches: registry.snapshot().sketches,
        }
    }

    /// The observations sketch `name` gained since `earlier`.
    fn sketch_since(&self, earlier: &Reading, name: &str) -> Sketch {
        gained(earlier.sketches.get(name), self.sketches.get(name))
    }
}

/// The observations a cumulative sketch gained from `start` to `end`.
/// Each bucket's gain is re-observed at the bucket's upper bound, which
/// lands in the same bucket, so quantiles read as the daemon's own.
fn gained(start: Option<&Sketch>, end: Option<&Sketch>) -> Sketch {
    let mut window = Sketch::new();
    let empty = Sketch::new();
    if let Some(end) = end {
        let start = start.unwrap_or(&empty);
        for (i, (e, s)) in end.counts().iter().zip(start.counts()).enumerate() {
            window.observe_n(obs::sketch::bucket_upper_bound(i), e - s);
        }
    }
    window
}

/// Starts the daemon on the in-memory fixture model, the way a
/// deployment hands it a model it has just fitted.
fn start_daemon(
    registry: &Arc<obs::Registry>,
) -> Result<(survd::ServerHandle, forest::Dataset, serve::SavedModel), String> {
    let (data, model) = fit_fixture();
    let handle = survd::start(
        model.clone(),
        ServerConfig::default(),
        Some(Arc::clone(registry)),
    )
    .map_err(|e| format!("cannot start survd: {e}"))?;
    Ok((handle, data, model))
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let connections = std::thread::available_parallelism().map_or(1, |n| n.get());
    let registry = Arc::new(obs::Registry::with_stderr_level(obs::Level::Error));

    // Set-up: the fixture fleet, the in-memory fit and a daemon start,
    // repeated so that `setup_s` is a median. The previous set-up's
    // daemon drains before the next starts.
    let mut setups = Vec::new();
    let mut live: Option<(survd::ServerHandle, forest::Dataset, serve::SavedModel)> = None;
    for _ in 0..SETUPS {
        if let Some((handle, ..)) = live.take() {
            survd::ServerHandle::shutdown(handle);
        }
        let start = Instant::now();
        match start_daemon(&registry) {
            Ok(l) => live = Some(l),
            Err(e) => {
                out.violation(e);
                return out;
            }
        }
        setups.push(secs(start));
    }
    let (handle, data, model) = live.expect("at least one set-up");
    if data.len() < Kind::Bulk.rows() {
        out.violation(format!("fixture corpus has only {} rows", data.len()));
        handle.shutdown();
        return out;
    }
    let corpus = corpus(run.seed, &data, &model);
    let addr = handle.addr();
    let tracer = Tracer::new(run.trace);

    // In a traced run, the reference rung first runs untraced and
    // without the registry installed, for the tracing overhead.
    let mut untraced_p50 = None;
    if run.trace {
        let (rate, share) = RUNGS[REFERENCE];
        let plan = loadgen::schedule(
            run.seed,
            1 << 40,
            rate,
            run.seconds * share / 2.0,
            connections,
            SMALL_BODIES,
            BULK_BODIES,
        );
        let records = run_rung(&off, addr, &corpus, &plan, connections);
        let (failed, ..) = verify(&corpus, &records);
        let bad = failed.iter().filter(|&&f| f).count();
        if bad > 0 {
            out.violations.push(format!(
                "{bad} requests failed in the untraced reference rung"
            ));
        }
        out.attempted += records.len() as u64;
        out.failed += bad as u64;
        untraced_p50 = stats::median(&loadgen::rung_stats(rate, &records, &failed).small_ms);
    }
    let installed = run.trace.then(|| registry.install());
    let before = handle.stats();

    let mut rungs = Vec::new();
    let (mut shed, mut errors, mut mismatches, mut ok, mut request_bytes) = (0, 0, 0, 0u64, 0u64);
    let mut next_id = 0;
    let mut lateness = Vec::new();
    let mut window = None;
    let mut reference_ok = 0u64;
    for (r, &(rate, share)) in RUNGS.iter().enumerate() {
        let plan = loadgen::schedule(
            derive_seed(run.seed, r as u64),
            next_id,
            rate,
            run.seconds * share,
            connections,
            SMALL_BODIES,
            BULK_BODIES,
        );
        next_id += plan.len() as u64;
        let reading_before = Reading::take(&handle, &registry);
        let records = run_rung(&tracer, addr, &corpus, &plan, connections);
        let reading_after = Reading::take(&handle, &registry);
        let (failed, s, e, m) = verify(&corpus, &records);
        let rung_ok = failed.iter().filter(|&&f| !f).count() as u64;
        shed += s;
        errors += e;
        mismatches += m;
        ok += rung_ok;
        request_bytes += records
            .iter()
            .map(|r| corpus.body(r.kind, r.body).len() as u64)
            .sum::<u64>();
        out.attempted += records.len() as u64;
        out.failed += failed.iter().filter(|&&f| f).count() as u64;
        if r == REFERENCE {
            window = Some((reading_before, reading_after));
            reference_ok = rung_ok;
            lateness = records.iter().map(Record::lateness_ms).collect();
        }
        rungs.push(loadgen::rung_stats(rate, &records, &failed));
    }
    drop(installed);
    let after = handle.stats();
    let final_stats = handle.shutdown();
    if mismatches > 0 {
        out.violations.push(format!(
            "{mismatches} responses differ from offline scoring"
        ));
    }
    if shed + errors > 0 {
        out.violations
            .push(format!("{shed} requests shed and {errors} failed"));
    }
    if after.score_ok - before.score_ok != ok {
        out.violations.push(format!(
            "the daemon counted {} ok responses, the clients {ok}",
            after.score_ok - before.score_ok
        ));
    }
    let peak_rss = peak_rss_mb();
    out.check_model_file(&model, &data, &run.scratch, run.trace);

    for r in &rungs {
        out.report.push(rung_line(r));
    }
    let reference = &rungs[REFERENCE];
    let Some(small_p50) = stats::percentile(&reference.small_ms, 0.5) else {
        out.violation(format!(
            "only {} small requests at the reference rate",
            reference.small_ms.len()
        ));
        return out;
    };
    let (at_start, at_end) = window.expect("the ladder has a reference rung");
    let reference_cpu = match (&at_start.cpu, &at_end.cpu) {
        (Ok(start), Ok(end)) => end.since(start),
        (Err(e), _) | (_, Err(e)) => {
            out.violation(e.clone());
            return out;
        }
    };
    let per_request_ms = |ns: u64| ns as f64 / 1e6 / reference_ok.max(1) as f64;
    let cpu_per_request = per_request_ms(reference_cpu.total_ns());
    let capacity = loadgen::capacity(&rungs, LIMIT_MS);
    let setup_s = stats::median(&setups).expect("set-ups ran");
    out.end_to_end.insert("setup_s", setup_s);
    out.end_to_end.insert("peak_rss_mb", peak_rss);
    out.end_to_end
        .insert("throughput_per_s", reference.completed_per_s);
    out.end_to_end.insert("p50_ms", small_p50);
    out.end_to_end.insert("cpu_ms_per_op", cpu_per_request);

    let at = format!("reference rate {} req/s", RUNGS[REFERENCE].0);
    out.note(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUPS} set-ups"),
    );
    out.note(
        "completed_per_s",
        reference.completed_per_s,
        "1/s",
        &format!("{reference_ok} 200s at the {at}"),
    );
    out.note(
        "small_p50_ms",
        small_p50,
        "ms",
        &format!("{at}, n={}", reference.small_ms.len()),
    );
    out.note(
        "daemon_cpu_ms_per_request",
        cpu_per_request,
        "ms",
        &format!("survd-* threads over {reference_ok} requests at the {at}"),
    );
    out.note(
        "capacity_rps",
        capacity.map_or(0.0, |c| c.rate),
        "req/s",
        &format!(
            "highest rung with small p99 <= {LIMIT_MS} ms and no growing lateness; \
             completed {:.1} req/s there",
            capacity.map_or(0.0, |c| c.completed_per_s)
        ),
    );

    out.layers
        .insert("survd.wire.request_bytes".into(), request_bytes as f64);

    if run.trace {
        let sketch = |name: &str, q: f64| at_end.sketch_since(&at_start, name).quantile(q);
        let spans = tracer.spans();
        let t = LayerTimes::of(&spans);
        let l = &mut out.layers;
        l.insert(
            "survd.cpu_ms_per_req.accept".into(),
            per_request_ms(reference_cpu.accept_ns),
        );
        l.insert(
            "survd.cpu_ms_per_req.workers".into(),
            per_request_ms(reference_cpu.workers_ns),
        );
        l.insert(
            "survd.cpu_ms_per_req.batch".into(),
            per_request_ms(reference_cpu.batch_ns),
        );
        for stage in [
            "queue_wait_ms",
            "batch_wait_ms",
            "score_ms",
            "write_ms",
            "total_ms",
        ] {
            for q in [0.5, 0.99] {
                l.insert(
                    format!("survd.stage.{stage}.{}", stats::label(q)),
                    sketch(&format!("survd.stage.{stage}"), q),
                );
            }
        }
        let batches = at_end.stats.batches - at_start.stats.batches;
        l.insert("survd.batches".into(), batches as f64);
        l.insert(
            "survd.rows_per_batch".into(),
            (at_end.stats.rows_scored - at_start.stats.rows_scored) as f64 / batches.max(1) as f64,
        );
        l.insert("survd.queue_peak".into(), final_stats.queue_peak as f64);
        l.insert("survd.requests.shed".into(), shed as f64);
        l.insert("survd.requests.error".into(), errors as f64);
        match parse_requests(&corpus) {
            Ok(ms) => {
                l.insert("survd.wire.parse_request_ms".into(), ms);
            }
            Err(e) => out.violations.push(e),
        }
        if let Some(small_p99) = stats::percentile(&reference.small_ms, 0.99) {
            l.insert(
                "survd.unattributed_ms.p99".into(),
                small_p99 - sketch("survd.stage.total_ms", 0.99),
            );
        }
        stats::sort(&mut lateness);
        if let Some(p99) = stats::percentile(&lateness, 0.99) {
            l.insert("loadgen.lateness_p99_ms".into(), p99);
        }
        let rows = after.rows_scored - before.rows_scored;
        let steps = counter(&registry, "serve.kernel.node_steps") as f64;
        l.insert("serve.score.rows".into(), rows as f64);
        l.insert("serve.kernel.node_steps".into(), steps);
        l.insert(
            "serve.kernel.node_steps_per_row".into(),
            steps / rows.max(1) as f64,
        );
        for layer in ["survd", "loadgen", "bench"] {
            l.insert(
                format!("self_s.{layer}"),
                t.self_time_under(&format!("{layer}.")),
            );
        }
        l.insert(
            "trace.coverage".into(),
            child_coverage(&spans, "bench.connection"),
        );
        if let Some(base) = untraced_p50 {
            l.insert(
                "trace.overhead_pct".into(),
                (small_p50 - base) / base * 100.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_keeps_only_what_the_sketch_gained() {
        let mut start = Sketch::new();
        for v in [0.5, 3.0, 3.0, 1e12] {
            start.observe(v);
        }
        let mut end = start.clone();
        let mut expected = Sketch::new();
        for v in [0.0, 1.5, 2.0, 7.0, 7.0, 7.0, f64::INFINITY] {
            end.observe(v);
            expected.observe(v);
        }
        let window = gained(Some(&start), Some(&end));
        assert_eq!(window, expected);
        assert_eq!(window.quantile(0.5), expected.quantile(0.5));
        assert_eq!(gained(None, Some(&end)), end);
        assert!(gained(Some(&start), None).is_empty());
    }
}
