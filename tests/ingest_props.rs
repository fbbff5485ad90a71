//! `ingest_props` — the per-database locality laws the ingest and
//! stream layers are built on, held under proptest.
//!
//! * **Lenient-fold locality.** `LenientIngestor` state is per database
//!   and its report is a sum of per-database tallies, so for any faulted
//!   stream and any [`RecoveryPolicy`] toggle combination the records
//!   and the [`IngestReport`] depend only on each database's own arrival
//!   order: re-interleaving different databases' events, or cutting the
//!   stream into chunks at database boundaries, changes nothing.
//! * **Subscription-stream order.** `EventStream::of_databases` equals
//!   its defining oracle: every `of_database` stream, concatenated in
//!   slice order, then stable-sorted by time.

use proptest::prelude::*;
use simtime::{Duration, Timestamp};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use telemetry::stream::splitmix64;
use telemetry::{
    generate_subscription, reconstruct_records_lenient, DatabaseRecord, EventStream, FaultInjector,
    FaultPlan, Fleet, FleetConfig, IngestReport, LenientIngestor, RecoveryPolicy, RegionConfig,
    RegionId, SizeTrace, SloCatalog, SloChange, SubscriptionId, SubscriptionType, TelemetryEvent,
    UtilizationTrace,
};

type Event = (Timestamp, TelemetryEvent);

fn fleet() -> &'static Fleet {
    static FLEET: OnceLock<Fleet> = OnceLock::new();
    FLEET.get_or_init(|| {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.02), 909))
    })
}

/// A faulted arrival-order stream exercising every fault kind.
fn faulted_events(seed: u64, rate: f64) -> Vec<Event> {
    let plan = FaultPlan {
        drop_created: rate / 4.0,
        drop_size: rate,
        drop_utilization: rate,
        drop_slo_changed: rate / 2.0,
        drop_dropped: rate / 2.0,
        duplicate: rate,
        reorder: rate,
        truncate: rate / 2.0,
        corrupt_slo: rate / 2.0,
        orphan: rate / 4.0,
        ..FaultPlan::none(seed)
    };
    let (faulted, _) = FaultInjector::new(plan).inject(&EventStream::of_fleet(fleet()));
    faulted.into_events()
}

/// One [`RecoveryPolicy`] per 6-bit toggle mask.
fn policy_of(mask: u8) -> RecoveryPolicy {
    RecoveryPolicy {
        resort: mask & 1 != 0,
        dedup: mask & 2 != 0,
        synthesize_missing_samples: mask & 4 != 0,
        discard_post_drop: mask & 8 != 0,
        clamp_out_of_range: mask & 16 != 0,
        repair_unknown_creation_slo: mask & 32 != 0,
    }
}

/// Deterministic Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Each database's events, in arrival order, keyed by id.
fn per_database(events: &[Event]) -> BTreeMap<u64, Vec<Event>> {
    let mut runs: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
    for event in events {
        runs.entry(event.1.db_id()).or_default().push(event.clone());
    }
    runs
}

/// A random interleaving of `runs` that keeps each run's order: shuffle
/// one slot token per event, then fill each token with the next event
/// of its database.
fn interleave(runs: Vec<Vec<Event>>, seed: u64) -> Vec<Event> {
    let mut tokens: Vec<usize> = runs
        .iter()
        .enumerate()
        .flat_map(|(i, run)| std::iter::repeat_n(i, run.len()))
        .collect();
    shuffle(&mut tokens, seed);
    let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    tokens
        .into_iter()
        .map(|i| iters[i].next().expect("one token per event"))
        .collect()
}

fn ingest_chunks(
    chunks: Vec<Vec<Event>>,
    policy: RecoveryPolicy,
) -> (Vec<DatabaseRecord>, IngestReport) {
    let mut ingestor = LenientIngestor::new(policy);
    for chunk in chunks {
        ingestor.push_chunk(&EventStream::from_events_unsorted(chunk));
    }
    ingestor.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn lenient_fold_depends_only_on_per_database_arrival_order(
        seed in any::<u64>(),
        rate in 0.0..0.4f64,
        mask in 0u8..64,
        order_seed in any::<u64>(),
        cuts in 1usize..40,
    ) {
        let policy = policy_of(mask);
        let events = faulted_events(seed, rate);
        let reference = reconstruct_records_lenient(
            &EventStream::from_events_unsorted(events.clone()),
            &policy,
        );

        // Same stream, databases re-interleaved, one chunk.
        let runs: Vec<Vec<Event>> = per_database(&events).into_values().collect();
        let reinterleaved = interleave(runs.clone(), order_seed);
        prop_assert_eq!(
            &reconstruct_records_lenient(&EventStream::from_events_unsorted(reinterleaved), &policy),
            &reference
        );

        // Databases in shuffled order, cut into chunks at database
        // boundaries, each chunk re-interleaved.
        let mut runs = runs;
        shuffle(&mut runs, splitmix64(order_seed));
        let per_chunk = runs.len().div_ceil(cuts).max(1);
        let mut chunks = Vec::new();
        let mut rest = runs.into_iter().peekable();
        let mut k = 0u64;
        while rest.peek().is_some() {
            let group: Vec<Vec<Event>> = rest.by_ref().take(per_chunk).collect();
            chunks.push(interleave(group, order_seed ^ k));
            k += 1;
        }
        prop_assert_eq!(&ingest_chunks(chunks, policy), &reference);
    }
}

/// The defining order of `of_databases`: per-database streams,
/// concatenated in slice order, then stable-sorted by time.
fn oracle(databases: &[DatabaseRecord]) -> Vec<Event> {
    let mut events: Vec<Event> = databases
        .iter()
        .flat_map(|db| EventStream::of_database(db).into_events())
        .collect();
    events.sort_by_key(|(t, _)| *t);
    events
}

#[test]
fn subscription_streams_match_the_two_sort_oracle() {
    let config = FleetConfig::new(RegionConfig::region_2().scaled(0.05), 31);
    let mut checked = 0;
    for sub_idx in 0..config.region.subscription_count.min(200) {
        let (_, mut databases) = generate_subscription(&config, sub_idx);
        assert_eq!(
            EventStream::of_databases(&databases).into_events(),
            oracle(&databases)
        );
        // Slice position, not id, breaks cross-database time ties.
        shuffle(&mut databases, sub_idx as u64);
        assert_eq!(
            EventStream::of_databases(&databases).into_events(),
            oracle(&databases)
        );
        checked += databases.len();
    }
    assert!(checked > 100, "only {checked} databases checked");
}

fn hand_built(
    id: u64,
    at: Timestamp,
    slos: &[(i64, &str)],
    dropped_hours: Option<i64>,
) -> DatabaseRecord {
    let samples = |v: f64| -> Vec<(Duration, f64)> {
        (0..3).map(|h| (Duration::hours(h), v + h as f64)).collect()
    };
    DatabaseRecord {
        id,
        region: RegionId::Region1,
        server_name: format!("srv{id}"),
        database_name: format!("db{id}"),
        subscription_id: SubscriptionId(1),
        subscription_type: SubscriptionType::PayAsYouGo,
        created_at: at,
        dropped_at: dropped_hours.map(|h| at + Duration::hours(h)),
        slo_history: slos
            .iter()
            .map(|&(h, name)| SloChange {
                at: at + Duration::hours(h),
                slo_index: SloCatalog::index_of(name).expect("catalog SLO"),
            })
            .collect(),
        size_trace: SizeTrace::new(samples(10.0)),
        utilization_trace: UtilizationTrace::new(samples(5.0)),
        elastic_pool: None,
        is_internal: false,
    }
}

#[test]
fn colliding_timestamps_across_databases_match_the_oracle() {
    let t = Timestamp::from_epoch_seconds(1_500_000_000);
    // Every database is created at `t` and samples on the same hours;
    // SLO changes and drops land on sample instants, and one database
    // changes SLO twice in the same second. Ids run against slice order.
    let databases = vec![
        hand_built(30, t, &[(0, "S0"), (1, "S1")], Some(2)),
        hand_built(10, t, &[(0, "B"), (2, "S2"), (2, "P1")], None),
        hand_built(20, t, &[(0, "P1")], Some(1)),
        hand_built(15, t + Duration::hours(1), &[(0, "S3"), (1, "S1")], Some(1)),
    ];
    let events = EventStream::of_databases(&databases).into_events();
    assert_eq!(events, oracle(&databases));
    let mut reversed = databases.clone();
    reversed.reverse();
    assert_eq!(
        EventStream::of_databases(&reversed).into_events(),
        oracle(&reversed)
    );
    // The tie-break is visible: at `t` the first database's creation
    // and samples come before the second database's creation.
    let at_t: Vec<u64> = events
        .iter()
        .take_while(|(at, _)| *at == t)
        .map(|(_, e)| e.db_id())
        .collect();
    assert_eq!(at_t, vec![30, 30, 30, 10, 10, 10, 20, 20, 20]);
}
