//! Telemetry event streams.
//!
//! The paper's raw input is "telemetry that is emitted from each unique
//! database from its creation through to when it is dropped" (§2). This
//! module flattens a fleet into that stream shape: a time-ordered
//! sequence of create / size / SLO-change / edition-change / drop
//! events. The feature pipeline works from [`DatabaseRecord`]s directly,
//! but the stream is the realistic ingestion surface — the quickstart
//! example consumes it, and tests check it round-trips with the records.

use crate::catalog::Edition;
use crate::database::DatabaseRecord;
use crate::fleet::Fleet;
use crate::subscription::SubscriptionId;
use simtime::Timestamp;

/// One telemetry event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A database was created. Carries the creation metadata a real
    /// control-plane event would: identity, placement, offer, names,
    /// and the initial SLO.
    Created {
        /// Database id.
        db_id: u64,
        /// Owning subscription.
        subscription: SubscriptionId,
        /// Offer type of the owning subscription.
        subscription_type: crate::subscription::SubscriptionType,
        /// Hosting region.
        region: crate::region::RegionId,
        /// Logical server name.
        server_name: String,
        /// Database name.
        database_name: String,
        /// Creation edition.
        edition: Edition,
        /// Initial SLO name.
        slo: &'static str,
        /// Elastic-pool membership at creation.
        elastic_pool: Option<u32>,
        /// True for Microsoft-internal subscriptions.
        is_internal: bool,
    },
    /// A periodic size report.
    SizeSample {
        /// Database id.
        db_id: u64,
        /// Reported size in MB.
        size_mb: f64,
    },
    /// A periodic DTU-utilization report.
    UtilizationSample {
        /// Database id.
        db_id: u64,
        /// DTU percentage in [0, 100].
        dtu_percent: f64,
    },
    /// The database moved to a different SLO (same or new edition).
    SloChanged {
        /// Database id.
        db_id: u64,
        /// New SLO name.
        slo: &'static str,
        /// True when the move crossed editions.
        edition_changed: bool,
    },
    /// The database was dropped.
    Dropped {
        /// Database id.
        db_id: u64,
    },
}

impl TelemetryEvent {
    /// The database this event belongs to.
    pub fn db_id(&self) -> u64 {
        match self {
            TelemetryEvent::Created { db_id, .. }
            | TelemetryEvent::SizeSample { db_id, .. }
            | TelemetryEvent::UtilizationSample { db_id, .. }
            | TelemetryEvent::SloChanged { db_id, .. }
            | TelemetryEvent::Dropped { db_id } => *db_id,
        }
    }

    /// The SLO label the event carries, if any.
    pub fn slo_name(&self) -> Option<&'static str> {
        match self {
            TelemetryEvent::Created { slo, .. } | TelemetryEvent::SloChanged { slo, .. } => {
                Some(slo)
            }
            _ => None,
        }
    }

    /// Replaces the SLO label on label-carrying events; a no-op on the
    /// rest. Used by fault injection to corrupt labels.
    pub fn set_slo_name(&mut self, name: &'static str) {
        match self {
            TelemetryEvent::Created { slo, .. } | TelemetryEvent::SloChanged { slo, .. } => {
                *slo = name;
            }
            _ => {}
        }
    }
}

/// Ordering rank for events sharing a timestamp: creations first,
/// drops last.
pub(crate) fn event_rank(e: &TelemetryEvent) -> u8 {
    match e {
        TelemetryEvent::Created { .. } => 0,
        TelemetryEvent::SloChanged { .. } => 1,
        TelemetryEvent::SizeSample { .. } => 2,
        TelemetryEvent::UtilizationSample { .. } => 3,
        TelemetryEvent::Dropped { .. } => 4,
    }
}

/// Appends one database's events in emission order: creation, SLO
/// changes, size samples, utilization samples, drop.
fn push_database_events(db: &DatabaseRecord, events: &mut Vec<(Timestamp, TelemetryEvent)>) {
    events.push((
        db.created_at,
        TelemetryEvent::Created {
            db_id: db.id,
            subscription: db.subscription_id,
            subscription_type: db.subscription_type,
            region: db.region,
            server_name: db.server_name.clone(),
            database_name: db.database_name.clone(),
            edition: db.creation_edition(),
            slo: db.creation_slo().name,
            elastic_pool: db.elastic_pool,
            is_internal: db.is_internal,
        },
    ));
    let mut prev_edition = db.creation_edition();
    for change in &db.slo_history[1..] {
        let edition = change.edition();
        events.push((
            change.at,
            TelemetryEvent::SloChanged {
                db_id: db.id,
                slo: crate::catalog::SloCatalog::get(change.slo_index).name,
                edition_changed: edition != prev_edition,
            },
        ));
        prev_edition = edition;
    }
    // Every trace sample is emitted (including the offset-0 report) so
    // the stream fully determines the record — the ingestion module
    // reconstructs records from streams and round-trips.
    for &(offset, size_mb) in db.size_trace.samples() {
        events.push((
            db.created_at + offset,
            TelemetryEvent::SizeSample {
                db_id: db.id,
                size_mb,
            },
        ));
    }
    for &(offset, dtu_percent) in db.utilization_trace.samples() {
        events.push((
            db.created_at + offset,
            TelemetryEvent::UtilizationSample {
                db_id: db.id,
                dtu_percent,
            },
        ));
    }
    if let Some(at) = db.dropped_at {
        events.push((at, TelemetryEvent::Dropped { db_id: db.id }));
    }
}

/// A time-ordered telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStream {
    events: Vec<(Timestamp, TelemetryEvent)>,
}

impl EventStream {
    /// Builds the stream for one database, in canonical `(time, rank)`
    /// order (stable over emission order).
    pub fn of_database(db: &DatabaseRecord) -> EventStream {
        let mut events: Vec<(Timestamp, TelemetryEvent)> = Vec::new();
        push_database_events(db, &mut events);
        events.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| event_rank(&a.1).cmp(&event_rank(&b.1)))
        });
        EventStream { events }
    }

    /// Builds the merged stream of a set of databases: each
    /// [`EventStream::of_database`] stream, concatenated in slice order,
    /// then stable-sorted by time. This is the per-subscription unit of
    /// the streaming pipeline: both the streamed and the materialized
    /// paths build subscription streams with it, so fault injection sees
    /// identical input either way.
    ///
    /// Built with one sort: every database's events are emitted unsorted
    /// into one buffer, ordered by the key `(time, position of the
    /// database in the slice, rank, emission index)`. Within a database
    /// that is the `of_database` order; across databases equal times
    /// fall back to slice position, as the stable concatenate-then-sort
    /// definition does.
    pub fn of_databases(databases: &[DatabaseRecord]) -> EventStream {
        let mut emitted: Vec<(Timestamp, TelemetryEvent)> = Vec::new();
        let mut keys: Vec<(Timestamp, usize, u8, usize)> = Vec::new();
        for (position, db) in databases.iter().enumerate() {
            let start = emitted.len();
            push_database_events(db, &mut emitted);
            keys.extend(
                emitted[start..]
                    .iter()
                    .enumerate()
                    .map(|(k, (at, event))| (*at, position, event_rank(event), start + k)),
            );
        }
        // The emission index makes every key unique, so the unstable
        // sort is deterministic.
        keys.sort_unstable();
        let mut slots: Vec<Option<(Timestamp, TelemetryEvent)>> =
            emitted.into_iter().map(Some).collect();
        let events = keys
            .iter()
            .map(|&(_, _, _, i)| slots[i].take().expect("each index once"))
            .collect();
        EventStream { events }
    }

    /// Builds the merged stream of a whole fleet, time-ordered.
    pub fn of_fleet(fleet: &Fleet) -> EventStream {
        EventStream::of_databases(&fleet.databases)
    }

    /// Builds a stream from pre-collected events, re-sorting into
    /// canonical order (used by ingestion tests and external loaders).
    pub fn from_events(mut events: Vec<(Timestamp, TelemetryEvent)>) -> EventStream {
        events.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| event_rank(&a.1).cmp(&event_rank(&b.1)))
        });
        EventStream { events }
    }

    /// Builds a stream that preserves the given *arrival* order
    /// verbatim — no sorting. Fault injection uses this so reordering
    /// perturbations survive into ingestion instead of being silently
    /// repaired by the constructor.
    pub fn from_events_unsorted(events: Vec<(Timestamp, TelemetryEvent)>) -> EventStream {
        EventStream { events }
    }

    /// The events.
    pub fn events(&self) -> &[(Timestamp, TelemetryEvent)] {
        &self.events
    }

    /// Consumes the stream, yielding its events in arrival order —
    /// used by the chunked pipeline to concatenate subscription
    /// streams without copying.
    pub fn into_events(self) -> Vec<(Timestamp, TelemetryEvent)> {
        self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if there are no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts events matching a predicate.
    pub fn count_where(&self, mut pred: impl FnMut(&TelemetryEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::region::RegionConfig;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.02), 11))
    }

    #[test]
    fn stream_is_time_ordered() {
        let f = fleet();
        let s = EventStream::of_fleet(&f);
        for w in s.events().windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn creates_match_databases_and_drops_match_observed() {
        let f = fleet();
        let s = EventStream::of_fleet(&f);
        let creates = s.count_where(|e| matches!(e, TelemetryEvent::Created { .. }));
        let drops = s.count_where(|e| matches!(e, TelemetryEvent::Dropped { .. }));
        assert_eq!(creates, f.databases.len());
        let observed_drops = f
            .databases
            .iter()
            .filter(|d| d.dropped_at.is_some())
            .count();
        assert_eq!(drops, observed_drops);
    }

    #[test]
    fn per_database_stream_brackets_lifetime() {
        let f = fleet();
        let db = f
            .databases
            .iter()
            .find(|d| d.dropped_at.is_some())
            .expect("some database drops");
        let s = EventStream::of_database(db);
        let events = s.events();
        assert!(matches!(events[0].1, TelemetryEvent::Created { .. }));
        assert_eq!(events[0].0, db.created_at);
        assert!(matches!(
            events.last().unwrap().1,
            TelemetryEvent::Dropped { .. }
        ));
        assert_eq!(events.last().unwrap().0, db.dropped_at.unwrap());
    }

    #[test]
    fn edition_change_flags_are_consistent() {
        let f = fleet();
        let s = EventStream::of_fleet(&f);
        let edition_changes = s.count_where(|e| {
            matches!(
                e,
                TelemetryEvent::SloChanged {
                    edition_changed: true,
                    ..
                }
            )
        });
        let changed_dbs = f.databases.iter().filter(|d| d.changed_edition()).count();
        // Every edition-changing database contributes at least one
        // edition-change event (it may change back, adding another).
        assert!(edition_changes >= changed_dbs);
        if changed_dbs == 0 {
            assert_eq!(edition_changes, 0);
        }
    }
}
