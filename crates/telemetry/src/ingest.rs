//! Telemetry ingestion: rebuilding database records from event streams.
//!
//! The paper's pipeline starts from "telemetry that is emitted from
//! each unique database" (§2); the study tables are views materialized
//! from that stream. This module is that materializer, in two modes:
//!
//! * [`reconstruct_records`] — the strict path. It folds a
//!   time-ordered [`TelemetryEvent`] stream back into
//!   [`DatabaseRecord`]s and rejects the first malformed event it
//!   meets. Round-trip tests (`reconstruct(of_fleet(f)) ==
//!   f.databases`) pin that the stream is a complete, faithful
//!   representation of the simulated service.
//! * [`reconstruct_records_lenient`] — the recovery path. Production
//!   telemetry is never pristine (events are dropped, duplicated and
//!   reordered in transit; see [`crate::faults`]), so this path
//!   repairs what it can, quarantines databases it cannot, and never
//!   aborts. An [`IngestReport`] accounts for every repair and
//!   quarantine so degradation is measurable rather than silent.

use crate::catalog::SloCatalog;
use crate::database::{DatabaseRecord, SloChange};
use crate::events::{event_rank, EventStream, TelemetryEvent};
use crate::sizetrace::SizeTrace;
use crate::utilization::UtilizationTrace;
use simtime::Timestamp;
use std::collections::{BTreeMap, BTreeSet};

/// Errors from ingesting a telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// An event referenced a database with no preceding `Created`.
    OrphanEvent {
        /// The database id.
        db_id: u64,
        /// Short description of the event kind.
        kind: &'static str,
    },
    /// A second `Created` arrived for the same id.
    DuplicateCreate {
        /// The database id.
        db_id: u64,
    },
    /// A second `Dropped` arrived for the same id.
    DuplicateDrop {
        /// The database id.
        db_id: u64,
    },
    /// A size or utilization sample arrived after the database's
    /// `Dropped` event.
    SampleAfterDrop {
        /// The database id.
        db_id: u64,
        /// Short description of the sample kind.
        kind: &'static str,
    },
    /// A sample's offset did not advance past the previous sample of
    /// the same kind.
    NonMonotonicSample {
        /// The database id.
        db_id: u64,
        /// Short description of the sample kind.
        kind: &'static str,
    },
    /// A sample carried a non-finite or out-of-range value.
    InvalidSample {
        /// The database id.
        db_id: u64,
        /// Short description of the sample kind.
        kind: &'static str,
    },
    /// An SLO name in the stream is not in the catalog.
    UnknownSlo {
        /// The database id.
        db_id: u64,
        /// The unknown name.
        name: String,
    },
    /// A database had no telemetry samples at all (streams always carry
    /// the creation-time report).
    MissingSamples {
        /// The database id.
        db_id: u64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::OrphanEvent { db_id, kind } => {
                write!(f, "{kind} event for database {db_id} before its creation")
            }
            IngestError::DuplicateCreate { db_id } => {
                write!(f, "duplicate create for database {db_id}")
            }
            IngestError::DuplicateDrop { db_id } => {
                write!(f, "duplicate drop for database {db_id}")
            }
            IngestError::SampleAfterDrop { db_id, kind } => {
                write!(f, "{kind} for database {db_id} after its drop")
            }
            IngestError::NonMonotonicSample { db_id, kind } => {
                write!(f, "non-monotonic {kind} offsets for database {db_id}")
            }
            IngestError::InvalidSample { db_id, kind } => {
                write!(f, "invalid {kind} value for database {db_id}")
            }
            IngestError::UnknownSlo { db_id, name } => {
                write!(f, "unknown SLO {name} for database {db_id}")
            }
            IngestError::MissingSamples { db_id } => {
                write!(f, "database {db_id} has no telemetry samples")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// True for a finite size value a [`SizeTrace`] accepts.
fn size_value_ok(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

/// True for a finite utilization value a [`UtilizationTrace`] accepts.
fn utilization_value_ok(v: f64) -> bool {
    v.is_finite() && (0.0..=100.0).contains(&v)
}

/// A database under reconstruction: the record's fields so far, with
/// the traces still as raw sample lists. The validated [`SizeTrace`]
/// and [`UtilizationTrace`] are built once, by [`Partial::into_record`].
#[derive(Debug)]
struct Partial {
    id: u64,
    region: crate::region::RegionId,
    server_name: String,
    database_name: String,
    subscription_id: crate::subscription::SubscriptionId,
    subscription_type: crate::subscription::SubscriptionType,
    created_at: Timestamp,
    dropped_at: Option<Timestamp>,
    slo_history: Vec<SloChange>,
    elastic_pool: Option<u32>,
    is_internal: bool,
    sizes: Vec<(simtime::Duration, f64)>,
    utilizations: Vec<(simtime::Duration, f64)>,
}

impl Partial {
    /// Starts a database from its `Created` event (any other event
    /// kind is a caller bug) with creation SLO `slo_index`.
    fn new(at: Timestamp, created: &TelemetryEvent, slo_index: usize) -> Partial {
        let TelemetryEvent::Created {
            db_id,
            subscription,
            subscription_type,
            region,
            server_name,
            database_name,
            elastic_pool,
            is_internal,
            ..
        } = created
        else {
            unreachable!("a partial record starts from a Created event");
        };
        Partial {
            id: *db_id,
            region: *region,
            server_name: server_name.clone(),
            database_name: database_name.clone(),
            subscription_id: *subscription,
            subscription_type: *subscription_type,
            created_at: at,
            dropped_at: None,
            slo_history: vec![SloChange { at, slo_index }],
            elastic_pool: *elastic_pool,
            is_internal: *is_internal,
            sizes: Vec::new(),
            utilizations: Vec::new(),
        }
    }

    /// The finished record. Both sample lists must be non-empty.
    fn into_record(self) -> DatabaseRecord {
        DatabaseRecord {
            id: self.id,
            region: self.region,
            server_name: self.server_name,
            database_name: self.database_name,
            subscription_id: self.subscription_id,
            subscription_type: self.subscription_type,
            created_at: self.created_at,
            dropped_at: self.dropped_at,
            slo_history: self.slo_history,
            size_trace: SizeTrace::new(self.sizes),
            utilization_trace: UtilizationTrace::new(self.utilizations),
            elastic_pool: self.elastic_pool,
            is_internal: self.is_internal,
        }
    }
}

/// Folds a time-ordered stream into records, ascending by id —
/// generation order, like [`crate::Fleet::generate`]'s output.
///
/// Strict: the first malformed event aborts ingestion with the
/// matching [`IngestError`]. Use [`reconstruct_records_lenient`] for
/// degraded streams.
pub fn reconstruct_records(stream: &EventStream) -> Result<Vec<DatabaseRecord>, IngestError> {
    let mut partials: BTreeMap<u64, Partial> = BTreeMap::new();

    for (at, event) in stream.events() {
        match event {
            TelemetryEvent::Created { db_id, slo, .. } => {
                if partials.contains_key(db_id) {
                    return Err(IngestError::DuplicateCreate { db_id: *db_id });
                }
                let slo_index =
                    SloCatalog::index_of(slo).ok_or_else(|| IngestError::UnknownSlo {
                        db_id: *db_id,
                        name: slo.to_string(),
                    })?;
                partials.insert(*db_id, Partial::new(*at, event, slo_index));
            }
            TelemetryEvent::SloChanged { db_id, slo, .. } => {
                let partial = partials.get_mut(db_id).ok_or(IngestError::OrphanEvent {
                    db_id: *db_id,
                    kind: "slo-change",
                })?;
                let slo_index =
                    SloCatalog::index_of(slo).ok_or_else(|| IngestError::UnknownSlo {
                        db_id: *db_id,
                        name: slo.to_string(),
                    })?;
                partial.slo_history.push(SloChange { at: *at, slo_index });
            }
            TelemetryEvent::SizeSample { db_id, size_mb } => {
                let partial = partials.get_mut(db_id).ok_or(IngestError::OrphanEvent {
                    db_id: *db_id,
                    kind: "size-sample",
                })?;
                if partial.dropped_at.is_some() {
                    return Err(IngestError::SampleAfterDrop {
                        db_id: *db_id,
                        kind: "size-sample",
                    });
                }
                if !size_value_ok(*size_mb) {
                    return Err(IngestError::InvalidSample {
                        db_id: *db_id,
                        kind: "size-sample",
                    });
                }
                let offset = *at - partial.created_at;
                if let Some(&(last, _)) = partial.sizes.last() {
                    if offset <= last {
                        return Err(IngestError::NonMonotonicSample {
                            db_id: *db_id,
                            kind: "size-sample",
                        });
                    }
                }
                partial.sizes.push((offset, *size_mb));
            }
            TelemetryEvent::UtilizationSample { db_id, dtu_percent } => {
                let partial = partials.get_mut(db_id).ok_or(IngestError::OrphanEvent {
                    db_id: *db_id,
                    kind: "utilization-sample",
                })?;
                if partial.dropped_at.is_some() {
                    return Err(IngestError::SampleAfterDrop {
                        db_id: *db_id,
                        kind: "utilization-sample",
                    });
                }
                if !utilization_value_ok(*dtu_percent) {
                    return Err(IngestError::InvalidSample {
                        db_id: *db_id,
                        kind: "utilization-sample",
                    });
                }
                let offset = *at - partial.created_at;
                if let Some(&(last, _)) = partial.utilizations.last() {
                    if offset <= last {
                        return Err(IngestError::NonMonotonicSample {
                            db_id: *db_id,
                            kind: "utilization-sample",
                        });
                    }
                }
                partial.utilizations.push((offset, *dtu_percent));
            }
            TelemetryEvent::Dropped { db_id } => {
                let partial = partials.get_mut(db_id).ok_or(IngestError::OrphanEvent {
                    db_id: *db_id,
                    kind: "drop",
                })?;
                if partial.dropped_at.is_some() {
                    return Err(IngestError::DuplicateDrop { db_id: *db_id });
                }
                partial.dropped_at = Some(*at);
            }
        }
    }

    // BTreeMap iteration yields ascending ids — generation order.
    let mut records = Vec::with_capacity(partials.len());
    for (db_id, partial) in partials {
        if partial.sizes.is_empty() || partial.utilizations.is_empty() {
            return Err(IngestError::MissingSamples { db_id });
        }
        records.push(partial.into_record());
    }
    Ok(records)
}

/// Knobs controlling [`reconstruct_records_lenient`]. The default
/// enables every repair, which is what the degradation sweep and the
/// recovery tests exercise; individual repairs can be switched off to
/// measure their contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-sort arrivals into canonical `(time, rank)` order before
    /// folding. Off, events are folded in arrival order and anything
    /// arriving before its creation counts as an orphan.
    pub resort: bool,
    /// Drop exact duplicates (second `Created`, repeated samples at
    /// the same offset, repeated `Dropped`, repeated SLO changes).
    pub dedup: bool,
    /// When one trace lost every sample but the other survived,
    /// synthesize the missing creation-time sample `(0, 0.0)` instead
    /// of quarantining the database.
    pub synthesize_missing_samples: bool,
    /// Discard samples and SLO changes that arrive after the
    /// database's `Dropped` event instead of aborting.
    pub discard_post_drop: bool,
    /// Clamp finite out-of-range sample values into their domain
    /// (sizes to `[0, ∞)`, utilization to `[0, 100]`); non-finite
    /// values are always discarded.
    pub clamp_out_of_range: bool,
    /// Repair a creation event whose SLO is not in the catalog by
    /// substituting the entry SLO of its edition. Off, such databases
    /// are quarantined.
    pub repair_unknown_creation_slo: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            resort: true,
            dedup: true,
            synthesize_missing_samples: true,
            discard_post_drop: true,
            clamp_out_of_range: true,
            repair_unknown_creation_slo: true,
        }
    }
}

/// Per-kind tallies of repairs applied by the lenient path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairCounts {
    /// Events that arrived out of time order and were re-sorted.
    pub resorted_events: usize,
    /// Exact duplicate samples / SLO changes discarded.
    pub duplicate_events: usize,
    /// Second-or-later `Created` events discarded.
    pub duplicate_creates: usize,
    /// Second-or-later `Dropped` events discarded (earliest wins).
    pub duplicate_drops: usize,
    /// Samples / SLO changes after `Dropped` discarded.
    pub post_drop_events: usize,
    /// Empty traces backfilled with a synthetic creation-time sample.
    pub synthesized_creation_samples: usize,
    /// Finite out-of-range sample values clamped into domain.
    pub clamped_samples: usize,
    /// Non-finite sample values discarded.
    pub invalid_samples_discarded: usize,
    /// Samples discarded because their offset did not advance (and
    /// they were not exact duplicates).
    pub out_of_order_samples: usize,
    /// Creation events with unknown SLOs repaired to the edition's
    /// entry SLO.
    pub repaired_creation_slos: usize,
    /// SLO-change events with unknown names discarded.
    pub dropped_unknown_slo_changes: usize,
}

impl RepairCounts {
    /// Total repairs of any kind.
    pub fn total(&self) -> usize {
        self.resorted_events
            + self.duplicate_events
            + self.duplicate_creates
            + self.duplicate_drops
            + self.post_drop_events
            + self.synthesized_creation_samples
            + self.clamped_samples
            + self.invalid_samples_discarded
            + self.out_of_order_samples
            + self.repaired_creation_slos
            + self.dropped_unknown_slo_changes
    }
}

/// Per-reason tallies of quarantines issued by the lenient path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuarantineCounts {
    /// Events whose database never had a `Created` in the stream.
    pub orphaned_events: usize,
    /// Distinct databases quarantined for having only orphan events.
    pub orphaned_databases: usize,
    /// Databases quarantined for an unrepaired unknown creation SLO.
    pub unknown_creation_slo: usize,
    /// Databases quarantined because both traces lost every sample
    /// (or one did, with synthesis disabled).
    pub missing_samples: usize,
}

/// What the lenient path did to a stream: how much was recovered, how
/// much was repaired, and what had to be quarantined.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestReport {
    /// Events in the input stream.
    pub events_total: usize,
    /// Events discarded during the fold (duplicates, orphans,
    /// post-drop arrivals, events of quarantined databases).
    pub events_discarded: usize,
    /// Databases successfully reconstructed.
    pub databases_recovered: usize,
    /// Databases quarantined as unrecoverable.
    pub databases_quarantined: usize,
    /// Repair tallies.
    pub repairs: RepairCounts,
    /// Quarantine tallies.
    pub quarantines: QuarantineCounts,
    /// Ids of quarantined databases, ascending.
    pub quarantined_ids: Vec<u64>,
}

impl IngestReport {
    /// True when the stream needed no repair and nothing was
    /// quarantined — lenient ingest behaved exactly like strict.
    pub fn is_clean(&self) -> bool {
        self.events_discarded == 0
            && self.databases_quarantined == 0
            && self.repairs == RepairCounts::default()
            && self.quarantines == QuarantineCounts::default()
    }

    /// This report as `obs` counter entries, one per field. The lenient
    /// path publishes exactly these, so a `run_trace.json` section can
    /// be reconciled 1:1 against the report (the metrics-consistency
    /// test does).
    pub fn metric_entries(&self) -> [(&'static str, u64); 19] {
        let r = &self.repairs;
        let q = &self.quarantines;
        [
            ("ingest.events_total", self.events_total as u64),
            ("ingest.events_discarded", self.events_discarded as u64),
            (
                "ingest.databases_recovered",
                self.databases_recovered as u64,
            ),
            (
                "ingest.databases_quarantined",
                self.databases_quarantined as u64,
            ),
            ("ingest.repair.resorted_events", r.resorted_events as u64),
            ("ingest.repair.duplicate_events", r.duplicate_events as u64),
            (
                "ingest.repair.duplicate_creates",
                r.duplicate_creates as u64,
            ),
            ("ingest.repair.duplicate_drops", r.duplicate_drops as u64),
            ("ingest.repair.post_drop_events", r.post_drop_events as u64),
            (
                "ingest.repair.synthesized_creation_samples",
                r.synthesized_creation_samples as u64,
            ),
            ("ingest.repair.clamped_samples", r.clamped_samples as u64),
            (
                "ingest.repair.invalid_samples_discarded",
                r.invalid_samples_discarded as u64,
            ),
            (
                "ingest.repair.out_of_order_samples",
                r.out_of_order_samples as u64,
            ),
            (
                "ingest.repair.repaired_creation_slos",
                r.repaired_creation_slos as u64,
            ),
            (
                "ingest.repair.dropped_unknown_slo_changes",
                r.dropped_unknown_slo_changes as u64,
            ),
            (
                "ingest.quarantine.orphaned_events",
                q.orphaned_events as u64,
            ),
            (
                "ingest.quarantine.orphaned_databases",
                q.orphaned_databases as u64,
            ),
            (
                "ingest.quarantine.unknown_creation_slo",
                q.unknown_creation_slo as u64,
            ),
            (
                "ingest.quarantine.missing_samples",
                q.missing_samples as u64,
            ),
        ]
    }

    /// Accumulates another report's counters into this one and merges
    /// its quarantined ids into the ascending id list. Shard reports
    /// merged in any order equal the report of ingesting the
    /// concatenated stream: the counters are sums, and the id list is
    /// re-sorted into its canonical ascending order.
    pub fn merge(&mut self, other: &IngestReport) {
        self.events_total += other.events_total;
        self.events_discarded += other.events_discarded;
        self.databases_recovered += other.databases_recovered;
        self.databases_quarantined += other.databases_quarantined;
        let r = &mut self.repairs;
        let o = &other.repairs;
        r.resorted_events += o.resorted_events;
        r.duplicate_events += o.duplicate_events;
        r.duplicate_creates += o.duplicate_creates;
        r.duplicate_drops += o.duplicate_drops;
        r.post_drop_events += o.post_drop_events;
        r.synthesized_creation_samples += o.synthesized_creation_samples;
        r.clamped_samples += o.clamped_samples;
        r.invalid_samples_discarded += o.invalid_samples_discarded;
        r.out_of_order_samples += o.out_of_order_samples;
        r.repaired_creation_slos += o.repaired_creation_slos;
        r.dropped_unknown_slo_changes += o.dropped_unknown_slo_changes;
        let q = &mut self.quarantines;
        let p = &other.quarantines;
        q.orphaned_events += p.orphaned_events;
        q.orphaned_databases += p.orphaned_databases;
        q.unknown_creation_slo += p.unknown_creation_slo;
        q.missing_samples += p.missing_samples;
        self.quarantined_ids.extend(&other.quarantined_ids);
        self.quarantined_ids.sort();
    }
}

/// Incremental lenient ingestion over bounded chunks of a stream.
///
/// The streaming pipeline cannot materialize a region's events, so the
/// lenient fold is exposed as a push-style consumer: feed arrival-order
/// chunks with [`LenientIngestor::push_chunk`], then call
/// [`LenientIngestor::finish`] for the records and the report.
///
/// **Locality.** Every piece of fold state — the partial record, the
/// quarantine and orphan marks, the late-arrival clock — belongs to one
/// database, and the report is a sum of per-database tallies. So the
/// result depends only on each database's own arrival order, and
/// `push_chunk` folds one database at a time: it groups a chunk's
/// events by database (keeping arrival order inside each group), orders
/// a group by `(time, rank)` when resorting, and folds it. Restricted to
/// one database, that is exactly the stable `(time, rank)` sort of the
/// whole chunk.
///
/// **Chunk-boundary contract:** feeding one whole stream as a single
/// chunk and feeding it split at *database-stream boundaries* (every
/// event of a database inside one chunk — the streaming pipeline cuts
/// at subscription boundaries, which implies this) produce bitwise
/// identical records and reports, as does any re-interleaving of
/// different databases' events. `tests/ingest_props.rs` holds both.
#[derive(Debug)]
pub struct LenientIngestor {
    policy: RecoveryPolicy,
    report: IngestReport,
    partials: BTreeMap<u64, Partial>,
    quarantined: BTreeSet<u64>,
    orphan_dbs: BTreeSet<u64>,
    /// Per-database maximum arrival timestamp, for counting late
    /// events (`repairs.resorted_events`) chunk-invariantly.
    arrival_max: BTreeMap<u64, Timestamp>,
}

impl LenientIngestor {
    /// A fresh ingestor under `policy`.
    pub fn new(policy: RecoveryPolicy) -> LenientIngestor {
        LenientIngestor {
            policy,
            report: IngestReport::default(),
            partials: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            orphan_dbs: BTreeSet::new(),
            arrival_max: BTreeMap::new(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Folds one arrival-order chunk into the accumulated state.
    pub fn push_chunk(&mut self, stream: &EventStream) {
        let _span = obs::span!("ingest_chunk");
        let events = stream.events();
        self.report.events_total += events.len();
        // Sorted by `(db_id, arrival index)`, the arrivals of each
        // database form one run, in arrival order.
        let mut arrivals: Vec<Arrival> = events
            .iter()
            .enumerate()
            .map(|(index, (at, event))| Arrival {
                db_id: event.db_id(),
                index,
                at: *at,
                rank: event_rank(event),
            })
            .collect();
        arrivals.sort_unstable_by_key(|a| (a.db_id, a.index));
        for run in arrivals.chunk_by_mut(|a, b| a.db_id == b.db_id) {
            self.fold_database(run[0].db_id, events, run);
        }
    }

    /// Folds one database's events of a chunk, given in arrival order.
    fn fold_database(
        &mut self,
        db_id: u64,
        events: &[(Timestamp, TelemetryEvent)],
        run: &mut [Arrival],
    ) {
        if self.policy.resort {
            // Count late arrivals before repairing them: an event is
            // late when something of the same database with a strictly
            // greater timestamp already arrived. Clean streams count
            // zero.
            let max_seen = self.arrival_max.entry(db_id).or_insert(run[0].at);
            for a in run.iter() {
                if a.at < *max_seen {
                    self.report.repairs.resorted_events += 1;
                } else {
                    *max_seen = a.at;
                }
            }
            // Indices are unique, so this unstable sort is the stable
            // `(time, rank)` sort.
            run.sort_unstable_by_key(|a| (a.at, a.rank, a.index));
        }
        if self.quarantined.contains(&db_id) {
            self.report.events_discarded += run.len();
            return;
        }
        let was_orphan = self.orphan_dbs.contains(&db_id);
        let mut fold = DatabaseFold {
            policy: self.policy,
            report: &mut self.report,
            partial: self.partials.remove(&db_id),
            orphan: was_orphan,
            quarantined: false,
        };
        for a in run.iter() {
            fold.event(a.at, &events[a.index].1);
        }
        let DatabaseFold {
            partial,
            orphan,
            quarantined,
            ..
        } = fold;
        if let Some(partial) = partial {
            self.partials.insert(db_id, partial);
        }
        if quarantined {
            self.quarantined.insert(db_id);
        }
        if orphan && !was_orphan {
            self.orphan_dbs.insert(db_id);
        } else if was_orphan && !orphan {
            self.orphan_dbs.remove(&db_id);
        }
    }

    /// Completes ingestion: synthesizes or quarantines databases with
    /// missing traces and returns the recovered records (ascending by
    /// id — generation order) plus the accumulated report.
    pub fn finish(self) -> (Vec<DatabaseRecord>, IngestReport) {
        let _span = obs::span!("ingest");
        let LenientIngestor {
            policy,
            mut report,
            partials,
            quarantined,
            orphan_dbs,
            arrival_max: _,
        } = self;

        let mut quarantined_ids: Vec<u64> = quarantined.into_iter().collect();
        report.quarantines.orphaned_databases = orphan_dbs.len();
        quarantined_ids.extend(orphan_dbs);

        // BTreeMap iteration yields ascending ids — generation order.
        let mut records = Vec::with_capacity(partials.len());
        for (db_id, mut partial) in partials {
            if partial.sizes.is_empty() || partial.utilizations.is_empty() {
                let both_empty = partial.sizes.is_empty() && partial.utilizations.is_empty();
                if both_empty || !policy.synthesize_missing_samples {
                    report.quarantines.missing_samples += 1;
                    quarantined_ids.push(db_id);
                    continue;
                }
                // One trace survived; backfill the other with a neutral
                // creation-time sample so the record stays usable.
                let synth = vec![(simtime::Duration::seconds(0), 0.0)];
                if partial.sizes.is_empty() {
                    partial.sizes = synth;
                } else {
                    partial.utilizations = synth;
                }
                report.repairs.synthesized_creation_samples += 1;
            }
            records.push(partial.into_record());
        }
        quarantined_ids.sort_unstable();
        quarantined_ids.dedup();
        report.databases_recovered = records.len();
        report.databases_quarantined = quarantined_ids.len();
        report.quarantined_ids = quarantined_ids;
        if obs::enabled() {
            obs::count_many(&report.metric_entries());
            if !report.is_clean() {
                obs::info!(
                    "ingest",
                    "recovered {} databases ({} quarantined, {} repairs, {} of {} events discarded)",
                    report.databases_recovered,
                    report.databases_quarantined,
                    report.repairs.total(),
                    report.events_discarded,
                    report.events_total
                );
            }
        }
        (records, report)
    }
}

/// One event of a chunk: its database and arrival index, plus its
/// canonical `(time, rank)` order key.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    db_id: u64,
    index: usize,
    at: Timestamp,
    rank: u8,
}

/// One database's fold state while [`LenientIngestor`] walks its run of
/// a chunk: taken out of the ingestor's maps once before the run and
/// written back once after it.
struct DatabaseFold<'a> {
    policy: RecoveryPolicy,
    report: &'a mut IngestReport,
    partial: Option<Partial>,
    /// Seen only through orphan events so far.
    orphan: bool,
    /// Quarantined during this run; every later event is discarded.
    quarantined: bool,
}

impl DatabaseFold<'_> {
    /// Counts an event of a database with no `Created` yet.
    fn orphan_event(&mut self) {
        self.report.quarantines.orphaned_events += 1;
        self.report.events_discarded += 1;
        self.orphan = true;
    }

    fn event(&mut self, at: Timestamp, event: &TelemetryEvent) {
        let policy = self.policy;
        if self.quarantined {
            self.report.events_discarded += 1;
            return;
        }
        match event {
            TelemetryEvent::Created { edition, slo, .. } => {
                if self.partial.is_some() {
                    self.report.repairs.duplicate_creates += 1;
                    self.report.events_discarded += 1;
                    return;
                }
                let slo_index = match SloCatalog::index_of(slo) {
                    Some(i) => i,
                    None if policy.repair_unknown_creation_slo => {
                        self.report.repairs.repaired_creation_slos += 1;
                        SloCatalog::entry_slo(*edition)
                    }
                    None => {
                        self.report.quarantines.unknown_creation_slo += 1;
                        self.report.events_discarded += 1;
                        self.quarantined = true;
                        return;
                    }
                };
                // A database that looked orphaned can be rescued by a
                // late (reordered) creation when resorting is off.
                self.orphan = false;
                self.partial = Some(Partial::new(at, event, slo_index));
            }
            TelemetryEvent::SloChanged { slo, .. } => {
                let Some(partial) = self.partial.as_mut() else {
                    self.orphan_event();
                    return;
                };
                let report = &mut *self.report;
                if policy.discard_post_drop && partial.dropped_at.is_some() {
                    report.repairs.post_drop_events += 1;
                    report.events_discarded += 1;
                    return;
                }
                let Some(slo_index) = SloCatalog::index_of(slo) else {
                    report.repairs.dropped_unknown_slo_changes += 1;
                    report.events_discarded += 1;
                    return;
                };
                if policy.dedup {
                    let dup = partial
                        .slo_history
                        .last()
                        .is_some_and(|c| c.at == at && c.slo_index == slo_index);
                    if dup {
                        report.repairs.duplicate_events += 1;
                        report.events_discarded += 1;
                        return;
                    }
                }
                partial.slo_history.push(SloChange { at, slo_index });
            }
            TelemetryEvent::SizeSample { size_mb, .. } => {
                self.sample(at, *size_mb, SampleKind::Size);
            }
            TelemetryEvent::UtilizationSample { dtu_percent, .. } => {
                self.sample(at, *dtu_percent, SampleKind::Utilization);
            }
            TelemetryEvent::Dropped { .. } => {
                let Some(partial) = self.partial.as_mut() else {
                    self.orphan_event();
                    return;
                };
                match partial.dropped_at {
                    Some(existing) => {
                        self.report.repairs.duplicate_drops += 1;
                        self.report.events_discarded += 1;
                        // Earliest drop wins even in arrival order.
                        if at < existing {
                            partial.dropped_at = Some(at);
                        }
                    }
                    None => partial.dropped_at = Some(at),
                }
            }
        }
    }

    /// The lenient fold of one sample: orphan and post-drop filtering,
    /// value clamping, offset dedup / monotonicity.
    fn sample(&mut self, at: Timestamp, value: f64, kind: SampleKind) {
        let policy = self.policy;
        let Some(partial) = self.partial.as_mut() else {
            self.orphan_event();
            return;
        };
        let report = &mut *self.report;
        if policy.discard_post_drop && partial.dropped_at.is_some() {
            report.repairs.post_drop_events += 1;
            report.events_discarded += 1;
            return;
        }
        if at < partial.created_at {
            // Pre-creation sample (only reachable when resorting is off
            // and a reordered sample outran its creation's arrival).
            report.quarantines.orphaned_events += 1;
            report.events_discarded += 1;
            return;
        }
        if !value.is_finite() {
            report.repairs.invalid_samples_discarded += 1;
            report.events_discarded += 1;
            return;
        }
        let value = {
            let (ok, clamped) = match kind {
                SampleKind::Size => (size_value_ok(value), value.max(0.0)),
                SampleKind::Utilization => (utilization_value_ok(value), value.clamp(0.0, 100.0)),
            };
            if ok {
                value
            } else if policy.clamp_out_of_range {
                report.repairs.clamped_samples += 1;
                clamped
            } else {
                report.repairs.invalid_samples_discarded += 1;
                report.events_discarded += 1;
                return;
            }
        };
        let trace = match kind {
            SampleKind::Size => &mut partial.sizes,
            SampleKind::Utilization => &mut partial.utilizations,
        };
        let offset = at - partial.created_at;
        if let Some(&(last, last_value)) = trace.last() {
            if offset <= last {
                if policy.dedup && offset == last && value == last_value {
                    report.repairs.duplicate_events += 1;
                } else {
                    report.repairs.out_of_order_samples += 1;
                }
                report.events_discarded += 1;
                return;
            }
        }
        trace.push((offset, value));
    }
}

#[derive(Clone, Copy)]
enum SampleKind {
    Size,
    Utilization,
}

/// Folds a possibly degraded stream into as many records as can be
/// recovered under `policy`, quarantining the rest. Never fails: the
/// worst stream yields `(vec![], report)`.
///
/// On a clean, canonically ordered stream this returns exactly what
/// [`reconstruct_records`] returns, plus a report whose
/// [`IngestReport::is_clean`] holds — leniency costs nothing when
/// nothing is wrong. Equivalent to a one-chunk [`LenientIngestor`]
/// run, which is exactly what it is.
pub fn reconstruct_records_lenient(
    stream: &EventStream,
    policy: &RecoveryPolicy,
) -> (Vec<DatabaseRecord>, IngestReport) {
    let mut ingestor = LenientIngestor::new(*policy);
    ingestor.push_chunk(stream);
    ingestor.finish()
}

/// Timestamp of the last event in the stream, if any — the natural
/// observation horizon of an ingested dataset.
pub fn stream_horizon(stream: &EventStream) -> Option<Timestamp> {
    stream.events().last().map(|(t, _)| *t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{Fleet, FleetConfig};
    use crate::region::RegionConfig;

    fn fleet() -> Fleet {
        Fleet::generate(FleetConfig::new(RegionConfig::region_1().scaled(0.02), 21))
    }

    #[test]
    fn roundtrip_reconstructs_every_record_exactly() {
        let f = fleet();
        let stream = EventStream::of_fleet(&f);
        let records = reconstruct_records(&stream).unwrap();
        assert_eq!(records, f.databases);
    }

    #[test]
    fn single_database_roundtrip() {
        let f = fleet();
        let db = f
            .databases
            .iter()
            .find(|d| d.changed_edition())
            .unwrap_or(&f.databases[0]);
        let stream = EventStream::of_database(db);
        let records = reconstruct_records(&stream).unwrap();
        assert_eq!(records, vec![db.clone()]);
    }

    #[test]
    fn orphan_events_are_rejected() {
        let f = fleet();
        let db = &f.databases[0];
        let full = EventStream::of_database(db);
        // Drop the Created event.
        let mut events: Vec<_> = full.events().to_vec();
        events.remove(0);
        let stream = EventStream::from_events(events);
        let err = reconstruct_records(&stream).unwrap_err();
        assert!(matches!(err, IngestError::OrphanEvent { .. }), "{err}");
    }

    #[test]
    fn duplicate_create_rejected() {
        let f = fleet();
        let db = &f.databases[0];
        let full = EventStream::of_database(db);
        let mut events: Vec<_> = full.events().to_vec();
        let create = events[0].clone();
        events.push(create);
        let stream = EventStream::from_events(events);
        let err = reconstruct_records(&stream).unwrap_err();
        assert_eq!(err, IngestError::DuplicateCreate { db_id: db.id });
    }

    fn dropped_db(f: &Fleet) -> &DatabaseRecord {
        f.databases
            .iter()
            .find(|d| d.dropped_at.is_some())
            .expect("some database drops")
    }

    #[test]
    fn duplicate_drop_rejected() {
        let f = fleet();
        let db = dropped_db(&f);
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        events.push((
            db.dropped_at.unwrap() + simtime::Duration::days(1),
            TelemetryEvent::Dropped { db_id: db.id },
        ));
        let err = reconstruct_records(&EventStream::from_events(events)).unwrap_err();
        assert_eq!(err, IngestError::DuplicateDrop { db_id: db.id });
    }

    #[test]
    fn sample_after_drop_rejected() {
        let f = fleet();
        let db = dropped_db(&f);
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        events.push((
            db.dropped_at.unwrap() + simtime::Duration::days(1),
            TelemetryEvent::SizeSample {
                db_id: db.id,
                size_mb: 10.0,
            },
        ));
        let err = reconstruct_records(&EventStream::from_events(events)).unwrap_err();
        assert_eq!(
            err,
            IngestError::SampleAfterDrop {
                db_id: db.id,
                kind: "size-sample"
            }
        );
    }

    #[test]
    fn duplicate_sample_rejected_as_non_monotonic() {
        let f = fleet();
        let db = &f.databases[0];
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        let dup = events
            .iter()
            .find(|(_, e)| matches!(e, TelemetryEvent::SizeSample { .. }))
            .cloned()
            .unwrap();
        events.push(dup);
        let err = reconstruct_records(&EventStream::from_events(events)).unwrap_err();
        assert_eq!(
            err,
            IngestError::NonMonotonicSample {
                db_id: db.id,
                kind: "size-sample"
            }
        );
    }

    #[test]
    fn invalid_sample_rejected() {
        let f = fleet();
        let db = &f.databases[0];
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        let last = events.last().unwrap().0;
        events.push((
            last + simtime::Duration::days(1),
            TelemetryEvent::UtilizationSample {
                db_id: db.id,
                dtu_percent: 250.0,
            },
        ));
        let err = reconstruct_records(&EventStream::from_events(events)).unwrap_err();
        assert_eq!(
            err,
            IngestError::InvalidSample {
                db_id: db.id,
                kind: "utilization-sample"
            }
        );
    }

    #[test]
    fn lenient_matches_strict_on_clean_stream() {
        let f = fleet();
        let stream = EventStream::of_fleet(&f);
        let strict = reconstruct_records(&stream).unwrap();
        let (lenient, report) = reconstruct_records_lenient(&stream, &RecoveryPolicy::default());
        assert_eq!(lenient, strict);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.events_total, stream.len());
        assert_eq!(report.databases_recovered, f.databases.len());
    }

    #[test]
    fn lenient_repairs_duplicates_and_post_drop() {
        let f = fleet();
        let db = dropped_db(&f);
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        let create = events[0].clone();
        let sample = events
            .iter()
            .find(|(_, e)| matches!(e, TelemetryEvent::SizeSample { .. }))
            .cloned()
            .unwrap();
        events.push(create);
        events.push(sample);
        events.push((
            db.dropped_at.unwrap() + simtime::Duration::days(2),
            TelemetryEvent::UtilizationSample {
                db_id: db.id,
                dtu_percent: 10.0,
            },
        ));
        let stream = EventStream::from_events_unsorted(events);
        let (records, report) = reconstruct_records_lenient(&stream, &RecoveryPolicy::default());
        assert_eq!(records, vec![db.clone()]);
        assert_eq!(report.repairs.duplicate_creates, 1);
        assert_eq!(report.repairs.duplicate_events, 1);
        assert_eq!(report.repairs.post_drop_events, 1);
        assert_eq!(report.databases_quarantined, 0);
    }

    #[test]
    fn lenient_quarantines_orphans() {
        let f = fleet();
        let db = &f.databases[0];
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        events.remove(0); // lose the creation
        let (records, report) = reconstruct_records_lenient(
            &EventStream::from_events_unsorted(events),
            &RecoveryPolicy::default(),
        );
        assert!(records.is_empty());
        assert_eq!(report.quarantines.orphaned_databases, 1);
        assert_eq!(report.quarantined_ids, vec![db.id]);
        assert!(report.quarantines.orphaned_events > 0);
    }

    #[test]
    fn lenient_resorts_shuffled_stream() {
        let f = fleet();
        let db = &f.databases[0];
        let mut events: Vec<_> = EventStream::of_database(db).events().to_vec();
        events.reverse();
        let (records, report) = reconstruct_records_lenient(
            &EventStream::from_events_unsorted(events),
            &RecoveryPolicy::default(),
        );
        assert_eq!(records, vec![db.clone()]);
        assert!(report.repairs.resorted_events > 0);
    }

    fn report_with(ids: &[u64], discarded: usize) -> IngestReport {
        IngestReport {
            events_discarded: discarded,
            databases_quarantined: ids.len(),
            quarantined_ids: ids.to_vec(),
            ..IngestReport::default()
        }
    }

    #[test]
    fn merge_order_does_not_change_the_report() {
        // Interleaved and trailing id ranges; an id quarantined in two
        // reports is kept twice, as a concatenate-and-sort would keep it.
        let parts = [
            report_with(&[1, 5, 9], 3),
            report_with(&[2, 3, 10, 12], 1),
            report_with(&[], 7),
            report_with(&[4, 5, 11, 30], 2),
            report_with(&[31, 40], 0),
        ];
        let mut forward = IngestReport::default();
        for part in &parts {
            forward.merge(part);
        }
        let mut reverse = IngestReport::default();
        for part in parts.iter().rev() {
            reverse.merge(part);
        }
        assert_eq!(forward, reverse);
        let mut expected: Vec<u64> = parts
            .iter()
            .flat_map(|p| p.quarantined_ids.iter().copied())
            .collect();
        expected.sort_unstable();
        assert_eq!(forward.quarantined_ids, expected);
        assert_eq!(forward.events_discarded, 13);
        assert_eq!(forward.databases_quarantined, expected.len());
    }

    #[test]
    fn shard_reports_merged_in_reverse_order_match_forward() {
        use crate::faults::FaultPlan;
        use crate::stream::{run_shard, ShardPlan};
        let config = FleetConfig::new(RegionConfig::region_1().scaled(0.02), 5);
        let plan = ShardPlan::new(config.region.subscription_count, 4);
        let faults = FaultPlan {
            orphan: 0.2,
            drop_size: 0.3,
            drop_utilization: 0.3,
            ..FaultPlan::none(5)
        };
        let reports: Vec<IngestReport> = (0..plan.shard_count())
            .map(|shard| {
                run_shard(
                    &config,
                    &plan,
                    shard,
                    8,
                    Some(&faults),
                    &RecoveryPolicy::default(),
                )
                .report
            })
            .collect();
        let mut forward = IngestReport::default();
        for report in &reports {
            forward.merge(report);
        }
        let mut reverse = IngestReport::default();
        for report in reports.iter().rev() {
            reverse.merge(report);
        }
        assert!(forward.quarantined_ids.len() > reports.len());
        assert!(forward.quarantined_ids.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(forward, reverse);
    }

    #[test]
    fn horizon_is_last_event() {
        let f = fleet();
        let stream = EventStream::of_fleet(&f);
        let horizon = stream_horizon(&stream).unwrap();
        assert_eq!(horizon, stream.events().last().unwrap().0);
        assert!(stream_horizon(&EventStream::from_events(Vec::new())).is_none());
    }
}
