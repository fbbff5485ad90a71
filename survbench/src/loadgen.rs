//! The open-loop load generator of the serving workload.
//!
//! Arrivals follow a seeded Poisson schedule per rate rung, fixed
//! before the rung starts; each request goes to one of the client
//! connections in turn. A connection sends a request when it is due,
//! or as soon as its previous response has arrived when it is already
//! late. Every request is timed from its *due* time, so a stall also
//! charges the wait it imposes on the requests queued behind it, and
//! how late the generator ran is reported next to the latencies.
//!
//! Request bodies are rendered before the rung and response bytes are
//! only buffered while it runs: decoding and verifying them happens
//! after the rung, off the timed path.

use crate::stats;
use telemetry::stream::derive_seed;

/// Small requests sent per bulk request.
pub const SMALL_PER_BULK: u64 = 7;

/// The two request sizes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A few rows: never fills a micro-batch, so it waits for the flush
    /// deadline.
    Small,
    /// Many rows: flushes a batch at once but has a large body to parse.
    Bulk,
}

impl Kind {
    /// Feature rows per request.
    pub fn rows(self) -> usize {
        match self {
            Kind::Small => 16,
            Kind::Bulk => 256,
        }
    }
}

/// One request of the arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Request id, unique within the run.
    pub id: u64,
    /// Client connection that sends it.
    pub connection: usize,
    /// Due time, nanoseconds after the rung starts.
    pub due_ns: u64,
    /// Request size.
    pub kind: Kind,
    /// Which pre-rendered body of its kind it carries.
    pub body: usize,
}

/// A uniform draw in `[0, 1)` from a splitmix stream.
fn unit(seed: u64, index: u64) -> f64 {
    (derive_seed(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded arrival schedule of one rung: Poisson arrivals at `rate`
/// per second over `seconds`, one bulk request at a seeded position in
/// every block of `SMALL_PER_BULK + 1`, connections in turn, and a
/// seeded body index out of `small_bodies` or `bulk_bodies`.
pub fn schedule(
    seed: u64,
    first_id: u64,
    rate: f64,
    seconds: f64,
    connections: usize,
    small_bodies: usize,
    bulk_bodies: usize,
) -> Vec<Planned> {
    let block = SMALL_PER_BULK + 1;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut i = 0u64;
    loop {
        // Exponential inter-arrival; 1 - u is in (0, 1].
        t += -(1.0 - unit(seed, 4 * i)).ln() / rate;
        if t >= seconds {
            return out;
        }
        let bulk_slot = (unit(seed ^ 0xB01C, i / block) * block as f64) as u64;
        let kind = if i % block == bulk_slot {
            Kind::Bulk
        } else {
            Kind::Small
        };
        let bodies = match kind {
            Kind::Small => small_bodies,
            Kind::Bulk => bulk_bodies,
        };
        out.push(Planned {
            id: first_id + i,
            connection: (i % connections as u64) as usize,
            due_ns: (t * 1e9) as u64,
            kind,
            body: (unit(seed, 4 * i + 1) * bodies as f64) as usize,
        });
        i += 1;
    }
}

/// Time source of a connection's send loop; tests inject a manual one.
pub trait Clock {
    /// Nanoseconds since an arbitrary origin.
    fn now_ns(&self) -> u64;
    /// Blocks until `now_ns() >= t` (returns at once when already past);
    /// `request` is the request that waits.
    fn sleep_until_ns(&self, t: u64, request: u64);
}

/// What one request observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Request id.
    pub id: u64,
    /// Request size.
    pub kind: Kind,
    /// Body index of its kind.
    pub body: usize,
    /// Due, sent and last-byte times on the clock.
    pub due_ns: u64,
    /// When the request was actually sent.
    pub sent_ns: u64,
    /// When its last response byte arrived.
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// Response body, verified after the rung.
    pub response: Vec<u8>,
}

impl Record {
    /// Milliseconds the generator sent this request after it was due.
    pub fn lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// Milliseconds from due time to the last response byte.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Sends `plan` (one connection's share, ascending due times) open-loop
/// from `start_ns`: waits for each request's due time unless already
/// late, then calls `send`, which returns the status and body.
pub fn drive(
    clock: &impl Clock,
    start_ns: u64,
    plan: &[Planned],
    mut send: impl FnMut(&Planned) -> (u16, Vec<u8>),
) -> Vec<Record> {
    let mut out = Vec::with_capacity(plan.len());
    for p in plan {
        let due_ns = start_ns + p.due_ns;
        clock.sleep_until_ns(due_ns, p.id);
        let sent_ns = clock.now_ns();
        let (status, response) = send(p);
        out.push(Record {
            id: p.id,
            kind: p.kind,
            body: p.body,
            due_ns,
            sent_ns,
            done_ns: clock.now_ns(),
            status,
            response,
        });
    }
    out
}

/// One rung's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct RungStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Successful small-request latencies, ascending, ms.
    pub small_ms: Vec<f64>,
    /// Successful bulk-request latencies, ascending, ms.
    pub bulk_ms: Vec<f64>,
    /// Lateness of every send, ascending, ms.
    pub lateness_ms: Vec<f64>,
    /// Median lateness of the last tenth of sends minus that of the
    /// first tenth, in due order, ms.
    pub lateness_growth_ms: f64,
    /// Completed requests per second of the rung's wall time (first
    /// due time to last response byte).
    pub completed_per_s: f64,
    /// Small-request p99 with every failed request counted as a miss
    /// (an infinite latency); `None` below the sample floor.
    pub small_p99_with_misses: Option<f64>,
}

/// Summarises one rung's records.
pub fn rung_stats(rate: f64, records: &[Record], failed: &[bool]) -> RungStats {
    assert_eq!(records.len(), failed.len(), "one verdict per record");
    let mut small_ms = Vec::new();
    let mut bulk_ms = Vec::new();
    let mut with_misses = Vec::new();
    for (r, &bad) in records.iter().zip(failed) {
        if bad {
            with_misses.push(f64::INFINITY);
            continue;
        }
        match r.kind {
            Kind::Small => {
                small_ms.push(r.latency_ms());
                with_misses.push(r.latency_ms());
            }
            Kind::Bulk => bulk_ms.push(r.latency_ms()),
        }
    }
    stats::sort(&mut small_ms);
    stats::sort(&mut bulk_ms);
    stats::sort(&mut with_misses);

    let mut by_due: Vec<&Record> = records.iter().collect();
    by_due.sort_by_key(|r| r.due_ns);
    let tenth = (by_due.len() / 10).max(1);
    let lateness_of =
        |rs: &[&Record]| stats::median(&rs.iter().map(|r| r.lateness_ms()).collect::<Vec<_>>());
    let lateness_growth_ms = match (
        lateness_of(&by_due[..tenth.min(by_due.len())]),
        lateness_of(&by_due[by_due.len().saturating_sub(tenth)..]),
    ) {
        (Some(first), Some(last)) => last - first,
        _ => 0.0,
    };
    let mut lateness_ms: Vec<f64> = records.iter().map(Record::lateness_ms).collect();
    stats::sort(&mut lateness_ms);

    let ok = failed.iter().filter(|&&bad| !bad).count();
    let span_ns = match (
        records.iter().map(|r| r.due_ns).min(),
        records.iter().map(|r| r.done_ns).max(),
    ) {
        (Some(first), Some(last)) if last > first => last - first,
        _ => 0,
    };
    RungStats {
        rate,
        sent: records.len(),
        failed: records.len() - ok,
        small_ms,
        bulk_ms,
        lateness_ms,
        lateness_growth_ms,
        completed_per_s: if span_ns == 0 {
            0.0
        } else {
            ok as f64 / (span_ns as f64 * 1e-9)
        },
        small_p99_with_misses: stats::percentile(&with_misses, 0.99),
    }
}

impl RungStats {
    /// Whether the rung is sustained: the small-request p99, failures
    /// counted as misses, is within `limit_ms`, and the generator's
    /// lateness grows by no more than a quarter of the limit across
    /// the rung (a growing backlog means the offered rate is not being
    /// served, whatever the latencies of the requests that got through).
    pub fn sustained(&self, limit_ms: f64) -> bool {
        matches!(self.small_p99_with_misses, Some(p99) if p99 <= limit_ms)
            && self.lateness_growth_ms <= limit_ms / 4.0
    }
}

/// The highest sustained rung, by offered rate.
pub fn capacity(rungs: &[RungStats], limit_ms: f64) -> Option<&RungStats> {
    rungs
        .iter()
        .filter(|r| r.sustained(limit_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when the generator sleeps or a request
    /// is served.
    struct ManualClock(Cell<u64>);

    impl Clock for ManualClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until_ns(&self, t: u64, _request: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn plan(dues_ms: &[u64]) -> Vec<Planned> {
        dues_ms
            .iter()
            .enumerate()
            .map(|(i, &d)| Planned {
                id: i as u64,
                connection: 0,
                due_ns: d * 1_000_000,
                kind: Kind::Small,
                body: 0,
            })
            .collect()
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_behind_it() {
        let clock = ManualClock(Cell::new(0));
        // Due every 10 ms; the second request takes 35 ms to serve.
        let service_ms = [5u64, 35, 5, 5, 5];
        let records = drive(&clock, 1_000_000, &plan(&[0, 10, 20, 30, 40]), |p| {
            clock
                .0
                .set(clock.0.get() + service_ms[p.id as usize] * 1_000_000);
            (200, Vec::new())
        });
        let lateness: Vec<f64> = records.iter().map(Record::lateness_ms).collect();
        let latency: Vec<f64> = records.iter().map(Record::latency_ms).collect();
        // Request 2 was due at 21 ms but request 1 held the connection
        // until 46 ms: 25 ms late, and its latency counts that wait.
        assert_eq!(lateness, vec![0.0, 0.0, 25.0, 20.0, 15.0]);
        assert_eq!(latency, vec![5.0, 35.0, 30.0, 25.0, 20.0]);
        assert_eq!(records[0].due_ns, 1_000_000);
    }

    #[test]
    fn an_on_time_generator_has_no_lateness() {
        let clock = ManualClock(Cell::new(0));
        let records = drive(&clock, 0, &plan(&[0, 10, 20]), |_| {
            clock.0.set(clock.0.get() + 2_000_000);
            (200, Vec::new())
        });
        assert!(records.iter().all(|r| r.lateness_ms() == 0.0));
        assert!(records.iter().all(|r| r.latency_ms() == 2.0));
    }

    fn records(n: usize, latency_ms: f64, lateness_growth_ms: f64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let due = i as u64 * 1_000_000;
                let late = (lateness_growth_ms * i as f64 / n as f64 * 1e6) as u64;
                Record {
                    id: i as u64,
                    kind: Kind::Small,
                    body: 0,
                    due_ns: due,
                    sent_ns: due + late,
                    done_ns: due + late + (latency_ms * 1e6) as u64,
                    status: 200,
                    response: Vec::new(),
                }
            })
            .collect()
    }

    #[test]
    fn a_rung_is_sustained_within_the_limit_and_without_backlog() {
        let ok = records(2000, 3.0, 0.0);
        let stats = rung_stats(100.0, &ok, &vec![false; ok.len()]);
        assert_eq!(stats.small_p99_with_misses, Some(3.0));
        assert!(stats.sustained(10.0));
        assert!(!stats.sustained(2.0), "p99 above the limit");

        let backlog = records(2000, 3.0, 50.0);
        let stats = rung_stats(100.0, &backlog, &vec![false; backlog.len()]);
        assert!(stats.lateness_growth_ms > 40.0);
        assert!(
            !stats.sustained(100.0),
            "a growing backlog is not sustained"
        );
    }

    #[test]
    fn failed_and_shed_requests_count_as_misses() {
        let rs = records(2000, 3.0, 0.0);
        // 1% failures sit exactly at the p99 rank's edge: 20 misses of
        // 2000 put the 1980th value at 3 ms.
        let mut failed = vec![false; rs.len()];
        for f in failed.iter_mut().take(20) {
            *f = true;
        }
        let stats = rung_stats(100.0, &rs, &failed);
        assert_eq!(stats.failed, 20);
        assert!(stats.sustained(10.0));
        // One more miss pushes the p99 to infinity.
        failed[20] = true;
        let stats = rung_stats(100.0, &rs, &failed);
        assert_eq!(stats.small_p99_with_misses, Some(f64::INFINITY));
        assert!(!stats.sustained(10.0));
        // A shed response is a failed one: a 429 that the caller marked
        // failed is a miss like any other.
        assert!(stats.small_ms.len() == rs.len() - 21);
    }

    #[test]
    fn capacity_is_the_highest_sustained_rung() {
        let good = records(2000, 3.0, 0.0);
        let slow = records(2000, 30.0, 0.0);
        let rungs = vec![
            rung_stats(100.0, &good, &vec![false; 2000]),
            rung_stats(200.0, &good, &vec![false; 2000]),
            rung_stats(400.0, &slow, &vec![false; 2000]),
        ];
        assert_eq!(capacity(&rungs, 10.0).map(|r| r.rate), Some(200.0));
        assert_eq!(capacity(&rungs[2..], 10.0), None);
    }

    #[test]
    fn schedule_is_seeded_poisson_with_a_fixed_mix() {
        let a = schedule(7, 100, 1000.0, 2.0, 2, 64, 16);
        assert_eq!(a, schedule(7, 100, 1000.0, 2.0, 2, 64, 16));
        assert_ne!(a, schedule(8, 100, 1000.0, 2.0, 2, 64, 16));
        // About rate × seconds arrivals.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert_eq!(a[0].id, 100);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Exactly one bulk request per full block of eight.
        for block in a.chunks_exact(8) {
            assert_eq!(block.iter().filter(|p| p.kind == Kind::Bulk).count(), 1);
        }
        assert!(a.iter().all(|p| p.connection == (p.id - 100) as usize % 2));
        assert!(a.iter().all(|p| match p.kind {
            Kind::Small => p.body < 64,
            Kind::Bulk => p.body < 16,
        }));
    }
}
