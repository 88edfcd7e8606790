//! The serving loop a crash-consistent deployment runs:
//! `apply_batch` → `epoch_record` → `WalSink::append`, with a snapshot
//! at the stream's midpoint, driven closed-loop or open-loop, plus the
//! recovery and output checks.

use crate::workload::Tally;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::{Duration, Instant};
use tagio_audit::ScheduleCertificate;
use tagio_core::event::SystemEvent;
use tagio_core::solve::InfeasibleCause;
use tagio_core::task::DeviceId;
use tagio_online::fleet::{FleetConfig, FleetOutcome, FleetScheduler, FleetStats};
use tagio_online::persist::{schedule_digest, stats_digest};
use tagio_online::scenario::FleetScenario;
use tagio_online::wal::parse_wal;
use tagio_online::{EventOutcome, FleetSnapshot, MemoryWal, OnlineStats, RejectReason, WalSink};

/// The state a recovery must reproduce: fleet counters plus every
/// partition's schedule and stats digests.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveState {
    stats: FleetStats,
    digests: Vec<(DeviceId, u64, u64)>,
}

impl LiveState {
    fn of(fleet: &FleetScheduler) -> LiveState {
        LiveState {
            stats: fleet.stats().clone(),
            digests: fleet
                .partitions()
                .iter()
                .map(|p| {
                    (
                        p.device(),
                        schedule_digest(p.schedule()),
                        stats_digest(p.stats()),
                    )
                })
                .collect(),
        }
    }
}

/// A served stream's journal: the midpoint snapshot text, the WAL text,
/// and the live state they must recover to.
pub struct Journal {
    pub snapshot: String,
    pub wal: String,
    pub live: LiveState,
}

/// What one served scenario produced.
pub struct Served {
    pub events: usize,
    /// Time spent deciding and journaling (the snapshot is excluded).
    pub busy: Duration,
    pub fingerprint: u64,
    /// Events without exactly one fitting verdict, plus certificate
    /// violations.
    pub errors: usize,
    pub violations: usize,
    pub tally: Tally,
    pub psi: f64,
    pub upsilon: f64,
    pub journal: Journal,
}

/// Serves `scenario` on `fleet` in fixed batches of `batch` events, as
/// fast as the fleet answers (closed loop).
pub fn closed_loop(fleet: FleetScheduler, scenario: &FleetScenario, batch: usize) -> Served {
    let events: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
    let mut run = Run::new(fleet, &events);
    let mut busy = Duration::ZERO;
    for start in (0..events.len()).step_by(batch) {
        let end = (start + batch).min(events.len());
        let t = Instant::now();
        let outcomes = run.serve(start, end);
        busy += t.elapsed();
        run.check(start, end, &outcomes);
        run.maybe_snapshot(end);
    }
    run.finish(busy)
}

/// Open-loop delivery statistics.
#[derive(Default)]
pub struct OpenStats {
    /// Arrival latencies, due time to journaled epoch, in microseconds.
    pub latency_us: Vec<f64>,
    /// How late the load generator picked an event up after idling until
    /// its due instant, in microseconds.
    pub lateness_us: Vec<f64>,
    /// Most events that were due but not yet served at one pickup.
    pub max_backlog: usize,
    /// Time from the last due instant to the end of its epoch, per
    /// scenario, in microseconds (a growing backlog shows here).
    pub drain_us: Vec<f64>,
}

/// Serves `scenario` open-loop: event `i` is due `i / rate` seconds after
/// the start; the load generator spin-waits on due instants and serves
/// everything already due, up to `cap` events per epoch.
pub fn open_loop(
    fleet: FleetScheduler,
    scenario: &FleetScenario,
    rate: f64,
    cap: usize,
    stats: &mut OpenStats,
) -> Served {
    let events: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
    let n = events.len();
    let mut run = Run::new(fleet, &events);
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut busy = Duration::ZERO;
    let mut next = 0;
    while next < n {
        let first_due = due(next);
        let mut now = Instant::now();
        if now < first_due {
            while now < first_due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            stats.lateness_us.push(micros(now - first_due));
        }
        let mut backlog = 1;
        while next + backlog < n && due(next + backlog) <= now {
            backlog += 1;
        }
        stats.max_backlog = stats.max_backlog.max(backlog);
        let end = next + backlog.min(cap);
        let t = Instant::now();
        let outcomes = run.serve(next, end);
        let done = Instant::now();
        busy += done - t;
        for (i, event) in events.iter().enumerate().take(end).skip(next) {
            if matches!(event, SystemEvent::Arrival(_)) {
                stats.latency_us.push(micros(done - due(i)));
            }
        }
        if end == n {
            stats.drain_us.push(micros(done - due(n - 1)));
        }
        run.check(next, end, &outcomes);
        next = end;
    }
    run.finish(busy)
}

/// One served stream: the fleet, its journal and the running checks.
pub struct Run<'a> {
    pub fleet: FleetScheduler,
    events: &'a [SystemEvent],
    wal: MemoryWal,
    snapshot: Option<String>,
    hasher: DefaultHasher,
    errors: usize,
    tally: Tally,
    /// Sums of the fleet's mean Ψ and Υ after each epoch.
    quality: (f64, f64),
    epochs: usize,
    /// The partitions' counters before the first event.
    base: OnlineStats,
}

impl<'a> Run<'a> {
    pub fn new(fleet: FleetScheduler, events: &'a [SystemEvent]) -> Run<'a> {
        Run {
            base: fleet.aggregate_stats(),
            fleet,
            events,
            wal: MemoryWal::new(),
            snapshot: None,
            hasher: DefaultHasher::new(),
            errors: 0,
            tally: Tally::default(),
            quality: (0.0, 0.0),
            epochs: 0,
        }
    }

    /// Decides and journals `events[start..end]` as one epoch. The
    /// end-to-end loops call this one: it takes no timestamps.
    fn serve(&mut self, start: usize, end: usize) -> Vec<FleetOutcome> {
        let batch = &self.events[start..end];
        let outcomes = self.fleet.apply_batch(batch);
        let record = self.fleet.epoch_record(batch);
        if self.wal.append(&record).is_err() {
            self.errors += batch.len();
        }
        outcomes
    }

    /// [`Run::serve`], also returning how long `apply_batch`,
    /// `epoch_record` and `append` each took.
    pub fn serve_timed(&mut self, start: usize, end: usize) -> (Vec<FleetOutcome>, [Duration; 3]) {
        let batch = &self.events[start..end];
        let t0 = Instant::now();
        let outcomes = self.fleet.apply_batch(batch);
        let t1 = Instant::now();
        let record = self.fleet.epoch_record(batch);
        let t2 = Instant::now();
        if self.wal.append(&record).is_err() {
            self.errors += batch.len();
        }
        let t3 = Instant::now();
        (outcomes, [t1 - t0, t2 - t1, t3 - t2])
    }

    pub fn check(&mut self, start: usize, end: usize, outcomes: &[FleetOutcome]) {
        let batch = &self.events[start..end];
        self.errors += verdict_errors(batch, outcomes);
        for (event, outcome) in batch.iter().zip(outcomes) {
            fingerprint_outcome(&mut self.hasher, outcome);
            tally_outcome(&mut self.tally, event, outcome);
        }
        self.quality.0 += self.fleet.mean_psi();
        self.quality.1 += self.fleet.mean_upsilon();
        self.epochs += 1;
    }

    /// Takes the snapshot once the epoch ending at `end` crosses the
    /// stream's midpoint.
    pub fn maybe_snapshot(&mut self, end: usize) -> bool {
        if self.snapshot.is_none() && 2 * end >= self.events.len() {
            self.snapshot = Some(self.fleet.snapshot().write());
            return true;
        }
        false
    }

    pub fn finish(mut self, busy: Duration) -> Served {
        let certificate = ScheduleCertificate::certify(&self.fleet);
        let violations = certificate.report.violations.len();
        let live = LiveState::of(&self.fleet);
        fingerprint_state(&mut self.hasher, &live);
        let mut tally = self.tally;
        partition_tally(&mut tally, &self.fleet, &self.base);
        let snapshot = self
            .snapshot
            .take()
            .unwrap_or_else(|| self.fleet.snapshot().write());
        Served {
            events: self.events.len(),
            busy,
            fingerprint: self.hasher.finish(),
            errors: self.errors + violations,
            violations,
            tally,
            psi: self.quality.0 / self.epochs.max(1) as f64,
            upsilon: self.quality.1 / self.epochs.max(1) as f64,
            journal: Journal {
                snapshot,
                wal: self.wal.text().to_owned(),
                live,
            },
        }
    }
}

/// Parses the journal, recovers the fleet from it and verifies the
/// result against the live state. Returns the elapsed time and whether
/// the recovered fleet matched.
pub fn recover(journal: &Journal) -> (Duration, bool) {
    let t = Instant::now();
    let ok = (|| {
        let snapshot = FleetSnapshot::parse(&journal.snapshot).ok()?;
        let wal = parse_wal(&journal.wal).ok()?;
        let (fleet, _) = FleetScheduler::recover(&snapshot, &wal).ok()?;
        Some(LiveState::of(&fleet) == journal.live)
    })()
    .unwrap_or(false);
    (t.elapsed(), ok)
}

/// Bootstraps the fleet for `scenario`, returning it with the time taken.
pub fn bootstrap(scenario: &FleetScenario, config: &FleetConfig) -> (FleetScheduler, Duration) {
    let t = Instant::now();
    let fleet = FleetScheduler::bootstrap(&scenario.bases, config.clone());
    (fleet, t.elapsed())
}

/// Events of `batch` whose verdict is missing, extra, or of the wrong
/// kind for the event.
pub fn verdict_errors(batch: &[SystemEvent], outcomes: &[FleetOutcome]) -> usize {
    if batch.len() != outcomes.len() {
        return batch.len().max(outcomes.len());
    }
    batch
        .iter()
        .zip(outcomes)
        .filter(|(e, o)| !verdict_fits(e, &o.outcome))
        .count()
}

fn verdict_fits(event: &SystemEvent, outcome: &EventOutcome) -> bool {
    use EventOutcome as O;
    match event {
        SystemEvent::Arrival(_) => matches!(outcome, O::Admitted { .. } | O::Rejected { .. }),
        SystemEvent::Departure(_) => matches!(outcome, O::Departed { .. } | O::Ignored { .. }),
        SystemEvent::ModeChange(_) => matches!(outcome, O::ModeChanged { .. }),
        SystemEvent::UtilisationSpike { .. } => {
            matches!(outcome, O::SpikeApplied { .. } | O::Ignored { .. })
        }
        SystemEvent::PartitionDeath { .. } => {
            matches!(outcome, O::PartitionDied { .. } | O::Ignored { .. })
        }
    }
}

/// The outcome class of one verdict, as the traced run reports it.
pub fn outcome_class(event: &SystemEvent, outcome: &FleetOutcome) -> &'static str {
    match (&outcome.outcome, event) {
        (EventOutcome::Admitted { .. }, _) => "admit",
        (EventOutcome::Rejected { .. }, _) if outcome.partition.is_none() => "router_reject",
        (EventOutcome::Rejected { reason, .. }, _) => match reason.diagnostic() {
            Some(d) if d.cause != InfeasibleCause::UtilisationOverload => "integration_reject",
            _ => "gate_reject",
        },
        (_, SystemEvent::Departure(_)) => "depart",
        (_, SystemEvent::UtilisationSpike { .. }) => "spike",
        (_, SystemEvent::PartitionDeath { .. }) => "death",
        (_, SystemEvent::ModeChange(_)) => "mode_change",
        (_, SystemEvent::Arrival(_)) => "gate_reject",
    }
}

pub fn tally_outcome(t: &mut Tally, event: &SystemEvent, outcome: &FleetOutcome) {
    match &outcome.outcome {
        EventOutcome::Admitted { .. } => {
            t.arrivals += 1;
            t.admitted += 1;
        }
        EventOutcome::Rejected { .. } => {
            t.arrivals += 1;
            if outcome.partition.is_none() {
                t.router_rejects += 1;
            }
        }
        EventOutcome::Departed { .. } => t.departures += 1,
        EventOutcome::SpikeApplied { .. } => t.spikes += 1,
        EventOutcome::PartitionDied { .. } => t.deaths += 1,
        EventOutcome::ModeChanged { .. } => t.mode_changes += 1,
        EventOutcome::Ignored { .. } => {
            if matches!(event, SystemEvent::Departure(_)) {
                t.departures += 1;
            }
        }
    }
}

/// Folds the partitions' decision counters into `t`, net of `base` (the
/// counters right after bootstrap, which offers base tasks one by one
/// when a base set does not synthesise wholesale).
fn partition_tally(t: &mut Tally, fleet: &FleetScheduler, base: &OnlineStats) {
    let now = fleet.aggregate_stats();
    let integration = |s: &OnlineStats| -> usize {
        s.reject_causes
            .iter()
            .filter(|(c, _)| **c != InfeasibleCause::UtilisationOverload)
            .map(|(_, n)| n)
            .sum()
    };
    t.offers += now.arrivals - base.arrivals;
    t.gate_rejects += now.fast_rejects - base.fast_rejects;
    t.integration_rejects += integration(&now) - integration(base);
    t.partition_admits += now.admitted - base.admitted;
    t.repairs += now.repairs - base.repairs;
    t.resyntheses += now.resyntheses - base.resyntheses;
    t.fps_fallbacks += now.fps_fallbacks - base.fps_fallbacks;
    t.shed += now.shed - base.shed;
}

fn fingerprint_outcome(h: &mut DefaultHasher, o: &FleetOutcome) {
    h.write_u32(o.partition.map_or(u32::MAX, |d| d.0));
    h.write_u32(o.attempts);
    match &o.outcome {
        EventOutcome::Admitted {
            task,
            replaced,
            resynthesized,
            ..
        } => {
            h.write_u8(0);
            h.write_u32(task.0);
            h.write_usize(*replaced);
            h.write_u8(u8::from(*resynthesized));
        }
        EventOutcome::Rejected { task, reason } => {
            h.write_u8(1);
            h.write_u32(task.0);
            match reason {
                RejectReason::Infeasible(d) => h.write(d.cause.as_str().as_bytes()),
                RejectReason::DuplicateTask => h.write_u8(2),
                RejectReason::InvalidUnderLoad => h.write_u8(3),
            }
        }
        EventOutcome::Departed { task } => {
            h.write_u8(2);
            h.write_u32(task.0);
        }
        EventOutcome::ModeChanged {
            admitted,
            rejected,
            departed,
            ..
        } => {
            h.write_u8(3);
            for ids in [admitted, rejected, departed] {
                h.write_usize(ids.len());
                ids.iter().for_each(|id| h.write_u32(id.0));
            }
        }
        EventOutcome::SpikeApplied { percent, shed } => {
            h.write_u8(4);
            h.write_u32(*percent);
            shed.iter().for_each(|id| h.write_u32(id.0));
        }
        EventOutcome::PartitionDied { rehomed, lost, .. } => {
            h.write_u8(5);
            for (id, d) in rehomed {
                h.write_u32(id.0);
                h.write_u32(d.0);
            }
            lost.iter().for_each(|(id, _)| h.write_u32(id.0));
        }
        EventOutcome::Ignored { reason } => {
            h.write_u8(6);
            h.write(reason.as_bytes());
        }
    }
}

fn fingerprint_state(h: &mut DefaultHasher, live: &LiveState) {
    for &(d, schedule, stats) in &live.digests {
        h.write_u32(d.0);
        h.write_u64(schedule);
        h.write_u64(stats);
    }
    let s = &live.stats;
    for v in [
        s.epochs,
        s.events,
        s.arrivals,
        s.admitted,
        s.rejected,
        s.retries,
        s.retry_admissions,
        s.rehomed,
        s.lost,
    ] {
        h.write_usize(v);
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
