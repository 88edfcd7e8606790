//! The traced run: the same serving loop at one event per epoch, with
//! every call into a layer's public functions timed from here, and the
//! partition admission ladder replayed in shadow on copies of each
//! offered partition's pre-event state.

use crate::serve::{self, micros, outcome_class, Run};
use crate::workload::{ratio, Tally, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tagio_core::event::SystemEvent;
use tagio_core::job::JobSet;
use tagio_core::schedule::Schedule;
use tagio_core::task::{DeviceId, IoTask, TaskSet};
use tagio_online::fleet::{FleetConfig, FleetScheduler};
use tagio_online::scenario::FleetScenario;
use tagio_online::wal::parse_wal;
use tagio_online::{FleetSnapshot, OnlineStats};
use tagio_sched::heuristic::{repair_neighbourhood_in, RepairScratch, SlotPolicy, StaticScheduler};
use tagio_sched::{AnalysisCache, FpsOffline, Scheduler};

/// Span durations (µs) and counters, by layer name, kept in memory.
#[derive(Default)]
struct Recorder {
    spans: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, usize>,
}

impl Recorder {
    fn span(&mut self, name: &'static str, d: Duration) {
        self.spans.entry(name).or_default().push(micros(d));
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.span(name, t.elapsed());
        out
    }

    fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n;
    }

    fn n(&self, name: &str) -> usize {
        self.spans.get(name).map_or(0, Vec::len)
    }

    fn total(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |v| v.iter().sum())
    }

    fn median(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |v| crate::median(v))
    }

    fn counted(&self, name: &str) -> usize {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Outcome classes of a batch-1 `apply_batch`.
const CLASSES: [&str; 8] = [
    "router_reject",
    "gate_reject",
    "integration_reject",
    "admit",
    "depart",
    "spike",
    "death",
    "mode_change",
];

fn event_span(class: &str) -> &'static str {
    match class {
        "router_reject" => "service.event_us.router_reject",
        "gate_reject" => "service.event_us.gate_reject",
        "integration_reject" => "service.event_us.integration_reject",
        "admit" => "service.event_us.admit",
        "depart" => "service.event_us.depart",
        "spike" => "service.event_us.spike",
        "death" => "service.event_us.death",
        _ => "service.event_us.mode_change",
    }
}

/// A partition's state just before an event, copied from its public
/// observation surface.
struct PartitionCopy {
    device: DeviceId,
    tasks: TaskSet,
    schedule: Schedule,
    cache: AnalysisCache,
    arrivals: usize,
    admitted: usize,
    fast_rejects: usize,
}

impl PartitionCopy {
    fn all(fleet: &FleetScheduler) -> Vec<PartitionCopy> {
        fleet
            .partitions()
            .iter()
            .map(|p| PartitionCopy {
                device: p.device(),
                tasks: p.tasks().clone(),
                schedule: p.schedule().clone(),
                cache: p.cache().clone(),
                arrivals: p.stats().arrivals,
                admitted: p.stats().admitted,
                fast_rejects: p.stats().fast_rejects,
            })
            .collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Admit,
    Gate,
    Reject,
}

/// The partition's verdict on an offer, read from its counters.
fn fleet_verdict(before: &PartitionCopy, after: &OnlineStats) -> Verdict {
    if after.admitted > before.admitted {
        Verdict::Admit
    } else if after.fast_rejects > before.fast_rejects {
        Verdict::Gate
    } else {
        Verdict::Reject
    }
}

/// Replays a partition's admission pipeline for `task` on a copy of its
/// pre-event state: duplicate check, utilisation gate, cached
/// response-time pre-check, job expansion, then the ladder
/// (neighbourhood repair, full re-synthesis, FPS under the pre-check's
/// guarantee), each tier timed.
fn shadow_offer(rec: &mut Recorder, pre: &PartitionCopy, task: &IoTask) -> Verdict {
    let policy = SlotPolicy::default();
    if pre.tasks.get(task.id()).is_some() {
        return Verdict::Reject;
    }
    if pre.tasks.utilisation() + task.utilisation() > 1.0 + 1e-9 {
        return Verdict::Gate;
    }
    let effective = task.retarget(pre.device);
    let mut candidate = pre.tasks.clone();
    if candidate.push(effective.clone()).is_err() {
        return Verdict::Reject;
    }
    let mut cache = pre.cache.clone();
    cache.invalidate_for_arrival(&effective);
    let (hits, misses) = (cache.hits(), cache.misses());
    let guaranteed = rec.time("cache.schedulable_us", || cache.schedulable(&candidate));
    rec.count("cache.hits", cache.hits() - hits);
    rec.count(
        "cache.lookups",
        cache.hits() + cache.misses() - hits - misses,
    );
    let jobs = rec.time("job.expand_us", || JobSet::expand(&candidate));
    rec.count("job.jobs", jobs.len());
    let (new_h, old_h) = (candidate.hyperperiod(), pre.tasks.hyperperiod());
    let base = if pre.schedule.is_empty() || old_h.is_zero() {
        Schedule::new()
    } else if new_h > old_h {
        pre.schedule.repeat((new_h / old_h) as u32, old_h)
    } else {
        pre.schedule.clone()
    };
    let t = Instant::now();
    let repaired = repair_neighbourhood_in(&jobs, &base, policy, &mut RepairScratch::default());
    if repaired.is_ok() {
        rec.span("repair.neighbourhood_us.ok", t.elapsed());
        return Verdict::Admit;
    }
    rec.span("repair.neighbourhood_us.fail", t.elapsed());
    let t = Instant::now();
    let resynth = StaticScheduler::with_policy(policy).schedule(&jobs);
    if resynth.is_ok() {
        rec.span("heuristic.resynth_us.ok", t.elapsed());
        return Verdict::Admit;
    }
    rec.span("heuristic.resynth_us.fail", t.elapsed());
    if !guaranteed {
        return Verdict::Reject;
    }
    let fps = rec.time("fps.offline_us", || FpsOffline::new().schedule(&jobs));
    if fps.is_ok() {
        rec.count("fps.ok", 1);
        Verdict::Admit
    } else {
        Verdict::Reject
    }
}

/// Totals of a traced run, beyond the recorder's spans.
#[derive(Default)]
pub struct Traced {
    rec: Recorder,
    tally: Tally,
    pub events: usize,
    pub errors: usize,
    violations: usize,
    wall_traced: Duration,
    wall_untraced: Duration,
    wal_bytes: usize,
    snapshot_bytes: Vec<f64>,
    wal_parse_per_epoch: Vec<f64>,
    retries: usize,
    retry_admissions: usize,
    rehomed: usize,
    lost: usize,
    shadow_offers: usize,
    shadow_skipped: usize,
    shadow_mismatch: usize,
}

impl Traced {
    /// Serves one scenario untraced and then traced, at one event per
    /// epoch, and checks that both made the same decisions.
    pub fn scenario(&mut self, scenario: &FleetScenario, config: &FleetConfig) {
        let (fleet, _) = serve::bootstrap(scenario, config);
        let reference = serve::closed_loop(fleet, scenario, 1);
        self.wall_untraced += reference.busy;

        let events: Vec<SystemEvent> = scenario.events.iter().map(|e| e.event.clone()).collect();
        let (fleet, _) = serve::bootstrap(scenario, config);
        let mut spike: BTreeMap<DeviceId, u32> = fleet
            .partitions()
            .iter()
            .map(|p| (p.device(), 100))
            .collect();
        let mut run = Run::new(fleet, &events);
        let started = Instant::now();
        for (i, event) in events.iter().enumerate() {
            let pre =
                matches!(event, SystemEvent::Arrival(_)).then(|| PartitionCopy::all(&run.fleet));
            let (outcomes, [apply, digest, encode]) = run.serve_timed(i, i + 1);
            self.rec.span("fleet.epoch_us", apply);
            self.rec.span("wal.digest_us", digest);
            self.rec.span("wal.encode_us", encode);
            if let Some(outcome) = outcomes.first() {
                self.rec
                    .span(event_span(outcome_class(event, outcome)), apply);
            }
            run.check(i, i + 1, &outcomes);
            let t = Instant::now();
            if run.maybe_snapshot(i + 1) {
                self.rec.span("persist.snapshot_write_us", t.elapsed());
            }
            if let (Some(pre), SystemEvent::Arrival(task)) = (pre, event) {
                self.shadow(&run.fleet, &pre, task, &spike);
            }
            match event {
                SystemEvent::UtilisationSpike { device, percent } => {
                    spike.entry(*device).and_modify(|p| *p = (*percent).max(1));
                }
                SystemEvent::PartitionDeath { device } => {
                    spike.entry(*device).and_modify(|p| *p = 100);
                }
                _ => {}
            }
        }
        self.wall_traced += started.elapsed();
        let stats = run.fleet.stats().clone();
        let traced = run.finish(Duration::ZERO);
        if traced.fingerprint != reference.fingerprint {
            self.errors += 1;
        }
        self.errors += traced.errors + reference.errors;
        self.violations += traced.violations;
        self.events += traced.events;
        self.tally.add(&traced.tally);
        self.retries += stats.retries;
        self.retry_admissions += stats.retry_admissions;
        self.rehomed += stats.rehomed;
        self.lost += stats.lost;
        self.wal_bytes += traced.journal.wal.len();
        self.persist(&traced.journal);
    }

    /// Shadows every offer the fleet made for this arrival.
    fn shadow(
        &mut self,
        fleet: &FleetScheduler,
        pre: &[PartitionCopy],
        task: &IoTask,
        spike: &BTreeMap<DeviceId, u32>,
    ) {
        for (copy, p) in pre.iter().zip(fleet.partitions()) {
            if p.stats().arrivals == copy.arrivals {
                continue; // not offered
            }
            self.shadow_offers += 1;
            if spike.get(&copy.device).copied().unwrap_or(100) != 100 {
                // The partition gates and integrates a spike-scaled copy
                // of the task, which it does not expose.
                self.shadow_skipped += 1;
                continue;
            }
            if shadow_offer(&mut self.rec, copy, task) != fleet_verdict(copy, p.stats()) {
                self.shadow_mismatch += 1;
            }
        }
    }

    /// Times the persistence layer on a journal: snapshot parse and
    /// restore, WAL parse, and a verified recovery.
    fn persist(&mut self, journal: &serve::Journal) {
        self.snapshot_bytes.push(journal.snapshot.len() as f64);
        let snapshot = self.rec.time("persist.snapshot_parse_us", || {
            FleetSnapshot::parse(&journal.snapshot)
        });
        let restored = snapshot
            .as_ref()
            .ok()
            .map(|s| self.rec.time("persist.restore_us", || s.restore()));
        let t = Instant::now();
        let wal = parse_wal(&journal.wal);
        let parse = t.elapsed();
        match &wal {
            Ok(contents) if !contents.epochs.is_empty() => self
                .wal_parse_per_epoch
                .push(micros(parse) / contents.epochs.len() as f64),
            _ => self.errors += 1,
        }
        if !matches!(restored, Some(Ok(_))) {
            self.errors += 1;
        }
        let (_, recovered) = serve::recover(journal);
        if !recovered {
            self.errors += 1;
        }
    }

    /// Share of the traced serving time (apply plus journal) spent in
    /// `spans`.
    fn serving_share(&self, spans: &[&str]) -> f64 {
        let serving = self.rec.total("fleet.epoch_us")
            + self.rec.total("wal.digest_us")
            + self.rec.total("wal.encode_us");
        if serving == 0.0 {
            0.0
        } else {
            spans.iter().map(|s| self.rec.total(s)).sum::<f64>() / serving
        }
    }

    /// Share of the traced serving time spent in arrivals that failed
    /// integration.
    pub fn integration_reject_share(&self) -> f64 {
        self.serving_share(&["service.event_us.integration_reject"])
    }

    /// Checks the workload's property on the traced run, including the
    /// timed one for integration-wall.
    pub fn guard(&self, workload: Workload) -> Result<String, String> {
        let line = crate::workload::guard(workload, &self.tally)?;
        if workload == Workload::IntegrationWall {
            let share = self.integration_reject_share();
            if share <= 0.5 {
                return Err(format!(
                    "guard integration-wall failed: failing integrations take {share:.3} of traced serving time"
                ));
            }
            return Ok(format!(
                "{line}; failing integrations take {share:.3} of traced serving time"
            ));
        }
        Ok(line)
    }

    /// Every per-layer metric as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let r = &self.rec;
        let t = &self.tally;
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: &str, value: f64, unit: &'static str| {
            m.push((name.to_owned(), value, unit));
        };
        put("wal.digest_us", r.median("wal.digest_us"), "us");
        put("wal.encode_us", r.median("wal.encode_us"), "us");
        put(
            "wal.bytes_per_event",
            ratio(self.wal_bytes, self.events),
            "B",
        );
        put(
            "wal.parse_us",
            crate::median(&self.wal_parse_per_epoch),
            "us",
        );
        put(
            "persist.snapshot_write_us",
            r.median("persist.snapshot_write_us"),
            "us",
        );
        put(
            "persist.snapshot_parse_us",
            r.median("persist.snapshot_parse_us"),
            "us",
        );
        put("persist.restore_us", r.median("persist.restore_us"), "us");
        put(
            "persist.snapshot_bytes",
            crate::median(&self.snapshot_bytes),
            "B",
        );
        put("fleet.epoch_us", r.median("fleet.epoch_us"), "us");
        put("fleet.retries", self.retries as f64, "count");
        put(
            "fleet.retry_yield",
            ratio(self.retry_admissions, self.retries),
            "ratio",
        );
        put("fleet.rehomed", self.rehomed as f64, "count");
        put("fleet.lost", self.lost as f64, "count");
        put("tenant.router_rejects", t.router_rejects as f64, "count");
        put(
            "wal.time_share",
            self.serving_share(&["wal.digest_us", "wal.encode_us"]),
            "ratio",
        );
        for class in CLASSES {
            let span = event_span(class);
            put(span, r.median(span), "us");
            put(
                &format!("service.events.{class}"),
                r.n(span) as f64,
                "count",
            );
            put(
                &format!("service.time_share.{class}"),
                self.serving_share(&[span]),
                "ratio",
            );
        }
        put("service.offers", t.offers as f64, "count");
        put("service.gate_rejects", t.gate_rejects as f64, "count");
        put(
            "service.integration_rejects",
            t.integration_rejects as f64,
            "count",
        );
        put("service.admits", t.partition_admits as f64, "count");
        put("service.repairs", t.repairs as f64, "count");
        put("service.resyntheses", t.resyntheses as f64, "count");
        put("service.fps_fallbacks", t.fps_fallbacks as f64, "count");
        put("service.shed", t.shed as f64, "count");
        put("service.integration_yield", t.integration_yield(), "ratio");
        put(
            "cache.schedulable_us",
            r.median("cache.schedulable_us"),
            "us",
        );
        put(
            "cache.hit_rate",
            ratio(r.counted("cache.hits"), r.counted("cache.lookups")),
            "ratio",
        );
        put("job.expand_us", r.median("job.expand_us"), "us");
        put(
            "job.jobs_per_offer",
            ratio(r.counted("job.jobs"), r.n("job.expand_us")),
            "count",
        );
        let (ok, fail) = (
            r.n("repair.neighbourhood_us.ok"),
            r.n("repair.neighbourhood_us.fail"),
        );
        put(
            "repair.neighbourhood_us.ok",
            r.median("repair.neighbourhood_us.ok"),
            "us",
        );
        put(
            "repair.neighbourhood_us.fail",
            r.median("repair.neighbourhood_us.fail"),
            "us",
        );
        put("repair.ok_ratio", ratio(ok, ok + fail), "ratio");
        let (ok, fail) = (
            r.n("heuristic.resynth_us.ok"),
            r.n("heuristic.resynth_us.fail"),
        );
        put(
            "heuristic.resynth_us.ok",
            r.median("heuristic.resynth_us.ok"),
            "us",
        );
        put(
            "heuristic.resynth_us.fail",
            r.median("heuristic.resynth_us.fail"),
            "us",
        );
        put("heuristic.ok_ratio", ratio(ok, ok + fail), "ratio");
        put("fps.offline_us", r.median("fps.offline_us"), "us");
        put(
            "fps.ok_ratio",
            ratio(r.counted("fps.ok"), r.n("fps.offline_us")),
            "ratio",
        );
        put("audit.violations", self.violations as f64, "count");
        put("trace.shadow_offers", self.shadow_offers as f64, "count");
        put("trace.shadow_skipped", self.shadow_skipped as f64, "count");
        put(
            "trace.shadow_mismatch",
            self.shadow_mismatch as f64,
            "count",
        );
        let untraced = self.wall_untraced.as_secs_f64();
        let overhead = if untraced > 0.0 {
            self.wall_traced.as_secs_f64() / untraced - 1.0
        } else {
            0.0
        };
        put("trace.overhead_frac", overhead, "ratio");
        put("error_frac", ratio(self.errors, self.events), "ratio");
        m
    }
}
