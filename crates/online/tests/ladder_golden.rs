//! Golden master of the repair ladder's verdicts and diagnostics, bit for
//! bit, over a fixed seeded corpus: near-full partitions and arrivals
//! (base utilisation 0.90, no departures or spikes: the shape where most
//! gate-passing offers fail every tier), and default churn traffic
//! collapsed onto one large partition.
//!
//! For every gate-passing offer of an arrival to a partition it records:
//!
//! * plain repair with the newcomer's jobs disturbed (`repair_in`),
//! * neighbourhood repair (`repair_neighbourhood_in`),
//! * full Algorithm 1 re-synthesis (`StaticScheduler::schedule`),
//! * the ladder under an iteration budget of 1, which surfaces the
//!   neighbourhood diagnostic instead of re-synthesising,
//! * the unbudgeted ladder the online service runs;
//!
//! and, replaying each scenario through a fleet one event per epoch,
//! every online verdict with its reject diagnostic. A failure is
//! `(cause, jobs, best_psi bits, best_upsilon bits)`; a success is the
//! schedule's length and an FNV-1a fingerprint of its entries.
//!
//! Regenerate deliberately (a diagnostic change must be versioned, never
//! a side effect) with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p tagio-online --test ladder_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use tagio_core::event::SystemEvent;
use tagio_core::job::{JobId, JobSet};
use tagio_core::schedule::Schedule;
use tagio_core::solve::{Infeasible, SolverCtx};
use tagio_core::task::TaskSet;
use tagio_online::fleet::{FleetConfig, FleetScheduler};
use tagio_online::scenario::{FleetScenario, FleetScenarioConfig};
use tagio_online::service::{EventOutcome, RejectReason};
use tagio_online::OnlineScheduler;
use tagio_sched::heuristic::{
    repair_in, repair_neighbourhood_in, repair_or_resynthesize_in, RepairScratch, SlotPolicy,
    StaticScheduler,
};
use tagio_sched::Scheduler;

const SEEDS: [u64; 3] = [11, 12, 13];
const PARTITIONS: u32 = 2;
const ARRIVALS: usize = 8;
const COLLAPSED_SEED: u64 = 2_020_551_681;

/// The near-full corpus: two partitions at 0.90, arrivals only.
fn near_full(seed: u64) -> FleetScenario {
    let config = FleetScenarioConfig::builder()
        .partitions(PARTITIONS)
        .arrivals(ARRIVALS)
        .base_utilisation(0.90)
        .departure_permille(0)
        .spike_every(0)
        .mode_change(false)
        .seed(seed)
        .build()
        .expect("valid corpus config");
    FleetScenario::generate(&config)
}

/// Default churn traffic (departures, spikes, a mode change) over four
/// bases collapsed onto one partition: a large live set, where
/// neighbourhood escalation past round 0 decides some integrations.
fn collapsed(seed: u64) -> FleetScenario {
    let config = FleetScenarioConfig::builder()
        .partitions(4)
        .arrivals(16)
        .seed(seed)
        .build()
        .expect("valid corpus config");
    FleetScenario::generate(&config).collapsed()
}

fn fingerprint(schedule: &Schedule) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for e in schedule {
        for word in [
            u64::from(e.job.task.0),
            u64::from(e.job.index),
            e.start.as_micros(),
            e.duration.as_micros(),
        ] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    format!("ok {} {h:016x}", schedule.len())
}

fn diagnostic(d: &Infeasible) -> String {
    let mut out = format!("err {}", d.cause);
    for j in &d.jobs {
        let _ = write!(out, " {}.{}", j.task.0, j.index);
    }
    let bits =
        |v: Option<f64>| v.map_or_else(|| "-".to_string(), |x| format!("{:016x}", x.to_bits()));
    let _ = write!(
        out,
        " psi {} ups {}",
        bits(d.best_psi),
        bits(d.best_upsilon)
    );
    out
}

fn verdict(result: Result<&Schedule, &Infeasible>) -> String {
    match result {
        Ok(s) => fingerprint(s),
        Err(d) => diagnostic(d),
    }
}

/// The ladder tiers on one offer of `arrival` to the partition `svc`.
fn offer_lines(
    out: &mut String,
    svc: &OnlineScheduler,
    arrival: &tagio_core::task::IoTask,
    scratch: &mut RepairScratch,
) {
    let policy = SlotPolicy::default();
    let pre: &TaskSet = svc.tasks();
    if pre.get(arrival.id()).is_some() || pre.utilisation() + arrival.utilisation() > 1.0 + 1e-9 {
        return;
    }
    let effective = arrival.retarget(svc.device());
    let mut candidate = pre.clone();
    if candidate.push(effective).is_err() {
        return;
    }
    let jobs = JobSet::expand(&candidate);
    let (new_h, old_h) = (candidate.hyperperiod(), pre.hyperperiod());
    let live = svc.schedule();
    let base = if live.is_empty() || old_h.is_zero() {
        Schedule::new()
    } else if new_h > old_h {
        live.repeat((new_h / old_h) as u32, old_h)
    } else {
        live.clone()
    };
    let disturbed: Vec<JobId> = jobs
        .iter()
        .map(tagio_core::job::Job::id)
        .filter(|id| id.task == arrival.id())
        .collect();
    let _ = writeln!(out, "offer task {} to {}", arrival.id().0, svc.device().0);
    let plain = repair_in(&jobs, &base, &disturbed, policy, scratch);
    let _ = writeln!(out, "  plain   {}", verdict(plain.as_ref().map(|(s, _)| s)));
    let nbhd = repair_neighbourhood_in(&jobs, &base, policy, scratch);
    let _ = writeln!(out, "  nbhd    {}", verdict(nbhd.as_ref().map(|(s, _)| s)));
    let resynth = StaticScheduler::with_policy(policy).schedule(&jobs);
    let _ = writeln!(out, "  static  {}", verdict(resynth.as_ref()));
    let ctx = SolverCtx::new().with_iteration_budget(1);
    let budget1 = repair_or_resynthesize_in(&jobs, &base, &[], policy, &ctx, scratch);
    let _ = writeln!(
        out,
        "  budget1 {}",
        verdict(budget1.as_ref().map(|o| &o.schedule))
    );
    let full = repair_or_resynthesize_in(&jobs, &base, &[], policy, &SolverCtx::new(), scratch);
    let _ = writeln!(
        out,
        "  ladder  {}",
        verdict(full.as_ref().map(|o| &o.schedule))
    );
}

fn outcome_line(outcome: &EventOutcome) -> String {
    match outcome {
        EventOutcome::Admitted {
            task,
            replaced,
            resynthesized,
            ..
        } => format!(
            "admit {} replaced {replaced} resynth {resynthesized}",
            task.0
        ),
        EventOutcome::Rejected { task, reason } => match reason {
            RejectReason::Infeasible(d) => format!("reject {} {}", task.0, diagnostic(d)),
            other => format!("reject {} {other:?}", task.0),
        },
        other => format!("{other:?}"),
    }
}

fn corpus() -> String {
    let mut out = String::new();
    let mut scratch = RepairScratch::default();
    let corpus = SEEDS
        .iter()
        .map(|&seed| (format!("near-full seed {seed}"), near_full(seed)))
        .chain(std::iter::once((
            format!("collapsed seed {COLLAPSED_SEED}"),
            collapsed(COLLAPSED_SEED),
        )));
    for (label, sc) in corpus {
        let _ = writeln!(out, "# {label}");
        // A base no method can schedule (the collapsed corpus overloads
        // one device) has no live schedule to offer to.
        let partitions: Vec<OnlineScheduler> = sc
            .bases
            .iter()
            .filter_map(|(&device, base)| OnlineScheduler::bootstrap(device, base.clone()).ok())
            .collect();
        for timed in &sc.events {
            if let SystemEvent::Arrival(task) = &timed.event {
                for svc in &partitions {
                    offer_lines(&mut out, svc, task, &mut scratch);
                }
            }
        }
        let mut fleet = FleetScheduler::bootstrap(
            &sc.bases,
            FleetConfig {
                threads: 1,
                ..FleetConfig::default()
            },
        );
        for timed in &sc.events {
            for o in fleet.apply_batch(std::slice::from_ref(&timed.event)) {
                let _ = writeln!(out, "event {}", outcome_line(&o.outcome));
            }
        }
    }
    out
}

#[test]
fn ladder_diagnostics_match_golden() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ladder_diagnostics.txt");
    let fresh = corpus();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if fresh != golden {
        let first = fresh
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.lines().count().min(golden.lines().count()));
        panic!(
            "ladder diagnostics drifted from the golden at line {}:\n  fresh:  {:?}\n  golden: {:?}",
            first + 1,
            fresh.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
