//! Fleet serving benchmark.
//!
//! Replays seeded `FleetScenario` traffic through the loop a
//! crash-consistent deployment runs (`apply_batch` → `epoch_record` →
//! `append` on a `MemoryWal`, snapshot at the stream's midpoint) and
//! prints one JSON object as its last line of output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quota-flood --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: closed-loop throughput,
//! open-loop arrival latency, recovery, set-up, peak memory and decision
//! quality. `--trace 1` is the separate traced run that reports the
//! per-layer metrics. `--seconds` sizes the run: the work done is a
//! fixed function of it, so both sides of a comparison serve the same
//! scenarios. Every run checks its outputs (one verdict per event, a
//! clean certificate, recovery equal to the live fleet, repeatable
//! decisions) and counts failures in `failed`; a run whose workload
//! lost the property it was chosen for exits with code 3.
//! Workloads: `quota-flood`, `integration-wall`, `mixed-churn`
//! (`workload.rs`).

mod serve;
mod trace;
mod workload;

use serve::{bootstrap, closed_loop, open_loop, recover, OpenStats};
use std::process::ExitCode;
use workload::{guard, ratio, serves_open, Tally, Workload};

/// Events per epoch in the closed loop.
const BATCH: usize = 8;
/// Most events per epoch in the open loop.
const OPEN_CAP: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// One run's result: the metrics, events attempted and failed checks.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: usize,
    failed: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}; {} cores available, fleet pool width {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        workload::POOL_WIDTH
    );
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(report) => {
            print_report(&report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}

/// The end-to-end run. Closed-loop scenarios (each followed by a
/// recovery of its journal) and open-loop scenarios are interleaved, so
/// every metric samples the whole run, not one phase of it.
fn untraced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut errors = 0usize;
    let mut attempted = 0usize;
    let mut setup = Vec::new();

    // Warm-up on scenario 0; its decisions must repeat in the timed pass.
    let (scenario, config) = w.scenario(args.seed, 0);
    let (fleet, _) = bootstrap(&scenario, &config);
    let warm = closed_loop(fleet, &scenario, BATCH);
    let reference = warm.fingerprint;
    errors += warm.errors;
    attempted += warm.events;
    let closed = w.closed_scenarios(args.seconds);
    let open_scenarios = w.open_scenarios(args.seconds, warm.events).min(closed);
    drop(warm);

    let mut tally = Tally::default();
    let (mut events, mut busy) = (0usize, 0.0f64);
    let (mut psi, mut upsilon) = (Vec::new(), Vec::new());
    let mut recover_s = Vec::new();
    let mut open = OpenStats::default();
    let mut opened = 0;
    for i in 0..closed {
        let (scenario, config) = w.scenario(args.seed, i);
        let (fleet, d) = bootstrap(&scenario, &config);
        setup.push(d.as_secs_f64());
        let served = closed_loop(fleet, &scenario, BATCH);
        if i == 0 && served.fingerprint != reference {
            errors += 1;
        }
        errors += served.errors;
        events += served.events;
        busy += served.busy.as_secs_f64();
        tally.add(&served.tally);
        psi.push(served.psi);
        upsilon.push(served.upsilon);
        let (d, recovered) = recover(&served.journal);
        recover_s.push(d.as_secs_f64());
        errors += usize::from(!recovered);
        drop(served);
        if serves_open(i, closed, open_scenarios) {
            let (fleet, d) = bootstrap(&scenario, &config);
            setup.push(d.as_secs_f64());
            let served = open_loop(fleet, &scenario, w.open_rate(), OPEN_CAP, &mut open);
            errors += served.errors;
            attempted += served.events;
            opened += 1;
        }
    }
    attempted += events;

    println!("{}", guard(w, &tally)?);
    let p50 = percentile(&open.latency_us, 0.50);
    let p95 = percentile(&open.latency_us, 0.95);
    let late99 = percentile(&open.lateness_us, 0.99);
    let polluted = late99 > 0.1 * p50;
    println!(
        "closed loop: {closed} scenarios, {events} events, batch {BATCH}; open loop: {opened} scenarios, {} arrivals at {} events/s, cap {OPEN_CAP}",
        open.latency_us.len(),
        w.open_rate()
    );
    println!(
        "open loop: generator lateness p99 {late99:.2} us, max {:.2} us; max backlog {} events; drain p50 {:.1} us{}",
        open.lateness_us.iter().copied().fold(0.0, f64::max),
        open.max_backlog,
        median(&open.drain_us),
        if polluted {
            " (POLLUTED: lateness exceeds 10% of p50 latency)"
        } else {
            " (ok)"
        }
    );
    let metrics = vec![
        ("events_per_s".to_owned(), events as f64 / busy, "1/s"),
        ("arrival_p50_us".to_owned(), p50, "us"),
        ("arrival_p95_us".to_owned(), p95, "us"),
        ("recover_s".to_owned(), median(&recover_s), "s"),
        ("setup_s".to_owned(), median(&setup), "s"),
        ("peak_rss_mib".to_owned(), peak_rss_mib(), "MiB"),
        (
            "reject_frac".to_owned(),
            1.0 - ratio(tally.admitted, tally.arrivals),
            "ratio",
        ),
        ("mean_psi".to_owned(), mean(&psi), "ratio"),
        ("mean_upsilon".to_owned(), mean(&upsilon), "ratio"),
    ];
    Ok(Report {
        metrics,
        attempted,
        failed: errors,
    })
}

/// The traced run: per-layer spans and counters.
fn traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let mut t = trace::Traced::default();
    for i in 0..w.trace_scenarios(args.seconds) {
        let (scenario, config) = w.scenario(args.seed, i);
        t.scenario(&scenario, &config);
    }
    println!("{}", t.guard(w)?);
    Ok(Report {
        metrics: t.metrics(),
        attempted: t.events,
        failed: t.errors,
    })
}

fn print_report(r: &Report) {
    for (name, value, unit) in &r.metrics {
        println!("{name:40} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`0.0` for no samples).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
